"""Sturm-Liouville eigenbasis on (0, L) and L2 projection machinery.

The unit-diffusion eigenvalue problem

    phi'' + lambda * phi = 0,    phi'(0) = 0,
    gamma1 * phi(L) + gamma2 * phi'(L) = 0,

has eigenfunctions phi_n(x) = c_n cos(s_n x) with s_n the n-th nonnegative
root of the characteristic function

    chi(s) = gamma1 * cos(sL) - gamma2 * s * sin(sL),

and c_n chosen so that each phi_n has unit L2(0, L) norm.  The eigenvalues
lambda_n = s_n**2 form a strictly increasing nonnegative sequence; lambda=0
occurs only in the pure Neumann case gamma1 = 0, with phi = 1/sqrt(L).

Dirichlet (gamma2 = 0) and pure Neumann (gamma1 = 0) roots have closed
forms, s_k = (k + 1/2) pi / L and k pi / L, k = 0, 1, ...  They are computed
for all modes at once and correctly rounded: pi as a double-double, the
product with the exact numerator error-free (Veltkamp/Dekker splitting), and
one remainder correction for the division by L, whose power of two is split
off first so that no intermediate overflows or underflows (Dekker, "A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971).  Their norms are exact: ||cos(s_k x)||^2 = L/2, and L for
the constant Neumann mode.

Robin roots (gamma1 * gamma2 != 0) interlace the grid k*pi/L (chi alternates
sign there, since chi(k*pi/L) = gamma1 * (-1)**k), so bisection on those
brackets isolates one root each; a couple of guarded Newton steps then
polish to machine accuracy.

A length L so small that some lambda_n overflows is an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlantInputError, QuadratureNonConvergence, RootBracketingFailure
from .model import ShapeFunction

_BOUNDARY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SpectralBasis:
    """First `size` eigenpairs of the unit-diffusion problem on (0, L)."""

    L: float
    gamma1: float
    gamma2: float
    s: np.ndarray    # nonnegative frequencies, strictly increasing
    lam: np.ndarray  # eigenvalues lambda_n = s_n**2
    c: np.ndarray    # positive normalizers, ||c cos(s x)||_{L2} = 1

    def __post_init__(self):
        for arr in (self.s, self.lam, self.c):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.s)

    def phi(self, n: int, x):
        """Evaluate phi_n (1-based mode index) at scalar or array x."""
        return self.c[n - 1] * np.cos(self.s[n - 1] * np.asarray(x, dtype=float))

    def phi_prime(self, n: int, x):
        sn = self.s[n - 1]
        return -self.c[n - 1] * sn * np.sin(sn * np.asarray(x, dtype=float))


def _characteristic(gamma1: float, gamma2: float, L: float):
    def chi(s):
        return gamma1 * math.cos(s * L) - gamma2 * s * math.sin(s * L)

    def chi_prime(s):
        return -gamma1 * L * math.sin(s * L) - gamma2 * (
            math.sin(s * L) + s * L * math.cos(s * L)
        )

    return chi, chi_prime


# Enough halvings to shrink any bracket of doubles, from 2**1024 wide, to
# the width test at the smallest normal double.
_MAX_HALVINGS = 2100


def _refine_root(chi, chi_prime, a: float, b: float, positive_at_a: bool) -> float:
    """Bisect chi on [a, b], whose sign at a is given, then Newton-polish.

    chi changes sign exactly once on the bracket.  Its sign at a is passed
    in, not evaluated: near a grid point k pi / L, chi(a) is mostly
    rounding error once L is small.
    """
    lo, hi = a, b
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            break
        fm = chi(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) != positive_at_a:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    # Newton steps stay inside the bracket or are discarded.
    for _ in range(3):
        d = chi_prime(s)
        if d == 0.0:
            break
        step = chi(s) / d
        candidate = s - step
        if lo <= candidate <= hi:
            s = candidate
        else:
            break
    return s


# pi = math.pi + _PI_LO to about 107 bits; _PI_LO == float(pi - math.pi).
_PI_LO = 1.2246467991473532e-16
_SPLITTER = 134217729.0  # 2**27 + 1


def _two_prod(a, b):
    """Dekker's product: (p, e) with p = fl(a * b) and p + e = a * b exactly."""
    p = a * b
    ta = _SPLITTER * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = _SPLITTER * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _grid_roots(num: np.ndarray, L: float) -> np.ndarray:
    """num * pi / L, correctly rounded, for exact numerators num >= 0.

    With L = m * 2**e and m in [0.5, 1), q = num * pi / m is formed from the
    error-free product num * math.pi plus num * _PI_LO, and one remainder
    step corrects the quotient; the power of two is applied last.
    """
    m, e = math.frexp(L)
    p, p_err = _two_prod(num, math.pi)
    q = p / m
    h, h_err = _two_prod(q, m)
    q = q + (((p - h) - h_err) + (p_err + num * _PI_LO)) / m
    return np.ldexp(q, -e)


def _eigenvalue_overflow(L: float, count: int) -> PlantInputError:
    return PlantInputError(
        f"domain length L={L!r} is too small for {count} modes: "
        f"the eigenvalues lambda_n = s_n**2 overflow"
    )


def build_basis(L: float, gamma1: float, gamma2: float, count: int) -> SpectralBasis:
    """Return the first `count` eigenpairs, eigenfunctions normalized in L2.

    Raises PlantInputError when some s_n or lambda_n is not finite.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if gamma1 == 0.0 and gamma2 == 0.0:
        raise ValueError("gamma1 and gamma2 cannot both vanish")
    if not L > 0.0:
        raise ValueError("L must be positive")

    closed_form = gamma1 == 0.0 or gamma2 == 0.0
    with np.errstate(over="ignore"):
        if closed_form:
            # Neumann roots sit on the grid k pi / L, Dirichlet roots halfway.
            offset = 0.5 if gamma2 == 0.0 else 0.0
            s = _grid_roots(np.arange(count) + offset, L)
        else:
            # The last root exceeds (count - 1) pi / L; past overflow the
            # brackets lose their sign change to rounding.
            s_low = (count - 1) * math.pi / L
            if not math.isfinite(s_low * s_low):
                raise _eigenvalue_overflow(L, count)
            chi, chi_prime = _characteristic(gamma1, gamma2, L)
            s = np.empty(count)
            for k in range(count):
                # chi(k pi / L) = gamma1 * (-1)**k exactly.
                s[k] = _refine_root(chi, chi_prime, k * math.pi / L, (k + 1) * math.pi / L,
                                    (gamma1 > 0.0) == (k % 2 == 0))
        lam = s * s
    if not (np.isfinite(s).all() and np.isfinite(lam).all()):
        raise _eigenvalue_overflow(L, count)

    if closed_form:
        # sin(2 s_n L) = 0 exactly, so ||cos(s_n x)||^2 = L/2, and L for the
        # constant Neumann mode.
        c = np.full(count, 1.0 / math.sqrt(L / 2.0))
        if offset == 0.0:
            c[0] = 1.0 / math.sqrt(L)
    else:
        c = np.empty(count)
        for i, si in enumerate(s):
            norm_sq = L / 2.0 + math.sin(2.0 * si * L) / (4.0 * si)
            c[i] = 1.0 / math.sqrt(norm_sq)

    basis = SpectralBasis(L=float(L), gamma1=float(gamma1), gamma2=float(gamma2),
                          s=s, lam=lam, c=c)
    _check_boundary_residuals(basis)
    return basis


def _check_boundary_residuals(basis: SpectralBasis) -> None:
    """Check gamma1 phi_n(L) + gamma2 phi_n'(L) = 0 for every mode at once.

    The residual is judged against the size of its two terms,
    (|gamma1| + |gamma2| s_n) c_n: an accurate root leaves a residual that
    grows with s_n, so an absolute bound rejects valid high modes.
    """
    sL = basis.s * basis.L
    res = np.abs(basis.c * (basis.gamma1 * np.cos(sL)
                            - basis.gamma2 * basis.s * np.sin(sL)))
    scale = (abs(basis.gamma1) + abs(basis.gamma2) * basis.s) * basis.c
    bad = np.flatnonzero(~(res <= _BOUNDARY_RESIDUAL_TOL * scale))  # NaN fails too
    if bad.size:
        n = int(bad[0])
        raise RootBracketingFailure(
            f"eigenfunction {n + 1} violates the x=L boundary condition "
            f"(residual {res[n]:.3e})"
        )


def extend_basis(basis: SpectralBasis, count: int) -> SpectralBasis:
    """Return a basis holding at least `count` eigenpairs."""
    if basis.size >= count:
        return basis
    return build_basis(basis.L, basis.gamma1, basis.gamma2, count)


# ---------------------------------------------------------------------------
# Quadrature
#
# A callable f is projected onto many modes at once by composite 10-point
# Gauss-Lobatto-Legendre quadrature (Trefethen, Spectral Methods in MATLAB,
# ch. 12):
#
# - Panels: the first grid has max(8, int(s_max L / pi) + 1) equal panels,
#   about one per half-period of the fastest requested mode.
# - Error test: each panel's value is compared with the sum over its two
#   halves.  The panel's error is the largest change over the modes and over
#   int f itself; the int f row still sees a jump of f where every phi_n
#   vanishes, such as a Dirichlet end.
# - Acceptance: a panel of width h passes when its error is <= tol * h / L,
#   or when the errors of all open panels together fit in what the accepted
#   panels left of tol.  So `tol` is an absolute error per projection.
# - Refinement: only failing panels are halved, at most _MAX_LEVELS times.
# - The rule is closed (panel ends are nodes).  With an open Gauss rule, a
#   jump between a panel end and the first node changes neither the panel
#   nor its halves, so the error test passes a wrong value.
#
# adaptive_simpson, below, is the scalar rule this replaced; no projection
# calls it.

# The 10-point Gauss-Lobatto-Legendre rule on [-1, 1], written out: computing
# it imports numpy.polynomial and finds the roots, about 4 ms of every start.
# A test checks the digits against that computation.
# They are one string, not float literals, because Hypothesis draws numbers
# from the literals in the package source: new ones would change the
# examples of every property test.
_RULE_NODES, _RULE_WEIGHTS = np.array([float(v) for v in """
    -1.0 -0.9195339081664605 -0.7387738651055052 -0.4779249498104439
    -0.16527895766638742 0.1652789576663872 0.47792494981044475
    0.7387738651055051 0.9195339081664591 1.0
    0.022222222222222185 0.13330599085107028 0.22488934206312652
    0.2920426836796838 0.32753976118389744 0.32753976118389744
    0.2920426836796838 0.22488934206312663 0.1333059908510702
    0.022222222222222185
""".split()]).reshape(2, 10)
_MAX_LEVELS = 48


def _sample(f, x: np.ndarray) -> np.ndarray:
    """f on the 1-D point array x: one call, or pointwise if f is scalar-only."""
    try:
        y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    except (TypeError, ValueError):
        y = np.array([f(float(xi)) for xi in x], dtype=float)
    if not np.all(np.isfinite(y)):
        raise QuadratureNonConvergence("callable returned a non-finite value")
    return y


def _panel_integrals(f, s, c, lo, width: float) -> np.ndarray:
    """Rule values of int f(x) c_k cos(s_k x) dx over [lo_p, lo_p + width].

    Returns shape (len(s), len(lo)).  All panels share one width, so
    cos(s (mid + h t)) splits into per-panel and per-node factors and the
    node sums become two small matrix products.
    """
    half = 0.5 * width
    mid = lo + half
    fw = _sample(f, (mid[:, None] + half * _RULE_NODES).ravel())
    fw = fw.reshape(len(lo), -1) * (half * _RULE_WEIGHTS)
    phase = s[:, None] * (half * _RULE_NODES)
    at_mid = s[:, None] * mid
    return c[:, None] * (np.cos(at_mid) * (np.cos(phase) @ fw.T)
                         - np.sin(at_mid) * (np.sin(phase) @ fw.T))


def project_callable(f, basis: SpectralBasis, modes, tol: float = 1e-10) -> np.ndarray:
    """Projections <f, phi_n> over (0, L) of a callable f, for each n in `modes`.

    f is called once per refinement level on a 1-D array of points; if it
    raises TypeError/ValueError or its result does not broadcast to the
    points, it is called once per point with a float instead.  Raises
    QuadratureNonConvergence on a non-finite sample or after _MAX_LEVELS
    levels of refinement.
    """
    idx = np.asarray(modes, dtype=int).reshape(-1) - 1
    if idx.size == 0 or idx.min() < 0 or idx.max() >= basis.size:
        raise ValueError(f"modes must lie in 1..{basis.size}")
    L = basis.L
    # Row 0 is int f itself (s = 0, c = 1); it only feeds the error test.
    s = np.concatenate([[0.0], basis.s[idx]])
    c = np.concatenate([[1.0], basis.c[idx]])
    count = max(8, int(s.max() * L / math.pi) + 1)
    width = L / count
    lo = width * np.arange(count)
    whole = _panel_integrals(f, s, c, lo, width)
    total = np.zeros(len(s))
    budget = tol
    for _ in range(_MAX_LEVELS + 1):
        width *= 0.5
        halves = _panel_integrals(f, s, c, np.concatenate([lo, lo + width]), width)
        left, right = np.split(halves, 2, axis=1)
        refined = left + right
        err = np.max(np.abs(refined - whole), axis=0)
        ok = (err <= tol * 2.0 * width / L) | (err.sum() <= budget)
        budget -= err[ok].sum()
        total += refined[:, ok].sum(axis=1)
        if ok.all():
            return total[1:]
        fail = ~ok
        lo = np.concatenate([lo[fail], lo[fail] + width])
        whole = np.concatenate([left[:, fail], right[:, fail]], axis=1)
    raise QuadratureNonConvergence(
        f"projection did not reach tol={tol} after {_MAX_LEVELS} levels; "
        f"{len(lo)} panels left near x={lo[0]!r}"
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 48, initial_panels: int = 8) -> float:
    """Adaptive Simpson rule with Richardson correction, absolute tolerance.

    The interval is pre-split into `initial_panels` uniform panels before
    adaptive refinement; the coarse error estimator can otherwise terminate
    spuriously on oscillatory or symmetric integrands.
    """
    if initial_panels < 1:
        initial_panels = 1
    edges = np.linspace(a, b, initial_panels + 1)
    panel_tol = tol / initial_panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_rec(f, lo, hi, fa, fm, fb, whole, panel_tol, max_depth)
    return total


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureNonConvergence(
            f"adaptive Simpson did not reach tol={tol} on ({a}, {b})"
        )
    return (
        _simpson_rec(f, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1)
        + _simpson_rec(f, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    )


# ---------------------------------------------------------------------------
# Projections

# Each closed form is evaluated for an array of modes (s_k, c_k) at once.
# Modes with s_k = 0 (the constant Neumann mode) take their own branch; the
# other branch divides by 1 there instead of 0.

def _indicator_columns(a: np.ndarray, b: np.ndarray, s, c) -> np.ndarray:
    """int_a^b c cos(s x) dx for every mode (rows) and interval (a_j, b_j) (columns)."""
    s, c = s[:, None], c[:, None]
    zero = s == 0.0
    safe = np.where(zero, 1.0, s)
    return np.where(zero, c * (b - a), c * (np.sin(s * b) - np.sin(s * a)) / safe)


def _polynomial_column(coeffs, L: float, s, c) -> np.ndarray:
    """int_0^L p(x) c cos(s x) dx from the moments C_k = int_0^L x^k cos(s x) dx."""
    degree = len(coeffs) - 1
    zero = s == 0.0
    safe = np.where(zero, 1.0, s)
    sinL = np.sin(s * L)
    cosL = np.cos(s * L)
    C = np.empty((len(s), degree + 1))
    C[:, 0] = sinL / safe
    S_prev = (1.0 - cosL) / safe  # S_k = int_0^L x^k sin(s x) dx
    for k in range(1, degree + 1):
        C[:, k] = (L**k) * sinL / safe - k / safe * S_prev
        S_prev = -(L**k) * cosL / safe + k / safe * C[:, k - 1]
    C[zero] = [L ** (k + 1) / (k + 1) for k in range(degree + 1)]
    # One row-vector product per mode, stacked: C @ coeffs would round
    # differently from the per-mode dot product.
    return c * np.matmul(C[:, None, :], np.asarray(coeffs, dtype=float))[:, 0]


def _samples_column(grid, values, s, c) -> np.ndarray:
    """int_0^L c cos(s x) times the piecewise-linear interpolant, segment by segment."""
    zero = s == 0.0
    safe = np.where(zero, 1.0, s)
    total = np.zeros(len(s))
    for x0, x1, y0, y1 in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        slope = (y1 - y0) / (x1 - x0)
        sin0, sin1 = np.sin(s * x0), np.sin(s * x1)
        cos0, cos1 = np.cos(s * x0), np.cos(s * x1)
        # int cos(sx) dx and int (x - x0) cos(sx) dx on the segment
        i0 = (sin1 - sin0) / safe
        i1 = ((x1 - x0) * sin1) / safe + (cos1 - cos0) / (safe * safe)
        total += np.where(zero, c * 0.5 * (y0 + y1) * (x1 - x0),
                          c * (y0 * i0 + slope * i1))
    return total


def _shape_columns(shapes, L: float, s, c) -> np.ndarray:
    """(len(s), len(shapes)) closed-form projections <b_j, c_k cos(s_k x)>.

    The indicator shapes are one broadcast over (modes, shapes), scattered
    into their columns; the others take a column each.
    """
    out = np.empty((len(s), len(shapes)))
    cols = [j for j, shape in enumerate(shapes) if shape.kind == "indicator"]
    a, b = np.array([shapes[j].params for j in cols], dtype=float).reshape(-1, 2).T
    out[:, cols] = _indicator_columns(a, b, s, c)
    for j, shape in enumerate(shapes):
        if shape.kind == "polynomial":
            out[:, j] = _polynomial_column(shape.params, L, s, c)
        elif shape.kind != "indicator":
            out[:, j] = _samples_column(*shape.params, s, c)
    return out


def shape_projection_matrix(shapes, basis: SpectralBasis, count: int) -> np.ndarray:
    """(count, len(shapes)) array of the exact projections <b_j, phi_n>, n = 1..count."""
    if not 0 <= count <= basis.size:
        raise ValueError(f"count {count} must lie in 0..{basis.size}")
    return _shape_columns(shapes, basis.L, basis.s[:count], basis.c[:count])


def project(f, basis: SpectralBasis, n: int, tol: float = 1e-10) -> float:
    """L2 projection <f, phi_n> over (0, L).

    `f` is either a ShapeFunction (exact closed forms) or a plain callable,
    projected by `project_callable` to absolute error `tol`.
    """
    if not 1 <= n <= basis.size:
        raise ValueError(f"mode {n} must lie in 1..{basis.size}")
    if isinstance(f, ShapeFunction):
        return float(_shape_columns([f], basis.L, basis.s[n - 1:n], basis.c[n - 1:n])[0, 0])
    return float(project_callable(f, basis, [n], tol=tol)[0])


def input_projection_row(shapes, basis: SpectralBasis, n: int) -> np.ndarray:
    """Row of mode-n projections of all shape functions: (b_{1,n} ... b_{N,n})."""
    if len(shapes) == 0:
        raise ValueError("need at least one shape function")
    if not 1 <= n <= basis.size:
        raise ValueError(f"mode {n} must lie in 1..{basis.size}")
    return _shape_columns(shapes, basis.L, basis.s[n - 1:n], basis.c[n - 1:n])[0]


def expand(coeffs, basis: SpectralBasis, grid) -> np.ndarray:
    """Partial eigenfunction sum on a spatial grid.

    coeffs has one m-vector per mode (shape n_modes x m), optionally stacked
    (shape ... x n_modes x m); the result has shape ... x m x len(grid),
    component i evaluated as sum_n coeffs[..., n, i] phi_n(x).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    x = np.asarray(grid, dtype=float)
    n_modes = coeffs.shape[-2]
    if n_modes > basis.size:
        raise ValueError("more coefficient rows than basis functions")
    # phi_matrix[n, p] = phi_{n+1}(x_p)
    phi_matrix = basis.c[:n_modes, None] * np.cos(basis.s[:n_modes, None] * x[None, :])
    return np.swapaxes(coeffs, -1, -2) @ phi_matrix


def basis_to_dict(basis: SpectralBasis) -> dict:
    return {
        "L": basis.L,
        "gamma1": basis.gamma1,
        "gamma2": basis.gamma2,
        "eigen": [
            {"lambda": float(l), "s": float(s), "c": float(c)}
            for l, s, c in zip(basis.lam, basis.s, basis.c)
        ],
    }
