"""Mode count selection, gain synthesis, and the Lyapunov certificate.

The control law is u(t) = K z^N(t) acting on the first N modal coefficient
vectors.  Its gain factorizes as

    K = Bmat^{-1} * blockdiag-rows{Kbar_1, ..., Kbar_N},

where Bmat is the N x N matrix of shape-function projections (hypothesis (H)
demands it be nonsingular) and each 1 x m row gain

    Kbar_n = B^T ((Q - lambda_n d_m I) T_n + T_n (lambda_n D - Q)) + K_Q T_n

turns the mode-n closed loop into the target block
H_n = -lambda_n d_m I + Q + B K_Q.  A single m x m design (K_Q) therefore
stabilizes every retained mode, independent of N.

K_Q itself comes from single-input pole placement: the poles of Q + B K_Q
are set at -(delta - lambda_1 d_m) - k for offsets k = 1..m, after which the
Lyapunov solve Abar^T P + P Abar = -I with Abar = Q + B K_Q +
(delta - lambda_1 d_m) I certifies the decay-rate matrix inequality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateAtRoundingLevel,
    CertificateViolation,
    FactorizationAtRoundingLevel,
    HypothesisHViolated,
    InternalError,
    PlantInputError,
    PolePlacementSingular,
    RiccatiFailure,
)
from .model import ValidatedPlant, record_to_dict
from .spectral import SpectralBasis, build_basis, extend_basis, shape_projection_matrix
from .transform import (
    TransformFamily,
    mode_transform,
    solve_transform_family,
    sylvester_map,
)

HYPOTHESIS_COND_LIMIT = 1e12
MAX_MODES = 100_000
LYAPUNOV_RESIDUAL_TOL = 1e-8
FACTORIZATION_TOL = 1e-9

# Factor-2 slack over the Schur-complement minimum of the residual-mode LMI;
# the target-block LMI gets the same slack (see `certificate`).
RHO_BAR = 4.0


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@dataclass(frozen=True)
class Controller:
    """Synthesized feedback u = K z^N with its building blocks."""

    delta: float
    N: int
    N_min: int
    K_Q: np.ndarray   # 1 x m row gain for the coupling matrix
    P: np.ndarray     # Lyapunov certificate matrix for Q + B K_Q
    Kbar: np.ndarray  # N x m per-mode row gains
    Bmat: np.ndarray  # N x N input-projection matrix
    cond_B: float
    K: np.ndarray     # N x (m N) factored gain


@dataclass(frozen=True)
class Certificate:
    """Constants of the closed-loop Lyapunov decay certificate."""

    rho: float
    rho_bar: float
    beta: float
    rho0: float
    c_lower: float
    c_upper: float
    M: float  # overshoot constant of ||z(t)|| <= M exp(-delta t) ||z(0)||
    gamma_margins: tuple  # max eigenvalue of each retained-mode block, all < 0
    omega_margins: tuple  # max eigenvalue of each checked residual mode, all < 0


def selection_margins(plant: ValidatedPlant, lambdas, delta: float) -> np.ndarray:
    """Largest eigenvalue of -lam*D + Sym(Q) + delta*I for each lam (negative once stable)."""
    lam = np.asarray(lambdas, dtype=float)
    M = -lam[:, None, None] * np.diag(plant.D) + sym(plant.Q) + delta * np.eye(plant.m)
    return np.linalg.eigvalsh(M)[:, -1]


def selection_margin(plant: ValidatedPlant, lam: float, delta: float) -> float:
    """`selection_margins` at one eigenvalue lam."""
    return float(selection_margins(plant, [lam], delta)[0])


def select_mode_count(plant: ValidatedPlant, basis: SpectralBasis, delta: float) -> int:
    """Smallest N >= 0 whose residual modes all decay faster than delta.

    -lam D + Sym(Q) + delta I < 0 holds exactly when lam exceeds
    lam* = lambda_max(D^{-1/2} (Sym(Q) + delta I) D^{-1/2}), and every
    boundary condition has s_k >= k pi / L (k = 0, 1, ...), so the first
    negative margin lies among the first floor(L sqrt(lam*) / pi) + 3 modes.
    The basis is extended to those modes and N is the index of the first
    negative margin among them.  A plant that needs more than MAX_MODES
    modes is an input error.
    """
    if not 0.0 < delta < math.inf:
        raise PlantInputError("decay rate delta must be positive and finite")
    scale = 1.0 / np.sqrt(plant.D)
    with np.errstate(over="ignore", invalid="ignore"):
        S = scale[:, None] * (sym(plant.Q) + delta * np.eye(plant.m)) * scale
    lam_star = float(np.linalg.eigvalsh(S)[-1]) if np.isfinite(S).all() else math.inf
    bound = plant.L * math.sqrt(max(lam_star, 0.0)) / math.pi
    # Compared as a float: L sqrt(lam*) may overflow, and NaN must fail too.
    if not bound < MAX_MODES - 2:
        raise PlantInputError(
            f"domain length L={plant.L!r} needs more than {MAX_MODES} modes "
            f"to reach the decay rate delta={delta!r}")
    count = int(bound) + 3
    basis = extend_basis(basis, count)
    negative = np.flatnonzero(selection_margins(plant, basis.lam[:count], delta) < 0.0)
    if not negative.size:
        raise InternalError(f"no residual-mode margin is negative within {count} modes")
    return int(negative[0])


def _controllability_matrix(Q: np.ndarray) -> np.ndarray:
    m = Q.shape[0]
    C = np.empty((m, m))
    v = np.zeros(m)
    v[0] = 1.0
    for k in range(m):
        C[:, k] = v
        v = Q @ v
    return C


def stabilize_coupling(plant: ValidatedPlant, delta: float, lambda1: float,
                       pole_offsets=None) -> tuple[np.ndarray, np.ndarray]:
    """Gain K_Q and Lyapunov matrix P certifying the decay-rate inequality.

    Places the eigenvalues of Q + B K_Q at -(delta - lambda1*d_m) - k for
    the given offsets k (default 1..m, distinct reals required), then solves
    Abar^T P + P Abar = -I for Abar = Q + B K_Q + (delta - lambda1*d_m) I.
    P > 0 together with the pole locations certifies
    Sym(P (Q + B K_Q)) + (delta - lambda1*d_m) P < 0; `check_coupling`
    tells whether the computed P does so beyond rounding.
    """
    m = plant.m
    Q = np.asarray(plant.Q, dtype=float)
    shift = delta - lambda1 * plant.d_last
    if pole_offsets is None:
        pole_offsets = np.arange(1.0, m + 1.0)
    offsets = np.asarray(pole_offsets, dtype=float)
    if (offsets.shape != (m,) or len(set(offsets)) != m
            or not np.all((0.0 < offsets) & (offsets < math.inf))):
        raise PlantInputError("pole offsets must be m distinct positive finite reals")
    poles = -shift - offsets

    C = _controllability_matrix(Q)
    char = np.poly(poles)  # monic, real
    pQ = np.eye(m)
    for coeff in char[1:]:
        pQ = pQ @ Q + coeff * np.eye(m)
    em = np.zeros(m)
    em[-1] = 1.0
    try:
        last_row = np.linalg.solve(C.T, em)
    except np.linalg.LinAlgError as exc:  # cannot occur for validated plants
        raise PolePlacementSingular(str(exc)) from exc
    K_Q = -(last_row @ pQ)

    Abar = Q + np.outer(_e1(m), K_Q) + shift * np.eye(m)
    P = _solve_lyapunov_identity(Abar)
    # P grows like the square of the gain scale, so the residual is judged
    # relative to it; an absolute bound is unattainable in double precision.
    residual = np.max(np.abs(Abar.T @ P + P @ Abar + np.eye(m)))
    if residual > LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(P)))):
        raise InternalError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    if np.max(np.linalg.eigvals(Q + np.outer(_e1(m), K_Q)).real) > -shift:
        raise InternalError("pole placement failed to reach the required abscissa")
    return K_Q, P


def check_coupling(plant: ValidatedPlant, delta: float, lambda1: float,
                   K_Q: np.ndarray, P: np.ndarray) -> None:
    """Refuse a coupling certificate whose margins are at the rounding level.

    The margins are lambda_min(P) and -lambda_max of
    Sym(P (Q + B K_Q)) + (delta - lambda1*d_m) P.  Unless each exceeds
    m * eps * ||P||, CertificateAtRoundingLevel is raised: on random
    cascades both came out within about eps * ||P|| of their 50-digit
    values, so a smaller margin has no certain sign.  `stabilize_coupling`
    meets its residual test on cascades whose gains are this large (most
    with m >= 9 at delta = 2, a few with m = 6 at delta = 7).
    """
    m = plant.m
    shift = delta - lambda1 * plant.d_last
    lmi = sym(P @ (plant.Q + np.outer(_e1(m), K_Q))) + shift * P
    p_eig = np.linalg.eigvalsh(P)
    floor = m * np.finfo(float).eps * float(np.max(np.abs(p_eig)))
    p_min = float(p_eig[0])
    lmi_max = float(np.linalg.eigvalsh(lmi)[-1])
    if p_min <= floor or -lmi_max <= floor:
        raise CertificateAtRoundingLevel(
            f"coupling certificate at rounding level: lambda_min(P) = {p_min:.3e}, "
            f"LMI max eigenvalue = {lmi_max:.3e}, rounding floor {floor:.3e}")


def _e1(m: int) -> np.ndarray:
    e = np.zeros(m)
    e[0] = 1.0
    return e


def _solve_lyapunov_identity(Abar: np.ndarray) -> np.ndarray:
    """P solving Abar^T P + P Abar = -I, by the m^2 x m^2 Kronecker system."""
    m = Abar.shape[0]
    lhs = np.kron(Abar.T, np.eye(m)) + np.kron(np.eye(m), Abar.T)
    vec = np.linalg.solve(lhs, (-np.eye(m)).reshape(-1))
    return sym(vec.reshape(m, m))


def modal_gains(plant: ValidatedPlant, family: TransformFamily, lambdas,
                K_Q: np.ndarray, N: int) -> np.ndarray:
    """Row gains Kbar_n, n = 1..N, one per retained mode: shape (N, m)."""
    lam = np.asarray(lambdas, dtype=float)[:N]
    if lam.size < N:
        raise ValueError(f"{N} modal gains need {N} eigenvalues, got {lam.size}")
    T, _ = mode_transform(family, lam)
    return sylvester_map(plant, lam, T)[:, 0, :] + np.matmul(K_Q, T)


def input_matrix(shapes, basis: SpectralBasis, N: int) -> tuple[np.ndarray, float]:
    """N x N matrix with entry (n, j) = <b_j, phi_n>, plus its condition number.

    Raises HypothesisHViolated when the matrix is singular or its condition
    number exceeds 1e12; the shapes (or N) must then be changed.
    """
    if len(shapes) != N:
        raise HypothesisHViolated(f"need exactly N={N} shapes, got {len(shapes)}")
    B = shape_projection_matrix(shapes, basis, N)
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > HYPOTHESIS_COND_LIMIT:
        raise HypothesisHViolated(
            f"input-projection matrix is numerically singular (cond={cond:.3e})"
        )
    return B, cond


def mode_blocks(plant: ValidatedPlant, lambdas) -> np.ndarray:
    """Open-loop mode blocks -lambda_n D + Q, stacked: shape (len(lambdas), m, m)."""
    lam = np.asarray(lambdas, dtype=float)
    return -lam[:, None, None] * np.diag(plant.D) + plant.Q


def closed_blocks(plant: ValidatedPlant, K_Q: np.ndarray, lambdas) -> np.ndarray:
    """Target blocks H_n = -lambda_n d_m I + Q + B K_Q, stacked: (len(lambdas), m, m)."""
    lam = np.asarray(lambdas, dtype=float)
    m = plant.m
    return (-lam[:, None, None] * plant.d_last * np.eye(m) + plant.Q
            + np.outer(_e1(m), K_Q))


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (N p) x (N q) block-diagonal matrix of an (N, p, q) stack of blocks.

    blocks[:, None] of an (N, m) stack of rows gives the N x (m N) matrix
    whose row n holds row n in block column n.
    """
    N, p, q = blocks.shape
    out = np.zeros((N * p, N * q))
    out.reshape(N, p, N, q)[np.arange(N), :, np.arange(N), :] = blocks
    return out


def zero_controller(delta: float, N_min: int, m: int) -> Controller:
    """The N = 0 controller, u = 0: no channels and no gains."""
    return Controller(delta=float(delta), N=0, N_min=N_min,
                      K_Q=np.zeros(m), P=np.eye(m),
                      Kbar=np.zeros((0, m)), Bmat=np.zeros((0, 0)),
                      cond_B=1.0, K=np.zeros((0, 0)))


def build_controller(plant: ValidatedPlant, delta: float, N: int | None = None,
                     pole_offsets=None, basis: SpectralBasis | None = None,
                     family: TransformFamily | None = None) -> Controller:
    """End-to-end synthesis for a validated plant and decay rate delta.

    When N is omitted the minimal mode count is used; a user-supplied N must
    be at least that minimum.  The first N plant shapes feed the N control
    channels.
    """
    if basis is None:
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 8)
    N_min = select_mode_count(plant, basis, delta)
    if N is None:
        N = N_min
    elif N < N_min:
        raise PlantInputError(f"N={N} is below the minimal mode count {N_min}")
    if N == 0:
        return zero_controller(delta, N_min, plant.m)
    if len(plant.shapes) < N:
        raise HypothesisHViolated(
            f"N={N} control channels need {N} shape functions, plant has "
            f"{len(plant.shapes)}"
        )
    basis = extend_basis(basis, N + 1)
    K_Q, P = stabilize_coupling(plant, delta, float(basis.lam[0]), pole_offsets)
    check_coupling(plant, delta, float(basis.lam[0]), K_Q, P)
    if family is None:
        family = solve_transform_family(plant)
    Kbar = modal_gains(plant, family, basis.lam, K_Q, N)
    Bmat, cond_B = input_matrix(plant.shapes[:N], basis, N)
    K = np.linalg.solve(Bmat, block_diagonal(Kbar[:, None]))
    controller = Controller(delta=float(delta), N=N, N_min=N_min, K_Q=K_Q, P=P,
                            Kbar=Kbar, Bmat=Bmat, cond_B=cond_B, K=K)
    residual = factorization_residual(controller)
    if not residual <= FACTORIZATION_TOL:
        raise FactorizationAtRoundingLevel(
            f"N={N}: gain factorization residual {residual:.3e} exceeds the "
            f"bound {FACTORIZATION_TOL:.0e} (cond(Bmat)={cond_B:.3e})"
        )
    return controller


def relative_error(a: np.ndarray, b: np.ndarray, axis=None):
    """Max-abs difference over max(1, max|a|, max|b|), over `axis` (all by default)."""
    scale = np.maximum(np.maximum(1.0, np.max(np.abs(a), axis=axis)),
                       np.max(np.abs(b), axis=axis))
    return np.max(np.abs(a - b), axis=axis) / scale


def factorization_residual(controller: Controller) -> float:
    """`relative_error` of Bmat K against blockdiag-rows(Kbar)."""
    rows = block_diagonal(controller.Kbar[:, None])
    return float(relative_error(controller.Bmat @ controller.K, rows))


def certificate(plant: ValidatedPlant, controller: Controller,
                family: TransformFamily, basis: SpectralBasis,
                M_modes: int = 30) -> Certificate:
    """Compute the decay-certificate constants and verify the sign conditions.

    rho is 1/mu with mu the definiteness margin of the residual-mode
    inequality at lambda_{N+1} (factor-2 slack over the Schur-complement
    minimum 1/(2 mu)).  rho_bar = 4 leaves the same factor-2 slack in the
    retained-mode inequality, whose Schur minimum is 2 under the
    normalization Abar^T P + P Abar = -I.  The overshoot constant is

        M = sqrt(c_upper * max(eig_max P, rho0) /
                 (c_lower * min(eig_min P, rho0))).
    """
    N = controller.N
    delta = controller.delta
    m = plant.m
    basis = extend_basis(basis, max(M_modes, N + 1))

    mu = -selection_margin(plant, float(basis.lam[N]), delta)
    if mu <= 0.0:
        raise CertificateViolation("residual-mode inequality fails at lambda_{N+1}")
    rho = 1.0 / mu
    rho_bar = RHO_BAR

    if N == 0:
        # No retained modes: V = sum |z_n|^2 decays at rate delta directly.
        cert = Certificate(rho=rho, rho_bar=rho_bar, beta=0.0, rho0=1.0,
                           c_lower=1.0, c_upper=1.0, M=1.0,
                           gamma_margins=(),
                           omega_margins=_omega_margins(plant, basis, rho, delta,
                                                        0, M_modes))
        _check_margins(cert)
        return cert

    lam = basis.lam[:N]
    T, T_inv = mode_transform(family, lam)
    inv_sq = float(np.max(np.linalg.norm(T_inv, 2, axis=(1, 2)))) ** 2
    fwd_sq = float(np.max(np.linalg.norm(T, 2, axis=(1, 2)))) ** 2
    # T_n = I for n > N contributes norm 1 to both envelopes.
    c_lower = 1.0 / max(1.0, inv_sq)
    c_upper = max(1.0, fwd_sq)

    beta = inv_sq * sum(s.l2_norm_sq(plant.L) for s in plant.shapes[:N])
    K_norm = float(np.linalg.norm(controller.K, 2))
    rho0 = 2.0 / (rho * rho_bar * beta * K_norm**2)

    eig_P = np.linalg.eigvalsh(controller.P)
    if eig_P[0] <= 0.0:
        raise CertificateViolation("Lyapunov matrix P is not positive definite")
    M_over = float(np.sqrt(
        c_upper * max(eig_P[-1], rho0) / (c_lower * min(eig_P[0], rho0))
    ))

    H = closed_blocks(plant, controller.K_Q, lam)
    G = sym(controller.P @ H) + np.eye(m) / rho_bar + delta * controller.P
    gamma_margins = np.linalg.eigvalsh(G)[:, -1].tolist()

    cert = Certificate(rho=rho, rho_bar=rho_bar, beta=beta, rho0=rho0,
                       c_lower=c_lower, c_upper=c_upper, M=M_over,
                       gamma_margins=tuple(gamma_margins),
                       omega_margins=_omega_margins(plant, basis, rho, delta,
                                                    N, M_modes))
    _check_margins(cert)
    return cert


def _omega_margins(plant, basis, rho, delta, N, M_modes):
    """Residual-mode margins at the rate delta + 1/(2 rho), modes N+1..M_modes."""
    lam = basis.lam[N:M_modes]
    return tuple(selection_margins(plant, lam, delta + 1.0 / (2.0 * rho)).tolist())


def _check_margins(cert: Certificate) -> None:
    bad_gamma = [g for g in cert.gamma_margins if g >= 0.0]
    bad_omega = [w for w in cert.omega_margins if w >= 0.0]
    if bad_gamma or bad_omega:
        raise CertificateViolation(
            f"certificate sign conditions failed: gamma={bad_gamma}, omega={bad_omega}"
        )


# ---------------------------------------------------------------------------
# Direct mN-dimensional baseline (timing comparison)

def assemble_direct_pair(plant: ValidatedPlant, basis: SpectralBasis,
                         shapes, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked pair (A, Btil): A = blockdiag{-lambda_n D + Q}, Btil = col{B Bmat_n}."""
    m = plant.m
    A = block_diagonal(mode_blocks(plant, basis.lam[:N]))
    Btil = np.zeros((m * N, N))
    Btil[::m] = shape_projection_matrix(shapes, basis, N)
    return A, Btil


def direct_baseline(plant: ValidatedPlant, basis: SpectralBasis, delta: float,
                    N: int) -> tuple[np.ndarray, float]:
    """Stabilize the stacked mN-dimensional pair directly, returning wall time.

    Solves the continuous algebraic Riccati equation for the delta-shifted
    pair (A + delta I, Btil) by the Schur/Hamiltonian method and returns
    K_direct = -Btil^T P_ric, which achieves spectral abscissa <= -delta.
    Only this baseline needs scipy; it is imported here, before the timed
    span, so that the pipeline commands never load it.
    """
    import scipy.linalg

    if N < 1:
        raise PlantInputError("direct baseline needs N >= 1")
    basis = extend_basis(basis, N)
    shapes = plant.shapes[:N]
    if len(shapes) < N:
        raise HypothesisHViolated(f"need {N} shapes for the direct baseline")
    A, Btil = assemble_direct_pair(plant, basis, shapes, N)
    mN = A.shape[0]
    start = time.perf_counter()
    try:
        P_ric = scipy.linalg.solve_continuous_are(
            A + delta * np.eye(mN), Btil, np.eye(mN), np.eye(N)
        )
        K_direct = -Btil.T @ P_ric
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiFailure(str(exc)) from exc
    wall = time.perf_counter() - start
    return K_direct, wall


# ---------------------------------------------------------------------------
# Gains file (JSON)

def certificate_from_dict(obj: dict) -> Certificate:
    return Certificate(
        rho=float(obj["rho"]),
        rho_bar=float(obj["rho_bar"]),
        beta=float(obj["beta"]),
        rho0=float(obj["rho0"]),
        c_lower=float(obj["c_lower"]),
        c_upper=float(obj["c_upper"]),
        M=float(obj["M"]),
        gamma_margins=tuple(obj.get("gamma_margins", ())),
        omega_margins=tuple(obj.get("omega_margins", ())),
    )


def gains_to_dict(controller: Controller, cert: Certificate | None = None) -> dict:
    """The gains file: the controller's fields, then the certificate's, if given."""
    out = record_to_dict(controller)
    if cert is not None:
        out["certificate"] = record_to_dict(cert)
    return out


def controller_from_dict(obj: dict) -> Controller:
    """Inverse of `gains_to_dict`; an array of the wrong shape is a ValueError."""
    N = int(obj["N"])
    m = len(obj["K_Q"])

    def grid(key, *shape):
        value = np.asarray(obj[key], dtype=float) if N or key == "K_Q" else np.zeros(shape)
        if value.shape != shape:
            raise ValueError(f"{key} has shape {value.shape}, expected {shape} for N={N}")
        return value

    return Controller(
        delta=float(obj["delta"]),
        N=N,
        N_min=int(obj.get("N_min", N)),
        K_Q=grid("K_Q", m),
        P=np.asarray(obj["P"], dtype=float),
        Kbar=grid("Kbar", N, m),
        Bmat=grid("Bmat", N, N),
        cond_B=float(obj.get("cond_B", np.nan)),
        K=grid("K", N, m * N),
    )
