"""Property tests over random valid bases, shapes and cascades.

The vectorized layers are checked against the per-mode forms they replace,
kept here as oracles: shape projections against the scalar closed forms,
the stacked residual-mode margins against one eigvalsh per mode, the
closed-form mode count against the per-mode scan it replaced, the
closed-loop assembly against the per-mode loop, the retained-only run
`verify` makes against the first N modes of the full run, and the stacked
modal transform (T_n, T_n^{-1}, G_n, H_n, the gains and the certificate)
against its evaluation one mode at a time.  The paper's gain identities,
Kbar_n = (K_Q - G_n) T_n and Bmat K = block-rows(Kbar), are checked on
synthesized controllers.  Example counts come from the hypothesis profile
in conftest.py unless a test sets its own.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import scipy.linalg

from cascade_stab.checks import block_diagonal, factorization
from cascade_stab.errors import CertificateAtRoundingLevel, HypothesisHViolated
from cascade_stab.model import PlantSpec, ShapeFunction, validate_plant
from cascade_stab.simulator import (
    SimConfig,
    assemble_closed_loop,
    certificate_bound_holds,
    integrate,
    run_closed_loop,
    target_residual,
)
from cascade_stab.spectral import build_basis, extend_basis, project, shape_projection_matrix
from cascade_stab.synthesis import (
    RHO_BAR,
    _omega_margins,
    build_controller,
    certificate,
    certificate_margins,
    closed_blocks,
    modal_gains,
    select_mode_count,
    selection_margins,
    sym,
)
from cascade_stab.transform import (
    cancellation_residual,
    coupling_row,
    mode_transform,
    solve_transform_family,
)

from conftest import corrupt_family, dense_closed_loop, random_plant

finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


def scalar_shape_projection(shape, basis, n):
    """<b, phi_n> by the scalar closed forms, one mode at a time (the oracle)."""
    s, c, L = float(basis.s[n - 1]), float(basis.c[n - 1]), basis.L
    if shape.kind == "indicator":
        a, b = shape.params
        return c * (b - a) if s == 0.0 else c * (math.sin(s * b) - math.sin(s * a)) / s
    if shape.kind == "polynomial":
        coeffs = np.asarray(shape.params)
        C = np.empty(len(coeffs))  # C_k = int_0^L x^k cos(s x) dx
        if s == 0.0:
            C[:] = [L ** (k + 1) / (k + 1) for k in range(len(coeffs))]
        else:
            sinL, cosL = math.sin(s * L), math.cos(s * L)
            C[0] = sinL / s
            S_prev = (1.0 - cosL) / s
            for k in range(1, len(coeffs)):
                C[k] = (L**k) * sinL / s - k / s * S_prev
                S_prev = -(L**k) * cosL / s + k / s * C[k - 1]
        return c * float(np.dot(coeffs, C))
    grid, values = shape.params
    total = 0.0
    for x0, x1, y0, y1 in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if s == 0.0:
            total += c * 0.5 * (y0 + y1) * (x1 - x0)
            continue
        slope = (y1 - y0) / (x1 - x0)
        i0 = (math.sin(s * x1) - math.sin(s * x0)) / s
        i1 = ((x1 - x0) * math.sin(s * x1)) / s + (math.cos(s * x1)
                                                   - math.cos(s * x0)) / (s * s)
        total += c * (y0 * i0 + slope * i1)
    return total


@st.composite
def bases(draw, max_modes=300):
    """Valid (gamma1, gamma2, L, M): gamma1 > 0 or pure Neumann, gamma2 >= 0."""
    gamma1 = draw(st.one_of(st.just(0.0), st.floats(0.05, 5.0, **finite)))
    gamma2 = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0, **finite)))
    assume(gamma1 > 0.0 or gamma2 > 0.0)
    L = draw(st.floats(0.5, 8.0, **finite))
    M = draw(st.integers(1, max_modes))
    return build_basis(L, gamma1, gamma2, M)


@st.composite
def shapes(draw, L):
    kind = draw(st.sampled_from(["indicator", "polynomial", "samples"]))
    if kind == "indicator":
        a = draw(st.floats(0.0, 0.9 * L, **finite))
        return ShapeFunction.indicator(a, draw(st.floats(a + 0.05 * L, L, **finite)))
    if kind == "polynomial":
        coeffs = draw(st.lists(st.floats(-3.0, 3.0, **finite), min_size=1, max_size=6))
        return ShapeFunction.polynomial(*coeffs)
    inner = draw(st.lists(st.floats(0.01 * L, 0.99 * L, **finite), max_size=8,
                          unique=True))
    grid = [0.0, *sorted(inner), L]
    values = draw(st.lists(st.floats(-2.0, 2.0, **finite), min_size=len(grid),
                           max_size=len(grid)))
    return ShapeFunction.samples(grid, values)


@st.composite
def cascades(draw, max_m=None):
    """A random valid cascade (conftest.random_plant) from a drawn seed.

    With max_m the size m is drawn from 2..max_m; without it, the seed
    picks it (2..6).
    """
    m = None if max_m is None else draw(st.integers(2, max_m))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_plant(np.random.default_rng(seed), m=m)


@st.composite
def scaled_cascades(draw):
    """A cascade with m = 2..8 on any boundary kind, L in 0.1..100, and
    D and Q scaled by factors in 0.1..10."""
    m = draw(st.integers(2, 8))
    plant = random_plant(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m=m)
    gammas = draw(st.one_of(st.just((1.0, 0.0)), st.just((0.0, 1.0)),
                            st.tuples(st.just(1.0), st.floats(-2.0, 2.0).map(lambda e: 10.0**e))))
    L, d_scale, q_scale = (10.0 ** draw(st.floats(lo, hi))
                           for lo, hi in ((-1.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)))
    return validate_plant(PlantSpec(m=m, D=plant.D * d_scale, Q=plant.Q * q_scale,
                                    L=L, gamma1=gammas[0], gamma2=gammas[1], shapes=()))


def scanned_mode_count(plant, basis, delta):
    """The first N whose margin at lambda_{N+1} is negative, one mode at a
    time, doubling the basis on demand (the oracle)."""
    N = 0
    while True:
        if N >= basis.size:
            basis = extend_basis(basis, max(2 * basis.size, N + 1))
        if selection_margins(plant, [basis.lam[N]], delta)[0] < 0.0:
            return N
        N += 1


@settings(max_examples=150)
@given(plant=scaled_cascades(), delta=st.floats(-2.0, 2.0).map(lambda e: 10.0**e))
def test_mode_count_matches_scan(plant, delta):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 8)
    assert select_mode_count(plant, basis, delta) == scanned_mode_count(plant, basis, delta)


@given(basis=bases(), data=st.data())
def test_shape_projection_matrix_matches_scalar(basis, data):
    group = data.draw(st.lists(shapes(basis.L), min_size=1, max_size=4))
    count = data.draw(st.integers(1, basis.size))
    P = shape_projection_matrix(group, basis, count)
    assert P.shape == (count, len(group))
    scalar = np.array([[scalar_shape_projection(shape, basis, n) for shape in group]
                       for n in range(1, count + 1)])
    # The same operations in the same order as the scalar closed forms.
    np.testing.assert_allclose(P, scalar, rtol=1e-14, atol=1e-15)
    n = data.draw(st.integers(1, count))
    assert [project(shape, basis, n) for shape in group] == P[n - 1].tolist()


@given(basis=bases(max_modes=40))
def test_random_valid_bases_pass_boundary_check(basis):
    # bases() builds through the boundary check; the high modes of a long
    # basis are what an absolute tolerance rejected.
    long = build_basis(basis.L, basis.gamma1, basis.gamma2, 300)
    assert np.all(np.diff(long.s) > 0.0)


@given(plant=cascades(), N=st.integers(0, 10), extra=st.integers(0, 60),
       rho=st.floats(0.01, 10.0, **finite), delta=st.floats(0.1, 20.0, **finite))
def test_stacked_omega_margins_match_selection_margin(plant, N, extra, rho, delta):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, N + extra + 1)
    margins = _omega_margins(plant, basis, rho, delta, N, N + extra)
    rate = delta + 1.0 / (2.0 * rho)
    D, Q, eye = np.diag(plant.D), 0.5 * (plant.Q + plant.Q.T), np.eye(plant.m)
    expected = tuple(
        float(np.linalg.eigvalsh(-float(basis.lam[n - 1]) * D + Q + rate * eye)[-1])
        for n in range(N + 1, N + extra + 1))
    assert margins == expected  # bitwise
    if extra:
        assert selection_margins(plant, [basis.lam[N]], rate)[0] == margins[0]


def projection_row(plant, controller, basis, n):
    """b_n, the mode-n projections of the N control shapes, by the scalar forms."""
    return np.array([scalar_shape_projection(b, basis, n)
                     for b in plant.shapes[:controller.N]])


def per_mode_closed_loop(plant, controller, basis, M_modes):
    """The closed-loop assembly as one Python loop over modes (the oracle).

    The input u = K z^N = Bmat^-1 [Kbar_n z_n]_n reaches mode n through
    b_n; for a retained mode b_n Bmat^-1 = e_n, so mode n <= N takes
    Kbar_n z_n alone, in its own block, and a tail mode takes b_n K z^N.
    """
    m, N = plant.m, controller.N
    A = np.zeros((m * M_modes, m * M_modes))
    D = np.diag(plant.D)
    for n in range(1, M_modes + 1):
        sl = slice((n - 1) * m, n * m)
        A[sl, sl] += -float(basis.lam[n - 1]) * D + plant.Q
        if n <= N:
            A[(n - 1) * m, sl] += controller.Kbar[n - 1]
        elif N > 0:
            A[(n - 1) * m, : m * N] += projection_row(plant, controller, basis, n) @ controller.K
    return A


def synthesized(plant, delta, basis):
    """Controller at the minimal N and its retained-mode maps, or (None, None)
    when N is 0 or synthesis refuses.

    Synthesis refuses when N exceeds the shapes, and when the gains are so
    large that the coupling certificate is at the rounding level of P.
    """
    try:
        ctl, maps = build_controller(plant, delta, basis=basis)
    except (HypothesisHViolated, CertificateAtRoundingLevel):
        return None, None
    return (ctl, maps) if ctl.N > 0 else (None, None)


@given(plant=cascades(), delta=st.floats(0.5, 8.0, **finite),
       extra=st.integers(0, 40))
def test_assembly_matches_per_mode_loop(plant, delta, extra):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 60)
    ctl, _ = synthesized(plant, delta, basis)
    assume(ctl is not None)
    N, M, m = ctl.N, ctl.N + extra, plant.m
    loop = assemble_closed_loop(plant, ctl, basis, M)
    A = per_mode_closed_loop(plant, ctl, basis, M)
    kept, tail = np.arange(N), np.arange(N, M)
    assert loop.A_RR.shape == (N, m, m)
    assert loop.A_RR.tobytes() == A.reshape(M, m, M, m)[kept, :, kept, :].tobytes()
    assert loop.A_TT.shape == (M - N, m, m)
    assert loop.A_TT.tobytes() == A.reshape(M, m, M, m)[tail, :, tail, :].tobytes()
    assert loop.A_TR.shape == (M - N, m, m * N)
    assert loop.A_TR.tobytes() == A[m * N:, :m * N].tobytes()
    # Every other entry of the oracle is zero.
    assert dense_closed_loop(loop).tobytes() == A.tobytes()
    # The route through K: the retained rows b_n K, b_n being row n of Bmat,
    # differ from the block form by no more than Bmat K misses
    # block-rows(Kbar) (`checks.factorization`), plus the rounding of the
    # two products b_n K and Bmat K, at most N u |Bmat| |K| each.
    via_K = np.array([projection_row(plant, ctl, basis, n) @ ctl.K for n in range(1, N + 1)])
    rows = block_diagonal(ctl.Kbar[:, None])
    scale = max(1.0, float(np.max(np.abs(ctl.Bmat @ ctl.K))), float(np.max(np.abs(rows))))
    rounding = 2 * N * 2.0 ** -53 * float(np.max(np.abs(ctl.Bmat) @ np.abs(ctl.K)))
    assert np.max(np.abs(via_K - rows)) <= factorization(ctl)[0].value * scale + rounding


@given(plant=cascades(), delta=st.floats(0.5, 8.0, **finite),
       extra=st.integers(1, 60))
def test_retained_only_run_matches_full_run(plant, delta, extra):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 80)
    ctl, _ = synthesized(plant, delta, basis)
    assume(ctl is not None)
    N, M, m = ctl.N, ctl.N + extra, plant.m
    z0 = np.array([[1.0 / n] * m for n in range(1, M + 1)])  # verify's run
    full = integrate(assemble_closed_loop(plant, ctl, basis, M), z0, 0.5, 0.5 / 400)
    kept = integrate(assemble_closed_loop(plant, ctl, basis, N), z0[:N], 0.5,
                     0.5 / 400)
    # Both step the retained modes with expm of the same stack.
    assert kept.modal.tobytes() == full.modal[:, :N].tobytes()


def test_certificate_bound_holds_on_random_cascades():
    """||z(t)|| <= M exp(-delta t) ||z(0)|| on a short run of certified cascades.

    The plant gets one indicator shape per retained mode, and the run keeps
    M >= N + 10 modes, so the tail and its coupling to the retained modes
    are part of it.  Draws whose certificate synthesis refuses
    (CertificateAtRoundingLevel) are counted and skipped.
    """
    drawn, certified = [], []

    # Hypothesis derives derandomized draws from the test's source text.  This
    # is the seed that the text before `certificate_bound_holds` was called
    # here gave, so the test still checks the same 30 cascades.
    @seed(36686517939390767227073410455030854399820045430298573015353362266561875500263824860163721669028638677083559380033468)  # noqa: E501
    @settings(max_examples=30)
    @given(plant=cascades(max_m=5), delta=st.floats(0.5, 9.0, **finite),
           extra=st.integers(10, 30))
    def check(plant, delta, extra):
        drawn.append(plant.m)
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 80)
        N = max(1, select_mode_count(plant, basis, delta))
        plant = plant._replace(shapes=tuple(
            ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1) for j in range(1, N + 1)))
        try:
            ctl, maps = build_controller(plant, delta, N=N, basis=basis)
        except CertificateAtRoundingLevel:
            return
        M = N + extra
        cert = certificate(plant, ctl, maps, basis, M_modes=M)
        z0 = [ShapeFunction.polynomial(1.0, -0.3 * i, 0.1) for i in range(plant.m)]
        traj = run_closed_loop(plant, ctl, basis, z0,
                               SimConfig(M_modes=M, t_final=0.2, dt_out=0.002))
        certified.append(plant.m)
        assert certificate_bound_holds(traj, cert.M, ctl.delta) is True

    check()
    assert len(drawn) == 30
    assert len(certified) >= 25, (len(certified), len(drawn))


def mp_sym(X):
    return (X + X.T) / 2


def test_certificate_signs_in_50_digits_on_random_cascades():
    """The certificate's sign conditions hold in 50-digit arithmetic.

    On the computed K_Q, P and rho, Cholesky confirms -G_n > 0 for every
    retained mode, G_n = Sym(P H_n) + I / rho_bar + delta P with
    H_n = -lambda_n d_m I + Q + e1 K_Q, and -Omega > 0 for the omega matrix
    Omega = -lambda_{N+1} D + Sym(Q) + (delta + 1 / (2 rho)) I.  The plant
    gets one indicator shape per retained mode; draws whose synthesis
    refuses (CertificateAtRoundingLevel) are counted and skipped.
    """
    drawn, certified = [], []

    @settings(max_examples=20)
    @given(plant=cascades(max_m=5), delta=st.floats(0.5, 9.0, **finite))
    def check(plant, delta):
        drawn.append(plant.m)
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 80)
        N = max(1, select_mode_count(plant, basis, delta))
        plant = plant._replace(shapes=tuple(
            ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1) for j in range(1, N + 1)))
        try:
            ctl, maps = build_controller(plant, delta, N=N, basis=basis)
        except CertificateAtRoundingLevel:
            return
        cert = certificate(plant, ctl, maps, basis, M_modes=N + 1)
        certified.append(plant.m)
        with mpmath.workdps(50):
            eye = mpmath.eye(plant.m)
            Q = mpmath.matrix(plant.Q.tolist())
            P = mpmath.matrix(ctl.P.tolist())
            closed = Q.copy()
            for j, k in enumerate(ctl.K_Q.tolist()):
                closed[0, j] += k
            for lam in basis.lam[:N].tolist():
                H = closed - mpmath.mpf(lam) * plant.d_last * eye
                G = mp_sym(P * H) + eye / cert.rho_bar + delta * P
                mpmath.cholesky(-G)  # raises ValueError unless -G > 0
            rate = delta + 1 / (2 * mpmath.mpf(cert.rho))
            omega = (-mpmath.mpf(basis.lam[N]) * mpmath.diag(plant.D.tolist())
                     + mp_sym(Q) + rate * eye)
            mpmath.cholesky(-omega)

    check()
    assert len(drawn) == 20
    assert len(certified) >= 15, (len(certified), len(drawn))


def test_neumann_zero_frequency_column():
    # s_1 = 0 takes the separate branch of every closed form.
    basis = build_basis(2.0, 0.0, 1.0, 5)
    group = [ShapeFunction.indicator(0.5, 1.5), ShapeFunction.polynomial(1.0, 2.0),
             ShapeFunction.samples([0.0, 1.0, 2.0], [1.0, -1.0, 0.5])]
    P = shape_projection_matrix(group, basis, 5)
    c0 = 1.0 / math.sqrt(2.0)
    assert P[0].tolist() == pytest.approx([c0 * 1.0, c0 * 6.0, c0 * -0.25])
    for n in range(1, 6):
        expected = [scalar_shape_projection(b, basis, n) for b in group]
        assert P[n - 1].tolist() == pytest.approx(expected, rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# The modal transform, one mode at a time (the oracles)

def per_mode_transform(family, lam):
    """(T_n, T_n^{-1}, S) for one eigenvalue lam, S the nilpotent part of T_n."""
    m = family.m
    eye = np.eye(m)
    S = np.zeros((m, m))
    if family.sigma_bar == 0 or lam == 0.0:
        return eye.copy(), eye.copy(), S
    power = 1.0
    for Ti in family.coeffs:
        power *= lam
        S += power * Ti
    inverse, term = eye.copy(), eye
    for _ in range(m - 1):
        term = term @ (-S)
        if not term.any():
            break
        inverse = inverse + term
    return eye + S, inverse, S


def per_mode_coupling_row(plant, lam, S, inverse):
    """G_n = -B^T ((Q - lam d_m I) S + S (lam D - Q) + lam (D - d_m I)) T_n^{-1}."""
    eye, D, Q = np.eye(plant.m), np.diag(plant.D), plant.Q
    left, right = Q - lam * plant.d_last * eye, lam * D - Q
    M = left @ S + S @ right + lam * (D - plant.d_last * eye)
    return -(M[0, :] @ inverse)


def per_mode_cancellation(plant, lam, T, G):
    """Max-abs residual of (Q - lam d_m I) T_n + T_n (lam D - Q) + B G_n T_n."""
    left = plant.Q - lam * plant.d_last * np.eye(plant.m)
    R = left @ T + T @ (lam * np.diag(plant.D) - plant.Q)
    R[0, :] += G @ T
    return float(np.max(np.abs(R)))


def per_mode_gain(plant, lam, T, K_Q):
    """Kbar_n = B^T ((Q - lam d_m I) T_n + T_n (lam D - Q)) + K_Q T_n."""
    left = plant.Q - lam * plant.d_last * np.eye(plant.m)
    M = left @ T + T @ (lam * np.diag(plant.D) - plant.Q)
    return M[0, :] + K_Q @ T


def per_mode_closed_block(plant, K_Q, lam):
    """H_n = -lam d_m I + Q + B K_Q."""
    m = plant.m
    e1 = np.zeros(m)
    e1[0] = 1.0
    return -lam * plant.d_last * np.eye(m) + plant.Q + np.outer(e1, K_Q)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(plant=cascades(max_m=5), basis=bases(max_modes=40), data=st.data())
def test_stacked_transform_matches_per_mode(plant, basis, data):
    family = solve_transform_family(plant)
    if data.draw(st.booleans(), label="corrupt"):
        family = corrupt_family(plant, family)
    N = data.draw(st.integers(0, basis.size), label="N")
    lam = basis.lam[:N]
    K_Q = np.asarray(data.draw(st.lists(st.floats(-50.0, 50.0, **finite),
                                        min_size=plant.m, max_size=plant.m)))
    T, T_inv = mode_transform(family, lam)
    G = coupling_row(plant, lam, T, T_inv)
    cancel = cancellation_residual(plant, lam, T, G)
    gains = modal_gains(plant, lam, K_Q, T)
    H = closed_blocks(plant, K_Q, lam)
    assert T.shape == T_inv.shape == H.shape == (N, plant.m, plant.m)
    assert G.shape == gains.shape == (N, plant.m) and cancel.shape == (N,)
    abscissae = np.max(np.linalg.eigvals(H).real, axis=1)  # the report's
    for n, l in enumerate(lam.tolist()):
        T_n, inverse, S = per_mode_transform(family, l)
        G_n = per_mode_coupling_row(plant, l, S, inverse)
        H_n = per_mode_closed_block(plant, K_Q, l)
        assert same_bits(T[n], T_n) and same_bits(T_inv[n], inverse)
        assert same_bits(G[n], G_n)
        assert cancel[n] == per_mode_cancellation(plant, l, T_n, G_n)
        assert same_bits(gains[n], per_mode_gain(plant, l, T_n, K_Q))
        assert same_bits(H[n], H_n)
        assert abscissae[n] == np.max(np.linalg.eigvals(H_n).real)


@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite))
def test_certificate_matches_per_mode(plant, delta):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    ctl, maps = synthesized(plant, delta, basis)
    assume(ctl is not None)
    family = solve_transform_family(plant)
    cert = certificate(plant, ctl, maps, basis, M_modes=30)
    lam = basis.lam[:ctl.N].tolist()
    forms = [per_mode_transform(family, l) for l in lam]
    inv_sq = max(float(np.linalg.norm(inverse, 2)) ** 2 for _T, inverse, _S in forms)
    fwd_sq = max(float(np.linalg.norm(T_n, 2)) ** 2 for T_n, _inv, _S in forms)
    assert cert.c_lower == 1.0 / max(1.0, inv_sq)
    assert cert.c_upper == max(1.0, fwd_sq)
    eye = np.eye(plant.m)
    gamma = tuple(
        float(np.linalg.eigvalsh(sym(ctl.P @ per_mode_closed_block(plant, ctl.K_Q, l))
                                 + eye / RHO_BAR + ctl.delta * ctl.P)[-1])
        for l in lam)
    assert cert.gamma_margins == gamma  # bitwise


@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite))
def test_margins_alone_match_certificate(plant, delta):
    """`verify`'s route, the margins from the maps that synthesis evaluated,
    gives the certificate's rho, gamma and omega margins bit for bit."""
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    ctl, maps = synthesized(plant, delta, basis)
    assume(ctl is not None)
    cert = certificate(plant, ctl, maps, basis, M_modes=30)
    margins = certificate_margins(plant, ctl, basis, maps.H, M_modes=30)
    for name in ("rho", "gamma_margins", "omega_margins"):
        assert (np.array(getattr(margins, name)).tobytes()
                == np.array(getattr(cert, name)).tobytes())


def relative(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# The seed that the text before `block_diagonal` gave (see above).
@seed(26651321348497923219444421874863665527304286067101910279538055857061360092118229834574964143087808291417081728698499)  # noqa: E501
@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite))
def test_gain_route_and_factorization(plant, delta):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    ctl, _ = synthesized(plant, delta, basis)
    assume(ctl is not None)
    N, m = ctl.N, plant.m
    lam = basis.lam[:N]
    T, T_inv = mode_transform(solve_transform_family(plant), lam)
    G = coupling_row(plant, lam, T, T_inv)
    # Kbar_n = (K_Q - G_n) T_n: the direct and the coupling route agree.
    for n in range(N):
        assert relative(ctl.Kbar[n], (ctl.K_Q - G[n]) @ T[n]) <= 1e-9
    # Bmat K = block-rows(Kbar), row n holding Kbar_n in block column n.
    rows = block_diagonal(ctl.Kbar[:, None])
    assert rows.shape == (N, m * N)
    for n in range(N):
        assert same_bits(rows[n, n * m:(n + 1) * m], ctl.Kbar[n])
        assert not np.delete(rows[n], np.s_[n * m:(n + 1) * m]).any()
    assert relative(ctl.Bmat @ ctl.K, rows) <= 1e-9


@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite))
def test_coupling_gain_does_not_depend_on_N(plant, delta):
    # The paper's N-independence: K_Q and P come from Q, delta and lambda_1
    # alone, so every admissible N gives the same bits.  An N whose Bmat is
    # singular is refused, and so is every N when P is at the rounding level.
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    N_min = select_mode_count(plant, basis, delta)
    gains = []
    for N in range(max(N_min, 1), len(plant.shapes) + 1):
        try:
            ctl, _ = build_controller(plant, delta, N=N, basis=basis)
        except (HypothesisHViolated, CertificateAtRoundingLevel):
            continue
        gains.append((ctl.K_Q, ctl.P))
    assume(len(gains) >= 2)
    for K_Q, P in gains[1:]:
        assert same_bits(K_Q, gains[0][0]) and same_bits(P, gains[0][1])


@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite),
       scale=st.floats(0.5, 1.5, **finite))
def test_target_residual_matches_block_diagonal_form(plant, delta, scale):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    ctl, maps = synthesized(plant, delta, basis)
    assume(ctl is not None)
    ctl = ctl._replace(Kbar=ctl.Kbar * scale)  # a nonzero defect too
    N, m = ctl.N, plant.m
    family = solve_transform_family(plant)
    z0 = np.array([[1.0 / n] * m for n in range(1, N + 1)])
    loop = assemble_closed_loop(plant, ctl, basis, N)
    traj = integrate(loop, z0, 0.1, 0.1 / 50)
    lam = basis.lam[:N].tolist()
    T = scipy.linalg.block_diag(*[per_mode_transform(family, l)[0] for l in lam])
    H = scipy.linalg.block_diag(*[per_mode_closed_block(plant, ctl.K_Q, l) for l in lam])
    blocks = []
    for n, l in enumerate(lam):
        block = -l * np.diag(plant.D) + plant.Q
        block[0, :] += ctl.Kbar[n]
        blocks.append(block)
    Z = traj.modal.reshape(len(traj.times), m * N).T
    defect = (T @ scipy.linalg.block_diag(*blocks) - H @ T) @ Z
    expected = (np.max(np.linalg.norm(defect, axis=0))
                / np.max(np.linalg.norm(H @ (T @ Z), axis=0)))
    res = target_residual(traj, maps, loop.A_RR)
    assert res == pytest.approx(expected, rel=1e-9, abs=1e-12)
