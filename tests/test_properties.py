"""Property tests over random valid bases, shapes and cascades.

The vectorized layers are checked against the per-mode forms they replace,
kept here as oracles: shape projections against the scalar closed forms,
the stacked residual-mode margins against one eigvalsh per mode, the
closed-loop assembly against the per-mode loop, the retained-only run
`verify` makes against the first N modes of the full run, and the stacked
modal transform (T_n, T_n^{-1}, G_n, H_n, the gains and the certificate)
against its evaluation one mode at a time.  The paper's gain identities,
Kbar_n = (K_Q - G_n) T_n and Bmat K = block-rows(Kbar), are checked on
synthesized controllers.  Example counts come from the hypothesis profile
in conftest.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import scipy.linalg

from cascade_stab.cli import _corrupt_family
from cascade_stab.errors import CertificateAtRoundingLevel, HypothesisHViolated
from cascade_stab.model import ShapeFunction
from cascade_stab.simulator import assemble_closed_loop, integrate, target_residual
from cascade_stab.spectral import build_basis, shape_projection, shape_projection_matrix
from cascade_stab.synthesis import (
    RHO_BAR,
    _omega_margins,
    block_diag_rows,
    build_controller,
    certificate,
    closed_blocks,
    modal_gains,
    select_mode_count,
    selection_margin,
    sym,
)
from cascade_stab.transform import (
    cancellation_residual,
    coupling_row,
    mode_transform,
    solve_transform_family,
)

from conftest import random_plant

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
    assert [shape_projection(shape, basis, n) for shape in group] == P[n - 1].tolist()


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
        assert selection_margin(plant, float(basis.lam[N]), rate) == margins[0]


def per_mode_closed_loop(plant, controller, basis, M_modes):
    """The closed-loop assembly as one Python loop over modes (the oracle)."""
    m, N = plant.m, controller.N
    A = np.zeros((m * M_modes, m * M_modes))
    D = np.diag(plant.D)
    for n in range(1, M_modes + 1):
        sl = slice((n - 1) * m, n * m)
        A[sl, sl] += -float(basis.lam[n - 1]) * D + plant.Q
        if N > 0:
            row = np.array([scalar_shape_projection(b, basis, n)
                            for b in plant.shapes[:N]])
            A[(n - 1) * m, : m * N] += row @ controller.K
    return A


def synthesized(plant, delta, basis):
    """Controller at the minimal N, or None when N is 0 or synthesis refuses.

    Synthesis refuses when N exceeds the shapes, and when the gains are so
    large that the coupling certificate is at the rounding level of P.
    """
    try:
        ctl = build_controller(plant, delta, basis=basis)
    except (HypothesisHViolated, CertificateAtRoundingLevel):
        return None
    return ctl if ctl.N > 0 else None


@given(plant=cascades(), delta=st.floats(0.5, 8.0, **finite),
       extra=st.integers(0, 40))
def test_assembly_matches_per_mode_loop(plant, delta, extra):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 60)
    ctl = synthesized(plant, delta, basis)
    assume(ctl is not None)
    M = ctl.N + extra
    A = assemble_closed_loop(plant, ctl, basis, M)
    assert A.tobytes() == per_mode_closed_loop(plant, ctl, basis, M).tobytes()


@given(plant=cascades(), delta=st.floats(0.5, 8.0, **finite),
       extra=st.integers(1, 60))
def test_retained_only_run_matches_full_run(plant, delta, extra):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 80)
    ctl = synthesized(plant, delta, basis)
    assume(ctl is not None)
    N, M, m = ctl.N, ctl.N + extra, plant.m
    z0 = np.array([[1.0 / n] * m for n in range(1, M + 1)])  # verify's run
    full = integrate(assemble_closed_loop(plant, ctl, basis, M), z0, 0.5, 0.5 / 400)
    kept = integrate(assemble_closed_loop(plant, ctl, basis, N), z0[:N], 0.5,
                     0.5 / 400)
    reference = full.modal[:, :N].reshape(len(full.times), -1)
    gap = np.linalg.norm(kept.modal.reshape(len(kept.times), -1) - reference, axis=1)
    assert np.max(gap / np.linalg.norm(reference, axis=1)) <= 1e-10


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
    if family.is_empty or lam == 0.0:
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
        family = _corrupt_family(plant, family)  # verify's debug hook
    N = data.draw(st.integers(0, basis.size), label="N")
    lam = basis.lam[:N]
    K_Q = np.asarray(data.draw(st.lists(st.floats(-50.0, 50.0, **finite),
                                        min_size=plant.m, max_size=plant.m)))
    T, T_inv = mode_transform(family, lam)
    G = coupling_row(plant, lam, T, T_inv)
    cancel = cancellation_residual(plant, lam, T, G)
    gains = modal_gains(plant, family, lam, K_Q, N)
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
    ctl = synthesized(plant, delta, basis)
    assume(ctl is not None)
    family = solve_transform_family(plant)
    cert = certificate(plant, ctl, family, basis, M_modes=30)
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


def relative(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


@given(plant=cascades(max_m=5), delta=st.floats(0.5, 8.0, **finite))
def test_gain_route_and_factorization(plant, delta):
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 40)
    ctl = synthesized(plant, delta, basis)
    assume(ctl is not None)
    N, m = ctl.N, plant.m
    lam = basis.lam[:N]
    T, T_inv = mode_transform(solve_transform_family(plant), lam)
    G = coupling_row(plant, lam, T, T_inv)
    # Kbar_n = (K_Q - G_n) T_n: the direct and the coupling route agree.
    for n in range(N):
        assert relative(ctl.Kbar[n], (ctl.K_Q - G[n]) @ T[n]) <= 1e-9
    # Bmat K = block-rows(Kbar), row n holding Kbar_n in block column n.
    rows = block_diag_rows(ctl.Kbar)
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
            ctl = build_controller(plant, delta, N=N, basis=basis)
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
    ctl = synthesized(plant, delta, basis)
    assume(ctl is not None)
    ctl = dataclasses.replace(ctl, Kbar=ctl.Kbar * scale)  # a nonzero defect too
    N, m = ctl.N, plant.m
    family = solve_transform_family(plant)
    z0 = np.array([[1.0 / n] * m for n in range(1, N + 1)])
    traj = integrate(assemble_closed_loop(plant, ctl, basis, N), z0, 0.1, 0.1 / 50)
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
    res = target_residual(traj, plant, ctl, family, basis)
    assert res == pytest.approx(expected, rel=1e-9, abs=1e-12)
