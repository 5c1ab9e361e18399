"""Property tests over random valid bases, shapes and cascades.

The vectorized layers are checked against the per-mode forms they replace,
kept here as oracles: shape projections against the scalar closed forms,
the stacked residual-mode margins against one eigvalsh per mode, the
closed-loop assembly against the per-mode loop, and the retained-only run
`verify` makes against the first N modes of the full run.  Example counts
come from the hypothesis profile in conftest.py.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cascade_stab.errors import HypothesisHViolated
from cascade_stab.model import ShapeFunction
from cascade_stab.simulator import assemble_closed_loop, integrate
from cascade_stab.spectral import build_basis, shape_projection, shape_projection_matrix
from cascade_stab.synthesis import _omega_margins, build_controller, selection_margin

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
def cascades(draw):
    """A random valid cascade (conftest.random_plant) from a drawn seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    return random_plant(np.random.default_rng(seed))


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
    """Controller at the minimal N, or None when N is 0 or exceeds the shapes."""
    try:
        ctl = build_controller(plant, delta, basis=basis)
    except HypothesisHViolated:
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
