import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_stab.errors import (
    PlantInputError,
    QuadratureNonConvergence,
    RootBracketingFailure,
)
from cascade_stab.model import ShapeFunction
from cascade_stab.spectral import (
    _PI_LO,
    _RULE_NODES,
    _RULE_WEIGHTS,
    SpectralBasis,
    _grid_roots,
    _check_boundary_residuals,
    _polynomial_column,
    _samples_column,
    _shape_columns,
    adaptive_simpson,
    build_basis,
    expand,
    input_projection_row,
    project,
    project_callable,
)


class TestBuildBasis:
    def test_dirichlet_eigenvalues_exact(self, demo_basis):
        # gamma2 = 0 on (0, pi): lambda_n = (n - 1/2)^2
        for n in range(1, demo_basis.size + 1):
            expected = (n - 0.5) ** 2
            assert demo_basis.lam[n - 1] == pytest.approx(expected, rel=1e-12)

    def test_dirichlet_normalizer(self, demo_basis):
        # ||cos((n-1/2)x)||^2 = pi/2 on (0, pi)
        assert demo_basis.c[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_neumann_case(self):
        basis = build_basis(1.0, 0.0, 1.0, 2)
        assert basis.lam[0] == 0.0
        assert basis.lam[1] == pytest.approx(math.pi**2, rel=1e-14)
        # constant eigenfunction 1/sqrt(L)
        assert basis.phi(1, 0.37) == pytest.approx(1.0)

    def test_robin_root_matches_brute_scan(self):
        # gamma1 = gamma2 = 1 on (0, pi): cos(s pi) = s sin(s pi)
        basis = build_basis(math.pi, 1.0, 1.0, 1)

        def f(s):
            return math.cos(s * math.pi) - s * math.sin(s * math.pi)

        xs = np.arange(1e-6, 1.0, 1e-4)
        signs = np.sign([f(x) for x in xs])
        (idx,) = np.nonzero(np.diff(signs))
        lo, hi = xs[idx[0]], xs[idx[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert basis.s[0] == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_eigenvalue_monotonicity(self):
        for g1, g2 in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -0.2), (2.5, 0.4)]:
            basis = build_basis(2.0, g1, g2, 12)
            assert np.all(np.diff(basis.lam) > 0.0)

    def test_boundary_residuals(self):
        for g1, g2 in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 2.0)]:
            basis = build_basis(1.7, g1, g2, 25)
            for n in range(1, basis.size + 1):
                s, c = basis.s[n - 1], basis.c[n - 1]
                phi_prime = -c * s * np.sin(s * basis.L)  # phi_n'(L)
                res = abs(g1 * basis.phi(n, basis.L) + g2 * phi_prime)
                assert res <= 1e-10

    def test_robin_high_modes_build(self):
        # An accurate root's residual grows with s_n; the tolerance does too.
        basis = build_basis(math.pi, 1.0, 1.0, 1000)
        assert basis.size == 1000
        assert np.all(np.diff(basis.s) > 0.0)

    def test_perturbed_root_raises(self):
        basis = build_basis(math.pi, 1.0, 1.0, 50)
        s = basis.s.copy()
        s[30] += 1e-6
        bad = SpectralBasis(L=basis.L, gamma1=basis.gamma1, gamma2=basis.gamma2,
                            s=s, lam=s * s, c=basis.c.copy())
        with pytest.raises(RootBracketingFailure, match="eigenfunction 31 "):
            _check_boundary_residuals(bad)

    def test_gram_matrix_is_identity(self):
        basis = build_basis(math.pi, 1.0, 1.0, 10)
        G = np.empty((10, 10))
        for i in range(1, 11):
            for j in range(1, 11):
                G[i - 1, j - 1] = adaptive_simpson(
                    lambda x, i=i, j=j: basis.phi(i, x) * basis.phi(j, x),
                    0.0,
                    basis.L,
                    tol=1e-11,
                )
        assert np.max(np.abs(G - np.eye(10))) <= 1e-8


def _nearest_double_roots(offset, count, L):
    """(k + offset) pi / L for k < count, at 60 digits, rounded to nearest."""
    with mpmath.workdps(60):
        step = mpmath.pi / mpmath.mpf(L)
        return [float((k + mpmath.mpf(offset)) * step) for k in range(count)]


# Dirichlet (gamma2 = 0) roots sit at (k + 1/2) pi / L, Neumann (gamma1 = 0)
# roots at k pi / L.
CLOSED_FORM = [((1.0, 0.0), 0.5), ((0.0, 1.0), 0.0)]
KINDS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.3)]


class TestClosedFormRoots:
    def test_pi_lo_is_the_rounded_tail_of_pi(self):
        with mpmath.workdps(60):
            assert _PI_LO == float(mpmath.pi - math.pi)

    @pytest.mark.parametrize("L, count", [(math.pi, 400), (6.5, 120)])
    @pytest.mark.parametrize("gammas, offset", CLOSED_FORM)
    def test_workload_bases_are_correctly_rounded(self, L, count, gammas, offset):
        basis = build_basis(L, *gammas, count)
        assert basis.s.tolist() == _nearest_double_roots(offset, count, L)
        np.testing.assert_array_equal(basis.lam, basis.s * basis.s)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-300.0, 300.0), st.sampled_from([0.5, 0.0]))
    @example(-300.0, 0.5)
    @example(300.0, 0.5)
    @example(300.0, 0.0)
    def test_roots_are_correctly_rounded(self, exponent, offset):
        L = 10.0 ** exponent
        s = _grid_roots(np.arange(50) + offset, L)
        assert s.tolist() == _nearest_double_roots(offset, 50, L)

    @pytest.mark.parametrize("gammas, offset", CLOSED_FORM)
    def test_normalizers_are_exact(self, gammas, offset):
        basis = build_basis(2.5, *gammas, 6)
        expected = [1.0 / math.sqrt(2.5 / 2.0)] * 6
        if offset == 0.0:
            expected[0] = 1.0 / math.sqrt(2.5)
        assert basis.c.tolist() == expected


def _robin_roots(L, count):
    """Roots of cos(sL) = s sin(sL) (gamma1 = gamma2 = 1), at 60 digits.

    u = s L solves u tan u = L with u_k in (k pi, (k + 1) pi); for k >= 1,
    u = k pi + atan(L / u) contracts by about L / u**2 per step.
    """
    with mpmath.workdps(60):
        Lm = mpmath.mpf(L)
        r = mpmath.sqrt(Lm)  # u_0 = r v with v tan(r v) / r = 1
        roots = [r * mpmath.findroot(lambda v: v * mpmath.tan(r * v) / r - 1, 1)]
        for k in range(1, count):
            u = k * mpmath.pi
            for _ in range(4):
                u = k * mpmath.pi + mpmath.atan(Lm / u)
            roots.append(u)
        return np.array([float(u / Lm) for u in roots])


class TestShortRobinDomains:
    """Robin roots on short domains, where chi at the grid k pi / L is rounding."""

    @pytest.mark.parametrize("L, count", [(1e-10, 400), (1e-40, 60), (1e-160, 1)])
    def test_roots_within_three_ulp(self, L, count):
        basis = build_basis(L, 1.0, 1.0, count)
        expected = _robin_roots(L, count)
        assert np.all(np.abs(basis.s - expected) <= 3.0 * np.spacing(expected))


class TestModeCountIndependence:
    """Mode n is bitwise the same whatever the number of modes built."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-2.0, 3.0), st.sampled_from(KINDS),
           st.integers(1, 150), st.integers(1, 150))
    def test_leading_modes_bitwise_equal(self, exponent, gammas, a, b):
        L = 10.0 ** exponent
        n, count = min(a, b), max(a, b)
        small, large = build_basis(L, *gammas, n), build_basis(L, *gammas, count)
        for field in ("s", "lam", "c"):
            np.testing.assert_array_equal(getattr(large, field)[:n],
                                          getattr(small, field))

    @pytest.mark.parametrize("L", [1e-300, 1e300, 1.7e308])
    @pytest.mark.parametrize("gammas", KINDS)
    @pytest.mark.parametrize("count", [1, 50])
    def test_extreme_lengths_give_a_basis_or_an_input_error(self, L, gammas, count):
        try:
            basis = build_basis(L, *gammas, count)
        except PlantInputError as exc:
            assert f"L={L!r}" in str(exc) and f"{count} modes" in str(exc)
        else:
            for field in ("s", "lam", "c"):
                assert np.isfinite(getattr(basis, field)).all()

    @pytest.mark.parametrize("gammas", KINDS)
    def test_overflowing_eigenvalues_raise_input_error(self, gammas):
        with pytest.raises(PlantInputError, match=r"L=1e-160 .* 30 modes"):
            build_basis(1e-160, *gammas, 30)


class TestProject:
    def test_eigenfunction_projects_to_one(self, demo_basis):
        val = project(lambda x: demo_basis.phi(2, x), demo_basis, 2)
        assert val == pytest.approx(1.0, abs=1e-8)
        cross = project(lambda x: demo_basis.phi(2, x), demo_basis, 1)
        assert cross == pytest.approx(0.0, abs=1e-8)

    def test_indicator_closed_form(self, demo_basis):
        # int_{0.1}^{0.2} c cos(x/2) dx = 2c (sin 0.1 - sin 0.05), c = sqrt(2/pi)
        expected = 2.0 * math.sqrt(2.0 / math.pi) * (math.sin(0.1) - math.sin(0.05))
        shape = ShapeFunction.indicator(0.1, 0.2)
        assert project(shape, demo_basis, 1) == pytest.approx(expected, rel=1e-13)
        # quadrature over the support interval agrees with the closed form
        quad = adaptive_simpson(
            lambda x: demo_basis.phi(1, x), 0.1, 0.2, tol=1e-12
        )
        assert quad == pytest.approx(expected, abs=1e-10)

    def test_constant_function(self, demo_basis):
        # <1, phi_1> = c * int_0^pi cos(x/2) dx = 2 c
        expected = 2.0 * math.sqrt(2.0 / math.pi)
        assert project(lambda x: 1.0, demo_basis, 1) == pytest.approx(expected, rel=1e-10)

    def test_polynomial_closed_form_matches_quadrature(self, demo_basis):
        shape = ShapeFunction.polynomial(0.3, -0.2, 0.05, 0.01)
        for n in (1, 2, 5):
            exact = project(shape, demo_basis, n)
            quad = project(lambda x: shape(float(x)), demo_basis, n, tol=1e-12)
            assert exact == pytest.approx(quad, abs=1e-9)

    def test_samples_closed_form_matches_quadrature(self, demo_basis):
        grid = np.linspace(0.0, math.pi, 9)
        vals = np.cos(grid) * 0.5 + 0.25
        shape = ShapeFunction.samples(grid, vals)
        for n in (1, 3):
            exact = project(shape, demo_basis, n)
            quad = project(lambda x: shape(float(x)), demo_basis, n, tol=1e-12)
            assert exact == pytest.approx(quad, abs=1e-8)


class TestProjectCallable:
    def test_rule_literals_are_the_lobatto_rule(self):
        # Bit for bit: the literals are the digits of the 10-point
        # Gauss-Lobatto-Legendre rule, nodes +-1 and the roots of P_9'.
        points = 10
        p = np.polynomial.legendre.Legendre.basis(points - 1)
        nodes = np.concatenate([[-1.0], np.sort(p.deriv().roots()), [1.0]])
        weights = 2.0 / (points * (points - 1) * p(nodes) ** 2)
        assert _RULE_NODES.tobytes() == nodes.tobytes()
        assert _RULE_WEIGHTS.tobytes() == weights.tobytes()

    def test_gram_matrix_is_identity(self):
        basis = build_basis(math.pi, 1.0, 1.0, 10)
        modes = range(1, 11)
        G = np.array([project_callable(lambda x, i=i: basis.phi(i, x), basis, modes)
                      for i in modes])
        assert np.max(np.abs(G - np.eye(10))) <= 1e-8

    def test_scalar_only_callable(self, demo_basis):
        shape = ShapeFunction.polynomial(0.3, -0.2, 0.05, 0.01)
        got = project_callable(lambda x: shape(float(x)), demo_basis, range(1, 9))
        exact = [project(shape, demo_basis, n) for n in range(1, 9)]
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-10)

    def test_constant_callables(self, demo_basis):
        assert np.all(project_callable(lambda x: 0.0, demo_basis, range(1, 6)) == 0.0)
        got = project_callable(lambda x: 2.5, demo_basis, range(1, 6))
        exact = [2.5 * project(ShapeFunction.polynomial(1.0), demo_basis, n)
                 for n in range(1, 6)]
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-10)

    def test_discontinuous_callable_matches_closed_form(self, demo_basis):
        shape = ShapeFunction.indicator(0.7, 1.9)
        got = project_callable(lambda x: shape(x), demo_basis, range(1, 31))
        exact = [project(shape, demo_basis, n) for n in range(1, 31)]
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-9)

    def test_band_limited_data_at_high_mode(self):
        basis = build_basis(math.pi, 1.0, 0.0, 200)

        def f(x):
            return 0.5 * basis.phi(3, x) - 2.0 * basis.phi(150, x)

        got = project_callable(f, basis, range(1, 201))
        expected = np.zeros(200)
        expected[2], expected[149] = 0.5, -2.0
        assert np.max(np.abs(got - expected)) <= 1e-9

    def test_nan_callable_raises(self, demo_basis):
        with pytest.raises(QuadratureNonConvergence):
            project_callable(lambda x: np.full_like(x, np.nan), demo_basis, [1, 2])
        with pytest.raises(QuadratureNonConvergence):
            project(lambda x: float("nan"), demo_basis, 1)

    def test_modes_out_of_range(self, demo_plant, demo_basis):
        shape = demo_plant.shapes[0]
        for n in (0, demo_basis.size + 1):
            with pytest.raises(ValueError):
                project_callable(lambda x: x, demo_basis, [n])
            with pytest.raises(ValueError):
                project(shape, demo_basis, n)
            with pytest.raises(ValueError):
                input_projection_row(demo_plant.shapes, demo_basis, n)


def indicator_column(a, b, s, c):
    """int_a^b c cos(s x) dx for one interval: the per-shape closed form that
    `_shape_columns` broadcasts over every indicator at once."""
    zero = s == 0
    safe = np.where(zero, 1, s)
    return np.where(zero, c * (b - a), c * (np.sin(s * b) - np.sin(s * a)) / safe)


class TestShapeColumns:
    @pytest.mark.parametrize("gamma1, gamma2", [(1, 0), (0, 1), (1, 1)])
    def test_indicators_match_the_per_shape_form(self, gamma1, gamma2):
        """Bit for bit, on Dirichlet, Neumann (s = 0 for the first mode) and
        Robin bases, with indicators among the other kinds, and on one mode."""
        rng = np.random.default_rng(gamma1 + 2 * gamma2)
        L = math.pi
        ends = np.sort(rng.uniform(0, L, (5, 2)), axis=1)
        grid = np.linspace(0, L, 7)
        shapes = [ShapeFunction.indicator(*ends[0]),
                  ShapeFunction.polynomial(*rng.normal(size=3)),
                  ShapeFunction.indicator(*ends[1]),
                  ShapeFunction.samples(grid, rng.normal(size=7)),
                  *(ShapeFunction.indicator(*e) for e in ends[2:])]
        basis = build_basis(L, gamma1, gamma2, 40)
        for s, c in ((basis.s, basis.c), (basis.s[3:4], basis.c[3:4])):
            columns = []
            for shape in shapes:
                if shape.kind == "indicator":
                    columns.append(indicator_column(*shape.params, s, c))
                elif shape.kind == "polynomial":
                    columns.append(_polynomial_column(shape.params, L, s, c))
                else:
                    columns.append(_samples_column(*shape.params, s, c))
            expected = np.stack(columns, axis=1)
            assert _shape_columns(shapes, L, s, c).tobytes() == expected.tobytes()


class TestInputProjectionRow:
    def test_indicator_row(self, demo_plant, demo_basis):
        row = input_projection_row(demo_plant.shapes, demo_basis, 1)
        expected0 = 2.0 * math.sqrt(2.0 / math.pi) * (math.sin(0.1) - math.sin(0.05))
        assert row.shape == (3,)
        assert row[0] == pytest.approx(expected0, rel=1e-12)

    def test_eigenfunction_shape_row(self, demo_basis):
        grid = np.linspace(0.0, math.pi, 4001)
        shape = ShapeFunction.samples(grid, demo_basis.phi(1, grid))
        row1 = input_projection_row([shape], demo_basis, 1)
        row2 = input_projection_row([shape], demo_basis, 2)
        assert row1[0] == pytest.approx(1.0, abs=1e-6)
        assert row2[0] == pytest.approx(0.0, abs=1e-6)


class TestExpand:
    def test_single_mode_at_origin(self, demo_basis):
        coeffs = np.zeros((1, 3))
        coeffs[0, 0] = 1.0
        field = expand(coeffs, demo_basis, [0.0])
        # phi_1(0) = c_1 = sqrt(2/pi)
        assert field[0, 0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert field[1, 0] == 0.0

    def test_zero_coefficients(self, demo_basis):
        field = expand(np.zeros((5, 2)), demo_basis, np.linspace(0, math.pi, 7))
        assert np.all(field == 0.0)

    def test_band_limited_round_trip(self, demo_basis):
        # f = 2 phi_1 - 3 phi_4 + 0.5 phi_7, project then expand reproduces f
        def f(x):
            return (
                2.0 * demo_basis.phi(1, x)
                - 3.0 * demo_basis.phi(4, x)
                + 0.5 * demo_basis.phi(7, x)
            )

        coeffs = np.array([[project(f, demo_basis, n)] for n in range(1, 11)])
        grid = np.linspace(0.0, math.pi, 33)
        recon = expand(coeffs, demo_basis, grid)[0]
        assert np.max(np.abs(recon - f(grid))) <= 1e-6


class TestAdaptiveSimpson:
    def test_known_integral(self):
        val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(math.e - 1.0, rel=1e-11)

    def test_oscillatory_integral(self):
        val = adaptive_simpson(lambda x: math.cos(10.0 * x), 0.0, math.pi, tol=1e-11)
        assert val == pytest.approx(math.sin(10.0 * math.pi) / 10.0, abs=1e-10)
