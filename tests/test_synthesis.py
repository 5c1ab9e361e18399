import json
import math

import mpmath
import numpy as np
import pytest

from cascade_stab.checks import block_diagonal
from cascade_stab.errors import (
    CertificateAtRoundingLevel,
    HypothesisHViolated,
    PlantInputError,
)
from cascade_stab.model import PlantSpec, ShapeFunction, validate_plant
from cascade_stab.spectral import build_basis
from cascade_stab.synthesis import (
    Controller,
    build_controller,
    certificate,
    certificate_margins,
    certificate_from_dict,
    check_coupling,
    closed_blocks,
    controller_from_dict,
    direct_baseline,
    gains_to_dict,
    input_matrix,
    modal_gains,
    retained_maps,
    select_mode_count,
    selection_margins,
    stabilize_coupling,
    sym,
)
from cascade_stab.transform import coupling_row, mode_transform, solve_transform_family

from conftest import random_plant


def simple_plant(D, Q, shapes=None, L=math.pi):
    m = len(D)
    shapes = shapes or tuple(
        ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1) for j in range(1, m + 1)
    )
    return validate_plant(
        PlantSpec(m=m, D=np.asarray(D, float), Q=np.asarray(Q, float),
                  L=L, gamma1=1.0, gamma2=0.0, shapes=shapes)
    )


def leading_minors_negative_definite(M):
    """Sylvester criterion: (-1)^k det(M_k) > 0 for every leading minor."""
    for k in range(1, M.shape[0] + 1):
        if (-1.0) ** k * np.linalg.det(M[:k, :k]) <= 0.0:
            return False
    return True


class TestSelectModeCount:
    def test_demo_minimum_is_two(self, demo_plant, demo_basis):
        assert select_mode_count(demo_plant, demo_basis, 9.0) == 2

    def test_demo_condition_fails_at_one(self, demo_plant, demo_basis):
        margin = selection_margins(demo_plant, [demo_basis.lam[1]], 9.0)[0]
        assert margin > 1e-9
        M = (-demo_basis.lam[1] * np.diag(demo_plant.D)
             + sym(demo_plant.Q) + 9.0 * np.eye(3))
        assert not leading_minors_negative_definite(M)

    def test_demo_condition_holds_at_two_and_three(self, demo_plant, demo_basis):
        for N in (2, 3):
            lam = float(demo_basis.lam[N])
            assert selection_margins(demo_plant, [lam], 9.0)[0] < -1e-9
            M = -lam * np.diag(demo_plant.D) + sym(demo_plant.Q) + 9.0 * np.eye(3)
            assert leading_minors_negative_definite(M)

    def test_stable_plant_needs_no_modes(self):
        plant = simple_plant([1.0], [[-5.0]])
        basis = build_basis(math.pi, 1.0, 0.0, 4)
        assert select_mode_count(plant, basis, 0.01) == 0

    def test_minimality_random(self, rng):
        basis = build_basis(math.pi, 1.0, 0.0, 60)
        for _ in range(25):
            plant = random_plant(rng)
            delta = float(rng.uniform(0.5, 6.0))
            N = select_mode_count(plant, basis, delta)
            assert selection_margins(plant, [basis.lam[N]], delta)[0] < 0.0
            if N >= 1:
                assert selection_margins(plant, [basis.lam[N - 1]], delta)[0] >= 0.0

    def test_basis_auto_extends(self, demo_plant):
        tiny = build_basis(math.pi, 1.0, 0.0, 1)
        assert select_mode_count(demo_plant, tiny, 9.0) == 2

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_rate_must_be_positive_and_finite(self, demo_plant, demo_basis, delta):
        with pytest.raises(PlantInputError, match="positive and finite"):
            select_mode_count(demo_plant, demo_basis, delta)


class TestStabilizeCoupling:
    def test_scalar_example(self):
        plant = simple_plant([1.0], [[2.0]])
        # delta - lambda1 * d = 3.25 - 0.25 = 3; single offset 1 puts the
        # closed-loop pole at -4, so K_Q = -6 and 2*(-1)*P = -1 gives P = 1/2.
        K_Q, P = stabilize_coupling(plant, 3.25, 0.25)
        assert K_Q[0] == pytest.approx(-6.0, abs=1e-12)
        assert P[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_char_poly_match_two_by_two(self):
        plant = simple_plant([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        # shift 1 with offsets (1, 2): poles {-2, -3}
        K_Q, _P = stabilize_coupling(plant, 1.25, 0.25)
        closed = plant.Q + np.outer([1.0, 0.0], K_Q)
        coeffs = np.poly(closed)
        np.testing.assert_allclose(coeffs, [1.0, 5.0, 6.0], atol=1e-10)

    def test_demo_abscissa_and_lyapunov(self, demo_plant):
        K_Q, P = stabilize_coupling(demo_plant, 9.0, 0.25)
        closed = demo_plant.Q + np.outer([1.0, 0.0, 0.0], K_Q)
        assert np.max(np.linalg.eigvals(closed).real) <= -7.5
        Abar = closed + 7.5 * np.eye(3)
        residual = np.max(np.abs(Abar.T @ P + P @ Abar + np.eye(3)))
        assert residual <= 1e-8 * max(1.0, np.max(np.abs(P)))
        assert np.all(np.linalg.eigvalsh(P) > 0.0)

    def test_decay_lmi_certified(self, demo_plant):
        # Sym(P (Q + B K_Q)) + (delta - lambda1 d_m) P = -I/2 by construction.
        K_Q, P = stabilize_coupling(demo_plant, 9.0, 0.25)
        closed = demo_plant.Q + np.outer([1.0, 0.0, 0.0], K_Q)
        lhs = sym(P @ closed) + 7.5 * P
        np.testing.assert_allclose(np.linalg.eigvalsh(lhs), -0.5, atol=1e-4)
        assert np.max(np.linalg.eigvalsh(lhs)) < 0.0

    def test_design_lmi_by_congruence_small_plant(self):
        # The W-side design form Sym(Q W + B Z) + shift * W < 0 with
        # W = P^-1, Z = K_Q W; checkable directly when P is well conditioned.
        plant = simple_plant([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        K_Q, P = stabilize_coupling(plant, 1.25, 0.25)
        W = np.linalg.inv(P)
        Z = K_Q @ W
        lhs = sym(plant.Q @ W + np.outer([1.0, 0.0], Z)) + 1.0 * W
        assert np.max(np.linalg.eigvalsh(lhs)) < 0.0

    def test_custom_offsets_and_validation(self, demo_plant):
        K_Q, _ = stabilize_coupling(demo_plant, 9.0, 0.25, pole_offsets=(4, 6, 9))
        closed = demo_plant.Q + np.outer([1.0, 0.0, 0.0], K_Q)
        expected = sorted([-7.5 - 4, -7.5 - 6, -7.5 - 9])
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(closed).real), expected, rtol=1e-8
        )
        with pytest.raises(PlantInputError):
            stabilize_coupling(demo_plant, 9.0, 0.25, pole_offsets=(1, 1, 2))

    @pytest.mark.parametrize("m, seed", [(9, 0), (9, 3), (10, 0), (10, 2)])
    def test_lyapunov_solve_beyond_eight_equations(self, m, seed):
        # The Kronecker solve serves every m; scipy's Bartels-Stewart solve
        # missed the residual tolerance on most of these cascades.
        plant = random_plant(np.random.default_rng(seed), m=m)
        K_Q, P = stabilize_coupling(plant, 2.0, 0.25)
        Abar = plant.Q + np.outer(np.eye(m)[0], K_Q) + (2.0 - 0.25 * plant.d_last) * np.eye(m)
        residual = np.max(np.abs(Abar.T @ P + P @ Abar + np.eye(m)))
        assert residual <= 1e-12 * np.max(np.abs(P))
        np.testing.assert_array_equal(P, P.T)


    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_rounding_level_certificate_raises(self, m):
        # Offsets 1..m at delta = 2 drive K_Q toward 1e9 and P toward 1e14
        # as m grows, and P's margins toward its rounding level.  Each P is
        # refused, or both margins exceed the bound in 50-digit arithmetic
        # on the returned K_Q and P.
        outcomes = set()
        for seed in range(12):
            plant = random_plant(np.random.default_rng(seed), m=m)
            K_Q, P = stabilize_coupling(plant, 2.0, 0.25)
            try:
                check_coupling(plant, 2.0, 0.25, K_Q, P)
            except CertificateAtRoundingLevel:
                outcomes.add("raised")
                continue
            outcomes.add("passed")
            bound = float(m * np.finfo(float).eps * np.linalg.norm(P, 2))
            with mpmath.workdps(50):
                Pm = mpmath.matrix(P.tolist())
                closed = mpmath.matrix(plant.Q.tolist())
                for j in range(m):
                    closed[0, j] += K_Q[j]
                shift = 2 - mpmath.mpf(0.25) * plant.d_last
                lmi = (Pm * closed + closed.T * Pm) / 2 + shift * Pm
                eye = bound * mpmath.eye(m)
                mpmath.cholesky(Pm - eye)     # raises ValueError unless > 0
                mpmath.cholesky(-lmi - eye)
        # Both outcomes occur at m = 8; from m = 10 on every P is refused.
        assert outcomes == ({"raised", "passed"} if m == 8 else {"raised"})

    def test_check_coupling_tests_each_margin(self, demo_plant):
        K_Q, P = stabilize_coupling(demo_plant, 9.0, 0.25)
        check_coupling(demo_plant, 9.0, 0.25, K_Q, P)
        shifted = P - 2.0 * np.linalg.eigvalsh(P)[0] * np.eye(3)  # lambda_min < 0
        with pytest.raises(CertificateAtRoundingLevel):
            check_coupling(demo_plant, 9.0, 0.25, K_Q, shifted)
        # Without feedback the demo coupling is unstable: P > 0, LMI not < 0.
        with pytest.raises(CertificateAtRoundingLevel):
            check_coupling(demo_plant, 9.0, 0.25, np.zeros(3), P)


class TestModalGains:
    def test_two_equations_shifted_gain(self):
        plant = simple_plant([2.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        family = solve_transform_family(plant)
        K_Q = np.array([-5.0, -7.0])
        lambdas = [0.25, 2.25, 6.25]
        rows = modal_gains(plant, lambdas, K_Q, mode_transform(family, lambdas)[0])
        for n, lam in enumerate(lambdas):
            np.testing.assert_allclose(
                rows[n], K_Q + np.array([lam * (2.0 - 1.0), 0.0]), atol=1e-12
            )

    def test_equal_diffusions_gain_is_constant(self, rng):
        plant = random_plant(rng, m=4, force_sigma=1)
        family = solve_transform_family(plant)
        K_Q = rng.uniform(-3.0, 3.0, 4)
        lambdas = [0.25, 2.25, 6.25]
        rows = modal_gains(plant, lambdas, K_Q, mode_transform(family, lambdas)[0])
        for row in rows:
            np.testing.assert_allclose(row, K_Q, atol=1e-13)

    def test_demo_mode_one_expansion(self, demo_plant):
        # Hand expansion of the displayed formula at lambda_1 = 1/4 with the
        # published row gain for the coupling matrix as input.
        family = solve_transform_family(demo_plant)
        K_Q = np.array([-67.5, -3059.0, -5823.0])
        rows = modal_gains(demo_plant, [0.25], K_Q, mode_transform(family, [0.25])[0])
        np.testing.assert_allclose(
            rows[0], [-68.25, -3075.9375, -5823.5], atol=1e-12
        )
        # Independent arithmetic with the explicit T_1 = I + 0.25 E12:
        T1 = np.array([[1.0, 0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        Q, D = demo_plant.Q, np.diag(demo_plant.D)
        M = (Q - 1.5 * np.eye(3)) @ T1 + T1 @ (0.25 * D - Q)
        np.testing.assert_allclose(rows[0], M[0, :] + K_Q @ T1, atol=1e-12)

    def test_too_few_eigenvalues_rejected(self, demo_plant):
        family = solve_transform_family(demo_plant)
        T = mode_transform(family, [0.25, 2.25, 6.25])[0]
        for lambdas in ([0.25, 2.25], [0.25]):
            with pytest.raises(ValueError):
                modal_gains(demo_plant, lambdas, np.zeros(3), T)

    def test_gain_route_equality_random(self, rng):
        lambdas = [0.25, 2.25, 6.25, 12.25]
        for _ in range(100):
            plant = random_plant(rng)
            family = solve_transform_family(plant)
            K_Q = rng.uniform(-2.0, 2.0, plant.m)
            T, T_inv = mode_transform(family, lambdas)
            rows = modal_gains(plant, lambdas, K_Q, T)
            G = coupling_row(plant, lambdas, T, T_inv)
            for n in range(len(lambdas)):
                other = (K_Q - G[n]) @ T[n]
                scale = max(1.0, np.max(np.abs(rows[n])), np.max(np.abs(other)))
                assert np.max(np.abs(rows[n] - other)) / scale <= 1e-9


class TestInputMatrix:
    def test_eigenfunction_shapes_give_identity(self, demo_basis):
        grid = np.linspace(0.0, math.pi, 4001)
        shapes = [
            ShapeFunction.samples(grid, demo_basis.phi(j, grid)) for j in (1, 2, 3)
        ]
        B, cond = input_matrix(shapes, demo_basis, 3)
        np.testing.assert_allclose(B, np.eye(3), atol=1e-5)
        assert cond == pytest.approx(1.0, abs=1e-4)

    def test_demo_shapes_nonsingular(self, demo_plant, demo_basis):
        B, cond = input_matrix(demo_plant.shapes, demo_basis, 3)
        assert np.isfinite(cond)
        assert abs(np.linalg.det(B)) > 0.0

    def test_duplicate_shapes_violate_hypothesis(self, demo_basis):
        shape = ShapeFunction.indicator(0.1, 0.2)
        with pytest.raises(HypothesisHViolated):
            input_matrix([shape, shape], demo_basis, 2)

    def test_wrong_count_rejected(self, demo_plant, demo_basis):
        with pytest.raises(HypothesisHViolated):
            input_matrix(demo_plant.shapes, demo_basis, 2)


class TestBuildController:
    def test_demo_controller(self, demo_plant, demo_basis):
        ctl, _ = build_controller(demo_plant, 9.0, N=3, basis=demo_basis)
        assert ctl.N == 3
        assert ctl.N_min == 2
        assert ctl.K.shape == (3, 9)
        H = closed_blocks(demo_plant, ctl.K_Q, demo_basis.lam[:3])
        assert np.max(np.linalg.eigvals(H).real) <= -9.0
        # factorization: Bmat K = blockdiag rows of Kbar
        recon = ctl.Bmat @ ctl.K
        target = np.zeros_like(recon)
        for n in range(3):
            target[n, 3 * n:3 * n + 3] = ctl.Kbar[n]
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(recon - target)) / scale <= 1e-9

    def test_minimal_N_when_omitted(self, demo_plant, demo_basis):
        ctl, _ = build_controller(demo_plant, 9.0, basis=demo_basis)
        assert ctl.N == 2

    def test_user_N_below_minimum_rejected(self, demo_plant, demo_basis):
        with pytest.raises(PlantInputError):
            build_controller(demo_plant, 9.0, N=1, basis=demo_basis)

    def test_stable_plant_empty_controller(self):
        plant = simple_plant([1.0], [[-5.0]])
        ctl, _ = build_controller(plant, 0.01)
        assert ctl.N == 0
        assert ctl.K.size == 0

    @pytest.mark.parametrize("D, Q, delta", [
        ([1.0], [[-5.0]], 0.01),
        ([4.0, 5.0, 6.0], [[-1.0, 0.5, 0.0], [1.0, -1.0, 0.5], [0.0, 1.0, -1.0]], 1.0)])
    def test_stable_plant_has_no_gamma_margins(self, D, Q, delta):
        """At N = 0 the empty stack of target blocks gives no gamma margin."""
        plant = simple_plant(D, Q)
        basis = build_basis(math.pi, 1.0, 0.0, 8)
        ctl, maps = build_controller(plant, delta, basis=basis)
        assert ctl.N == 0 and maps.H.shape == (0, len(D), len(D))
        assert certificate_margins(plant, ctl, basis, maps.H).gamma_margins == ()
        assert certificate(plant, ctl, maps, basis).gamma_margins == ()

    def test_equal_diffusions_controller_repeats_K_Q(self, rng):
        plant = random_plant(rng, m=3, force_sigma=1)
        basis = build_basis(math.pi, 1.0, 0.0, 20)
        delta = 2.0
        ctl, _ = build_controller(plant, delta, basis=basis)
        if ctl.N == 0:
            pytest.skip("plant already stable at this rate")
        for row in ctl.Kbar:
            np.testing.assert_allclose(row, ctl.K_Q, atol=1e-11)

    def test_returns_a_plain_controller_and_its_maps(self, demo_plant, demo_basis):
        """The maps come beside the controller, bit for bit those of
        `retained_maps`; the gains file holds the controller's fields alone."""
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family)
        assert type(ctl) is Controller
        again = retained_maps(demo_plant, family, ctl.K_Q, demo_basis.lam[:3])
        for name in ("lam", "T", "T_inv", "H"):
            assert getattr(maps, name).tobytes() == getattr(again, name).tobytes(), name
        assert maps.factorization[0].name == "gain factorization"
        assert list(gains_to_dict(ctl)) == list(Controller._fields)

    def test_too_few_shapes_raises(self, demo_basis):
        plant = simple_plant([4.0, 5.0, 6.0],
                             [[10.0, 4.0, 8.0], [1.0, 10.0, 2.0], [0.0, 1.0, 20.0]],
                             shapes=(ShapeFunction.indicator(0.1, 0.2),))
        with pytest.raises(HypothesisHViolated):
            build_controller(plant, 9.0, N=3, basis=demo_basis)


class TestCertificate:
    def test_demo_certificate(self, demo_plant, demo_basis):
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family)
        cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
        assert cert.rho > 0.0
        assert cert.rho_bar == 4.0
        assert all(g < 0.0 for g in cert.gamma_margins)
        assert len(cert.omega_margins) == 27
        assert all(w < 0.0 for w in cert.omega_margins)
        # rho0 recomputed from its definition matches bit for bit
        K_norm = float(np.linalg.norm(ctl.K, 2))
        rho0 = 2.0 / (cert.rho * cert.rho_bar * cert.beta * K_norm**2)
        assert rho0 == cert.rho0
        assert cert.M >= 1.0

    def test_identity_family_unit_envelopes(self, rng):
        plant = random_plant(rng, m=3, force_sigma=1)
        basis = build_basis(math.pi, 1.0, 0.0, 20)
        family = solve_transform_family(plant)
        ctl, maps = build_controller(plant, 1.5, basis=basis, family=family)
        if ctl.N == 0:
            pytest.skip("plant already stable at this rate")
        cert = certificate(plant, ctl, maps, basis, M_modes=15)
        assert cert.c_lower == 1.0
        assert cert.c_upper == 1.0

    def test_beta_matches_definition(self, demo_plant, demo_basis):
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family)
        cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
        _T, T_inv = mode_transform(family, demo_basis.lam[:3])
        infl = max(np.linalg.norm(inverse, 2) ** 2 for inverse in T_inv)
        total = sum(s.l2_norm_sq(demo_plant.L) for s in demo_plant.shapes)
        assert cert.beta == pytest.approx(infl * total, rel=1e-12)
        assert total == pytest.approx(0.3, rel=1e-12)


class TestDirectBaseline:
    def test_demo_baseline_reaches_decay(self, demo_plant, demo_basis):
        from cascade_stab.synthesis import assemble_direct_pair

        K_direct, wall = direct_baseline(demo_plant, demo_basis, 9.0, 3)
        A, Btil = assemble_direct_pair(demo_plant, demo_basis, demo_plant.shapes, 3)
        absc = np.max(np.linalg.eigvals(A + Btil @ K_direct).real)
        assert absc <= -9.0 + 1e-6
        assert wall > 0.0

    def test_scalar_baseline(self):
        plant = simple_plant([1.0], [[2.0]])
        basis = build_basis(math.pi, 1.0, 0.0, 3)
        K_direct, _ = direct_baseline(plant, basis, 1.0, 1)
        from cascade_stab.spectral import input_projection_row

        b11 = input_projection_row(plant.shapes, basis, 1)[0]
        pole = -basis.lam[0] * 1.0 + 2.0 + b11 * K_direct[0, 0]
        assert pole <= -1.0


class TestBlockDiagonal:
    @pytest.mark.parametrize("shape", [(0, 3, 3), (1, 1, 1), (4, 1, 3), (3, 3, 3),
                                       (5, 2, 4)])
    def test_bitwise_equal_to_per_block_loop(self, rng, shape):
        N, p, q = shape
        blocks = rng.standard_normal(shape)
        blocks.reshape(-1)[::3] = -0.0
        expected = np.zeros((N * p, N * q))
        for n in range(N):
            expected[n * p:(n + 1) * p, n * q:(n + 1) * q] = blocks[n]
        out = block_diagonal(blocks)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestGainsSerialization:
    def test_round_trip(self, demo_plant, demo_basis):
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family)
        cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
        blob = json.dumps(gains_to_dict(ctl, cert), default=np.ndarray.tolist)
        obj = json.loads(blob)
        ctl2 = controller_from_dict(obj)
        cert2 = certificate_from_dict(obj["certificate"])
        np.testing.assert_array_equal(ctl2.K, ctl.K)
        np.testing.assert_array_equal(ctl2.Kbar, ctl.Kbar)
        np.testing.assert_array_equal(ctl2.K_Q, ctl.K_Q)
        assert cert2.M == cert.M
        assert cert2.rho0 == cert.rho0

    def test_empty_controller_round_trip(self):
        plant = simple_plant([1.0], [[-5.0]])
        ctl, _ = build_controller(plant, 0.01)
        obj = json.loads(json.dumps(gains_to_dict(ctl), default=np.ndarray.tolist))
        ctl2 = controller_from_dict(obj)
        assert ctl2.N == 0
        assert ctl2.K.size == 0
