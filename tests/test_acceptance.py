"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(`pytest tests/test_acceptance.py -v -s`).  Criterion 1 carries a strict
expected failure documenting a sign defect in the reference value of the
first transform coefficient; see its docstring.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from cascade_stab.model import PlantSpec, ShapeFunction, validate_plant
from cascade_stab.simulator import (
    SimConfig,
    certificate_bound_holds,
    project_initial,
    run_closed_loop,
)
from cascade_stab.spectral import build_basis
from cascade_stab.synthesis import (
    build_controller,
    certificate,
    modal_gains,
    select_mode_count,
    selection_margins,
    sym,
    zero_controller,
)
from cascade_stab.transform import (
    RESIDUAL_TOL,
    mode_transform,
    solve_transform_family,
    sylvester_residuals,
)
from cascade_stab.cli import bench_rows

from conftest import base_seed, random_plant

DEMO_OFFSETS = (4.0, 6.0, 9.0)  # documented synthesis configuration choice


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: {text} ... PASS")


def elapsed_under(start: float, budget: float) -> bool:
    return (time.perf_counter() - start) < budget


class TestCriterion1Structure:
    def test_eigenvalues_indices_and_transform(self, demo_plant):
        start = time.perf_counter()
        basis = build_basis(demo_plant.L, 1.0, 0.0, 5)
        for n in range(1, 6):
            assert basis.lam[n - 1] == pytest.approx((n - 0.5) ** 2, rel=1e-12)
        assert demo_plant.indices.sigma == 3
        assert demo_plant.indices.sigma_bar == 2
        family = solve_transform_family(demo_plant)
        T1, T2 = family.coeffs
        # The first coefficient is supported on entry (1,2) alone and solves
        # q21 * k + (d2 - d3) = 0, so k = (d3 - d2)/q21 = +1 for this plant.
        assert abs(T1[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert T1[0, 1] == pytest.approx((demo_plant.D[2] - demo_plant.D[1])
                                         / demo_plant.Q[1, 0], abs=1e-12)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = False
        assert np.max(np.abs(T1[mask])) <= 1e-12
        np.testing.assert_allclose(T2, 0.0, atol=1e-12)
        assert max(sylvester_residuals(demo_plant, family)) <= RESIDUAL_TOL
        assert elapsed_under(start, 1.0)
        report(1, "worked-example structure (eigenvalues, indices, transform)")

    @pytest.mark.xfail(
        strict=True,
        reason="reference sign of the first transform coefficient: -E12 cannot "
               "satisfy the masked Sylvester equation whose residual bound is "
               "asserted alongside it (the unique solution is +E12; flipping "
               "the sign leaves residual |q21*k + (d2-d3)| = 2)",
    )
    def test_reference_sign_of_first_coefficient(self, demo_plant):
        family = solve_transform_family(demo_plant)
        expected = np.zeros((3, 3))
        expected[0, 1] = -1.0
        np.testing.assert_allclose(family.coeffs[0], expected, atol=1e-12)


class TestCriterion2ModeSelection:
    def test_minimum_and_forced_count(self, demo_plant, demo_basis):
        assert select_mode_count(demo_plant, demo_basis, 9.0) == 2
        # definiteness margins at tolerance 1e-9
        m1 = selection_margins(demo_plant, [demo_basis.lam[1]], 9.0)[0]
        m2 = selection_margins(demo_plant, [demo_basis.lam[2]], 9.0)[0]
        m3 = selection_margins(demo_plant, [demo_basis.lam[3]], 9.0)[0]
        assert m1 > 1e-9          # N = 1 fails
        assert m2 < -1e-9         # N = 2 satisfies the inequality
        assert m3 < -1e-9         # the forced N = 3 satisfies it as well
        # independent oracle: alternating-sign leading principal minors
        for lam, expect_nd in ((float(demo_basis.lam[1]), False),
                               (float(demo_basis.lam[2]), True),
                               (float(demo_basis.lam[3]), True)):
            M = -lam * np.diag(demo_plant.D) + sym(demo_plant.Q) + 9.0 * np.eye(3)
            minors_nd = all(
                (-1.0) ** k * np.linalg.det(M[:k, :k]) > 0.0
                for k in range(1, 4)
            )
            assert minors_nd == expect_nd
        report(2, "mode-count selection (N_min=2, N=3 admissible, N=1 fails)")


class TestCriterion3GainIdentities:
    def test_randomized_gain_routes(self):
        start = time.perf_counter()
        rng = np.random.default_rng(base_seed() + 3)
        lambdas = [0.25, 2.25, 6.25, 12.25]
        sizes = [2, 3, 4, 5, 6]
        from cascade_stab.transform import coupling_row

        for trial in range(100):
            plant = random_plant(rng, m=sizes[trial % len(sizes)])
            family = solve_transform_family(plant)
            K_Q = rng.uniform(-1.0, 1.0, plant.m)
            T, T_inv = mode_transform(family, lambdas)
            rows = modal_gains(plant, lambdas, K_Q, T)
            G = coupling_row(plant, lambdas, T, T_inv)
            for n in range(len(lambdas)):
                assert abs(np.linalg.det(T[n]) - 1.0) <= 1e-10
                other = (K_Q - G[n]) @ T[n]
                scale = max(1.0, float(np.max(np.abs(rows[n]))),
                            float(np.max(np.abs(other))))
                assert np.max(np.abs(rows[n] - other)) / scale <= 1e-9
        assert elapsed_under(start, 30.0)
        report(3, "gain-route equality and unit determinants on 100 random plants")


class TestCriterion4ClosedLoopDecay:
    def test_decay_bound_and_open_loop(self, demo_plant, demo_basis, demo_initial):
        start = time.perf_counter()
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis,
                                     family=family, pole_offsets=DEMO_OFFSETS)
        cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        assert traj.fitted_decay >= 8.5
        assert certificate_bound_holds(traj, cert.M, 9.0)
        open_traj = run_closed_loop(demo_plant, zero_controller(9.0, ctl.N_min, 3),
                                    demo_basis, demo_initial, cfg)
        assert open_traj.l2_norm[-1] > open_traj.l2_norm[0]
        assert elapsed_under(start, 10.0)
        report(4, f"closed-loop fitted decay {traj.fitted_decay:.2f} >= 8.5, "
                  "certificate bound holds, open loop grows")


class TestCriterion5TargetEquivalence:
    def test_independent_target_propagation(self, demo_plant, demo_basis,
                                            demo_initial):
        family = solve_transform_family(demo_plant)
        ctl, _ = build_controller(demo_plant, 9.0, N=3, basis=demo_basis,
                                  family=family, pole_offsets=DEMO_OFFSETS)
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)

        from cascade_stab.synthesis import closed_blocks

        lams = demo_basis.lam[:3]
        T = scipy.linalg.block_diag(*mode_transform(family, lams)[0])
        H = scipy.linalg.block_diag(*closed_blocks(demo_plant, ctl.K_Q, lams))
        dt = cfg.resolved_dt()
        prop = scipy.linalg.expm(H * dt)
        y = T @ traj.modal[0, :3, :].reshape(-1)
        worst = 0.0
        scale = 0.0
        for k in range(len(traj.times)):
            y_sim = T @ traj.modal[k, :3, :].reshape(-1)
            worst = max(worst, float(np.linalg.norm(y - y_sim)))
            scale = max(scale, float(np.linalg.norm(y_sim)))
            y = prop @ y
        assert worst / scale <= 1e-6
        report(5, f"target-coordinate propagation deviation {worst / scale:.2e}")


class TestCriterion6CertificateSigns:
    def test_margins_strictly_negative(self, demo_plant, demo_basis):
        family = solve_transform_family(demo_plant)
        ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis,
                                     family=family, pole_offsets=DEMO_OFFSETS)
        cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
        assert len(cert.gamma_margins) == 3
        assert len(cert.omega_margins) == 27  # n = 4..30
        assert all(g < 0.0 for g in cert.gamma_margins)
        assert all(w < 0.0 for w in cert.omega_margins)
        report(6, f"certificate margins: gamma max {max(cert.gamma_margins):.3e}, "
                  f"omega max {max(cert.omega_margins):.3e}")


class TestCriterion7ScalingBenchmark:
    def test_modal_beats_direct_baseline(self, demo_plant):
        start = time.perf_counter()
        rows = bench_rows(demo_plant, 9.0, [2, 3, 5, 10, 15], repeats=11)
        ratios = [r[3] for r in rows]
        for (N, t_modal, t_direct, ratio) in rows:
            if N >= 5:
                assert t_modal < t_direct, f"modal slower at N={N}"
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), ratios
        assert elapsed_under(start, 60.0)
        report(7, "speed ratios " + ", ".join(f"{r:.1f}" for r in ratios)
                  + " are non-decreasing in N")


class TestCriterion8DegenerateDiffusions:
    def test_identical_diffusions_reuse_coupling_gain(self):
        rng = np.random.default_rng(base_seed() + 8)
        lambdas = [0.25, 2.25, 6.25]
        for m in (2, 3, 4, 5):
            plant = random_plant(rng, m=m, force_sigma=1)
            family = solve_transform_family(plant)
            assert family.sigma_bar == 0 or all(
                not c.any() for c in family.coeffs
            )
            K_Q = rng.uniform(-2.0, 2.0, m)
            rows = modal_gains(plant, lambdas, K_Q, mode_transform(family, lambdas)[0])
            for row in rows:
                assert np.array_equal(row, K_Q)

    def test_two_distinct_diffusions_linear_shift(self):
        rng = np.random.default_rng(base_seed() + 88)
        lambdas = [0.25, 2.25, 6.25]
        for m in (2, 3, 4, 5):
            plant = random_plant(rng, m=m, force_sigma=2)
            family = solve_transform_family(plant)
            K_Q = rng.uniform(-2.0, 2.0, m)
            rows = modal_gains(plant, lambdas, K_Q, mode_transform(family, lambdas)[0])
            shift = plant.D[0] - plant.D[-1]
            for n, lam in enumerate(lambdas):
                expected = K_Q.copy()
                expected[0] += lam * shift
                assert np.max(np.abs(rows[n] - expected)) <= 1e-12
        report(8, "degenerate-diffusion gains match the closed-form reductions")


class TestCriterion9ReferenceGainInconsistency:
    def test_reference_row_gain_is_not_stabilizing(self, demo_plant):
        """The reference row gain quoted for the worked example leaves
        Q + B K_Q with positive determinant, hence non-Hurwitz for m = 3;
        the library therefore synthesizes its own gain instead of reusing
        those reference numbers.
        """
        K_Q = np.array([-67.5, -3059.0, -5823.0])
        closed = demo_plant.Q + np.outer([1.0, 0.0, 0.0], K_Q)

        def cofactor_det(M):
            n = M.shape[0]
            if n == 1:
                return M[0, 0]
            total = 0.0
            for j in range(n):
                minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
                total += (-1.0) ** j * M[0, j] * cofactor_det(minor)
            return total

        det = cofactor_det(closed)
        assert det == pytest.approx(43900.0, abs=1e-6)
        # positive determinant of a 3x3 real matrix rules out Hurwitz
        assert det > 0.0
        assert np.max(np.linalg.eigvals(closed).real) > 0.0
        report(9, "reference row gain confirmed non-stabilizing (det = +43900)")
