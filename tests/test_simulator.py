import math

import numpy as np
import pytest

from cascade_stab.errors import ZeroNorm
from cascade_stab.model import PlantSpec, ShapeFunction, validate_plant
from cascade_stab.simulator import (
    SimConfig,
    assemble_closed_loop,
    certificate_bound_holds,
    estimate_decay,
    export_field_csv,
    export_modal_csv,
    export_norms_csv,
    integrate,
    project_initial,
    reconstruct_field,
    run_closed_loop,
    target_residual,
)
from cascade_stab.spectral import adaptive_simpson, build_basis
from cascade_stab.synthesis import Controller, build_controller, certificate
from cascade_stab.transform import solve_transform_family

DEMO_OFFSETS = (4.0, 6.0, 9.0)


@pytest.fixture(scope="module")
def demo_closed_loop(demo_plant, demo_basis):
    family = solve_transform_family(demo_plant)
    ctl = build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family,
                           pole_offsets=DEMO_OFFSETS)
    cert = certificate(demo_plant, ctl, family, demo_basis, M_modes=30)
    return family, ctl, cert


class TestProjectInitial:
    def test_demo_initial_second_component(self, demo_basis, demo_initial):
        coeffs = project_initial(demo_initial, demo_basis, 8)
        # <6 cos(x/2) + 3, phi_1> = 3 sqrt(2 pi) + 6 sqrt(2/pi), by hand
        expected = 3.0 * math.sqrt(2.0 * math.pi) + 6.0 * math.sqrt(2.0 / math.pi)
        assert coeffs[0, 1] == pytest.approx(expected, rel=1e-9)
        # third component is -(1/6) of the second minus constant shift terms:
        # <-cos(x/2) - 0.5, phi_1> = -(1/2) sqrt(2 pi) - sqrt(2/pi)
        expected3 = -0.5 * math.sqrt(2.0 * math.pi) - math.sqrt(2.0 / math.pi)
        assert coeffs[0, 2] == pytest.approx(expected3, rel=1e-9)

    def test_eigenfunction_initial_data(self, demo_basis):
        funcs = [lambda x: demo_basis.phi(2, x)]
        coeffs = project_initial(funcs, demo_basis, 6)
        assert coeffs[1, 0] == pytest.approx(1.0, abs=1e-9)
        others = np.delete(coeffs[:, 0], 1)
        assert np.max(np.abs(others)) <= 1e-8

    def test_zero_initial_data(self, demo_basis):
        coeffs = project_initial([lambda x: 0.0, lambda x: 0.0], demo_basis, 5)
        assert np.all(coeffs == 0.0)

    def test_evaluation_budget(self, demo_initial):
        # Deterministic stand-in for a timing test: points at which each
        # callable profile is evaluated grow linearly in M.
        for M, limit in ((30, 2000), (200, 60 * 200)):
            basis = build_basis(math.pi, 1.0, 0.0, M)
            for f in demo_initial:
                seen = []

                def counted(x, f=f, seen=seen):
                    seen.append(np.size(x))
                    return f(x)

                project_initial([counted], basis, M)
                assert sum(seen) <= limit

    def test_matches_shape_closed_forms(self, demo_basis):
        shape = ShapeFunction.polynomial(1.0, -0.3)
        coeffs = project_initial([shape, lambda x: shape(x)], demo_basis, 12)
        np.testing.assert_allclose(coeffs[:, 1], coeffs[:, 0], rtol=0.0, atol=1e-10)


class TestAssembleClosedLoop:
    def test_zero_gain_is_block_diagonal(self, demo_plant, demo_basis):
        ctl = Controller(delta=9.0, N=0, N_min=0, K_Q=np.zeros(3), P=np.eye(3),
                         Kbar=np.zeros((0, 3)), Bmat=np.zeros((0, 0)),
                         cond_B=1.0, K=np.zeros((0, 0)))
        A = assemble_closed_loop(demo_plant, ctl, demo_basis, 5)
        for n in range(5):
            sl = slice(3 * n, 3 * n + 3)
            expected = -demo_basis.lam[n] * np.diag(demo_plant.D) + demo_plant.Q
            np.testing.assert_allclose(A[sl, sl], expected)
        off = A.copy()
        for n in range(5):
            off[3 * n:3 * n + 3, 3 * n:3 * n + 3] = 0.0
        assert np.all(off == 0.0)

    def test_demo_closed_loop_is_stable(self, demo_plant, demo_basis, demo_closed_loop):
        _family, ctl, _cert = demo_closed_loop
        A = assemble_closed_loop(demo_plant, ctl, demo_basis, 30)
        assert A.shape == (90, 90)
        assert np.max(np.linalg.eigvals(A).real) < 0.0

    def test_scalar_single_mode(self):
        plant = validate_plant(PlantSpec(
            m=1, D=np.array([1.0]), Q=np.array([[2.0]]), L=math.pi,
            gamma1=1.0, gamma2=0.0, shapes=(ShapeFunction.indicator(0.1, 0.2),)))
        basis = build_basis(math.pi, 1.0, 0.0, 1)
        # delta = 0.1: mode 1 is unstable, mode 2 already decays fast enough
        ctl = build_controller(plant, 0.1, N=1, basis=build_basis(math.pi, 1, 0, 3))
        A = assemble_closed_loop(plant, ctl, basis, 1)
        from cascade_stab.spectral import input_projection_row

        b11 = input_projection_row(plant.shapes, basis, 1)[0]
        expected = -basis.lam[0] + 2.0 + b11 * ctl.K[0, 0]
        assert A[0, 0] == pytest.approx(expected, rel=1e-12)


class TestIntegrate:
    def test_scalar_exponential(self):
        traj = integrate(np.array([[-1.0]]), np.array([1.0]), 1.0, 0.01)
        assert traj.l2_norm[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_nilpotent_polynomial_flow(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        traj = integrate(A, np.array([0.0, 1.0]), 1.0, 0.25)
        np.testing.assert_allclose(traj.modal[-1].reshape(-1), [1.0, 1.0], atol=1e-12)

    def test_norm_consistent_with_coefficients(self, demo_plant, demo_basis,
                                               demo_initial, demo_closed_loop):
        _family, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=10, t_final=0.2)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        for k in range(len(traj.times)):
            recomputed = float(np.sqrt(np.sum(traj.modal[k] ** 2)))
            assert abs(recomputed - traj.l2_norm[k]) <= 1e-12 * max(1.0, recomputed)

    def test_demo_certificate_bound(self, demo_plant, demo_basis, demo_initial,
                                    demo_closed_loop):
        _family, ctl, cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg,
                               M_cert=cert.M)
        assert traj.overshoot_check is True
        assert certificate_bound_holds(traj, cert.M, 9.0)


class TestEstimateDecay:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 1.0, 401)
        traj_norm = np.exp(-2.0 * times)
        from cascade_stab.simulator import Trajectory

        traj = Trajectory(times=times, modal=np.zeros((401, 1, 1)),
                          l2_norm=traj_norm)
        assert estimate_decay(traj, (0.2, 1.0)) == pytest.approx(2.0, abs=1e-8)

    def test_pure_tail_mode_decay(self, demo_plant, demo_basis, demo_closed_loop):
        # data only in mode 4: z^N stays zero, feedback never acts, and the
        # decay matches the open tail block -lambda_4 D + Q.
        _family, ctl, _cert = demo_closed_loop
        A = assemble_closed_loop(demo_plant, ctl, demo_basis, 10)
        z0 = np.zeros((10, 3))
        z0[3] = [1.0, -0.5, 0.25]
        traj = integrate(A, z0, 0.3, 0.3 / 400.0)
        block = -demo_basis.lam[3] * np.diag(demo_plant.D) + demo_plant.Q
        expected = -np.max(np.linalg.eigvals(block).real)
        assert estimate_decay(traj, (0.2, 1.0)) == pytest.approx(expected, rel=0.02)
        assert np.max(np.abs(traj.modal[:, :3, :])) == 0.0

    def test_zero_norm_raises(self):
        from cascade_stab.simulator import Trajectory

        times = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(times=times, modal=np.zeros((11, 1, 1)),
                          l2_norm=np.zeros(11))
        with pytest.raises(ZeroNorm):
            estimate_decay(traj, (0.2, 1.0))


class TestTargetResidual:
    def test_demo_target_dynamics(self, demo_plant, demo_basis, demo_initial,
                                  demo_closed_loop):
        family, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        res = target_residual(traj, demo_plant, ctl, family, demo_basis)
        assert res <= 1e-6

    def test_identity_family_matches_plain_residual(self, rng):
        from conftest import random_plant

        plant = random_plant(rng, m=3, force_sigma=1)
        basis = build_basis(math.pi, 1.0, 0.0, 20)
        family = solve_transform_family(plant)
        ctl = build_controller(plant, 1.5, basis=basis, family=family)
        if ctl.N == 0:
            pytest.skip("plant already stable at this rate")
        cfg = SimConfig(M_modes=12, t_final=0.5)
        z0 = [(lambda c: (lambda x: np.cos(c * x) + 0.5))(i + 1) for i in range(3)]
        traj = run_closed_loop(plant, ctl, basis, z0, cfg)
        res = target_residual(traj, plant, ctl, family, basis)
        assert res <= 1e-8

    def test_perturbed_gain_breaks_identity(self, demo_plant, demo_basis,
                                            demo_initial, demo_closed_loop):
        family, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        clean = target_residual(traj, demo_plant, ctl, family, demo_basis)
        bad = Controller(delta=ctl.delta, N=ctl.N, N_min=ctl.N_min, K_Q=ctl.K_Q,
                         P=ctl.P, Kbar=ctl.Kbar * 1.1, Bmat=ctl.Bmat,
                         cond_B=ctl.cond_B, K=ctl.K)
        dirty = target_residual(traj, demo_plant, bad, family, demo_basis)
        assert dirty > max(clean * 10.0, 1e-4)


class TestReconstructField:
    def test_zero_data(self, demo_basis):
        from cascade_stab.simulator import Trajectory

        traj = Trajectory(times=np.array([0.0]), modal=np.zeros((1, 4, 2)),
                          l2_norm=np.zeros(1))
        fields = reconstruct_field(traj, demo_basis, np.linspace(0, math.pi, 9))
        assert np.all(fields == 0.0)

    def test_single_mode_profile(self, demo_basis):
        from cascade_stab.simulator import Trajectory

        modal = np.zeros((1, 3, 1))
        modal[0, 0, 0] = 2.0
        traj = Trajectory(times=np.array([0.0]), modal=modal, l2_norm=np.array([2.0]))
        grid = np.linspace(0.0, math.pi, 17)
        fields = reconstruct_field(traj, demo_basis, grid)
        np.testing.assert_allclose(fields[0, 0], 2.0 * demo_basis.phi(1, grid),
                                   atol=1e-13)

    def test_parseval_consistency(self, demo_plant, demo_basis):
        # band-limited initial data: modal norm equals the quadrature L2 norm
        funcs = [
            lambda x: 2.0 * demo_basis.phi(1, x) - demo_basis.phi(3, x),
            lambda x: 0.5 * demo_basis.phi(2, x),
            lambda x: demo_basis.phi(4, x) * 0.25,
        ]
        coeffs = project_initial(funcs, demo_basis, 30)
        modal_norm_sq = float(np.sum(coeffs**2))
        quad = sum(
            adaptive_simpson(lambda x, f=f: f(x) ** 2, 0.0, math.pi, tol=1e-11)
            for f in funcs
        )
        assert modal_norm_sq == pytest.approx(quad, abs=1e-4)


class TestTruncationAndOpenLoop:
    def test_truncation_robustness(self, demo_plant, demo_basis, demo_initial,
                                   demo_closed_loop):
        _family, ctl, _cert = demo_closed_loop
        fits = []
        for M in (30, 60):
            basis = build_basis(demo_plant.L, 1.0, 0.0, M)
            cfg = SimConfig(M_modes=M, t_final=1.0)
            traj = run_closed_loop(demo_plant, ctl, basis, demo_initial, cfg)
            fits.append(traj.fitted_decay)
        assert abs(fits[0] - fits[1]) <= 0.01 * abs(fits[1])

    def test_open_loop_instability(self, demo_plant, demo_basis, demo_initial,
                                   demo_closed_loop):
        _family, ctl, _cert = demo_closed_loop
        block = -demo_basis.lam[0] * np.diag(demo_plant.D) + demo_plant.Q
        assert np.max(np.linalg.eigvals(block).real) > 0.0
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg,
                               open_loop=True)
        assert traj.l2_norm[-1] > traj.l2_norm[0]


class TestCsvExport:
    def test_export_files(self, tmp_path, demo_plant, demo_basis, demo_initial,
                          demo_closed_loop):
        _family, ctl, cert = demo_closed_loop
        cfg = SimConfig(M_modes=5, t_final=0.1, dt_out=0.05)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        modal_path = tmp_path / "modal.csv"
        field_path = tmp_path / "field.csv"
        norms_path = tmp_path / "norms.csv"
        export_modal_csv(traj, str(modal_path))
        export_field_csv(traj, demo_basis, np.linspace(0, math.pi, 5),
                         str(field_path))
        export_norms_csv(traj, cert.M, 9.0, str(norms_path))

        lines = modal_path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t", "z_1_1", "z_2_1", "z_3_1"]
        assert len(lines) == 1 + len(traj.times)
        # full-precision round trip of a sample value
        val = float(lines[1].split(",")[1])
        assert val == traj.modal[0, 0, 0]

        header = norms_path.read_text().splitlines()[0]
        assert header == "t,l2norm,bound"
        rows = [r.split(",") for r in norms_path.read_text().splitlines()[1:]]
        assert all(float(r[1]) <= float(r[2]) * (1 + 1e-9) for r in rows)

        field_lines = field_path.read_text().splitlines()
        assert field_lines[0] == "t,x,z1,z2,z3"
        assert len(field_lines) == 1 + len(traj.times) * 5

    def test_exact_bytes(self, tmp_path, demo_basis):
        from cascade_stab.simulator import Trajectory

        times = np.array([0.0, 0.5])
        modal = np.array([[[1.0, -2.5e-7], [1.0 / 3.0, -0.0]],
                          [[0.1, 2.0e300], [-1.0 / 7.0, 5e-324]]])
        traj = Trajectory(times=times, modal=modal, l2_norm=np.array([2.0, 0.25]))
        grid = np.array([0.0, 1.5])
        export_modal_csv(traj, str(tmp_path / "modal.csv"))
        export_field_csv(traj, demo_basis, grid, str(tmp_path / "field.csv"))
        export_norms_csv(traj, 1.5, 3.0, str(tmp_path / "norms.csv"))

        def line(*values):
            return ",".join(repr(float(v)) for v in values) + "\n"

        expected_modal = "t,z_1_1,z_2_1,z_1_2,z_2_2\n" + "".join(
            line(times[k], *modal[k].reshape(-1)) for k in range(2))
        fields = reconstruct_field(traj, demo_basis, grid)
        expected_field = "t,x,z1,z2\n" + "".join(
            line(times[k], grid[p], fields[k, 0, p], fields[k, 1, p])
            for k in range(2) for p in range(2))
        expected_norms = "t,l2norm,bound\n" + "".join(
            line(t, n, 1.5 * np.exp(-3.0 * t) * 2.0)
            for t, n in zip(times, traj.l2_norm))
        assert (tmp_path / "modal.csv").read_text() == expected_modal
        assert (tmp_path / "field.csv").read_text() == expected_field
        assert (tmp_path / "norms.csv").read_text() == expected_norms
