import errno
import math
import os
import pathlib
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cascade_stab.errors import CertificateAtRoundingLevel, CsvHelperFailed, ZeroNorm
from cascade_stab.model import (
    PlantSpec,
    ShapeFunction,
    _csv_lines,
    validate_plant,
)
from cascade_stab.simulator import (
    ClosedLoop,
    CsvTable,
    SimConfig,
    assemble_closed_loop,
    certificate_bound_holds,
    estimate_decay,
    export_field_csv,
    export_modal_csv,
    export_norms_csv,
    field_table,
    integrate,
    modal_table,
    norms_table,
    project_initial,
    reconstruct_field,
    run_closed_loop,
    target_residual,
    write_csvs,
)
from cascade_stab.simulator import _VALUES_PER_BLOCK
from cascade_stab.spectral import (
    adaptive_simpson,
    build_basis,
    expand,
    shape_projection_matrix,
)
from cascade_stab.synthesis import (
    Controller,
    Retained,
    build_controller,
    certificate,
    closed_blocks,
    mode_blocks,
    select_mode_count,
    zero_controller,
)

from conftest import dense_closed_loop, random_plant

DEMO_OFFSETS = (4.0, 6.0, 9.0)


@pytest.fixture(scope="module")
def demo_closed_loop(demo_plant, demo_basis):
    ctl, maps = build_controller(demo_plant, 9.0, N=3, basis=demo_basis,
                                 pole_offsets=DEMO_OFFSETS)
    cert = certificate(demo_plant, ctl, maps, demo_basis, M_modes=30)
    return maps, ctl, cert


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


def block_shapes(loop: ClosedLoop) -> tuple:
    return loop.A_RR.shape, loop.A_TT.shape, loop.A_TR.shape


def retained_only(blocks: np.ndarray) -> ClosedLoop:
    """The (N, m, m) stack `blocks` as the retained modes, with no tail."""
    N, m = blocks.shape[:2]
    return ClosedLoop(blocks, np.zeros((0, m, m)), np.zeros((0, m, m * N)))


def tail_only(blocks: np.ndarray) -> ClosedLoop:
    """The (M, m, m) stack `blocks` as tail modes, with none retained."""
    M, m = blocks.shape[:2]
    return ClosedLoop(np.zeros((0, m, m)), blocks, np.zeros((M, m, 0)))


# zdot = -z for one mode of one component, as a tail mode.
DECAY = tail_only(np.array([[[-1.0]]]))


def record_passes(mp) -> list:
    """Record (modes, live) of every doubling pass of `integrate`'s scans.

    It scans the retained modes first; `tail_passes` keeps the tail's.
    """
    from cascade_stab import simulator

    calls = []
    real_live = simulator._live_modes

    def counted(power):
        calls.append((len(power), real_live(power)))
        return calls[-1][1]

    mp.setattr(simulator, "_live_modes", counted)
    return calls


def tail_passes(calls: list, loop: ClosedLoop) -> list:
    """The tail's `live` counts among the `record_passes` records: those
    from its first pass, the first over len(A_TT) modes, on."""
    sizes = [size for size, _ in calls]
    return [live for _, live in calls[sizes.index(len(loop.A_TT)):]]


class TestAssembleClosedLoop:
    def test_zero_gain_is_block_diagonal(self, demo_plant, demo_basis):
        ctl = Controller(delta=9.0, N=0, N_min=0, K_Q=np.zeros(3), P=np.eye(3),
                         Kbar=np.zeros((0, 3)), Bmat=np.zeros((0, 0)),
                         cond_B=1.0, K=np.zeros((0, 0)))
        loop = assemble_closed_loop(demo_plant, ctl, demo_basis, 5)
        assert block_shapes(loop) == ((0, 3, 3), (5, 3, 3), (5, 3, 0))
        A = dense_closed_loop(loop)
        for n in range(5):
            sl = slice(3 * n, 3 * n + 3)
            expected = -demo_basis.lam[n] * np.diag(demo_plant.D) + demo_plant.Q
            np.testing.assert_allclose(A[sl, sl], expected)
        off = A.copy()
        for n in range(5):
            off[3 * n:3 * n + 3, 3 * n:3 * n + 3] = 0.0
        assert np.all(off == 0.0)

    def test_demo_closed_loop_is_stable(self, demo_plant, demo_basis, demo_closed_loop):
        _maps, ctl, _cert = demo_closed_loop
        A = dense_closed_loop(assemble_closed_loop(demo_plant, ctl, demo_basis, 30))
        assert A.shape == (90, 90)
        assert np.max(np.linalg.eigvals(A).real) < 0.0

    def test_scalar_single_mode(self):
        plant = validate_plant(PlantSpec(
            m=1, D=np.array([1.0]), Q=np.array([[2.0]]), L=math.pi,
            gamma1=1.0, gamma2=0.0, shapes=(ShapeFunction.indicator(0.1, 0.2),)))
        basis = build_basis(math.pi, 1.0, 0.0, 1)
        # delta = 0.1: mode 1 is unstable, mode 2 already decays fast enough
        ctl, _ = build_controller(plant, 0.1, N=1, basis=build_basis(math.pi, 1, 0, 3))
        loop = assemble_closed_loop(plant, ctl, basis, 1)
        from cascade_stab.spectral import input_projection_row

        assert block_shapes(loop) == ((1, 1, 1), (0, 1, 1), (0, 1, 1))
        assert loop.A_RR[0, 0, 0] == -basis.lam[0] + 2.0 + ctl.Kbar[0, 0]
        # The feedback's route through K: b_11 K = Kbar.
        b11 = input_projection_row(plant.shapes, basis, 1)[0]
        expected = -basis.lam[0] + 2.0 + b11 * ctl.K[0, 0]
        assert loop.A_RR[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_retained_blocks_keep_the_bits_of_mode_blocks(self, demo_plant,
                                                          demo_closed_loop):
        """A_RR is mode_blocks with Kbar_n added to row 0 of block n, and A_TT
        is mode_blocks: both keep a -0.0 of Q below row 0."""
        _maps, ctl, _cert = demo_closed_loop
        Q = demo_plant.Q.copy()
        Q[2, 0] = -0.0
        plant = validate_plant(PlantSpec(m=3, D=demo_plant.D, Q=Q, L=demo_plant.L,
                                         gamma1=1.0, gamma2=0.0, shapes=demo_plant.shapes))
        basis = build_basis(plant.L, 1.0, 0.0, 8)
        blocks = mode_blocks(plant, basis.lam[:8])
        assert np.signbit(blocks[:, 2, 0]).all()
        A_RR = blocks[:3].copy()
        A_RR[:, 0] += ctl.Kbar
        loop = assemble_closed_loop(plant, ctl, basis, 8)
        assert loop.A_RR.tobytes() == A_RR.tobytes()
        assert loop.A_TT.tobytes() == blocks[3:].tobytes()
        assert np.signbit(loop.A_RR[:, 2, 0]).all()
        # The tail's drive keeps its bits: one P[n] @ K per tail mode.
        P = shape_projection_matrix(plant.shapes[:3], basis, 8)
        drive = np.zeros((5, 3, 9))
        drive[:, 0] += np.matmul(P[3:, None, :], ctl.K)[:, 0]
        assert loop.A_TR.tobytes() == drive.tobytes()


@pytest.fixture()
def zero_mode_run(demo_plant, demo_basis):
    """`verify`'s run at N = 0: a loop with no modes, and empty retained maps."""
    loop = assemble_closed_loop(demo_plant, zero_controller(9.0, 0, 3), demo_basis, 0)
    empty = np.zeros((0, 3, 3))
    retained = Retained(lam=demo_basis.lam[:0], T=empty, T_inv=empty, H=empty,
                        factorization=[])
    return loop, retained, integrate(loop, np.zeros((0, 3)), 0.5, 0.5 / 400)


class TestIntegrate:
    def test_scalar_exponential(self):
        traj = integrate(DECAY, np.array([[1.0]]), 1.0, 0.01)
        assert traj.l2_norm[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_loop_with_no_modes(self, zero_mode_run):
        _loop, _retained, traj = zero_mode_run
        assert traj.modal.shape == (401, 0, 3)
        assert traj.times.tobytes() == (np.arange(401) * (0.5 / 400)).tobytes()
        assert traj.l2_norm.tobytes() == np.zeros(401).tobytes()

    def test_nilpotent_polynomial_flow(self):
        loop = retained_only(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        traj = integrate(loop, np.array([[0.0, 1.0]]), 1.0, 0.25)
        np.testing.assert_allclose(traj.modal[-1].reshape(-1), [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("rates", [None, (1e6,), (1.0, 1e6)])
    def test_tail_scan_drops_underflowed_modes_exactly(self, demo_plant, demo_closed_loop,
                                                       monkeypatch, rates):
        """Dropping the tail modes whose power of F_TT is exactly zero changes
        no bit against the full scan: on the demo closed loop, where the fast
        modes underflow, and on scalar tail modes that decay at `rates`, the
        fastest of which underflows in one step."""
        from cascade_stab import simulator

        if rates is None:
            M = 150
            loop = assemble_closed_loop(demo_plant, demo_closed_loop[1],
                                        build_basis(math.pi, 1.0, 0.0, M), M)
        else:
            M = len(rates)
            loop = tail_only(-np.array(rates).reshape(M, 1, 1))
        z0 = np.random.default_rng(11).standard_normal((M, loop.A_TT.shape[1]))
        calls = record_passes(monkeypatch)
        traj = integrate(loop, z0, 1.0, 1.0 / 400)
        live = tail_passes(calls, loop)
        monkeypatch.setattr(simulator, "_live_modes", len)  # every mode, every pass
        full = integrate(loop, z0, 1.0, 1.0 / 400)
        assert traj.modal.tobytes() == full.modal.tobytes()
        assert traj.l2_norm.tobytes() == full.l2_norm.tobytes()
        # The scan did drop modes: the last pass carried fewer than the first.
        assert live[-1] < len(loop.A_TT) and live == sorted(live, reverse=True)
        if rates == (1e6,):
            assert live == [0] and not traj.modal[1:].any()
        if rates == (1.0, 1e6):
            assert set(live) == {1}
            np.testing.assert_allclose(traj.modal[:, 0, 0], z0[0, 0] * np.exp(-traj.times),
                                       rtol=1e-12)

    def test_norm_consistent_with_coefficients(self, demo_plant, demo_basis,
                                               demo_initial, demo_closed_loop):
        _maps, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=10, t_final=0.2)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        for k in range(len(traj.times)):
            recomputed = float(np.sqrt(np.sum(traj.modal[k] ** 2)))
            assert abs(recomputed - traj.l2_norm[k]) <= 1e-12 * max(1.0, recomputed)

    def test_demo_certificate_bound(self, demo_plant, demo_basis, demo_initial,
                                    demo_closed_loop):
        _maps, ctl, cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        assert certificate_bound_holds(traj, cert.M, 9.0) is True

    def test_bound_fails_where_the_norm_outgrows_it(self):
        """||z(t)|| = e^{5t} against 10 e^{-t} ||z(0)||: it holds up to
        t = ln(10) / 6 and fails from there; one sample above the bound by
        more than the rounding slack fails, one within it holds."""
        from cascade_stab.simulator import Trajectory

        times = np.linspace(0.0, 1.0, 101)

        def holds(norms):
            traj = Trajectory(times=times[:len(norms)], modal=np.zeros((len(norms), 1, 1)),
                              l2_norm=norms)
            return certificate_bound_holds(traj, 10.0, 1.0)

        growing = np.exp(5.0 * times)
        assert holds(growing[:38]) is True   # t <= 0.37 < ln(10) / 6
        assert holds(growing) is False
        on_bound = 10.0 * np.exp(-times)
        on_bound[0] = 1.0
        for factor, expected in ((1.0 + 1e-10, True), (1.0 + 1e-8, False)):
            norms = on_bound.copy()
            norms[60] *= factor
            assert holds(norms) is expected

    def test_open_loop_breaks_the_demo_certificate(self, demo_plant, demo_basis,
                                                   demo_initial, demo_closed_loop):
        """The demo plant without feedback against the demo certificate
        (M = 1.1e14, delta = 9): its norm crosses the bound at t = 1.26."""
        _maps, _ctl, cert = demo_closed_loop
        runs = {t_final: run_closed_loop(demo_plant, zero_controller(9.0, 0, 3), demo_basis,
                                         demo_initial, SimConfig(M_modes=30, t_final=t_final))
                for t_final in (1.0, 2.0)}
        assert certificate_bound_holds(runs[1.0], cert.M, 9.0) is True
        assert certificate_bound_holds(runs[2.0], cert.M, 9.0) is False


def scalar_loop(dense: np.ndarray, R: int) -> ClosedLoop:
    """The m = 1 closed loop of `dense`, whose first R modes are decoupled
    and whose tail modes are driven by them alone."""
    diag = np.diag(dense).reshape(-1, 1, 1)
    return ClosedLoop(diag[:R], diag[R:], dense[R:, :R].reshape(-1, 1, R))


def dense_integrate(loop, z0, t_final, dt_out):
    """Reference propagator: the dense expm(A dt) applied step by step."""
    steps = int(round(t_final / dt_out))
    propagator = scipy.linalg.expm(dense_closed_loop(loop) * dt_out)
    states = [np.asarray(z0, dtype=float).reshape(-1)]
    for _ in range(steps):
        states.append(propagator @ states[-1])
    return np.array(states)


def worst_relative_gap(traj, reference):
    flat = traj.modal.reshape(len(traj.times), -1)
    return float(np.max(np.linalg.norm(flat - reference, axis=1)
                        / np.linalg.norm(reference, axis=1)))


finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def random_closed_loops(draw):
    """A synthesized cascade closed loop: m 2-5, N 1-6, M = N + 1..40.

    The plant's N indicator shapes feed the N retained modes; draws that
    synthesis refuses, or whose minimal mode count exceeds 6, are rejected.
    """
    m = draw(st.integers(2, 5))
    plant = random_plant(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m=m)
    delta = draw(st.floats(0.5, 9.0, **finite))
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 60)
    N_min = select_mode_count(plant, basis, delta)
    assume(N_min <= 6)
    N = draw(st.integers(max(N_min, 1), 6))
    shapes = tuple(ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1) for j in range(1, N + 1))
    plant = validate_plant(PlantSpec(m=m, D=plant.D, Q=plant.Q, L=plant.L, gamma1=1.0,
                                     gamma2=0.0, shapes=shapes))
    try:
        ctl, _ = build_controller(plant, delta, N=N, basis=basis)
    except CertificateAtRoundingLevel:
        assume(False)
    M = N + draw(st.integers(1, 40))
    return assemble_closed_loop(plant, ctl, basis, M), N, M, m


class TestBlockOps:
    """The block operations of the Pade step (`simulator._Blocks`) against
    the dense matrices of their rows."""

    @pytest.mark.parametrize("N, tail, m", [(1, 1, 1), (3, 4, 1), (1, 3, 2), (2, 5, 3),
                                            (4, 2, 4)])
    def test_mul_solve_and_unbalance_match_dense(self, N, tail, m):
        from cascade_stab import simulator

        ops = simulator._Blocks(N, tail, m)
        rng = np.random.default_rng(100 * N + 10 * tail + m)

        def dense(X):
            X_D, X_TR = ops.split(X)
            assert X_D.shape == (N + tail, m, m) and X_TR.shape == (tail, m, m * N)
            return dense_closed_loop(ClosedLoop(A_RR=X_D[:N], A_TT=X_D[N:], A_TR=X_TR))

        def assert_close(got, want):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        X, Y, Q = rng.standard_normal((3, 1, ops.size))
        before = dense(Q)
        ops.diag(Q)[:] += 2.0 * m  # through the view, leaving Q well conditioned
        np.testing.assert_array_equal(dense(Q), before + 2.0 * m * np.eye(m * (N + tail)))
        assert_close(dense(ops.mul(X, Y)), dense(X) @ dense(Y))
        spare, kept = np.full_like(Y, np.nan), Y.copy()
        solved = ops.solve(Q, Y, spare)
        assert solved is spare
        np.testing.assert_array_equal(Y, kept)
        assert_close(dense(solved), np.linalg.solve(dense(Q), dense(Y)))
        d = np.exp2(rng.integers(-4, 5, (N + tail, m)).astype(float))
        balanced = X.copy()
        ops.unbalance(balanced, d)
        assert_close(dense(balanced), d.reshape(-1, 1) * dense(X) / d.reshape(1, -1))


class TestBlockIntegrator:
    """Block propagation against the dense oracle, per sample."""

    def _demo_system(self, plant, ctl, M):
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, M)
        return basis, assemble_closed_loop(plant, ctl, basis, M)

    @pytest.mark.parametrize("M, tol", [(30, 1e-10), (200, 1e-9)])
    def test_demo_closed_loop(self, demo_plant, demo_initial, demo_closed_loop,
                              M, tol):
        _maps, ctl, _cert = demo_closed_loop
        basis, loop = self._demo_system(demo_plant, ctl, M)
        assert block_shapes(loop) == ((3, 3, 3), (M - 3, 3, 3), (M - 3, 3, 9))
        z0 = project_initial(demo_initial, basis, M)
        traj = integrate(loop, z0, 1.0, 1.0 / 400.0)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 1.0, 1.0 / 400.0)) <= tol

    def test_open_loop_has_no_retained_block(self, demo_plant, demo_basis,
                                             demo_initial):
        zero = Controller(delta=9.0, N=0, N_min=0, K_Q=np.zeros(3), P=np.eye(3),
                          Kbar=np.zeros((0, 3)), Bmat=np.zeros((0, 0)),
                          cond_B=1.0, K=np.zeros((0, 0)))
        loop = assemble_closed_loop(demo_plant, zero, demo_basis, 20)
        assert block_shapes(loop) == ((0, 3, 3), (20, 3, 3), (20, 3, 0))
        z0 = project_initial(demo_initial, demo_basis, 20)
        traj = integrate(loop, z0, 0.5, 0.5 / 200.0)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 0.5, 0.5 / 200.0)) <= 1e-10

    def test_pure_cascade_takes_the_exact_band(self, monkeypatch, demo_plant,
                                               demo_initial):
        """A lower bidiagonal Q makes every open-loop block lower triangular,
        so the tail's expm keeps the exact band of the squarings
        (`_exact_band`); the run matches per-mode scipy exponentials."""
        from cascade_stab import simulator

        plant = validate_plant(PlantSpec(
            m=3, D=demo_plant.D, Q=[[10.0, 0.0, 0.0], [1.0, 10.0, 0.0], [0.0, 1.0, 20.0]],
            L=demo_plant.L, gamma1=demo_plant.gamma1, gamma2=demo_plant.gamma2,
            shapes=demo_plant.shapes))
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 30)
        loop = assemble_closed_loop(plant, zero_controller(9.0, 0, 3), basis, 30)
        z0 = project_initial(demo_initial, basis, 30)
        slices = []
        band = simulator._exact_band
        monkeypatch.setattr(simulator, "_exact_band", lambda X, T, scale: (
            slices.append(len(X)), band(X, T, scale))[1])
        traj = integrate(loop, z0, 1.0, 1.0 / 400.0)
        assert slices == [13, 13, 6]
        F = np.array([scipy.linalg.expm(A / 400.0) for A in loop.A_TT])
        states = [z0]
        for _ in range(400):
            states.append(np.einsum("nij,nj->ni", F, states[-1]))
        reference = np.array(states).reshape(401, -1)
        assert worst_relative_gap(traj, reference) <= 1e-12

    def test_five_retained_seven_tail(self, demo_plant):
        shapes = tuple(ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1)
                       for j in range(1, 6))
        plant = validate_plant(PlantSpec(
            m=3, D=demo_plant.D, Q=demo_plant.Q, L=demo_plant.L,
            gamma1=1.0, gamma2=0.0, shapes=shapes))
        basis = build_basis(plant.L, 1.0, 0.0, 12)
        ctl, _ = build_controller(plant, 9.0, N=5, basis=basis)
        loop = assemble_closed_loop(plant, ctl, basis, 12)
        assert block_shapes(loop) == ((5, 3, 3), (7, 3, 3), (7, 3, 15))
        z0 = np.linspace(1.0, -0.5, 36).reshape(12, 3)
        traj = integrate(loop, z0, 1.0, 1.0 / 400.0)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 1.0, 1.0 / 400.0)) <= 1e-10

    def test_random_blocks_without_tail(self):
        """Three unstructured 2 x 2 retained blocks and no tail."""
        rng = np.random.default_rng(6)
        loop = retained_only(rng.standard_normal((3, 2, 2)))
        z0 = rng.standard_normal((3, 2))
        traj = integrate(loop, z0, 1.0, 0.01)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 1.0, 0.01)) <= 1e-10

    def test_scalar_cascade(self):
        """m = 1: two decoupled retained modes drive five tail modes."""
        rng = np.random.default_rng(8)
        dense = np.diag(-np.arange(1.0, 8.0) ** 2)
        dense[:, :2] += 5.0 * rng.standard_normal((7, 2))
        dense[0, 1] = dense[1, 0] = 0.0
        loop = scalar_loop(dense, 2)
        np.testing.assert_array_equal(dense_closed_loop(loop), dense)
        z0 = rng.standard_normal((7, 1))
        traj = integrate(loop, z0, 1.0, 0.01)
        assert traj.modal.shape == (101, 7, 1)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 1.0, 0.01)) <= 1e-10

    # Hypothesis derives derandomized draws from the test's source text.  This
    # is the seed that the text before the block form gave, so the test still
    # checks the same 25 cascades; the present text's own seed draws the
    # cascade of test_gains_near_3e9_reach_the_bound.
    @seed(16507535401041350514705585760646298224646712270028564054344780202862605317660434151691323926713961650568986543150004)  # noqa: E501
    @given(drawn=random_closed_loops())
    def test_matches_dense_on_random_cascades(self, drawn):
        loop, N, M, m = drawn
        assert block_shapes(loop) == ((N, m, m), (M - N, m, m), (M - N, m, m * N))
        z0 = np.linspace(1.0, -0.5, M * m).reshape(M, m)
        traj = integrate(loop, z0, 0.2, 0.2 / 100)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 0.2, 0.2 / 100)) <= 1e-10

    def test_gains_near_3e9_reach_the_bound(self):
        """N = 6 against N_min = 3 gives cond(Bmat) = 2.3e7 and gains K to 2.8e9.

        While the retained modes stepped as one dense block of the rows
        P[:N] K, the trajectory came out 1.09e-10 off the dense oracle.  As
        the decoupled blocks of Kbar (entries below 76) it is 2.5e-11 off;
        only the tail's drive still carries K.
        """
        m, N, M = 2, 6, 18
        plant = random_plant(np.random.default_rng(5695), m=m)
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 60)
        shapes = tuple(ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1)
                       for j in range(1, N + 1))
        plant = validate_plant(PlantSpec(m=m, D=plant.D, Q=plant.Q, L=plant.L,
                                         gamma1=1.0, gamma2=0.0, shapes=shapes))
        ctl, _ = build_controller(plant, 5.282588370854574, N=N, basis=basis)
        loop = assemble_closed_loop(plant, ctl, basis, M)
        z0 = np.linspace(1.0, -0.5, M * m).reshape(M, m)
        traj = integrate(loop, z0, 0.2, 0.2 / 100)
        assert worst_relative_gap(traj, dense_integrate(loop, z0, 0.2, 0.2 / 100)) <= 1e-10

    @pytest.mark.parametrize("t_final, dt_out, times", [
        (1.0, 0.3, [0.0, 0.3, 0.6, 0.9]), (1.0, 0.5, [0.0, 0.5, 1.0]),
        (1.0, 2.0, [0.0]), (0.7, 0.7 / 3, [0.0, 0.7 / 3, 1.4 / 3, 0.7])])
    def test_output_grid_ends_at_or_before_t_final(self, t_final, dt_out, times):
        traj = integrate(DECAY, np.array([[1.0]]), t_final, dt_out)
        np.testing.assert_allclose(traj.times, times, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("t_final", [1.0, 2.0, math.pi])
    def test_default_grid_has_400_steps(self, t_final):
        config = SimConfig(t_final=t_final)
        traj = integrate(DECAY, np.array([[1.0]]), t_final, config.resolved_dt())
        assert len(traj.times) == 401
        assert traj.times[-1] == pytest.approx(t_final, rel=1e-15)

    def test_norm_matches_coefficients(self, demo_plant, demo_initial,
                                       demo_closed_loop):
        _maps, ctl, _cert = demo_closed_loop
        basis, A = self._demo_system(demo_plant, ctl, 30)
        traj = integrate(A, project_initial(demo_initial, basis, 30), 1.0, 1.0 / 400.0)
        recomputed = np.array([np.linalg.norm(z) for z in traj.modal])
        np.testing.assert_allclose(traj.l2_norm, recomputed, rtol=1e-12, atol=0.0)


def whole_scan(z0, F, drive):
    """The doubling scan of x_{j+1} = F x_j + drive_j over all modes at once,
    as (modes, m, steps + 1)."""
    from cascade_stab import simulator

    steps = drive.shape[2]
    X = np.empty(drive.shape[:2] + (steps + 1,))
    X[:, :, 0] = z0
    X[:, :, 1:] = drive
    power, shift = F, 1
    while shift <= steps:
        live = simulator._live_modes(power)
        if not live:
            break
        power = power[:live]
        X[:live, :, shift:] += power @ X[:live, :, :-shift]
        power, shift = power @ power, 2 * shift
    return X


def whole_tail_integrate(loop, z0, t_final, dt_out):
    """`integrate` with each scan in one piece: the reference for its chunks.

    The step matrices as `integrate` computes them; the retained and the
    tail modes each in one (modes, m, steps + 1) array, the tail's drive
    in one product, and the norms of the whole trajectory at once.
    """
    from cascade_stab import simulator

    z0 = np.asarray(z0, dtype=float)
    M, m = z0.shape
    R = len(loop.A_RR)
    tail = M - R
    steps = simulator._output_steps(t_final, dt_out)
    A_RR = loop.A_RR * dt_out
    if R and tail:
        F_RR, F_TT, F_TR = simulator._expm_blocks(A_RR, loop.A_TT * dt_out,
                                                  loop.A_TR * dt_out)
    else:
        F_RR = simulator.expm(A_RR)
        F_TT, F_TR = simulator.expm(loop.A_TT * dt_out), np.zeros((tail, m, R * m))
    modal = np.empty((steps + 1, M, m))
    modal[:, :R] = whole_scan(z0[:R], F_RR, np.zeros((R, m, steps))).transpose(2, 0, 1)
    Z_R = modal[:, :R].reshape(steps + 1, R * m)
    drive = (F_TR.reshape(tail * m, R * m) @ Z_R[:-1].T).reshape(tail, m, steps)
    modal[:, R:] = whole_scan(z0[R:], F_TT, drive).transpose(2, 0, 1)
    norms = np.linalg.norm(modal.reshape(steps + 1, -1), axis=1)
    return modal, norms


def with_signed_zeros(z0, rng):
    """z0 with about a third of its entries replaced by -0.0."""
    z0 = z0.copy()
    z0[rng.integers(0, 3, z0.shape) == 0] = np.copysign(0, -1)
    return z0


class TestChunkedTail:
    """`integrate` takes the tail modes in chunks of at most _CHUNK_BYTES of
    trajectory and the norms in row blocks; both give the bits of the
    whole-tail scan."""

    def _check(self, loop, z0, steps, chunk):
        """integrate at `chunk` modes per chunk against the reference; returns
        the `live` count of every doubling pass."""
        from cascade_stab import simulator

        modal, norms = whole_tail_integrate(loop, z0, 1, 1 / steps)
        with pytest.MonkeyPatch.context() as mp:
            # The budget of `chunk` modes of trajectory.
            mp.setattr(simulator, "_CHUNK_BYTES", chunk * z0[0].nbytes * (steps + 1))
            calls = record_passes(mp)
            traj = integrate(loop, z0, 1, 1 / steps)
        assert traj.modal.tobytes() == modal.tobytes()
        assert traj.l2_norm.tobytes() == norms.tobytes()
        return tail_passes(calls, loop)

    @pytest.mark.parametrize("relation", ["below", "at", "one past", "several"])
    @given(drawn=random_closed_loops(), data=st.data())
    def test_matches_whole_tail_scan_on_random_cascades(self, drawn, data, relation):
        """Tails below, at, one past and several times the chunk size, with
        -0.0 among the initial coefficients."""
        loop, N, M, m = drawn
        tail = M - N
        chunk = {"below": tail + 1, "at": tail, "one past": tail - 1,
                 "several": tail // 3}[relation]
        assume(chunk >= 4)  # integrate takes at least four modes per chunk
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        z0 = with_signed_zeros(rng.standard_normal((M, m)), rng)
        self._check(loop, z0, data.draw(st.sampled_from([1, 2, 7, 64])), chunk)

    def test_live_cutoff_inside_a_chunk(self):
        """Scalar tail modes, five slow and six that underflow in the first
        pass: the scan stops at mode 5, inside the chunk 3..7."""
        from cascade_stab import simulator

        rates = np.array([1] * 5 + [10**6] * 6)
        loop = tail_only(-rates.reshape(-1, 1, 1).astype(float))
        z0 = with_signed_zeros(np.random.default_rng(3).standard_normal((11, 1)),
                               np.random.default_rng(4))
        assert simulator._spans(11, 4) == [(0, 3), (3, 7), (7, 11)]
        assert set(self._check(loop, z0, 64, 4)) == {5}

    @pytest.mark.parametrize("chunk", [1, 4, 5])
    def test_demo_closed_loop_in_small_chunks(self, demo_plant, demo_closed_loop, chunk):
        """The demo closed loop at M = 150, whose fast modes underflow pass
        by pass, in chunks of four and five modes; a budget of one mode
        still takes four."""
        from cascade_stab import simulator

        M = 150
        loop = assemble_closed_loop(demo_plant, demo_closed_loop[1],
                                    build_basis(demo_plant.L, demo_plant.gamma1,
                                                demo_plant.gamma2, M), M)
        rng = np.random.default_rng(11)
        z0 = with_signed_zeros(rng.standard_normal((M, 3)), rng)
        live = self._check(loop, z0, 64, chunk)
        spans = simulator._spans(M - 3, max(chunk, 4))
        # Some pass stops inside a chunk.
        assert any(a < n < b for n in live for a, b in spans)

    def test_scalar_cascade_in_chunks_of_one_mode(self):
        """m = 1: a chunk of one mode would be a one-row drive product, which
        rounds differently from the whole tail's; a budget of one mode still
        takes four, and the bits match."""
        rng = np.random.default_rng(8)
        dense = np.diag(-np.arange(1, 16) ** 2).astype(float)
        dense[:, :2] += 5 * rng.standard_normal((15, 2))
        dense[0, 1] = dense[1, 0] = 0.0
        loop = scalar_loop(dense, 2)
        self._check(loop, rng.standard_normal((15, 1)), 64, 1)

    def test_traced_peak_is_the_trajectory_and_a_few_chunks(self, demo_plant,
                                                            demo_closed_loop):
        """On a fine-mesh-sized loop (demo plant, N = 3, M = 400, 401
        samples), integrate allocates the trajectory and a few chunk-sized
        buffers: the tail is never held whole beside it."""
        import tracemalloc

        from cascade_stab import simulator

        M = 400
        loop = assemble_closed_loop(demo_plant, demo_closed_loop[1],
                                    build_basis(demo_plant.L, demo_plant.gamma1,
                                                demo_plant.gamma2, M), M)
        z0 = np.random.default_rng(5).standard_normal((M, 3))
        t_final = SimConfig().t_final
        tracemalloc.start()
        try:
            traj = integrate(loop, z0, t_final, SimConfig().resolved_dt())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.modal.shape[1:] == (M, 3)
        assert peak < traj.modal.nbytes + 4 * simulator._CHUNK_BYTES


class TestEstimateDecay:
    def test_synthetic_exponential(self):
        times = np.linspace(0.0, 1.0, 401)
        traj_norm = np.exp(-2.0 * times)
        from cascade_stab.simulator import Trajectory

        traj = Trajectory(times=times, modal=np.zeros((401, 1, 1)),
                          l2_norm=traj_norm)
        assert estimate_decay(traj) == pytest.approx(2.0, abs=1e-8)

    def test_pure_tail_mode_decay(self, demo_plant, demo_basis, demo_closed_loop):
        # data only in mode 4: z^N stays zero, feedback never acts, and the
        # decay matches the open tail block -lambda_4 D + Q.
        _maps, ctl, _cert = demo_closed_loop
        A = assemble_closed_loop(demo_plant, ctl, demo_basis, 10)
        z0 = np.zeros((10, 3))
        z0[3] = [1.0, -0.5, 0.25]
        traj = integrate(A, z0, 0.3, 0.3 / 400.0)
        block = -demo_basis.lam[3] * np.diag(demo_plant.D) + demo_plant.Q
        expected = -np.max(np.linalg.eigvals(block).real)
        assert estimate_decay(traj) == pytest.approx(expected, rel=0.02)
        assert np.max(np.abs(traj.modal[:, :3, :])) == 0.0

    def test_zero_norm_raises(self):
        from cascade_stab.simulator import Trajectory

        times = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(times=times, modal=np.zeros((11, 1, 1)),
                          l2_norm=np.zeros(11))
        with pytest.raises(ZeroNorm):
            estimate_decay(traj)

    @pytest.mark.parametrize("times", [[0.0, 1.0], [0.0], [0.0, 0.1, 1.0]])
    def test_too_few_samples_in_window_is_an_input_error(self, times):
        """A coarse grid is not a vanished norm: ValueError, not ZeroNorm."""
        from cascade_stab.simulator import Trajectory

        times = np.array(times)
        traj = Trajectory(times=times, modal=np.ones((len(times), 1, 1)),
                          l2_norm=np.full(len(times), 11.75))
        with pytest.raises(ValueError, match="--t-final.*--dt-out") as info:
            estimate_decay(traj)
        assert not isinstance(info.value, ZeroNorm)


class TestTargetResidual:
    def test_demo_target_dynamics(self, demo_plant, demo_basis, demo_initial,
                                  demo_closed_loop):
        maps, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        A_RR = assemble_closed_loop(demo_plant, ctl, demo_basis, 3).A_RR
        res = target_residual(traj, maps, A_RR)
        assert res <= 1e-6

    def test_no_retained_mode_reads_zero(self, zero_mode_run):
        loop, retained, traj = zero_mode_run
        assert target_residual(traj, retained, loop.A_RR) == 0.0

    def test_identity_family_matches_plain_residual(self, rng):
        from conftest import random_plant

        plant = random_plant(rng, m=3, force_sigma=1)
        basis = build_basis(math.pi, 1.0, 0.0, 20)
        ctl, maps = build_controller(plant, 1.5, basis=basis)
        if ctl.N == 0:
            pytest.skip("plant already stable at this rate")
        cfg = SimConfig(M_modes=12, t_final=0.5)
        z0 = [(lambda c: (lambda x: np.cos(c * x) + 0.5))(i + 1) for i in range(3)]
        traj = run_closed_loop(plant, ctl, basis, z0, cfg)
        A_RR = assemble_closed_loop(plant, ctl, basis, ctl.N).A_RR
        res = target_residual(traj, maps, A_RR)
        assert res <= 1e-8

    def test_perturbed_gain_breaks_identity(self, demo_plant, demo_basis,
                                            demo_initial, demo_closed_loop):
        maps, ctl, _cert = demo_closed_loop
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        A_RR = assemble_closed_loop(demo_plant, ctl, demo_basis, 3).A_RR
        clean = target_residual(traj, maps, A_RR)
        bad = Controller(delta=ctl.delta, N=ctl.N, N_min=ctl.N_min, K_Q=ctl.K_Q,
                         P=ctl.P, Kbar=ctl.Kbar * 1.1, Bmat=ctl.Bmat,
                         cond_B=ctl.cond_B, K=ctl.K)
        A_RR = assemble_closed_loop(demo_plant, bad, demo_basis, 3).A_RR
        dirty = target_residual(traj, maps, A_RR)
        assert dirty > max(clean * 10.0, 1e-4)

    def test_matches_per_sample_loop(self, demo_plant, demo_basis, demo_initial,
                                     demo_closed_loop):
        # Reference: the defect and the scale taken one sample at a time.
        maps, ctl, _cert = demo_closed_loop
        bad = Controller(delta=ctl.delta, N=ctl.N, N_min=ctl.N_min, K_Q=ctl.K_Q,
                         P=ctl.P, Kbar=ctl.Kbar * 1.1, Bmat=ctl.Bmat,
                         cond_B=ctl.cond_B, K=ctl.K)
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, ctl, demo_basis, demo_initial, cfg)
        lams = demo_basis.lam[:3]
        T = scipy.linalg.block_diag(*maps.T)
        H = scipy.linalg.block_diag(*closed_blocks(demo_plant, bad.K_Q, lams))
        blocks = []
        for n, lam in enumerate(lams):
            block = -float(lam) * np.diag(demo_plant.D) + demo_plant.Q
            block[0, :] += bad.Kbar[n]
            blocks.append(block)
        defect = T @ scipy.linalg.block_diag(*blocks) - H @ T
        worst = max(np.linalg.norm(defect @ z[:3].reshape(-1)) for z in traj.modal)
        scale = max(np.linalg.norm(H @ (T @ z[:3].reshape(-1))) for z in traj.modal)
        A_RR = assemble_closed_loop(demo_plant, bad, demo_basis, 3).A_RR
        res = target_residual(traj, maps, A_RR)
        assert res == pytest.approx(worst / scale, rel=1e-12)


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

    def test_matches_per_sample_expand(self, demo_basis):
        # Same floats, hence the same field.csv bytes, as expanding each
        # time sample on its own.
        from cascade_stab.simulator import Trajectory

        modal = np.random.default_rng(41).standard_normal((41, 40, 3))
        traj = Trajectory(times=np.arange(41) * 0.025, modal=modal,
                          l2_norm=np.ones(41))
        grid = np.linspace(0.0, math.pi, 101)
        per_sample = np.stack([expand(z, demo_basis, grid) for z in modal])
        assert np.array_equal(reconstruct_field(traj, demo_basis, grid), per_sample)

    @pytest.mark.parametrize("spans", [[(0, 41)], [(0, 1), (1, 2), (40, 41)],
                                       [(0, 13), (13, 26), (26, 41)], [(5, 5)]])
    def test_field_rows_have_the_whole_fields_bits(self, tmp_path, demo_basis, spans):
        """field_table's rows of any run of steps, one step or many, hold the
        bits of reconstruct_field's whole field on those steps, and
        field.csv is the serial oracle's."""
        from cascade_stab.simulator import Trajectory

        modal = np.random.default_rng(43).standard_normal((41, 40, 3))
        traj = Trajectory(times=np.arange(41) * 0.025, modal=modal, l2_norm=np.ones(41))
        grid = np.linspace(0.0, math.pi, 101)
        whole = reconstruct_field(traj, demo_basis, grid)
        table = field_table(traj, demo_basis, grid, str(tmp_path / "field.csv"))
        for a, b in spans:
            rows = table.rows(a, b)
            assert rows.shape == ((b - a) * grid.size, 5)
            assert np.array_equal(rows[:, 0], np.repeat(traj.times[a:b], grid.size))
            assert np.array_equal(rows[:, 1], np.tile(grid, b - a))
            assert np.array_equal(rows[:, 2:], whole[a:b].transpose(0, 2, 1).reshape(-1, 3))
        write_csvs([table])
        _assert_same_text((tmp_path / "field.csv").read_text(),
                          _serial_field(traj, demo_basis, grid))

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
        _maps, ctl, _cert = demo_closed_loop
        fits = []
        for M in (30, 60):
            basis = build_basis(demo_plant.L, 1.0, 0.0, M)
            cfg = SimConfig(M_modes=M, t_final=1.0)
            traj = run_closed_loop(demo_plant, ctl, basis, demo_initial, cfg)
            fits.append(traj.fitted_decay)
        assert abs(fits[0] - fits[1]) <= 0.01 * abs(fits[1])

    def test_open_loop_instability(self, demo_plant, demo_basis, demo_initial,
                                   demo_closed_loop):
        _maps, ctl, _cert = demo_closed_loop
        block = -demo_basis.lam[0] * np.diag(demo_plant.D) + demo_plant.Q
        assert np.max(np.linalg.eigvals(block).real) > 0.0
        cfg = SimConfig(M_modes=30, t_final=1.0)
        traj = run_closed_loop(demo_plant, zero_controller(ctl.delta, ctl.N_min, 3),
                               demo_basis, demo_initial, cfg)
        assert traj.l2_norm[-1] > traj.l2_norm[0]


class TestCsvExport:
    def test_export_files(self, tmp_path, demo_plant, demo_basis, demo_initial,
                          demo_closed_loop):
        _maps, ctl, cert = demo_closed_loop
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

    def test_bound_column_is_the_per_sample_bound(self, monkeypatch):
        # The bound column and certificate_bound_holds read one vectorized
        # exp; the oracle is the one-exp-per-sample loop it replaced.
        from cascade_stab import simulator
        from cascade_stab.simulator import Trajectory

        shared, seen = simulator.certificate_bound, []

        def spy(*args):
            seen.append(shared(*args))
            return seen[-1]

        monkeypatch.setattr(simulator, "certificate_bound", spy)
        rng = np.random.default_rng(21)
        for _ in range(200):
            steps = int(rng.integers(1, 2001))
            t_final, delta = rng.uniform(0.1, 5.0), rng.uniform(0.1, 20.0)
            M = 10.0 ** rng.uniform(0.0, 24.0)
            times = np.arange(steps + 1) * (t_final / steps)
            traj = Trajectory(times=times, modal=np.zeros((steps + 1, 1, 1)),
                              l2_norm=rng.uniform(0.1, 10.0, steps + 1))
            z0 = traj.l2_norm[0]
            oracle = np.array([float(M * np.exp(-delta * t) * z0) for t in times])
            column = norms_table(traj, M, delta, "norms.csv").rows(0, steps + 1)[:, 2]
            assert column.tobytes() == oracle.tobytes()
            certificate_bound_holds(traj, M, delta)
            assert len(seen) == 2 and seen[1].tobytes() == oracle.tobytes()
            seen.clear()

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


# Serial repr writers, one line per row, kept as the byte oracle for the
# exports.

def _serial_csv(header, rows) -> str:
    lines = [header]
    lines += [",".join(map(repr, row)) for row in rows]
    lines.append("")
    return "\n".join(lines)


def _serial_modal(traj) -> str:
    cols = ["t"] + [f"z_{i + 1}_{n + 1}" for n in range(traj.n_modes)
                    for i in range(traj.m)]
    rows = ([t, *z.reshape(-1).tolist()]
            for t, z in zip(traj.times.tolist(), traj.modal))
    return _serial_csv(",".join(cols), rows)


def _serial_field(traj, basis, grid) -> str:
    fields = reconstruct_field(traj, basis, grid)
    x = np.asarray(grid, dtype=float).tolist()
    rows = ([t, xp, *values]
            for t, field in zip(traj.times.tolist(), fields)
            for xp, values in zip(x, field.T.tolist()))
    return _serial_csv("t,x," + ",".join(f"z{i + 1}" for i in range(traj.m)), rows)


def _serial_norms(traj, M_cert, delta) -> str:
    z0 = traj.l2_norm[0]
    bound = [float(M_cert * np.exp(-delta * t) * z0) for t in traj.times]
    rows = zip(traj.times.tolist(), traj.l2_norm.tolist(), bound)
    return _serial_csv("t,l2norm,bound", rows)


def _assert_same_text(text, expected) -> None:
    """Compared as lists of lines of values, so that a mismatch reports where
    it is at once; a diff of megabytes of text could take minutes.  Both are
    str, or both bytes."""
    newline, comma = ("\n", ",") if isinstance(text, str) else (b"\n", b",")
    assert type(text) is type(expected)
    assert text.endswith(newline) and expected.endswith(newline)
    assert ([line.split(comma) for line in text.split(newline)]
            == [line.split(comma) for line in expected.split(newline)])


def _export_and_check(tmp_path, traj, basis, grid):
    """The three exports give the oracle's bytes and leave no other file."""
    export_modal_csv(traj, str(tmp_path / "modal.csv"))
    export_field_csv(traj, basis, grid, str(tmp_path / "field.csv"))
    export_norms_csv(traj, 1.5, 3.0, str(tmp_path / "norms.csv"))
    _assert_same_text((tmp_path / "modal.csv").read_text(), _serial_modal(traj))
    _assert_same_text((tmp_path / "field.csv").read_text(), _serial_field(traj, basis, grid))
    _assert_same_text((tmp_path / "norms.csv").read_text(), _serial_norms(traj, 1.5, 3.0))
    assert sorted(os.listdir(tmp_path)) == ["field.csv", "modal.csv", "norms.csv"]


def _repr_lines(block) -> str:
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block, dtype=float).tolist())


class TestCsvWriter:
    """The block writers give the serial oracle's bytes on tables of many
    blocks, with magnitudes from 1e-300 to 1e300."""

    STEPS = 203

    def test_matches_serial_oracle(self, tmp_path):
        from cascade_stab.simulator import Trajectory

        gen = np.random.default_rng(20240611)
        M, m, G = 101, 3, 103
        times = np.arange(self.STEPS) * 0.0123
        modal = gen.standard_normal((self.STEPS, M, m)) * 10.0 ** gen.integers(
            -300, 300, size=(self.STEPS, M, m))
        modal[0, :4, 0] = [-0.0, 5e-324, 1e300, 1.0 / 3.0]
        traj = Trajectory(times=times, modal=modal,
                          l2_norm=np.abs(gen.standard_normal(self.STEPS)))
        # The modal and field tables span several blocks each.
        assert modal.size >= 4 * _VALUES_PER_BLOCK
        assert self.STEPS * m * G >= 4 * _VALUES_PER_BLOCK
        _export_and_check(tmp_path, traj, build_basis(math.pi, 1.0, 0.0, M),
                          np.linspace(0.0, math.pi, G))

    def test_decaying_trajectory(self, tmp_path):
        """Magnitudes around 1e-5, where the layouts of orjson and repr part."""
        from cascade_stab.simulator import Trajectory

        gen = np.random.default_rng(7)
        T, M, m = 60, 40, 3
        modal = gen.standard_normal((T, M, m)) * 10.0 ** gen.uniform(-9.0, 1.0, (T, M, m))
        traj = Trajectory(times=np.linspace(0.0, 1.0, T), modal=modal,
                          l2_norm=10.0 ** np.linspace(-3.0, -7.0, T))
        _export_and_check(tmp_path, traj, build_basis(math.pi, 1.0, 0.0, M),
                          np.linspace(0.0, math.pi, 11))


class TestCsvEdgeTables:
    """Tables at the edges of the CLI's options give the oracle's bytes."""

    @staticmethod
    def _traj(T):
        from cascade_stab.simulator import Trajectory

        modal = np.random.default_rng(3).standard_normal((T, 4, 2))
        return Trajectory(times=np.arange(T) * 0.25, modal=modal,
                          l2_norm=np.linalg.norm(modal.reshape(T, -1), axis=1))

    def test_no_grid_points(self, tmp_path, demo_basis):
        # --grid-points 0: field.csv holds the header only.
        _export_and_check(tmp_path, self._traj(5), demo_basis,
                          np.linspace(0.0, math.pi, 0))
        assert (tmp_path / "field.csv").read_text() == "t,x,z1,z2\n"

    def test_one_grid_point(self, tmp_path, demo_basis):
        _export_and_check(tmp_path, self._traj(5), demo_basis,
                          np.linspace(0.0, math.pi, 1))

    def test_one_sample(self, tmp_path, demo_basis):
        _export_and_check(tmp_path, self._traj(1), demo_basis,
                          np.linspace(0.0, math.pi, 3))

    def test_non_finite_values(self, tmp_path, demo_basis):
        traj = self._traj(6)
        traj.modal[1, 0, 0] = np.nan
        traj.modal[3, 2, 1] = np.inf
        traj.modal[4, 1, 0] = -np.inf
        traj.l2_norm[1:5] = [np.nan, 1.0, np.inf, -np.inf]
        _export_and_check(tmp_path, traj, demo_basis, np.linspace(0.0, math.pi, 4))
        text = (tmp_path / "modal.csv").read_text()
        assert "nan" in text and ",inf" in text and "-inf" in text


class TestCsvHelper:
    """write_csvs shares the blocks of its tables with one forked helper by
    claims: every block is formatted exactly once, the bytes match the serial
    writer's whoever formats what, and the helper is always reaped."""

    @pytest.fixture(autouse=True)
    def _deadline(self):
        """Fail, rather than hang, a test whose writer waits forever."""
        import signal

        def expire(signum, frame):
            raise TimeoutError("write_csvs still running after 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def _tables(traj, basis, grid, directory):
        return [modal_table(traj, str(directory / "modal.csv")),
                field_table(traj, basis, grid, str(directory / "field.csv")),
                norms_table(traj, 1.5, 3.0, str(directory / "norms.csv"))]

    @staticmethod
    def _count_forks(monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @staticmethod
    def _assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _logged_tables(directory, shapes, log):
        """Tables "k.csv" of the given (steps, width), header "h", whose rows
        calls each append "table start stop pid" to the file `log`."""
        gen = np.random.default_rng(11)
        tables, values = [], []
        for k, (steps, width) in enumerate(shapes):
            v = gen.standard_normal((steps, width))

            def rows(a, b, k=k, v=v):
                with open(log, "a") as fh:
                    fh.write(f"{k} {a} {b} {os.getpid()}\n")
                return v[a:b]

            tables.append(CsvTable(str(directory / f"{k}.csv"), "h", steps, width, rows))
            values.append(v)
        return tables, values

    @classmethod
    def _check_logged(cls, directory, tables, values, log):
        """Each block formatted exactly once, the serial writer's bytes, and
        no other file; the pids that formatted blocks."""
        logged = []
        if os.path.exists(log):
            with open(log) as fh:
                logged = [line.split() for line in fh]
        calls = sorted(tuple(map(int, fields[:3])) for fields in logged)
        expected = sorted((k, a, min(a + t.block, t.steps)) for k, t in enumerate(tables)
                          for a in range(0, t.steps, t.block))
        assert calls == expected
        for k, v in enumerate(values):
            assert (directory / f"{k}.csv").read_text() == "h\n" + _repr_lines(v)
        assert sorted(os.listdir(directory)) == sorted(f"{k}.csv" for k in range(len(tables)))
        cls._assert_no_child()
        return {int(fields[3]) for fields in logged}

    @staticmethod
    def _small_tables(directory):
        """The three tables of a random 203-step run: 2 blocks of modal.csv,
        6 of field.csv and 1 of norms.csv."""
        from cascade_stab.simulator import Trajectory

        gen = np.random.default_rng(7)
        steps, M, m = 203, 20, 3
        traj = Trajectory(times=np.arange(steps) * 0.0123,
                          modal=gen.standard_normal((steps, M, m)),
                          l2_norm=np.abs(gen.standard_normal(steps)))
        basis, grid = build_basis(math.pi, 1.0, 0.0, M), np.linspace(0.0, math.pi, 40)
        directory.mkdir()
        return TestCsvHelper._tables(traj, basis, grid, directory)

    @staticmethod
    def _assert_same_files(a, b):
        for name in ("modal.csv", "field.csv", "norms.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == [
            "field.csv", "modal.csv", "norms.csv"]

    @pytest.mark.parametrize("allowed, parent, cpus", [
        ({0, 1}, 0, {1}), ({0, 1}, 1, {0}), ({0, 1, 2, 3}, 2, {0, 1, 3}),
        ({0}, 0, None), ({0, 1}, None, None), (set(), None, None)])
    def test_helper_cpus(self, allowed, parent, cpus):
        """The helper's CPUs are the allowed ones but the parent's; None,
        unpinned, where the parent's is unknown or the only one."""
        from cascade_stab.simulator import _helper_cpus

        assert _helper_cpus(allowed, parent) == cpus

    def test_helper_pinned_off_the_parents_cpu(self, tmp_path, monkeypatch):
        """The helper, and only the helper, sets its affinity: to the allowed
        CPUs but the one the parent ran on at the fork.  The parent's
        affinity is the same after write_csvs."""
        from cascade_stab import simulator

        assert simulator._current_cpu() in os.sched_getaffinity(0)
        before = os.sched_getaffinity(0)
        log, real_set = tmp_path / "affinity", os.sched_setaffinity

        def set_affinity(pid, cpus):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {pid} {sorted(cpus)}\n")
            real_set(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", set_affinity)
        monkeypatch.setattr(simulator, "_current_cpu", lambda: min(before))
        forks = self._count_forks(monkeypatch)
        write_csvs(self._small_tables(tmp_path / "out"))
        assert len(forks) == 1
        pid, target, cpus = log.read_text().rstrip("\n").split(" ", 2)
        assert int(pid) != os.getpid() and target == "0"
        assert cpus == str(sorted(before - {min(before)}))
        assert os.sched_getaffinity(0) == before
        self._assert_no_child()

    @pytest.mark.parametrize("fallback", ["cpu unknown", "pin refused"])
    def test_unpinned_helper_gives_the_same_bytes(self, tmp_path, monkeypatch, fallback):
        """Where the parent's CPU cannot be read, the helper is not pinned;
        where the pin raises OSError, it runs unpinned.  Either way it is
        forked and the files are the pinned helper's."""
        from cascade_stab import simulator

        before = os.sched_getaffinity(0)
        write_csvs(self._small_tables(tmp_path / "pinned"))
        tried = tmp_path / "tried"

        def refuse(pid, cpus):
            tried.touch()
            raise OSError(errno.EINVAL, "refused")

        if fallback == "cpu unknown":
            monkeypatch.setattr(simulator, "_SCHED_GETCPU", None)
            assert simulator._current_cpu() is None
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        forks = self._count_forks(monkeypatch)
        write_csvs(self._small_tables(tmp_path / "unpinned"))
        assert len(forks) == 1
        assert tried.exists() == (fallback == "pin refused")
        self._assert_same_files(tmp_path / "pinned", tmp_path / "unpinned")
        assert os.sched_getaffinity(0) == before
        self._assert_no_child()

    def test_one_allowed_cpu_does_not_fork(self, tmp_path, monkeypatch):
        """A process allowed one CPU formats every block itself: no helper
        is forked, and the files are the two-process writer's bytes."""
        from unittest import mock

        from cascade_stab import simulator

        forks = self._count_forks(monkeypatch)
        write_csvs(self._small_tables(tmp_path / "shared"))
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with mock.patch.object(simulator._Helper, "fork") as fork:
            write_csvs(self._small_tables(tmp_path / "alone"))
        fork.assert_not_called()
        assert len(forks) == 1
        self._assert_same_files(tmp_path / "shared", tmp_path / "alone")

    # The fields of the non-finite rows come out NaN.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("serial", ["no memfd_create", "fork raises"])
    def test_helper_matches_forced_serial(self, tmp_path, monkeypatch, serial):
        """TestCsvWriter's 203-step table, with non-finite rows in the last
        block of the modal table, which the helper claims first; the parent
        waits for it there, so that the helper takes the repr path."""
        from cascade_stab import simulator
        from cascade_stab.simulator import Trajectory

        from conftest import helper_formats_first

        gen = np.random.default_rng(20240611)
        M, m, G = 101, 3, 103
        steps = TestCsvWriter.STEPS
        modal = gen.standard_normal((steps, M, m)) * 10.0 ** gen.integers(
            -300, 300, size=(steps, M, m))
        modal[150, 7, 1], modal[180, 0, 0], modal[190, 3, 2] = np.nan, np.inf, -np.inf
        traj = Trajectory(times=np.arange(steps) * 0.0123, modal=modal,
                          l2_norm=np.abs(gen.standard_normal(steps)))
        traj.l2_norm[-1] = np.nan
        basis, grid = build_basis(math.pi, 1.0, 0.0, M), np.linspace(0.0, math.pi, G)
        shared = tmp_path / "shared"
        alone = tmp_path / "serial"
        shared.mkdir(), alone.mkdir()

        tables = self._tables(traj, basis, grid, shared)
        last = tables[0].block * (tables[0].blocks() - 1)
        assert last <= 190 < steps  # the -inf lies in the modal table's last block
        real_lines = simulator._csv_lines
        wrapped = helper_formats_first(monkeypatch, str(tmp_path / "helper-started"))
        forks = self._count_forks(monkeypatch)
        write_csvs(tables)
        assert len(forks) == 1
        assert wrapped and (tmp_path / "helper-started").exists()
        self._assert_no_child()

        monkeypatch.setattr(simulator, "_csv_lines", real_lines)
        if serial == "no memfd_create":
            monkeypatch.delattr(os, "memfd_create")
        else:
            def refuse():
                raise OSError("fork refused")
            monkeypatch.setattr(os, "fork", refuse)
        write_csvs(self._tables(traj, basis, grid, alone))

        for name in ("modal.csv", "field.csv", "norms.csv"):
            assert (shared / name).read_bytes() == (alone / name).read_bytes()
        _assert_same_text((shared / "modal.csv").read_text(), _serial_modal(traj))
        _assert_same_text((shared / "field.csv").read_text(),
                          _serial_field(traj, basis, grid))
        assert "nan" in (shared / "modal.csv").read_text()
        assert sorted(os.listdir(shared)) == ["field.csv", "modal.csv", "norms.csv"]

    @seed(17)
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 24)), max_size=4))
    def test_every_block_formatted_once(self, shapes):
        """Any tables, with 16-value blocks: 0-step and one-block tables
        among them.  The helper is forked where they hold two blocks'
        worth of values."""
        import tempfile
        from unittest import mock

        from cascade_stab import simulator

        # tmp_path would be shared by the examples, so each makes its own.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(simulator, "_VALUES_PER_BLOCK", 16), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            directory, log = pathlib.Path(tmp) / "out", os.path.join(tmp, "log")
            directory.mkdir()
            tables, values = self._logged_tables(directory, shapes, log)
            write_csvs(tables)
            assert fork.call_count == (sum(s * w for s, w in shapes) >= 32)
            self._check_logged(directory, tables, values, log)

    @pytest.mark.parametrize("slow", ["parent", "helper"])
    def test_imbalance_gives_the_same_bytes(self, tmp_path, monkeypatch, slow):
        """A side that formats slowly leaves the other more blocks; the
        files do not change."""
        from cascade_stab import simulator

        parent = os.getpid()
        real_lines = simulator._csv_lines
        wrapped = tmp_path / "wrapped"

        def lines(block):
            with open(wrapped, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if (os.getpid() == parent) == (slow == "parent"):
                time.sleep(0.005)
            return real_lines(block)

        monkeypatch.setattr(simulator, "_csv_lines", lines)
        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        # 1000-value rows: 8 steps a block, 5, 1 and 6 blocks.
        tables, values = self._logged_tables(directory, [(40, 1000), (3, 1000), (41, 1000)], log)
        forks = self._count_forks(monkeypatch)
        write_csvs(tables)
        assert len(forks) == 1
        self._check_logged(directory, tables, values, log)
        assert len(wrapped.read_text().split()) == 12  # every block went through it

    def test_contended_claims(self, tmp_path, monkeypatch):
        """3000 one-value blocks: the two processes claim back to back, and
        every block is still formatted exactly once."""
        from cascade_stab import simulator

        monkeypatch.setattr(simulator, "_VALUES_PER_BLOCK", 1)
        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        tables, values = self._logged_tables(directory, [(1000, 1)] * 3, log)
        forks = self._count_forks(monkeypatch)
        write_csvs(tables)
        assert len(forks) == 1
        self._check_logged(directory, tables, values, log)

    def test_claim_rule(self, tmp_path):
        """The claims in one process, no fork: tables of 3, 0 and 5 one-step
        blocks.  Parent front claims and helper back claims interleave; each
        block is claimed exactly once, the empty table is skipped, and the
        claims of a table stop where its front meets its back."""
        from cascade_stab import simulator

        tables = [CsvTable(str(tmp_path / f"{k}.csv"), "h", steps, _VALUES_PER_BLOCK,
                           lambda a, b: None) for k, steps in enumerate((3, 0, 5))]
        assert [t.blocks() for t in tables] == [3, 0, 5]
        helper = simulator._Helper(tables)
        try:
            def parent(i):
                return helper.claim((i,), front=True)

            def helper_claim():
                return helper.claim(range(3), front=False)

            first = [parent(0), helper_claim(), helper_claim(), parent(0), parent(1)]
            assert first == [(0, 0), (0, 2), (0, 1), None, None]
            then = [helper_claim() if turn % 2 == 0 else parent(2) for turn in range(7)]
            assert then == [(2, 4), (2, 0), (2, 3), (2, 1), (2, 2), None, None]
            claims = [claim for claim in first + then if claim is not None]
            assert sorted(claims) == [(0, 0), (0, 1), (0, 2)] + [(2, k) for k in range(5)]
            assert [simulator._PAIR.unpack_from(helper.map, simulator._PAIR.size * i)
                    for i in range(3)] == [(1, 1), (0, 0), (2, 2)]
        finally:
            helper.map.close()
            os.close(helper.memfd)

    @pytest.mark.parametrize("steps, forks", [(6, 1), (5, 0)])
    def test_fork_from_two_blocks_of_values(self, tmp_path, monkeypatch, steps, forks):
        """Three tables of 1000-value rows fork once from 2 * 8192 values
        among them (6 steps each), and not at all below (5 steps each)."""
        width = 1000
        values = np.random.default_rng(5).standard_normal((steps, width))
        tables = [CsvTable(str(tmp_path / f"{k}.csv"), "h", steps, width,
                           lambda a, b: values[a:b]) for k in range(3)]
        calls = self._count_forks(monkeypatch)
        write_csvs(tables)
        assert len(calls) == forks
        self._assert_no_child()
        for k in range(3):
            assert (tmp_path / f"{k}.csv").read_text() == "h\n" + _repr_lines(values)

    @pytest.mark.parametrize("where", ["helper", "parent"])
    def test_failure_leaves_targets_and_no_child(self, tmp_path, monkeypatch, where):
        """A helper that exits non-zero with a claimed block is a
        CsvHelperFailed; a parent that fails kills its helper.  Either way
        the old target stays, no temp file is left, and the helper is
        reaped."""
        from cascade_stab import simulator

        from conftest import helper_formats_first

        def fail():
            raise RuntimeError("formatting failed")

        if where == "helper":
            wrapped = helper_formats_first(monkeypatch, str(tmp_path / "helper-started"),
                                           fail)
        else:
            parent, real_lines, wrapped = os.getpid(), simulator._csv_lines, []
            monkeypatch.setattr(simulator, "_csv_lines", lambda block: (
                wrapped.append(block.shape) or fail() if os.getpid() == parent
                else real_lines(block)))
        values = np.arange(2.0 * _VALUES_PER_BLOCK).reshape(-1, 4)  # two blocks
        target = tmp_path / "table.csv"
        target.write_text("old\n")
        expected = CsvHelperFailed if where == "helper" else RuntimeError
        with pytest.raises(expected, match="status 1" if where == "helper" else "formatting"):
            write_csvs([CsvTable(str(target), "a,b,c,d", len(values), 4,
                                 lambda a, b: values[a:b])])
        assert wrapped
        assert target.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["table.csv"] + (["helper-started"] if where == "helper" else []))
        self._assert_no_child()

    def test_helper_killed_holding_a_claim(self, tmp_path, monkeypatch):
        """SIGKILL while the helper formats a claimed block: a CsvHelperFailed
        that names the status, the old targets stay, no temp file is left,
        and no child remains."""
        import signal

        from conftest import helper_formats_first

        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        tables, _ = self._logged_tables(directory, [(40, 1000), (40, 1000)], log)
        for table in tables:
            with open(table.path, "w") as fh:
                fh.write("old\n")
        wrapped = helper_formats_first(monkeypatch, str(tmp_path / "helper-started"),
                                       lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(CsvHelperFailed, match=r"exited with status -9 with 1 "
                                                  r"claimed block\(s\) of 0.csv unwritten"):
            write_csvs(tables)
        assert wrapped and (tmp_path / "helper-started").exists()
        assert [pathlib.Path(t.path).read_text() for t in tables] == ["old\n", "old\n"]
        assert sorted(os.listdir(directory)) == ["0.csv", "1.csv"]
        self._assert_no_child()

    @pytest.mark.parametrize("processes", ["two", "one"])
    def test_field_memory_is_a_few_blocks(self, tmp_path, monkeypatch, processes):
        """field.csv of a trajectory whose whole field takes 10.1 MB (420
        steps, m = 3, 1001 grid points, one step a block) is built and
        written by a parent whose traced allocations never exceed a fifth of
        that: each block's rows are computed when it is formatted, and no
        (steps, m, grid) field is allocated.  (A field in a shared mapping
        would escape tracemalloc; the one-process case has none.)"""
        import tracemalloc

        from cascade_stab.simulator import Trajectory

        steps, M, m, G = 420, 20, 3, 1001
        gen = np.random.default_rng(29)
        traj = Trajectory(times=np.arange(steps) * 0.01,
                          modal=gen.standard_normal((steps, M, m)), l2_norm=np.ones(steps))
        basis, grid = build_basis(math.pi, 1.0, 0.0, M), np.linspace(0.0, math.pi, G)
        whole = 8 * steps * m * G
        assert whole >= 10_000_000
        forks = self._count_forks(monkeypatch)
        if processes == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        tracemalloc.start()
        try:
            table = field_table(traj, basis, grid, str(tmp_path / "field.csv"))
            write_csvs([table])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.block == 1
        assert len(forks) == (processes == "two")
        assert peak < whole / 5
        with open(tmp_path / "field.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 1 + steps * G
        self._assert_no_child()

    def test_helper_failing_before_its_first_claim(self, tmp_path, monkeypatch, capfd):
        """A helper that fails before it claims a block has lost nothing: it
        exits 0 silently, the parent formats every block, and the files are
        the serial writer's."""
        from cascade_stab import simulator

        def refuse(pid, cpus):
            raise RuntimeError("no affinity here")

        monkeypatch.setattr(simulator, "_current_cpu", lambda: min(os.sched_getaffinity(0)))
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        statuses, real_waitpid = [], os.waitpid

        def waitpid(pid, options):
            done = real_waitpid(pid, options)
            statuses.append(done[1])
            return done

        monkeypatch.setattr(os, "waitpid", waitpid)
        forks = self._count_forks(monkeypatch)
        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        tables, values = self._logged_tables(directory, [(40, 1000), (40, 1000)], log)
        write_csvs(tables)
        assert len(forks) == 1 and statuses == [0]
        assert self._check_logged(directory, tables, values, log) == {os.getpid()}
        assert capfd.readouterr().err == ""

    def test_helper_done_before_the_parent_resumes(self, tmp_path, monkeypatch):
        """A helper that has claimed every block and exited before the parent
        returns from the fork leaves the parent only the helper's blocks to
        append."""
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        tables, values = self._logged_tables(directory, [(40, 1000), (40, 1000)], log)
        write_csvs(tables)
        assert os.getpid() not in self._check_logged(directory, tables, values, log)

    def test_helper_killed_holding_the_lock(self, tmp_path, monkeypatch):
        """A helper killed at its first claim, with the lock held, leaves the
        lock to the parent, which formats every block itself."""
        import fcntl
        import signal

        parent, real_lockf = os.getpid(), fcntl.lockf

        def lockf(fd, op, *args):
            real_lockf(fd, op, *args)
            if os.getpid() != parent and op == fcntl.LOCK_EX:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(fcntl, "lockf", lockf)
        directory, log = tmp_path / "out", str(tmp_path / "log")
        directory.mkdir()
        tables, values = self._logged_tables(directory, [(40, 1000), (40, 1000)], log)
        write_csvs(tables)
        assert self._check_logged(directory, tables, values, log) == {parent}


_table_shapes = array_shapes(min_dims=2, max_dims=2, max_side=12)

# The magnitudes at which orjson's layout starts or stops differing from
# repr's, each with its neighbouring doubles, of both signs.
_CUTS = (1e-9, 1e-5, 1e-4, 1e16, 1e100)
_CUT_EDGES = [sign * float(v) for cut in _CUTS
              for v in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf))
              for sign in (1.0, -1.0)]
# One value of each layout that needs an edit.
_EDITED = [2.5e-7, -1e-9, 1.5e-5, -1e-5, 9.999999999999999e-05, 1e16, -2.5e17,
           1e100, -1.7976931348623157e308]


def _near_cuts(u):
    """Map u in [-2, 2] to sign(u) 10^p: p uniform in [-11, -3] for |u| < 1,
    and in [15, 102] for |u| >= 1."""
    a = np.abs(u)
    power = np.where(a < 1.0, -11.0 + 8.0 * a, 15.0 + 87.0 * (a - 1.0))
    return np.copysign(10.0 ** power, u)


# Blocks are also checked tiled to at least this many values, as wide as
# the smallest block any command writes.
_WIDE = 64


def _with_tiled(block):
    """`block`, and `block` tiled to at least _WIDE values."""
    block = np.asarray(block, dtype=float)
    return block, np.tile(block, (1, -(-_WIDE // max(1, block.size))))


class TestCsvLines:
    """_csv_lines is the repr join of every row, whatever the float."""

    EDGES = list(dict.fromkeys([  # without repeats, so each keeps its test id
        1e-5, -1e-5, 1.5e-5, 9.999999999999999e-05, 1e-4, -1e-4, 10.00001,
        1e16, 9999999999999998.0, 5e-324, -0.0, 2.5e-7, *_CUT_EDGES]))

    @pytest.mark.parametrize("value", EDGES)
    def test_edge_value(self, value):
        for block in ([[value]], [[value, 1.0], [-2.0, value]],
                      [[0.5, value, -value, 1e-6]]):
            for b in _with_tiled(block):
                assert _csv_lines(b) == _repr_lines(b).encode()

    def test_edges_in_one_row_and_column(self):
        for row in _with_tiled([self.EDGES]):
            assert _csv_lines(row) == _repr_lines(row).encode()
            assert _csv_lines(row.T) == _repr_lines(row.T).encode()

    @pytest.mark.parametrize("value", _EDITED)
    def test_edit_at_block_and_row_ends(self, value):
        # The value as the block's first value, as the last value of a row,
        # as the block's last value, and all three at once; then as every
        # value of a single column.
        base = np.full((8, _WIDE), 0.5)
        for places in ([(0, 0)], [(3, -1)], [(7, -1)], [(0, 0), (3, -1), (7, -1)]):
            block = base.copy()
            for place in places:
                block[place] = value
            assert _csv_lines(block) == _repr_lines(block).encode()
        column = np.full((_WIDE, 1), value)
        assert _csv_lines(column) == _repr_lines(column).encode()

    @settings(max_examples=150)
    @given(arrays(np.float64, _table_shapes, elements=st.floats(-2.0, 2.0)).map(_near_cuts))
    def test_values_near_the_cuts(self, block):
        for b in _with_tiled(block):
            assert _csv_lines(b) == _repr_lines(b).encode()

    def test_random_bit_patterns(self):
        gen = np.random.default_rng(11)
        block = gen.integers(0, 2**64, size=(200, 1000),
                             dtype=np.uint64).view(np.float64)
        block[~np.isfinite(block)] = 0.0  # keep every block on the orjson path
        _assert_same_text(_csv_lines(block), _repr_lines(block).encode())

    @settings(max_examples=300)
    @given(st.one_of(arrays(np.uint64, _table_shapes).map(lambda a: a.view(np.float64)),
                     arrays(np.float64, _table_shapes)))
    def test_matches_repr_join(self, block):
        for b in _with_tiled(block):
            assert _csv_lines(b) == _repr_lines(b).encode()
