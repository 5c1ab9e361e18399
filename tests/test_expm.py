"""The matrix exponentials of `simulator` against oracles.

The oracle is mpmath's expm at 40 digits.  `expm` must come within twice
the error of `scipy.linalg.expm` on the same oracle.  Relative errors below
n u (u = 2^-53, n the matrix order), the rounding level of a single n x n
product, count as n u: below it the ratio of two errors is rounding noise.
The block-form step of `integrate` is held to the same rule against scipy's
exponential of the whole generator.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from cascade_stab import simulator
from cascade_stab.model import plant_from_dict, validate_plant
from cascade_stab.simulator import SimConfig, assemble_closed_loop, expm, integrate
from cascade_stab.spectral import build_basis
from cascade_stab.synthesis import build_controller
from cascade_stab.transform import solve_transform_family

from conftest import dense_closed_loop

DEMO_OFFSETS = (4.0, 6.0, 9.0)
U = 2.0 ** -53


def mp_expm(A: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        E = mpmath.expm(mpmath.matrix(A.tolist()))
        return np.array(E.tolist(), dtype=float)


def rel_err(X: np.ndarray, R: np.ndarray) -> float:
    """1-norm error of X relative to the reference R."""
    return float(np.abs(X - R).sum(axis=0).max() / np.abs(R).sum(axis=0).max())


def assert_as_accurate_as_scipy(A: np.ndarray) -> None:
    R = mp_expm(A)
    mine = rel_err(expm(A[None])[0], R)
    ref = rel_err(scipy.linalg.expm(A), R)
    assert mine <= 2.0 * max(ref, A.shape[0] * U), (mine, ref)


def group_stack(system: np.ndarray, m: int, R: int, k: int) -> np.ndarray:
    """The retained modes R together with each run of k tail modes, stacked.

    Every slice is a closed subsystem of the block lower triangular
    `system`, a dense closed loop (`dense_closed_loop`); the last run ends
    at the last mode and overlaps its neighbour when k does not divide the
    tail.
    """
    M = len(system) // m
    tail = M - R
    starts = np.minimum(np.arange(-(-tail // k)) * k, tail - k) + R
    idx = np.concatenate([np.broadcast_to(np.arange(m * R), (len(starts), m * R)),
                          m * starts[:, None] + np.arange(m * k)], axis=1)
    return system[idx[:, :, None], idx[:, None, :]]


def captured_stacks(monkeypatch, run) -> list:
    """Every non-empty stack that `integrate` hands to `expm` while `run()` executes."""
    stacks = []

    def recording(A):
        if np.size(A):
            stacks.append(np.array(A))
        return expm(A)

    monkeypatch.setattr(simulator, "expm", recording)
    run()
    monkeypatch.undo()
    return stacks


@pytest.fixture(scope="module")
def demo_controller(demo_plant, demo_basis):
    family = solve_transform_family(demo_plant)
    return build_controller(demo_plant, 9.0, N=3, basis=demo_basis, family=family,
                            pole_offsets=DEMO_OFFSETS)[0]


class TestMpmathOracle:
    def test_demo_simulate_groups(self, demo_plant, demo_basis, demo_controller):
        config = SimConfig(M_modes=30, t_final=1.0)
        system = dense_closed_loop(
            assemble_closed_loop(demo_plant, demo_controller, demo_basis, 30))
        stack = group_stack(system * config.resolved_dt(), 3, 3, 1)
        assert stack.shape == (27, 12, 12)
        # Every third group keeps the 40-digit references to about a second;
        # they span 1-norms from about 1e3 to 7e4.
        for A in stack[::3]:
            assert_as_accurate_as_scipy(A)

    def test_demo_retained_block(self, monkeypatch, demo_plant, demo_basis,
                                 demo_controller):
        loop = assemble_closed_loop(demo_plant, demo_controller, demo_basis, 3)
        (stack,) = captured_stacks(monkeypatch, lambda: integrate(
            loop, np.ones((3, 3)), 1.0, 1.0 / 800))
        assert stack.shape == (3, 3, 3)
        for A in stack:
            assert_as_accurate_as_scipy(A)

    @pytest.mark.parametrize("lower", [False, True])
    def test_triangular(self, lower):
        rng = np.random.default_rng(1)
        T = np.triu(20.0 * rng.standard_normal((8, 8))) + np.diag(np.linspace(-30, 2, 8))
        assert_as_accurate_as_scipy(T.T if lower else T)

    def test_diagonal_is_exact(self):
        lam = np.array([-40.0, -3.0, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(expm(np.diag(lam)[None])[0], np.diag(np.exp(lam)))

    def test_nilpotent(self):
        rng = np.random.default_rng(2)
        A = np.triu(5.0 * rng.standard_normal((8, 8)), 1)
        assert_as_accurate_as_scipy(A)
        # A dense nilpotent matrix: a similarity of the strictly upper one.
        S = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        assert_as_accurate_as_scipy(np.linalg.solve(S, A @ S))

    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 4, 4))),
                                      np.broadcast_to(np.eye(4), (3, 4, 4)))

    def test_one_by_one_stack(self):
        A = np.array([[[-2.5]], [[0.0]], [[3.0]]])
        np.testing.assert_array_equal(expm(A), np.exp(A))

    def test_empty_stack(self):
        assert expm(np.zeros((0, 5, 5))).shape == (0, 5, 5)
        assert expm(np.zeros((2, 0, 0))).shape == (2, 0, 0)

    def test_mixed_stack_matches_slices(self):
        """A stack gives each slice what that slice gives alone."""
        rng = np.random.default_rng(3)
        slices = [1e-3 * rng.standard_normal((6, 6)),
                  rng.standard_normal((6, 6)),
                  np.triu(50.0 * rng.standard_normal((6, 6))),
                  np.tril(50.0 * rng.standard_normal((6, 6))),
                  np.zeros((6, 6)),
                  30.0 * rng.standard_normal((6, 6))]
        stack = expm(np.array(slices))
        for A, X in zip(slices, stack):
            np.testing.assert_allclose(X, expm(A[None])[0], rtol=1e-13, atol=0.0)


def wide_plant(N: int):
    """The wide-actuation workload's plant with N indicator actuators."""
    shapes = [{"kind": "indicator", "params": [0.1 * j, 0.1 * j + 0.1]}
              for j in range(1, N + 1)]
    return validate_plant(plant_from_dict({
        "m": 3, "D": [4.0, 5.0, 6.0],
        "Q": [[10.0, 4.0, 8.0], [1.0, 10.0, 2.0], [0.0, 1.0, 20.0]],
        "L": 0.1 * N + 0.5, "gamma1": 1.0, "gamma2": 0.0, "shapes": shapes}))


class TestBalancing:
    @pytest.mark.parametrize("N, k", [(10, 5), (12, 6), (15, 5)])
    def test_wide_actuation_groups_match_scipy(self, N, k):
        """Retained-plus-tail groups of a wide-actuation plant are far from normal.

        Their 1-norms run to about 1e5-1e6 from the feedback rows.  Without
        balancing the result differs from scipy's by 2e-12 to 5e-11; with it,
        by under 1e-14.  The groups of k tail modes are those an earlier
        `integrate` exponentiated, 45 x 45 to 60 x 60.
        """
        plant = wide_plant(N)
        M = 2 * N
        basis = build_basis(plant.L, plant.gamma1, plant.gamma2, M)
        ctl, _ = build_controller(plant, 9.0, N=N, basis=basis,
                                  family=solve_transform_family(plant),
                                  pole_offsets=DEMO_OFFSETS)
        system = dense_closed_loop(assemble_closed_loop(plant, ctl, basis, M))
        stack = group_stack(system * (2.0 / 400), 3, N, k)
        assert 45 <= stack.shape[1] <= 60
        assert np.abs(stack).sum(axis=1).max() > 1e4
        X, R = expm(stack), scipy.linalg.expm(stack)
        err = (np.abs(X - R).sum(axis=1).max(axis=1)
               / np.abs(R).sum(axis=1).max(axis=1))
        assert err.max() <= 1e-13, err

    def test_scaling_is_exact(self):
        """Balancing only rescales by powers of two, so it adds no rounding."""
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 7, 7)) * np.exp2(rng.integers(-30, 30, (3, 7, 1)))
        B = A.copy()
        d, _ = simulator._balance(B, np.empty_like(B))
        assert np.all(np.log2(d) == np.round(np.log2(d)))
        np.testing.assert_array_equal(B * d[:, :, None] / d[:, None, :], A)
        # It lowers the 1-norm of these badly scaled slices.
        assert np.all(np.abs(B).sum(axis=1).max(axis=1)
                      < np.abs(A).sum(axis=1).max(axis=1))


def test_bounded_choice_matches_exact_norms(monkeypatch, demo_plant, demo_basis,
                                            demo_controller):
    """Every slice gets the (m, s) of Al-Mohy and Higham's steps on the exact
    1-norms of A^4, A^6, A^8 and A^10, run on the balanced stack.

    The oracle forms A^8 and A^10 from the products that expm uses, A^6 A^2
    and A^4 A^6, so that it compares the choice and not the rounding.
    """
    system = dense_closed_loop(
        assemble_closed_loop(demo_plant, demo_controller, demo_basis, 30))
    demo = group_stack(system * (1.0 / 400), 3, 3, 1)
    rng = np.random.default_rng(32)
    # Badly scaled 6 x 6 slices.
    scaled = (rng.standard_normal((200, 6, 6)) * np.exp2(rng.integers(-6, 6, (200, 1, 1)))
              * np.exp2(rng.integers(-4, 4, (200, 6, 1))))
    upper = np.triu(rng.standard_normal((100, 5, 5))) * np.exp2(rng.integers(-6, 8, (100, 1, 1)))
    # Large negative slices with a diagonal of their own, as stiff modes give.
    large = (-np.abs(rng.standard_normal((100, 4, 4))) * np.exp2(rng.integers(0, 12, (100, 1, 1)))
             + np.eye(4) * rng.standard_normal((100, 1, 4)) * np.exp2(rng.integers(0, 12, (100, 1, 1))))

    def d(X, p):
        return np.abs(X).sum(axis=1).max(axis=1) ** (1 / p)

    def choice(A, norm, A4, A6, d8, d10):
        """Al-Mohy and Higham's (m, s) from the given d8 and d10."""
        powers = simulator._AbsPowers(A, norm)
        deg, s = np.full(len(A), 13), np.zeros(len(A), dtype=int)
        eta = np.maximum(d(A4, 4), d(A6, 6))
        for m in (3, 5):
            cand = np.flatnonzero((deg == 13) & (eta < simulator._PADE_THETA[m]))
            deg[cand[simulator._ell(powers, cand, norm, m, 0) == 0]] = m
        i = np.flatnonzero(deg == 13)
        deg[i], s[i] = simulator._choose(powers, i, norm, d(A6, 6)[i], d8[i], d10[i])
        return deg, s

    for stack in (demo, scaled, upper, large):
        chosen = []
        pade = simulator._pade
        monkeypatch.setattr(simulator, "_pade", lambda m, P, s, work: (
            chosen.extend((m, int(k)) for k in s), pade(m, P, s, work))[1])
        with np.errstate(over="ignore", invalid="ignore"):
            expm(stack)
        monkeypatch.undo()
        A = stack.copy()
        _, norm = simulator._balance(A, np.empty_like(A))
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        exact = choice(A, norm, A4, A6, d(A6 @ A2, 8), d(A4 @ A6, 10))
        assert sorted(chosen) == sorted(zip(*(v.tolist() for v in exact)))


def test_no_overflow_in_error_bound():
    """ell's power of abs(A) is renormalized, so huge norms stay finite."""
    A = np.array([[[-1e8, 1e8], [0.0, -2e8]], [[0.0, 1e150], [-1e-150, 0.0]]])
    X = expm(A)
    assert np.all(np.isfinite(X))
    assert math.isclose(X[1, 0, 0], math.cos(1.0), rel_tol=1e-12)


def fresh_ell(A, i, norm, m, s):
    """ell(2^-s A, m) with abs(A)^(2m+1) formed afresh for this degree alone."""
    with np.errstate(divide="ignore"):
        log2_bound = (2 * m * (np.log2(norm[i]) - s)
                      - np.log2(simulator._PADE_ERROR_COEFF[m]) + 53.0)
    ell = np.zeros(len(i), dtype=int)
    need = np.flatnonzero(log2_bound > 0.0)
    for k in need:
        absA = np.abs(A[i[k]]) / norm[i[k]]
        v, log2_ratio = np.ones(A.shape[-1]), 0.0
        with np.errstate(divide="ignore"):
            for _ in range(2 * m + 1):
                v = v @ absA
                top = v.max()
                log2_ratio += np.log2(top)
                v = v / (top if top > 0.0 else 1.0)
        extra = np.ceil((log2_ratio + log2_bound[k]) / (2 * m))
        ell[k] = max(np.nan_to_num(extra, nan=0.0, neginf=0.0), 0.0)
    return ell


def test_shared_powers_give_fresh_ell():
    """One `_AbsPowers` serves every degree's ell: slice subsets asked in any
    order, with degrees up and down, give what a fresh loop per degree gives."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 5, 5)) * np.exp2(rng.integers(-4, 8, (40, 1, 1)))
    A[:4] = np.triu(A[:4], 1)  # nilpotent slices: powers of abs(A) reach zero
    _, norm = simulator._balance(A, np.empty_like(A))
    powers = simulator._AbsPowers(A, norm)
    requests = [(m, np.sort(rng.choice(40, size, replace=False)))
                for m in (3, 5, 7, 9, 13) for size in (1, 7, 25, 40)]
    needed = 0
    for r in rng.permutation(len(requests)):
        m, i = requests[r]
        s = rng.integers(0, 3, len(i)) if m == 13 else 0
        ell = simulator._ell(powers, i, norm, m, s)
        assert np.array_equal(ell, fresh_ell(A, i, norm, m, s))
        needed += np.count_nonzero(ell)
    assert needed > 0


def choose_calls(monkeypatch, run) -> list:
    """(shape, `_choose` calls) of every `_scaling` call while `run()` executes."""
    calls = []
    scaling, choose = simulator._scaling, simulator._choose

    def counted_choose(*args):
        calls[-1][1] += 1
        return choose(*args)

    def recorded_scaling(A):
        calls.append([A.shape, 0])
        return scaling(A)

    monkeypatch.setattr(simulator, "_choose", counted_choose)
    monkeypatch.setattr(simulator, "_scaling", recorded_scaling)
    run()
    monkeypatch.undo()
    return [tuple(call) for call in calls]


def test_one_choice_per_scaling(monkeypatch, demo_plant, demo_basis, demo_controller):
    """`_scaling` chooses (m, s) for the slices beyond degree 5 in one
    `_choose` call, on wide-actuation's retained stack in `verify`'s run and
    on demo-cosine's stacks in `simulate`'s."""
    plant = wide_plant(60)
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, 120)
    ctl, _ = build_controller(plant, 9.0, N=60, basis=basis,
                              family=solve_transform_family(plant),
                              pole_offsets=DEMO_OFFSETS)
    wide = assemble_closed_loop(plant, ctl, basis, 60)
    assert choose_calls(monkeypatch, lambda: integrate(
        wide, np.ones((60, 3)), 0.5, 0.5 / 400)) == [((60, 3, 3), 1)]
    demo = assemble_closed_loop(demo_plant, demo_controller, demo_basis, 30)
    assert choose_calls(monkeypatch, lambda: integrate(
        demo, np.ones((30, 3)), 1.0, 1.0 / 400)) == [((3, 3, 3), 1), ((27, 3, 3), 1)]


def closed_loop(plant, N: int, M: int) -> simulator.ClosedLoop:
    basis = build_basis(plant.L, plant.gamma1, plant.gamma2, M)
    ctl, _ = build_controller(plant, 9.0, N=N, basis=basis,
                              family=solve_transform_family(plant),
                              pole_offsets=DEMO_OFFSETS)
    return assemble_closed_loop(plant, ctl, basis, M)


class TestStructuredStep:
    """The block form of exp(dt A) that `integrate` steps with.

    `_expm_blocks` gives all three blocks in one call.  F_RR is the
    retained stack's own `expm`; F_TT and F_TR share one balancing and one
    (m, s), both taken from the diagonal blocks alone.  The retained modes
    R with any one tail mode t are a closed subsystem, so exp(dt A)
    restricted to them is the exponential of that (mR + m) square matrix;
    its 40-digit reference gives F_RR, F_tt and the rows F_tR.  scipy's
    error is that of its exponential of the whole generator, which also
    takes one scaling for every mode, and the floor n u takes the
    generator's order n.
    """

    @pytest.mark.parametrize("M, tails", [(30, (0, 1, 6, 13, 26)),
                                          (400, (0, 1, 100, 199, 396))])
    def test_blocks_as_accurate_as_scipy(self, demo_plant, M, tails):
        loop = closed_loop(demo_plant, 3, M)
        A_RR, A_TT, A_TR = (X * (1.0 / 400) for X in (loop.A_RR, loop.A_TT, loop.A_TR))
        F_RR, F_TT, F_TR = simulator._expm_blocks(A_RR, A_TT, A_TR)
        assert (F_RR.shape, F_TT.shape, F_TR.shape) == (
            (3, 3, 3), (M - 3, 3, 3), (M - 3, 3, 9))
        F_RR = scipy.linalg.block_diag(*F_RR)
        system = dense_closed_loop(loop) * (1.0 / 400)
        dense = scipy.linalg.expm(system)
        floor = len(system) * U
        checked = 0
        for t in tails:
            rows = np.arange(9 + 3 * t, 12 + 3 * t)
            idx = np.concatenate([np.arange(9), rows])
            exact = mp_expm(system[np.ix_(idx, idx)])
            pairs = [(F_TT[t], dense[np.ix_(rows, rows)], exact[9:, 9:]),
                     (F_TR[t], dense[rows, :9], exact[9:, :9])]
            if t == 0:
                pairs.append((F_RR, dense[:9, :9], exact[:9, :9]))
            for mine, theirs, ref in pairs:
                if not ref.any():
                    continue  # exp(dt A_t) of the fastest modes underflows to 0
                err, err_scipy = rel_err(mine, ref), rel_err(theirs, ref)
                assert err <= 2.0 * max(err_scipy, floor), (t, err, err_scipy)
                checked += 1
        assert checked >= 2 * len(tails)

    @pytest.mark.parametrize("M, dt, retained_sets_s", [(30, 1.0 / 400, False),
                                                        (4, 1.0 / 10, True)])
    def test_diagonal_blocks_set_the_scaling(self, demo_plant, M, dt, retained_sets_s):
        """F_RR is the retained stack's own `expm`, and the coupling is linear.

        The step's balancing and (m, s) come from the diagonal blocks
        alone, so scaling A_TR by a power of two scales F_TR by exactly that
        power and leaves F_RR and F_TT bitwise as they were.  On the demo
        loop the tail blocks set the squarings; on the short loop the
        retained blocks do.
        """
        loop = closed_loop(demo_plant, 3, M)
        A_RR, A_TT, A_TR = (X * dt for X in (loop.A_RR, loop.A_TT, loop.A_TR))
        s_R = simulator._scaling(A_RR)[4].max()
        assert (s_R > simulator._scaling(A_TT)[4].max()) == retained_sets_s
        F_RR, F_TT, F_TR = simulator._expm_blocks(A_RR, A_TT, A_TR)
        np.testing.assert_array_equal(F_RR, expm(A_RR))
        for k in (-40, 40):
            G_RR, G_TT, G_TR = simulator._expm_blocks(A_RR, A_TT, A_TR * 2.0 ** k)
            np.testing.assert_array_equal(G_RR, F_RR)
            np.testing.assert_array_equal(G_TT, F_TT)
            np.testing.assert_array_equal(G_TR, F_TR * 2.0 ** k)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_retained_step_is_expm_of_the_stack(self, m):
        """F_RR is bitwise `expm` of the retained stack for every m, the
        exact exp of m = 1 included, so a run of the retained modes alone
        steps as the full run does."""
        rng = np.random.default_rng(m)
        A_RR = rng.standard_normal((4, m, m)) - 3.0 * np.eye(m)
        A_TT = rng.standard_normal((6, m, m)) - 40.0 * np.eye(m)
        A_TR = 1e3 * rng.standard_normal((6, m, 4 * m))
        F_RR, F_TT, F_TR = simulator._expm_blocks(A_RR, A_TT, A_TR)
        np.testing.assert_array_equal(F_RR, expm(A_RR))
        if m == 1:
            np.testing.assert_array_equal(F_RR, np.exp(A_RR))
        system = np.zeros((10 * m, 10 * m))
        system.reshape(10, m, 10, m)[np.arange(10), :, np.arange(10), :] = np.concatenate(
            [A_RR, A_TT])
        system[4 * m:, :4 * m] = A_TR.reshape(6 * m, 4 * m)
        dense = scipy.linalg.expm(system)
        np.testing.assert_allclose(F_TT, dense.reshape(10, m, 10, m)[
            np.arange(4, 10), :, np.arange(4, 10), :], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(F_TR.reshape(6 * m, 4 * m), dense[4 * m:, :4 * m],
                                   rtol=1e-10, atol=1e-12 * np.abs(dense).max())
