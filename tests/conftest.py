import ctypes
import os
import time

import numpy as np
import pytest
from hypothesis import settings

from cascade_stab.model import (
    PlantSpec,
    ShapeFunction,
    example_plant_dict,
    plant_from_dict,
    validate_plant,
)
from cascade_stab.simulator import ClosedLoop
from cascade_stab.spectral import build_basis
from cascade_stab.transform import TransformFamily


# Property tests draw a fixed, bounded set of examples, so the suite stays
# deterministic and fast, and they write no example database.
settings.register_profile("cascade-stab", max_examples=25, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("cascade-stab")


def base_seed() -> int:
    return int(os.environ.get("CASCADE_STAB_SEED", "20240817"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(base_seed())


@pytest.fixture(scope="session")
def demo_plant():
    """The 3x3 worked example: L=pi, Dirichlet at L, distinct diffusions."""
    return validate_plant(plant_from_dict(example_plant_dict()))


@pytest.fixture(scope="session")
def demo_basis(demo_plant):
    return build_basis(demo_plant.L, demo_plant.gamma1, demo_plant.gamma2, 40)


@pytest.fixture(scope="session")
def demo_initial():
    """Initial profiles (cos x + 1, 6 cos(x/2) + 3, -cos(x/2) - 0.5)."""
    return [
        lambda x: np.cos(x) + 1.0,
        lambda x: 6.0 * np.cos(0.5 * np.asarray(x, dtype=float)) + 3.0,
        lambda x: -np.cos(0.5 * np.asarray(x, dtype=float)) - 0.5,
    ]


def random_plant(rng, m=None, force_sigma=None):
    """Random valid cascade plant with unit-scale couplings.

    force_sigma picks the diffusion pattern: 1 (all equal), 2 (distinct head,
    constant tail of length m-1), or None for a random mix.
    """
    if m is None:
        m = int(rng.integers(2, 7))
    d = rng.uniform(0.5, 3.0, size=m)
    if force_sigma == 1:
        d[:] = d[0]
    elif force_sigma == 2:
        d[1:] = d[1]
        if d[0] == d[1]:
            d[0] = d[1] + 0.7
    else:
        r = rng.random()
        if r < 0.25:
            d[:] = d[0]
        elif r < 0.5:
            tail = int(rng.integers(2, m + 1))
            d[m - tail:] = d[m - tail]
    Q = rng.uniform(-1.0, 1.0, size=(m, m))
    for i in range(m):
        for j in range(i - 1):
            Q[i, j] = 0.0
    for i in range(m - 1):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        Q[i + 1, i] = sign * rng.uniform(0.3, 1.0)
    shapes = tuple(
        ShapeFunction.indicator(0.1 * j, 0.1 * j + 0.1) for j in range(1, m + 1)
    )
    spec = PlantSpec(m=m, D=d, Q=Q, L=np.pi, gamma1=1.0, gamma2=0.0, shapes=shapes)
    return validate_plant(spec)


def dense_closed_loop(loop: ClosedLoop) -> np.ndarray:
    """The (mM) x (mM) matrix [[blockdiag(A_RR), 0], [A_TR, blockdiag(A_TT)]] of `loop`."""
    N, m = loop.A_RR.shape[:2]
    tail, r = len(loop.A_TT), m * N
    M = N + tail
    A = np.zeros((m * M, m * M))
    A[r:, :r] = loop.A_TR.reshape(tail * m, r)
    A.reshape(M, m, M, m)[np.arange(M), :, np.arange(M), :] = np.concatenate(
        [loop.A_RR, loop.A_TT])
    return A


def corrupt_family(plant, family: TransformFamily) -> TransformFamily:
    """`family` with 1e-3 added to the top-right entry of its first coefficient.

    An empty family becomes one whose only coefficient is that entry, so
    every plant's transform breaks its Sylvester equations.
    """
    if family.is_empty:
        bad = np.zeros((plant.m, plant.m))
        bad[0, plant.m - 1] = 1e-3
        return TransformFamily(m=plant.m, sigma_bar=1, coeffs=(bad,))
    coeffs = [c.copy() for c in family.coeffs]
    coeffs[0][0, plant.m - 1] += 1e-3
    return TransformFamily(m=plant.m, sigma_bar=family.sigma_bar, coeffs=tuple(coeffs))


def helper_formats_first(monkeypatch, marker, in_helper=None):
    """Make the CSV helper format before the parent does.

    The CSV writer's `_csv_lines` is wrapped: in the helper it creates the
    file `marker`, then calls in_helper() if given, before formatting; in the
    parent it first waits for `marker` (for at most 30 s).  The parent holds
    its first block while it waits, so a table of two blocks or more leaves
    the helper at least one.  Returns the list of the parent's calls, one
    entry each, so that a test can check that the wrapper ran: a patch on a
    name the writer no longer reads would otherwise pass unnoticed.
    """
    from cascade_stab import simulator

    parent, calls = os.getpid(), []
    real_lines = simulator._csv_lines

    def lines(block):
        if os.getpid() == parent:
            calls.append(block.shape)
            deadline = time.monotonic() + 30.0
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.001)
        else:
            open(marker, "a").close()
            if in_helper is not None:
                in_helper()
        return real_lines(block)

    monkeypatch.setattr(simulator, "_csv_lines", lines)
    return calls


def failing_exchange(code):
    """A stand-in for libc's renameat2 that fails with errno `code`."""
    def renameat2(*args):
        ctypes.set_errno(code)
        return -1
    return renameat2
