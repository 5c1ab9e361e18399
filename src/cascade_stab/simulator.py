"""Closed-loop modal simulation and decay-rate measurement.

The closed loop truncated at M modes is the LTI system

    zdot_n = (-lambda_n D + Q) z_n + B * Brow_n * K * z^N,   n = 1..M,

with Brow_n the mode-n projections of the shape functions.  Modes couple
only through z^N, so the truncation is exact for the retained block, and
the generator is block lower triangular:

    [[A_NN, 0], [A_TN, blockdiag(A_n, n > N)]].

`integrate` propagates it exactly on the output grid without forming the
dense exponential.  The retained modes R together with any group g of tail
modes are a closed set (z_R depends on z_R only, z_g on z_g and z_R), so
expm(dt * system) restricted to R and g is expm of the system restricted to
R and g.  The tail is cut into groups of k modes, with k minimizing the
exponential flop count ceil((M - N)/k) * (mN + mk)^3 over k = 1..M-N; k =
M - N is the dense exponential, so the choice never costs more flops than
it.  One stacked expm serves all groups.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroNorm
from .model import ShapeFunction, ValidatedPlant, atomic_write
from .spectral import (
    SpectralBasis,
    expand,
    extend_basis,
    input_projection_row,
    project,
    project_callable,
)
from .synthesis import Controller, closed_block, zero_controller
from .transform import TransformFamily, mode_transform

_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs; defaults suit the shipped examples."""

    M_modes: int = 30
    t_final: float = 1.0
    dt_out: float | None = None  # defaults to t_final / 400
    fit_window: tuple[float, float] = (0.2, 1.0)

    def resolved_dt(self) -> float:
        dt = self.t_final / 400.0 if self.dt_out is None else self.dt_out
        if dt <= 0.0 or self.t_final <= 0.0:
            raise ValueError("t_final and dt_out must be positive")
        return dt

    def validate(self, N: int) -> None:
        if self.M_modes <= N:
            raise ValueError(f"M_modes={self.M_modes} must exceed N={N}")


@dataclass
class Trajectory:
    """Time-stamped modal coefficients with norm history and fitted decay."""

    times: np.ndarray          # (T,)
    modal: np.ndarray          # (T, M, m) coefficients z_n(t)
    l2_norm: np.ndarray        # (T,) Parseval norm sqrt(sum_n |z_n|^2)
    fitted_decay: float = float("nan")
    overshoot_check: bool | None = None

    @property
    def n_modes(self) -> int:
        return self.modal.shape[1]

    @property
    def m(self) -> int:
        return self.modal.shape[2]


def project_initial(z0_funcs, basis: SpectralBasis, M_modes: int) -> np.ndarray:
    """Modal coefficients of the m initial profiles, shape (M_modes, m).

    Shape functions use their closed forms; each callable profile is
    projected onto all M_modes modes by one `project_callable` pass.
    """
    basis = extend_basis(basis, M_modes)
    modes = range(1, M_modes + 1)
    coeffs = np.empty((M_modes, len(z0_funcs)))
    for i, f in enumerate(z0_funcs):
        if isinstance(f, ShapeFunction):
            coeffs[:, i] = [project(f, basis, n) for n in modes]
        else:
            coeffs[:, i] = project_callable(f, basis, modes)
    return coeffs


def assemble_closed_loop(plant: ValidatedPlant, controller: Controller,
                         basis: SpectralBasis, M_modes: int) -> np.ndarray:
    """(m*M) x (m*M) system matrix of the truncated closed loop."""
    m = plant.m
    N = controller.N
    if M_modes < N:
        raise ValueError(f"M_modes={M_modes} cannot be below N={N}")
    basis = extend_basis(basis, M_modes)
    A = np.zeros((m * M_modes, m * M_modes))
    D = np.diag(plant.D)
    shapes = plant.shapes[:N]
    for n in range(1, M_modes + 1):
        sl = slice((n - 1) * m, n * m)
        A[sl, sl] += -float(basis.lam[n - 1]) * D + plant.Q
        if N > 0:
            row = input_projection_row(shapes, basis, n) @ controller.K  # 1 x mN
            A[(n - 1) * m, : m * N] += row
    return A


def _retained_width(system: np.ndarray, M: int, m: int) -> int:
    """Number R of leading (retained) modes that other modes may depend on.

    Mode blocks are m x m.  R is one past the last block column holding an
    entry off the block diagonal, so every tail mode depends only on itself
    and the retained modes, and no retained mode depends on the tail.
    """
    off = system != 0.0
    diag = np.arange(M)
    off.reshape(M, m, M, m)[diag, :, diag, :] = False
    coupled = np.flatnonzero(off.any(axis=0))
    return int(coupled[-1]) // m + 1 if coupled.size else 0


def _group_size(R: int, M: int, m: int) -> int:
    """Tail modes k per exponentiated group, k = 1..M-R; 0 without a tail.

    k minimizes ceil((M-R)/k) * (mR + mk)^3, the flops of one (mR + mk)^2
    exponential per group; k = M - R is the single dense exponential.
    """
    k = np.arange(1, M - R + 1)
    cost = -(-(M - R) // k) * (m * R + m * k).astype(float) ** 3
    return int(np.argmin(cost)) + 1 if k.size else 0


def integrate(system: np.ndarray, z0: np.ndarray, t_final: float,
              dt_out: float) -> Trajectory:
    """Propagate zdot = system z exactly on the output grid.

    z0 may be (M, m) modal coefficients or an already-flat vector (m = 1);
    the trajectory records every dt_out from 0 through t_final.

    The retained width R is read off the matrix (`_retained_width`), so any
    matrix is handled; one with no block structure has R = M and is a
    single group, the dense exponential.  The tail modes go into groups of
    k (`_group_size`); the last group overlaps its neighbour when k does
    not divide M - R.  From the one stacked expm: the retained block steps
    with its own propagator F_RR, the drive F_TR z_R on every tail mode is
    one product over all steps, and the tail recurrence is summed by a
    doubling scan over the steps with powers of the m x m blocks F_nn.
    """
    z0 = np.asarray(z0, dtype=float)
    M, m = z0.shape if z0.ndim == 2 else (len(z0), 1)
    steps = int(round(t_final / dt_out))
    if abs(steps * dt_out - t_final) > 1e-9 * max(t_final, 1.0):
        steps = int(np.ceil(t_final / dt_out))
    A = np.asarray(system, dtype=float)

    R = _retained_width(A, M, m)
    r, tail = m * R, M - R
    k = _group_size(R, M, m)
    groups = -(-tail // k) if k else 1
    starts = np.minimum(np.arange(groups) * k, tail - k) + R
    idx = np.concatenate(
        [np.broadcast_to(np.arange(r), (groups, r)),
         m * starts[:, None] + np.arange(m * k)], axis=1)
    F = scipy.linalg.expm(A[idx[:, :, None], idx[:, None, :]] * dt_out)

    # Tail mode t is read from group g[t], at rows rows[t] of F[g[t]].
    t = np.arange(tail)
    g = np.minimum(t // max(k, 1), groups - 1)
    rows = r + m * (t + R - starts[g])[:, None] + np.arange(m)
    F_TR = F[g[:, None], rows, :r].reshape(tail * m, r)
    F_TT = F[g[:, None, None], rows[:, :, None], rows[:, None, :]]

    Z_R = np.empty((steps + 1, r))
    Z_R[0] = z0.reshape(-1)[:r]
    F_RR_T = np.ascontiguousarray(F[0, :r, :r].T)
    for j in range(steps):
        np.dot(Z_R[j], F_RR_T, out=Z_R[j + 1])

    # Tail modes obey x_{j+1} = F_TT x_j + F_TR z_R(j).  Load X[..., j]
    # with what enters at sample j, then sum the recurrence as a doubling
    # scan: after the pass with shift s, X[..., j] holds the terms of the
    # last 2s samples, each carried forward by the matching power of F_TT.
    X = np.empty((tail, m, steps + 1))
    X[:, :, 0] = z0.reshape(M, m)[R:]
    X[:, :, 1:] = (F_TR @ Z_R[:-1].T).reshape(tail, m, steps)
    power, shift = F_TT, 1
    while shift <= steps:
        X[:, :, shift:] += power @ X[:, :, :-shift]
        power, shift = power @ power, 2 * shift

    modal = np.empty((steps + 1, M, m))
    modal[:, :R] = Z_R.reshape(steps + 1, R, m)
    modal[:, R:] = X.transpose(2, 0, 1)
    times = np.arange(steps + 1) * dt_out
    norms = np.linalg.norm(modal.reshape(steps + 1, -1), axis=1)
    return Trajectory(times=times, modal=modal, l2_norm=norms)


def estimate_decay(traj: Trajectory, fit_window=(0.2, 1.0)) -> float:
    """Least-squares decay rate of ln||z|| over the window (positive = decay).

    Samples whose norm has collapsed to numerical zero are dropped, which
    shortens the window automatically; ZeroNorm is raised only if fewer than
    two usable samples remain.
    """
    t_final = traj.times[-1]
    lo, hi = fit_window
    mask = (traj.times >= lo * t_final) & (traj.times <= hi * t_final)
    mask &= traj.l2_norm > _NORM_FLOOR
    if np.count_nonzero(mask) < 2:
        raise ZeroNorm("trajectory norm vanished over the whole fit window")
    slope = np.polyfit(traj.times[mask], np.log(traj.l2_norm[mask]), 1)[0]
    return float(-slope)


def certificate_bound_holds(traj: Trajectory, M_cert: float, delta: float,
                            rel_slack: float = 1e-9) -> bool:
    """Check ||z(t)|| <= M_cert exp(-delta t) ||z(0)|| at every sample."""
    bound = M_cert * np.exp(-delta * traj.times) * traj.l2_norm[0]
    return bool(np.all(traj.l2_norm <= bound * (1.0 + rel_slack) + _NORM_FLOOR))


def target_residual(traj: Trajectory, plant: ValidatedPlant,
                    controller: Controller, family: TransformFamily,
                    basis: SpectralBasis) -> float:
    """Relative defect of ydot^N = H y^N along the trajectory, y_n = T_n z_n.

    The derivative is evaluated through the exact closed-loop generator of
    the retained block, so the residual isolates the transform identity
    rather than finite differencing error.
    """
    N = controller.N
    if N == 0:
        return 0.0
    m = plant.m
    basis = extend_basis(basis, N)
    T_blocks = []
    H_blocks = []
    A_blocks = []
    for n in range(1, N + 1):
        lam = float(basis.lam[n - 1])
        T_blocks.append(mode_transform(family, lam, n, N).matrix)
        H_blocks.append(closed_block(plant, controller.K_Q, lam))
        A_n = -lam * np.diag(plant.D) + plant.Q
        A_n[0, :] += controller.Kbar[n - 1]
        A_blocks.append(A_n)
    T = scipy.linalg.block_diag(*T_blocks)
    H = scipy.linalg.block_diag(*H_blocks)
    A_cl = scipy.linalg.block_diag(*A_blocks)

    defect = T @ A_cl - H @ T
    ZN = traj.modal[:, :N, :].reshape(len(traj.times), m * N).T  # one column per sample
    worst = float(np.max(np.linalg.norm(defect @ ZN, axis=0)))
    scale = max(_NORM_FLOOR, float(np.max(np.linalg.norm(H @ (T @ ZN), axis=0))))
    return worst / scale


def reconstruct_field(traj: Trajectory, basis: SpectralBasis, grid) -> np.ndarray:
    """Partial-sum fields z_i(t, x), shape (T, m, len(grid))."""
    return expand(traj.modal, basis, grid)


def run_closed_loop(plant: ValidatedPlant, controller: Controller,
                    basis: SpectralBasis, z0_funcs, config: SimConfig,
                    open_loop: bool = False,
                    M_cert: float | None = None) -> Trajectory:
    """Project, assemble, integrate, and fit; one-stop simulation entry."""
    config.validate(controller.N)
    basis = extend_basis(basis, config.M_modes)
    ctl = controller
    if open_loop:
        ctl = zero_controller(controller.delta, controller.N_min, plant.m)
    system = assemble_closed_loop(plant, ctl, basis, config.M_modes)
    z0 = project_initial(z0_funcs, basis, config.M_modes)
    traj = integrate(system, z0, config.t_final, config.resolved_dt())
    try:
        traj.fitted_decay = estimate_decay(traj, config.fit_window)
    except ZeroNorm:
        traj.fitted_decay = float("inf")
    if M_cert is not None:
        traj.overshoot_check = certificate_bound_holds(traj, M_cert, controller.delta)
    return traj


# ---------------------------------------------------------------------------
# CSV export.  Full-precision reals (repr), deterministic layout.
#
# Formatting is the cost: every value goes through float repr (shortest
# round trip), which no other formatter here matches byte for byte at lower
# cost.  So the writers cut it down where they can and spread the rest over
# processors:
#
# - The text streams into the file one time step at a time; neither the
#   whole text nor a whole-table `.tolist()` is ever built, so the peak
#   memory stays near that of the arrays being written.
# - Repeated prefixes are formatted once: the t column (T reprs) and, in
#   field.csv, the x column (G reprs) instead of 2*T*G.
# - The time steps are cut into P contiguous blocks.  Blocks 2..P are
#   formatted by forked child processes, each into an unnamed temporary file
#   in the output directory; the parent writes block 1, then appends each
#   child's file in order.  Processes, not threads: repr holds the
#   interpreter lock, so threads would take turns.
# - The bytes must not depend on P: identical inputs give identical files on
#   any host, whatever its CPU count, load or process limit.  So every block
#   holds the same text whichever process formats it, and a block whose
#   fork fails or whose child exits non-zero is formatted by the parent.
# - P = min(CPUs this process may run on, _MAX_WORKERS,
#   values // _VALUES_PER_WORKER, time steps); P = 1 forks nothing.  On a
#   2-CPU host with a 160 MB parent, fork + exit + wait took about 6 ms and
#   repr about 1.15 us per value, so a fork costs about 5000 values;
#   _VALUES_PER_WORKER is three times that.  The parent itself is held up
#   about 2 ms per fork before it starts block 1; _MAX_WORKERS keeps that
#   under about 15 ms.
# - The child is safe to fork: it only formats Python floats and writes its
#   own file, so it runs no BLAS and takes no lock another thread could have
#   held at the fork, and it leaves through os._exit, so no cleanup or
#   buffered output of the parent's runs twice.  (Python 3.12+ raises a
#   DeprecationWarning on fork when the process has threads, e.g. those of
#   a multi-threaded BLAS; for this child that warning does not apply.)

_MAX_WORKERS = 8
_VALUES_PER_WORKER = 15_000


def _worker_count(values: int, steps: int) -> int:
    """Processes that format a table of `values` numbers over `steps` steps."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, _MAX_WORKERS, values // _VALUES_PER_WORKER, steps))


def _fork_block(part, chunks, start: int, stop: int) -> int | None:
    """Fork a child writing chunks(start, stop) to `part`; its pid, or None."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            part.writelines(chunks(start, stop))
            part.flush()
            status = 0
        finally:
            os._exit(status)
    return pid


def _join(children: list, k: int) -> bool:
    """Wait for child k if it was forked; True when it exited with status 0."""
    pid, children[k] = children[k], None
    return pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def _write_csv(path: str, header: str, steps: int, values: int, chunks) -> None:
    """Atomically write the header line, then the text of every time step.

    chunks(start, stop) yields the text of time steps start..stop-1, each
    row ending in a newline; `values` is the number of values it formats.
    """
    workers = _worker_count(values, steps)
    bounds = [steps * i // workers for i in range(workers + 1)]
    blocks = list(zip(bounds[1:-1], bounds[2:]))
    directory = os.path.dirname(os.path.abspath(path))
    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", dir=directory)) for _ in blocks]
        children = [_fork_block(part, chunks, *block)
                    for part, block in zip(parts, blocks)]
        try:
            with atomic_write(path) as fh:
                fh.write(header + "\n")
                fh.writelines(chunks(0, bounds[1]))
                for k, (part, block) in enumerate(zip(parts, blocks)):
                    if _join(children, k):
                        part.seek(0)
                        shutil.copyfileobj(part, fh)
                    else:
                        fh.writelines(chunks(*block))
        finally:
            # After an error, still wait for the children that are left.
            for k in range(len(children)):
                _join(children, k)


def _prefixes(values) -> list[str]:
    """repr(v) + "," for each value, to start the rows that share it."""
    return [f"{v!r}," for v in np.asarray(values, dtype=float).tolist()]


def export_modal_csv(traj: Trajectory, path: str) -> None:
    """Header t, z_{i}_{n} for component i of mode n."""
    cols = ["t"] + [f"z_{i + 1}_{n + 1}" for n in range(traj.n_modes)
                    for i in range(traj.m)]
    t = _prefixes(traj.times)
    Z = traj.modal.reshape(len(t), -1)

    def chunks(start, stop):
        for k in range(start, stop):
            yield t[k] + ",".join(map(repr, Z[k].tolist())) + "\n"

    _write_csv(path, ",".join(cols), len(t), Z.size, chunks)


def export_field_csv(traj: Trajectory, basis: SpectralBasis, grid, path: str) -> None:
    """Long format: t, x, z1..zm."""
    fields = reconstruct_field(traj, basis, grid)
    t = _prefixes(traj.times)
    x = _prefixes(grid)

    def chunks(start, stop):
        for k in range(start, stop):
            yield "".join([t[k] + xp + ",".join(map(repr, values)) + "\n"
                           for xp, values in zip(x, fields[k].T.tolist())])

    header = "t,x," + ",".join(f"z{i + 1}" for i in range(traj.m))
    _write_csv(path, header, len(t), fields.size, chunks)


def export_norms_csv(traj: Trajectory, M_cert: float, delta: float, path: str) -> None:
    """Columns t, l2norm, bound with bound = M_cert exp(-delta t) ||z(0)||."""
    z0 = traj.l2_norm[0]
    # One scalar exp per sample: a vectorized exp may round differently, and
    # the file's bytes must not depend on that.
    bound = [float(M_cert * np.exp(-delta * t) * z0) for t in traj.times]
    t = _prefixes(traj.times)
    norms = traj.l2_norm.tolist()

    def chunks(start, stop):
        for k in range(start, stop):
            yield f"{t[k]}{norms[k]!r},{bound[k]!r}\n"

    _write_csv(path, "t,l2norm,bound", len(t), 3 * len(t), chunks)
