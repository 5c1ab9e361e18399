"""Closed-loop modal simulation and decay-rate measurement.

The closed loop truncated at M modes is the LTI system

    zdot_n = (-lambda_n D + Q) z_n + B * Brow_n * K * z^N,   n = 1..M,

with Brow_n the mode-n projections of the shape functions.  Modes couple
only through z^N, so the truncation is exact for the retained block.  Time
stepping applies the matrix exponential of (dt * system) repeatedly, which
is exact for the LTI dynamics up to the exponential evaluation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroNorm
from .model import ShapeFunction, ValidatedPlant
from .spectral import (
    SpectralBasis,
    extend_basis,
    input_projection_row,
    project,
    project_callable,
)
from .synthesis import Controller, closed_block
from .transform import TransformFamily, mode_transform

_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs; defaults suit the shipped examples."""

    M_modes: int = 30
    t_final: float = 1.0
    dt_out: float | None = None  # defaults to t_final / 400
    grid_points: int = 101
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


def integrate(system: np.ndarray, z0: np.ndarray, t_final: float,
              dt_out: float) -> Trajectory:
    """Propagate zdot = system z exactly on the output grid.

    z0 may be (M, m) modal coefficients or an already-flat vector; the
    trajectory records every dt_out from 0 through t_final.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 2:
        M, m = z0.shape
        state = z0.reshape(-1).copy()
    else:
        state = z0.copy()
        M, m = len(state), 1
    steps = int(round(t_final / dt_out))
    if abs(steps * dt_out - t_final) > 1e-9 * max(t_final, 1.0):
        steps = int(np.ceil(t_final / dt_out))
    propagator = scipy.linalg.expm(system * dt_out)

    times = np.empty(steps + 1)
    modal = np.empty((steps + 1, M, m))
    norms = np.empty(steps + 1)
    for k in range(steps + 1):
        times[k] = k * dt_out
        modal[k] = state.reshape(M, m)
        norms[k] = float(np.linalg.norm(state))
        if k < steps:
            state = propagator @ state
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
    worst = 0.0
    scale = _NORM_FLOOR
    for k in range(len(traj.times)):
        zN = traj.modal[k, :N, :].reshape(-1)
        y = T @ zN
        worst = max(worst, float(np.linalg.norm(defect @ zN)))
        scale = max(scale, float(np.linalg.norm(H @ y)))
    return worst / scale


def reconstruct_field(traj: Trajectory, basis: SpectralBasis, grid) -> np.ndarray:
    """Partial-sum fields z_i(t, x), shape (T, m, len(grid))."""
    from .spectral import expand

    x = np.asarray(grid, dtype=float)
    out = np.empty((len(traj.times), traj.m, len(x)))
    for k in range(len(traj.times)):
        out[k] = expand(traj.modal[k], basis, x)
    return out


def run_closed_loop(plant: ValidatedPlant, controller: Controller,
                    basis: SpectralBasis, z0_funcs, config: SimConfig,
                    open_loop: bool = False,
                    M_cert: float | None = None) -> Trajectory:
    """Project, assemble, integrate, and fit; one-stop simulation entry."""
    config.validate(controller.N)
    basis = extend_basis(basis, config.M_modes)
    ctl = controller
    if open_loop:
        ctl = Controller(delta=controller.delta, N=0, N_min=controller.N_min,
                         K_Q=np.zeros(plant.m), P=np.eye(plant.m),
                         Kbar=np.zeros((0, plant.m)), Bmat=np.zeros((0, 0)),
                         cond_B=1.0, K=np.zeros((0, 0)))
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

def _write_csv(path: str, header: str, rows) -> None:
    """Write the header, then one line per row of Python floats, as repr."""
    lines = [header]
    lines += [",".join(map(repr, row)) for row in rows]
    lines.append("")  # trailing newline without copying the joined text
    _atomic_write(path, "\n".join(lines))


# The writers below convert one time step at a time with .tolist(): turning
# a whole trajectory into Python floats at once raises the peak memory.

def export_modal_csv(traj: Trajectory, path: str) -> None:
    """Header t, z_{i}_{n} for component i of mode n."""
    cols = ["t"] + [f"z_{i + 1}_{n + 1}" for n in range(traj.n_modes)
                    for i in range(traj.m)]
    rows = ([t, *z.reshape(-1).tolist()]
            for t, z in zip(traj.times.tolist(), traj.modal))
    _write_csv(path, ",".join(cols), rows)


def export_field_csv(traj: Trajectory, basis: SpectralBasis, grid, path: str) -> None:
    """Long format: t, x, z1..zm."""
    fields = reconstruct_field(traj, basis, grid)
    x = np.asarray(grid, dtype=float).tolist()
    rows = ([t, xp, *values]
            for t, field in zip(traj.times.tolist(), fields)
            for xp, values in zip(x, field.T.tolist()))
    _write_csv(path, "t,x," + ",".join(f"z{i + 1}" for i in range(traj.m)), rows)


def export_norms_csv(traj: Trajectory, M_cert: float, delta: float, path: str) -> None:
    """Columns t, l2norm, bound with bound = M_cert exp(-delta t) ||z(0)||."""
    z0 = traj.l2_norm[0]
    # One scalar exp per sample: a vectorized exp may round differently, and
    # the file's bytes must not depend on that.
    bound = [float(M_cert * np.exp(-delta * t) * z0) for t in traj.times]
    rows = zip(traj.times.tolist(), traj.l2_norm.tolist(), bound)
    _write_csv(path, "t,l2norm,bound", rows)


def _atomic_write(path: str, text: str) -> None:
    import os

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
