"""Output checks of each pipeline command, run outside the timed spans.

Each check returns a list of failure messages; an empty list means the
command's outputs are correct.
"""

from __future__ import annotations

import json
import re

import numpy as np

from workloads import DECAY_FLOOR, GRID_POINTS

SAMPLES = 401  # t = 0 .. t_final at t_final / 400, the simulate default
FACTORIZATION_TOL = 1e-9
PROJECTION_TOL = 1e-8


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def check_synthesize(rc: int, out_dir: str, N: int, M: int, m: int) -> list[str]:
    if rc != 0:
        return [f"synthesize exited {rc}"]
    with open(f"{out_dir}/gains.json", encoding="utf-8") as fh:
        gains = json.load(fh)
    bad = []
    Bmat = np.asarray(gains["Bmat"], dtype=float)
    K = np.asarray(gains["K"], dtype=float)
    Kbar = np.asarray(gains["Kbar"], dtype=float)
    if Bmat.shape != (N, N) or K.shape != (N, m * N) or Kbar.shape != (N, m):
        return [f"gains shapes Bmat {Bmat.shape}, K {K.shape}, Kbar {Kbar.shape}"]
    rows = np.zeros((N, m * N))
    for n in range(N):
        rows[n, n * m:(n + 1) * m] = Kbar[n]
    err = _relative(Bmat @ K, rows)
    if not err <= FACTORIZATION_TOL:
        bad.append(f"Bmat K differs from block-rows(Kbar) by {err:.3e}")
    cert = gains["certificate"]
    gammas, omegas = cert["gamma_margins"], cert["omega_margins"]
    if len(gammas) != N or len(omegas) != M - N:
        bad.append(f"{len(gammas)} gamma and {len(omegas)} omega margins")
    if not all(v < 0.0 for v in gammas + omegas):
        bad.append("a certificate margin is not negative")
    return bad


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_simulate(rc: int, stdout: str, out_dir: str, expected_row: np.ndarray,
                   M: int, m: int) -> list[str]:
    if rc != 0:
        return [f"simulate exited {rc}"]
    bad = []
    if "certificate bound holds at every sample: True" not in stdout:
        bad.append("certificate bound not reported to hold")
    match = re.search(r"fitted decay rate: (\S+)", stdout)
    decay = float(match.group(1)) if match else float("nan")
    if not decay >= DECAY_FLOOR:
        bad.append(f"fitted decay {decay} below {DECAY_FLOOR}")

    with open(f"{out_dir}/modal.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = fh.readline().rstrip("\n").split(",")
    if len(header) != 1 + M * m or len(first) != 1 + M * m:
        bad.append(f"modal.csv has {len(header)} columns, expected {1 + M * m}")
    elif float(first[0]) != 0.0:
        bad.append("modal.csv does not start at t = 0")
    else:
        row = np.array([float(v) for v in first[1:]])
        err = float(np.max(np.abs(row - expected_row)) / np.max(np.abs(expected_row)))
        if not err <= PROJECTION_TOL:
            bad.append(f"modal.csv t=0 row off the analytic projection by {err:.3e}")

    for name, lines in (("modal.csv", 1 + SAMPLES),
                        ("field.csv", 1 + SAMPLES * GRID_POINTS),
                        ("norms.csv", 1 + SAMPLES)):
        got = _count_lines(f"{out_dir}/{name}")
        if got != lines:
            bad.append(f"{name} has {got} lines, expected {lines}")
    return bad


def check_verify(rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"verify exited {rc}"]
    if "verification PASSED" not in stdout:
        return ["verify did not report PASSED"]
    return []
