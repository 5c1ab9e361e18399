"""The paper's identities as records: each check's name, value, bound and verdict.

One function per identity returns a list of `Check` rows:

- `sylvester`: the masked Sylvester residual of each transform coefficient;
- `per_mode`: per retained mode, det T_n = 1, T_n T_n^{-1} = I, the mode
  cancellation, and the gain route Kbar_n = (K_Q - G_n) T_n, from the
  stacks that the synthesis evaluated;
- `factorization`: Bmat K = block-rows(Kbar);
- `certificate_signs`: every gamma and every omega margin is negative.

`verify` prints the rows, and the refusals read the same rows, so each
bound and sign rule is defined once: `build_controller` and `cli.load_gains`
refuse gains that fail `factorization`, and `synthesis.certificate` and
`cli.load_gains` margins that fail `certificate_signs`, naming their
`failing_margins` (`refuse_failing_signs`); `verify` prints failing sign
rows as FAIL.  A refused factorization or Sylvester row (bound
`transform.RESIDUAL_TOL`) is never printed, as its refusal exits first.
`block_diagonal` assembles block-rows(Kbar), the right side that
`build_controller` solves for K.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import transform

FACTORIZATION_TOL = 1e-9
TARGET_RESIDUAL_TOL = 1e-6


class Check(NamedTuple):
    """One identity: its value, the bound it must meet, and whether it does."""

    name: str
    value: float
    bound: float
    ok: bool


def at_most(name: str, value: float, bound: float) -> Check:
    """The check value <= bound; NaN fails."""
    return Check(name, value, bound, value <= bound)


def relative_error(a: np.ndarray, b: np.ndarray, axis=None):
    """Max-abs difference over max(1, max|a|, max|b|), over `axis` (all by default)."""
    scale = np.maximum(np.maximum(1.0, np.max(np.abs(a), axis=axis)),
                       np.max(np.abs(b), axis=axis))
    return np.max(np.abs(a - b), axis=axis) / scale


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The (N p) x (N q) block-diagonal matrix of an (N, p, q) stack of blocks.

    blocks[:, None] of an (N, m) stack of rows gives the N x (m N) matrix
    whose row n holds row n in block column n.
    """
    N, p, q = blocks.shape
    out = np.zeros((N * p, N * q))
    out.reshape(N, p, N, q)[np.arange(N), :, np.arange(N), :] = blocks
    return out


def sylvester(plant, family) -> list[Check]:
    """One row per coefficient Tbar_i; one passing row for an empty family."""
    rows = [at_most(f"sylvester residual i={i}", res, transform.RESIDUAL_TOL)
            for i, res in enumerate(transform.sylvester_residuals(plant, family), start=1)]
    return rows or [Check("sylvester residual (empty family)", 0.0, transform.RESIDUAL_TOL, True)]


def per_mode(plant, controller, retained) -> list[Check]:
    """Four rows per retained mode n, from the stacks of a `synthesis.Retained`.

    The cancellation residual is relative to the size of its terms, and the
    gain route compares the controller's Kbar_n with (K_Q - G_n) T_n.
    """
    lam, T, T_inv = retained.lam, retained.T, retained.T_inv
    G = transform.coupling_row(plant, lam, T, T_inv)
    det_err = np.abs(np.linalg.det(T) - 1.0)
    inv_err = np.max(np.abs(T @ T_inv - np.eye(plant.m)), axis=(1, 2))
    scale = np.maximum(
        np.maximum(1.0, np.max(np.abs(plant.Q)) * np.max(np.abs(T), axis=(1, 2))),
        np.max(np.abs(G), axis=1))
    cancel = transform.cancellation_residual(plant, lam, T, G) / scale
    other = np.matmul((controller.K_Q - G)[:, None, :], T)[:, 0]
    gain_err = relative_error(controller.Kbar, other, axis=1)
    identities = (("det T_{} = 1", det_err.tolist(), 1e-10),
                  ("T_{} inverse", inv_err.tolist(), 1e-12),
                  ("mode cancellation n={}", cancel.tolist(), 1e-9),
                  ("gain route equality n={}", gain_err.tolist(), 1e-9))
    return [at_most(name.format(n), values[n - 1], bound)
            for n in range(1, len(T) + 1) for name, values, bound in identities]


def factorization(controller) -> list[Check]:
    """`relative_error` of Bmat K against block-rows(Kbar); no row when N = 0.

    The retained modes are fed by Kbar and the tail by K, so the two must
    factor.
    """
    if not controller.N:
        return []
    rows = block_diagonal(controller.Kbar[:, None])
    value = float(relative_error(controller.Bmat @ controller.K, rows))
    return [at_most("gain factorization", value, FACTORIZATION_TOL)]


def failing_margins(margins) -> list:
    """The margins that are not negative, NaN included."""
    return [g for g in margins if not g < 0.0]


def certificate_signs(cert) -> list[Check]:
    """The gamma and omega rows of a certificate or `synthesis.Margins`: each
    passes unless a margin is failing, and reads the largest margin (NaN if
    any is NaN, -inf if there are none)."""
    rows = []
    for name, margins in (("gamma", cert.gamma_margins), ("omega", cert.omega_margins)):
        bad = failing_margins(margins)
        # Python's max skips a NaN that does not come first.
        value = math.nan if any(map(math.isnan, bad)) else max(margins, default=-math.inf)
        rows.append(Check(f"certificate {name} < 0", value, 0.0, not bad))
    return rows


def refuse_failing_signs(cert, error, what: str) -> None:
    """Raise error(what, then the failing margins) unless both
    `certificate_signs` rows pass."""
    if not all(row.ok for row in certificate_signs(cert)):
        gamma, omega = map(failing_margins, (cert.gamma_margins, cert.omega_margins))
        raise error(f"{what}: gamma={gamma}, omega={omega}")
