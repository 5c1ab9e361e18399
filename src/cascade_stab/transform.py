"""Polynomial modal transform decoupling the diffusion mismatch.

For a validated plant with diffusion indices (sigma, sigma_bar), the mode-n
transform is the unit upper-triangular matrix

    T_n = I + sum_{i=1..sigma_bar} lambda_n**i * Tbar_i,

a polynomial in lambda_n whose nilpotent coefficient matrices Tbar_i solve
the masked recursive Sylvester equations (with B = e_1, Tbar_0 = I, d_m the
last diffusion)

    (I - B B^T) (Q Tbar_i - Tbar_i Q + Tbar_{i-1} (D - d_m I)) = 0.

Tbar_i is supported on rows j = 1..m-1-ceil(i/2) and columns
k = j+ceil(i/2)..m.  Each unknown entry (j, k) is obtained by eliminating
entry (j+1, k) of the masked residual, sweeping j downward and k rightmost
first; the pivot is the subdiagonal entry q_{j+1,j}, nonzero by the
controllability condition.  The elimination is the only solver; the
closed-form recursion in tests/test_transform.py cross-checks it.

The family is solved once, independently of the number N of retained
modes.  `mode_transform` then evaluates it on all N retained eigenvalues at
once, as (N, m, m) stacks of T_n and T_n^{-1}; `coupling_row` and
`cancellation_residual` take those stacks and return one row or residual
per mode.  Modes past N are not transformed (T_n = I there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResidualNonzero
from .model import ValidatedPlant

RESIDUAL_TOL = 1e-9


def support_rows(m: int, i: int) -> range:
    """1-based row indices j carrying unknowns of Tbar_i."""
    return range(1, m - math.ceil(i / 2))


def support_cols(m: int, i: int, j: int) -> range:
    """1-based column indices k of row j inside the support of Tbar_i."""
    return range(j + math.ceil(i / 2), m + 1)


@dataclass(frozen=True)
class TransformFamily:
    """Coefficient matrices Tbar_1..Tbar_sigma_bar of the modal transform."""

    m: int
    sigma_bar: int
    coeffs: tuple  # tuple of (m, m) ndarrays, strictly upper triangular

    def __post_init__(self):
        for c in self.coeffs:
            c.flags.writeable = False

    @property
    def is_empty(self) -> bool:
        return self.sigma_bar == 0


def _masked_residual(Q: np.ndarray, Ti: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """(I - B B^T)(Q Ti - Ti Q + forcing); the mask zeroes row one."""
    R = Q @ Ti - Ti @ Q + forcing
    R[0, :] = 0.0
    return R


def solve_transform_family(plant: ValidatedPlant) -> TransformFamily:
    """Solve the masked Sylvester recursion by structured elimination.

    Raises ResidualNonzero if the computed family fails to zero the complete
    masked residual, which cannot happen for plants satisfying the cascade
    and controllability conditions.
    """
    m = plant.m
    Q = np.asarray(plant.Q, dtype=float)
    D = np.asarray(plant.D, dtype=float)
    sigma_bar = plant.indices.sigma_bar
    shift = np.diag(D - D[-1])

    coeffs = []
    prev = np.eye(m)
    for i in range(1, sigma_bar + 1):
        Ti = np.zeros((m, m))
        forcing = prev @ shift
        for j in reversed(support_rows(m, i)):
            for k in reversed(support_cols(m, i, j)):
                r = _masked_residual(Q, Ti, forcing)[j, k - 1]  # entry (j+1, k), 1-based
                Ti[j - 1, k - 1] = -r / Q[j, j - 1]
        _verify_residual(Q, Ti, forcing, i)
        coeffs.append(Ti)
        prev = Ti
    return TransformFamily(m=m, sigma_bar=sigma_bar, coeffs=tuple(coeffs))


def _residual_scale(Q: np.ndarray, Ti: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(Q)) * np.max(np.abs(Ti))))


def _verify_residual(Q, Ti, forcing, i) -> None:
    R = _masked_residual(Q, Ti, forcing)
    scale = _residual_scale(Q, Ti)
    worst = np.unravel_index(np.argmax(np.abs(R)), R.shape)
    if abs(R[worst]) > RESIDUAL_TOL * scale:
        raise ResidualNonzero(i, worst[0] + 1, worst[1] + 1, float(R[worst]))


def sylvester_residuals(plant: ValidatedPlant, family: TransformFamily):
    """Scaled max-abs masked residual of each family equation (diagnostics)."""
    Q = np.asarray(plant.Q, dtype=float)
    shift = np.diag(plant.D - plant.D[-1])
    out = []
    prev = np.eye(plant.m)
    for i, Ti in enumerate(family.coeffs, start=1):
        R = _masked_residual(Q, Ti, prev @ shift)
        out.append(float(np.max(np.abs(R))) / _residual_scale(Q, Ti))
        prev = Ti
    return out


def mode_transform(family: TransformFamily, lam) -> tuple[np.ndarray, np.ndarray]:
    """Stacked T_n and T_n^{-1} for the retained eigenvalues lam.

    Both have shape (len(lam), m, m).  The powers of lambda come from a
    running product, so every slice holds the same bits as the mode-n
    polynomial evaluated on its own.  The inverse is the terminating
    Neumann series of the strictly upper triangular part S (S^m = 0),
    hence exact up to roundoff; det(T_n) = 1 always.
    """
    lam = np.asarray(lam, dtype=float)
    eye = np.eye(family.m)
    S = np.zeros((lam.size, family.m, family.m))
    power = np.ones(lam.size)
    for Ti in family.coeffs:
        power = power * lam
        S += power[:, None, None] * Ti
    inverse = eye + np.zeros_like(S)
    term = np.broadcast_to(eye, S.shape)
    for _ in range(family.m - 1):
        term = term @ (-S)
        inverse = inverse + term
    return eye + S, inverse


def sylvester_map(plant: ValidatedPlant, lam, X: np.ndarray) -> np.ndarray:
    """(Q - lam_n d_m I) X_n + X_n (lam_n D - Q) for each X_n of the stack X."""
    lam = np.asarray(lam, dtype=float)[:, None, None]
    return ((plant.Q - lam * plant.d_last * np.eye(plant.m)) @ X
            + X @ (lam * np.diag(plant.D) - plant.Q))


def coupling_row(plant: ValidatedPlant, lam, T: np.ndarray,
                 T_inv: np.ndarray) -> np.ndarray:
    """Rows G_n of the feedback term B G_n in the target dynamics, shape (N, m).

    G_n = -B^T ((Q - lam d_m I) S + S (lam D - Q) + lam (D - d_m I)) T_n^{-1}
    with S = T_n - I the nilpotent part of T_n, for the stacked transforms
    of `mode_transform`.  The modal gains cancel exactly this term; for
    identical diffusions it vanishes.
    """
    eye = np.eye(plant.m)
    lam = np.asarray(lam, dtype=float)
    M = (sylvester_map(plant, lam, T - eye)
         + lam[:, None, None] * (np.diag(plant.D) - plant.d_last * eye))
    return -np.matmul(M[:, :1, :], T_inv)[:, 0]


def cancellation_residual(plant: ValidatedPlant, lam, T: np.ndarray,
                          G: np.ndarray) -> np.ndarray:
    """Max-abs residual of (Q - lam d_m I) T_n + T_n (lam D - Q) + B G_n T_n.

    One residual per stacked T_n and row G_n: shape (N,).
    """
    R = sylvester_map(plant, lam, T)
    R[:, 0, :] += np.matmul(G[:, None, :], T)[:, 0]
    return np.max(np.abs(R), axis=(1, 2))

