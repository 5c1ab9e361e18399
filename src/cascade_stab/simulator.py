"""Closed-loop modal simulation and decay-rate measurement.

The closed loop truncated at M modes is the LTI system

    zdot_n = (-lambda_n D + Q) z_n + B * Brow_n * K * z^N,   n = 1..M,

with Brow_n the mode-n projections of the shape functions.  Modes couple
only through z^N, so the truncation is exact for the retained block, and
the generator is block lower triangular:

    [[blockdiag(A_n, n <= N), 0], [A_TR, blockdiag(A_n, n > N)]],

as u = Bmat^-1 [Kbar_n z_n]_n gives retained mode n the input Kbar_n z_n
alone (Brow_n Bmat^-1 = e_n): A_n = -lambda_n D + Q + B Kbar_n for n <= N.
`assemble_closed_loop` builds these blocks (a `ClosedLoop`) and `integrate`
propagates them exactly on the output grid.  The step matrix exp(dt A) has
the same shape, and scaling and squaring keeps it: every power, Pade
approximant and square of such a matrix is one, with

    RR = X_RR @ Y_RR,  TT = X_TT @ Y_TT,  TR = X_TR blockdiag(Y_RR) + X_TT @ Y_TR

for its product (Van Loan, IEEE Trans. Automat. Control 23(3), 1978).
`_expm_blocks` gives all three blocks of the step in one call.  It balances
and scales the stacks of retained and of tail blocks once each; F_RR is the
retained stack's own exponential.  The coupling enters exp linearly, so F_TT
and F_TR take their balancing and their Pade degree and squarings from the
diagonal blocks alone, in one structured Pade step and its squarings.

`expm` is numpy's own, so only `bench` needs scipy: the scaling-and-squaring
algorithm of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 31(3), 2009) on
every slice of the stack at once, after a diagonal balancing.  The
closed-loop steps are far from normal (1-norms up to 2e9 from the feedback
rows, against 100 once balanced); unbalanced, wide-actuation's come out
with relative errors near 2e-7.  Each slice is first scaled to D^-1 A D
with D a diagonal of powers of two (Parlett and Reinsch, Numer. Math. 13,
1969, as LAPACK's gebal does with job 'S'), which adds no rounding.  From
exact 1-norms of A^4 and A^6, and of A^8 and A^10 for the slices that
degrees 3 and 5 do not serve, each slice takes the least Pade degree m in
{3, 5, 7, 9, 13} whose backward error bound holds, or m = 13 with s
squarings; the bound's correction ell needs the 1-norm of |A|^(2m+1) only
where ||A||^(2m+1) does not already settle it, and every degree reads it
from one sequence of powers per stack (`_AbsPowers`).  Each degree's
approximants come from one stacked solve, the squarings run on the slices
that still need them, and the result is scaled back by D.  The Pade step reaches the
matrices only through an operations object, `_Stack` for a stack or
`_Blocks` for the block form.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from .errors import CsvHelperFailed, ZeroNorm
from .model import ShapeFunction, ValidatedPlant, _csv_lines, atomic_write
from .spectral import (
    SpectralBasis,
    expand,
    extend_basis,
    project_callable,
    shape_projection_matrix,
)
from .synthesis import Controller, Retained, mode_blocks

_NORM_FLOOR = 1e-300
# certificate_bound_holds allows this relative rounding slack over the bound.
_BOUND_SLACK = 1e-9
# estimate_decay fits ln||z|| over [0.2, 1.0] * t_final.
_FIT_WINDOW = (0.2, 1.0)
# integrate propagates the tail modes in chunks of at most this many bytes
# of trajectory, and takes the norms in row blocks of the same size, so its
# scratch stays in cache and small next to the trajectory.
_CHUNK_BYTES = 1 << 18


class SimConfig(NamedTuple):
    """Simulation knobs; defaults suit the shipped examples."""

    M_modes: int = 30
    t_final: float = 1.0
    dt_out: float | None = None  # defaults to t_final / 400

    def resolved_dt(self) -> float:
        dt = self.t_final / 400.0 if self.dt_out is None else self.dt_out
        if not (0.0 < dt < math.inf and 0.0 < self.t_final < math.inf):
            raise ValueError("t_final and dt_out must be positive and finite")
        return dt

    def validate(self, N: int) -> None:
        if self.M_modes <= N:
            raise ValueError(f"M_modes={self.M_modes} must exceed N={N}")


class Trajectory(NamedTuple):
    """Time-stamped modal coefficients with norm history and fitted decay."""

    times: np.ndarray          # (T,)
    modal: np.ndarray          # (T, M, m) coefficients z_n(t)
    l2_norm: np.ndarray        # (T,) Parseval norm sqrt(sum_n |z_n|^2)
    fitted_decay: float = float("nan")

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
            coeffs[:, i] = shape_projection_matrix([f], basis, M_modes)[:, 0]
        else:
            coeffs[:, i] = project_callable(f, basis, modes)
    return coeffs


class ClosedLoop(NamedTuple):
    """The closed loop [[blockdiag(A_RR), 0], [A_TR, blockdiag(A_TT)]] of N retained modes.

    A_RR is the (N, m, m) stack of retained blocks -lam_n D + Q + B Kbar_n,
    A_TT the (M - N, m, m) stack of tail blocks and A_TR the (M - N, m, mN)
    drive of the tail by the retained modes.
    """

    A_RR: np.ndarray
    A_TT: np.ndarray
    A_TR: np.ndarray


def assemble_closed_loop(plant: ValidatedPlant, controller: Controller,
                         basis: SpectralBasis, M_modes: int) -> ClosedLoop:
    """The truncated closed loop of M_modes modes, in block form."""
    m, N = plant.m, controller.N
    if M_modes < N:
        raise ValueError(f"M_modes={M_modes} cannot be below N={N}")
    basis = extend_basis(basis, M_modes)
    A_TR = np.zeros((M_modes - N, m, m * N))
    if M_modes > N:  # the tail's drive; there is none without a tail
        P = shape_projection_matrix(plant.shapes[:N], basis, M_modes)
        # One P[n] @ K per tail mode, stacked: P @ K would round differently.
        A_TR[:, 0] += np.matmul(P[N:, None, :], controller.K)[:, 0]
    A_RR = mode_blocks(plant, basis.lam[:N])
    A_RR[:, 0, :] += controller.Kbar
    return ClosedLoop(A_RR=A_RR, A_TT=mode_blocks(plant, basis.lam[N:M_modes]), A_TR=A_TR)


# ---------------------------------------------------------------------------
# Matrix exponential of a stack (Al-Mohy and Higham 2009, with balancing).

# theta_m: the largest eta for which the degree-m Pade approximant has
# backward error at most 2^-53 (Al-Mohy and Higham, Table 3.1).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}
# 1 / |c_{2m+1}|, the leading coefficient of the degree-m backward error
# series (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, eqs. 2.2 and 2.6).
_PADE_ERROR_COEFF = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
                     9: 5914384781877411840000.,
                     13: 113250775606021113483283660800000000.}
_PADE_COEFFS = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}
# Rows W_j of the polynomials in the degree-m approximant
# r = (V - U)^-1 (V + U), as coefficients of A^2, A^4, ... (Higham 2005):
#   m < 13:  U = A (W_0 + b_1 I),               V = W_1 + b_0 I;
#   m = 13:  U = A (A^6 W_0 + W_2 + b_1 I),     V = A^6 W_1 + W_3 + b_0 I.
# The last two rows take the identity terms in both cases.
_PADE_COMBOS = {
    m: np.array([b[3::2], b[2:-1:2]]) if m < 13
    else np.array([b[9::2], b[8::2], b[3:9:2], b[2:8:2]])
    for m, b in _PADE_COEFFS.items()
}
# The powers p = 2m + 1 of abs(A) whose norms the degrees' ell read.
_ELL_POWERS = frozenset(2 * m + 1 for m in _PADE_ERROR_COEFF)
# Balancing stops at the first sweep that lowers no slice's 1-norm by 1%;
# the cap is only a guard.
_BALANCE_GAIN = 0.99
_BALANCE_SWEEPS = 64


class _Stack:
    """The operations of the Pade step on a (g, n, n) stack."""

    mul = staticmethod(np.matmul)
    solve = staticmethod(np.linalg.solve)

    @staticmethod
    def diags(X: np.ndarray) -> tuple:
        """Writable views of the diagonals, (g, n)."""
        return (np.einsum("gii->gi", X),)


class _Blocks:
    """Block lower triangular matrices [[blockdiag(X_RR), 0], [X_TR, blockdiag(X_TT)]].

    X_RR and X_TT are the (N, m, m) and (tail, m, m) stacks of diagonal
    blocks and X_TR the (tail, m, mN) coupling.  A matrix is one row of
    `size` floats holding X_RR, X_TT and X_TR in turn, so sums and multiples
    of matrices are those of rows; operands carry a leading axis of one, as
    one slice of a stack.  Products keep the shape:

        RR = X_RR @ Y_RR,  TT = X_TT @ Y_TT,  TR = X_TR blockdiag(Y_RR) + X_TT @ Y_TR.
    """

    def __init__(self, N: int, tail: int, m: int):
        self.N, self.tail, self.m = N, tail, m
        self.cuts = (N * m * m, (N + tail) * m * m)
        self.size = self.cuts[1] + tail * m * m * N

    def split(self, X: np.ndarray) -> tuple:
        """Views X_RR, X_TT and X_TR of the matrix X."""
        a, b = self.cuts
        X = X.reshape(-1)
        return (X[:a].reshape(self.N, self.m, self.m),
                X[a:b].reshape(self.tail, self.m, self.m),
                X[b:].reshape(self.tail, self.m, self.m * self.N))

    def diags(self, X: np.ndarray) -> tuple:
        RR, TT, _ = self.split(X)
        return np.einsum("nii->ni", RR), np.einsum("tii->ti", TT)

    def unbalance(self, X: np.ndarray, d_R: np.ndarray, d_T: np.ndarray) -> None:
        """X <- D X D^-1 in place, with D = diag(d_R, d_T), d_R (N, m) and d_T (tail, m)."""
        RR, TT, TR = self.split(X)
        d_R, d_T = d_R[:, :, None], d_T[:, :, None]
        for B, rows, cols in ((RR, d_R, d_R.transpose(0, 2, 1)),
                              (TT, d_T, d_T.transpose(0, 2, 1)), (TR, d_T, d_R.reshape(-1))):
            B *= rows
            B /= cols

    def _by_retained(self, C: np.ndarray, Y_RR: np.ndarray, out: np.ndarray) -> np.ndarray:
        """C blockdiag(Y_RR) into out, for C and out of X_TR's shape."""
        C_n, out_n = (X.reshape(-1, self.N, self.m).transpose(1, 0, 2) for X in (C, out))
        np.matmul(C_n, Y_RR, out=out_n)
        return out

    def mul(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(X) if out is None else out
        (XR, XT, _), (YR, YT, _), (OR, OT, _) = map(self.split, (X, Y, out))
        np.matmul(XR, YR, out=OR)
        np.matmul(XT, YT, out=OT)
        self.couple(X, Y, out)
        return out

    def couple(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> None:
        """Write only the coupling X_TR Y_RR + X_TT @ Y_TR of X Y into out's."""
        (_, XT, XC), (YR, _, YC), (_, _, OC) = map(self.split, (X, Y, out))
        self._by_retained(XC, YR, OC)
        OC += XT @ YC

    def solve(self, Q: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Q^-1 V: the stacked X_RR and X_TT, then X_TR = Q_TT^-1 (V_TR - Q_TR X_RR)."""
        (QR, QT, QC), (VR, VT, VC) = self.split(Q), self.split(V)
        X = np.empty_like(V)
        XR, XT, XC = self.split(X)
        XR[:] = np.linalg.solve(QR, VR)
        # One factorization of each Q_TT block serves X_TT and X_TR.
        rhs = np.concatenate([VT, VC - self._by_retained(QC, XR, np.empty_like(QC))],
                             axis=2)
        sol = np.linalg.solve(QT, rhs)
        XT[:], XC[:] = sol[:, :, :self.m], sol[:, :, self.m:]
        return X


def _balance(A: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balance every slice of A in place as D^-1 A D; return (d, 1-norms).

    D = diag(d) holds powers of two, so the scaling adds no rounding.
    Jacobi sweeps of the Parlett-Reinsch iteration: every index i at once
    moves by half its own optimum, a power of two near (r_i / c_i)^(1/4)
    for the off-diagonal row and column sums r_i and c_i.  By convexity the
    half-steps taken together never raise the sum of the off-diagonal
    magnitudes, which full simultaneous steps can.  A slice stops moving
    once a sweep no longer lowers its 1-norm, and keeps its scaling only
    where that lowered the 1-norm.  `work` is scratch of A's shape; d is
    (g, n) for g slices of order n.
    """
    absA = np.abs(A, out=work)
    diag = np.einsum("gii->gi", absA).copy()
    np.einsum("gii->gi", absA)[:] = 0.0
    k = np.zeros(diag.shape)
    best = np.full(len(A), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_BALANCE_SWEEPS):
            d = np.exp2(k)
            c = d * ((1.0 / d)[:, None, :] @ absA)[:, 0]
            r = (absA @ d[:, :, None])[:, :, 0] / d
            norm = (c + diag).max(axis=1)
            if sweep == 0:
                original = norm
            step = np.round(0.25 * np.log2(r / c))
            # No step for an empty row or column, nor once the norm stalls.
            step[~(np.isfinite(step) & (norm < _BALANCE_GAIN * best)[:, None])] = 0.0
            if sweep == _BALANCE_SWEEPS - 1 or not step.any():
                break
            best = np.minimum(best, norm)
            k += step
    keep = norm < original
    d = np.exp2(np.where(keep[:, None], k, 0.0))
    A *= d[:, None, :]
    A /= d[:, :, None]
    return d, np.where(keep, norm, original)


class _AbsPowers:
    """log2 of ||abs(A)^p||_1 / ||A||_1^p for slices of a stack, grown as degrees ask.

    The power is formed as the largest entry of 1^T abs(A)^p, with abs(A)
    scaled to 1-norm one and the vector renormalized at every step so that
    nothing overflows.  A slice's sequence starts when a degree first asks
    for it and grows to the highest p asked, one step per p, so every value
    has the bits of a fresh loop up to that p.  norm holds the 1-norms of
    all slices of A.
    """

    def __init__(self, A: np.ndarray, norm: np.ndarray):
        self.A, self.norm = A, norm
        self.v = np.ones(A.shape[:2])
        # Row p holds the values after p steps, kept for p = 2m + 1 of each
        # Pade degree m, the powers that `_ell` asks for.
        self.log2 = np.zeros((2 * max(_PADE_ERROR_COEFF) + 2, len(A)))
        self.steps = np.zeros(len(A), dtype=int)

    def log2_ratio(self, j: np.ndarray, p: int) -> np.ndarray:
        """The values at power p = 2m + 1 of the slices j."""
        behind = j[self.steps[j] < p]
        if behind.size:
            start = self.steps[behind]
            k0 = int(start.max())
            if start.min() < k0:  # first bring the slices that lag to step k0
                self.log2_ratio(behind[start < k0], k0)
            absA = np.abs(self.A[behind])
            absA /= self.norm[behind, None, None]
            v, value = self.v[behind], self.log2[k0, behind]
            with np.errstate(divide="ignore"):
                for k in range(k0, p):
                    v = (v[:, None, :] @ absA)[:, 0]
                    top = v.max(axis=1)
                    value += np.log2(top)
                    v /= np.where(top > 0.0, top, 1.0)[:, None]
                    if k + 1 in _ELL_POWERS:
                        self.log2[k + 1, behind] = value
            self.v[behind], self.steps[behind] = v, p
        return self.log2[p, j]


def _ell(powers: _AbsPowers, i: np.ndarray, norm: np.ndarray, m: int, s) -> np.ndarray:
    """Extra squarings ell(2^-s A, m) of Al-Mohy and Higham for slices i of A.

    ell = max(0, ceil(log2(alpha / u) / 2m)) with u = 2^-53 and
    alpha = ||abs(B)^(2m+1)||_1 / (e_m ||B||_1), B = 2^-s A and
    e_m = _PADE_ERROR_COEFF[m]: the squarings that the degree-m backward
    error bound needs beyond the norm-based choice.  As
    ||abs(B)^(2m+1)||_1 <= ||B||_1^(2m+1), ell = 0 wherever
    ||B||_1^2m <= u e_m; elsewhere the power's norm is read from
    `powers`, A's `_AbsPowers`, so that the degrees share one sequence.
    norm holds the 1-norms of all slices of A.
    """
    with np.errstate(divide="ignore"):
        log2_bound = (2 * m * (np.log2(norm[i]) - s)
                      - np.log2(_PADE_ERROR_COEFF[m]) + 53.0)
    ell = np.zeros(len(i), dtype=int)
    need = np.flatnonzero(log2_bound > 0.0)
    if need.size:
        log2_ratio = powers.log2_ratio(i[need], 2 * m + 1)
        extra = np.ceil((log2_ratio + log2_bound[need]) / (2 * m))
        ell[need] = np.maximum(np.nan_to_num(extra, nan=0.0, neginf=0.0), 0.0)
    return ell


def _squarings(eta: np.ndarray) -> np.ndarray:
    """Least s >= 0 with 2^-s eta <= theta_13 (0 where eta = 0)."""
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(eta / _PADE_THETA[13]))
    return np.where(eta > 0.0, np.maximum(s, 0.0), 0.0).astype(int)


def _choose(powers: _AbsPowers, i: np.ndarray, norm: np.ndarray, d6, d8, d10):
    """Pade degree m in (7, 9, 13) and squarings s for slices i of A.

    powers is A's `_AbsPowers`.  For slices that degrees 3 and 5 do not
    serve (Al-Mohy and Higham): d_p = ||A^p||_1^(1/p), m the least of 7
    and 9 with eta = max(d6, d8) below theta_m and ell 0; else m = 13 with
    s from eta_13 = min(eta, max(d8, d10)), plus ell.
    """
    eta = np.maximum(d6, d8)
    deg = np.full(len(i), 13)
    s = np.zeros(len(i), dtype=int)
    for m in (7, 9):
        cand = np.flatnonzero((deg == 13) & (eta < _PADE_THETA[m]))
        if cand.size:
            deg[cand[_ell(powers, i[cand], norm, m, 0) == 0]] = m
    big = np.flatnonzero(deg == 13)
    if big.size:
        s13 = _squarings(np.minimum(eta[big], np.maximum(d8[big], d10[big])))
        s[big] = s13 + _ell(powers, i[big], norm, 13, s13)
    return deg, s


def _scaling(A: np.ndarray) -> tuple:
    """Balance a (g, n, n) stack; choose each slice's Pade degree m and squarings s.

    Returns (P, work, d, m, s).  P, of shape (4, g, n, n), holds the slices
    balanced as D^-1 A D (`_balance`) and their A^2, A^4 and A^6; `work` is
    scratch of A's shape.  (m, s) per slice follows Al-Mohy and Higham:
    degree 3 or 5 where eta = max(d4, d6), d_p = ||A^p||_1^(1/p), is below
    theta_m and ell is 0, else `_choose` from d6 and the d8 and d10 of
    A^6 A^2 and A^4 A^6.
    """
    P = np.empty((4,) + A.shape)
    work = np.empty(A.shape)
    P[0] = A
    d, norm = _balance(P[0], work)
    np.matmul(P[0], P[0], out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    ones = np.ones(A.shape[-1])

    def d_p(X, p):
        return (ones @ np.abs(X)).max(axis=1) ** (1 / p)  # from the column sums

    d4, d6 = d_p(P[2], 4), d_p(P[3], 6)
    deg = np.full(len(norm), 13)
    s = np.zeros(len(norm), dtype=int)
    eta = np.maximum(d4, d6)
    powers = _AbsPowers(P[0], norm)  # one |A|^p sequence for every degree's ell
    for m in (3, 5):
        cand = np.flatnonzero((deg == 13) & (eta < _PADE_THETA[m]))
        if cand.size:
            deg[cand[_ell(powers, cand, norm, m, 0) == 0]] = m
    i = np.flatnonzero(deg == 13)
    if i.size:
        d8 = d_p(P[3][i] @ P[1][i], 8)
        d10 = d_p(P[2][i] @ P[3][i], 10)
        deg[i], s[i] = _choose(powers, i, norm, d6[i], d8, d10)
    return P, work, d, deg, s


def _pade(m: int, P: np.ndarray, s: np.ndarray, work: np.ndarray,
          ops=_Stack) -> np.ndarray:
    """Degree-m Pade approximant of exp(2^-s A) for every slice.

    P holds A, A^2, A^4, A^6 of the g slices, shape (4, g, ...), and `work`
    is scratch of shape (g, ...); the products land in these buffers, so
    both are overwritten.
    """
    b = _PADE_COEFFS[m]
    h = min(m // 2, 3)
    if m == 13:
        P *= np.exp2(-np.outer((1, 2, 4, 6), s)).reshape(P.shape[:2] + (1,) * (P.ndim - 2))
    powers = P[1:h + 1].reshape(h, -1)
    A8 = ops.mul(P[3], P[1]).reshape(-1) if m == 9 else None

    def combo(row: int, out: np.ndarray) -> np.ndarray:
        """Row `row` of _PADE_COMBOS applied to the powers, written to out."""
        coeffs = _PADE_COMBOS[m][row]
        np.matmul(coeffs[:h], powers, out=out.reshape(-1))
        if A8 is not None:
            out.reshape(-1)[:] += coeffs[3] * A8
        return out

    def add_eye(X: np.ndarray, c: float) -> None:
        for v in ops.diags(X):
            v += c

    if m == 13:
        # U = A (A^6 W_0 + W_2 + b_1 I), V = A^6 W_1 + W_3 + b_0 I.
        inner = ops.mul(P[3], combo(0, work))
        inner += combo(2, work)
        add_eye(inner, b[1])
        U = ops.mul(P[0], inner, out=work)
        V = ops.mul(P[3], combo(1, inner), out=P[0])
        V += combo(3, inner)
    else:
        # U = A (W_0 + b_1 I), V = W_1 + b_0 I.
        add_eye(combo(0, work), b[1])
        U = ops.mul(P[0], work)
        V = combo(1, work)
    add_eye(V, b[0])
    Q = np.subtract(V, U, out=P[1])
    V += U
    return ops.solve(Q, V)


def _exact_band(X: np.ndarray, T: np.ndarray, scale: np.ndarray) -> None:
    """Set the diagonal and superdiagonal of X to those of exp(scale T).

    T holds upper triangular slices.  exp(scale T) has diagonal exp(l_i)
    and superdiagonal scale t_i,i+1 exp(a) sinh(b)/b with l = scale diag(T),
    a = (l_i + l_i+1)/2 and b = |l_i - l_i+1|/2 (Higham, Functions of
    Matrices, eq. 10.42), free of the cancellation in the divided
    difference (e^l_i - e^l_i+1) / (l_i - l_i+1) of exp.  For b >= 1 that
    difference loses less than a bit, and it cannot overflow where sinh(b)
    alone would, so it is used there.
    """
    lam = np.einsum("gii->gi", T) * scale[:, None]
    exp_lam = np.exp(lam)
    np.einsum("gii->gi", X)[:] = exp_lam
    a = 0.5 * (lam[:, :-1] + lam[:, 1:])
    b = 0.5 * np.abs(lam[:, :-1] - lam[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = np.exp(a) * np.where(b == 0.0, 1.0, np.sinh(b) / b)
        far = np.diff(exp_lam, axis=1) / np.diff(lam, axis=1)
    superdiag = np.einsum("gii->gi", T[:, :-1, 1:]) * scale[:, None]
    np.einsum("gii->gi", X[:, :-1, 1:])[:] = superdiag * np.where(b < 1.0, near, far)


def expm(A) -> np.ndarray:
    """Matrix exponential of every slice of a (g, n, n) stack.

    Balancing, then Al-Mohy-Higham scaling and squaring (see the module
    docstring).  For a triangular slice that needs squaring, the diagonal
    and superdiagonal of every power in the squaring phase come from exact
    formulas (Al-Mohy and Higham's Code Fragment 2.1); a lower triangular
    slice is handled as the transpose of an upper one.  Empty stacks and
    1 x 1 slices are handled exactly.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    return _exponentiate(*_scaling(A))


def _exponentiate(P: np.ndarray, work: np.ndarray, d: np.ndarray, deg: np.ndarray,
                  s: np.ndarray) -> np.ndarray:
    """The exponentials of the slices of a stack from its `_scaling`.

    Every slice takes its degree-deg Pade approximant and s squarings, and
    is scaled back by its D; P and work are overwritten, d is not.  1 x 1
    slices, which balancing leaves as they were, take their exp.
    """
    g, n = P.shape[1:3]
    if n == 1:
        return np.exp(P[0])
    # Triangular slices that square keep an exact band (Code Fragment 2.1),
    # lower triangular ones as their transposes: r(A^T) = r(A)^T for the
    # same (m, s), and D^-1 A D transposes to D A^T D^-1.
    triangular = flip = np.zeros(g, dtype=bool)
    if s.any():
        nonzero = P[0] != 0.0
        row = np.arange(n)
        empty_row = ~nonzero.any(axis=2)
        upper = (empty_row | (nonzero.argmax(axis=2) >= row)).all(axis=1)
        last = n - 1 - nonzero[:, :, ::-1].argmax(axis=2)
        flip = ~upper & (empty_row | (last <= row)).all(axis=1) & (s > 0)
        triangular = (upper & (s > 0)) | flip
        if flip.any():
            P[:, flip] = P[:, flip].transpose(0, 1, 3, 2)
            d = np.where(flip[:, None], 1.0 / d, d)

    # Sorted by degree, then by s, each degree is a contiguous block and
    # the slices still squaring at step j are a suffix.
    order = np.lexsort((s, deg))
    P, d, s, deg, triangular = P[:, order], d[order], s[order], deg[order], triangular[order]
    tri = np.flatnonzero(triangular)
    T = P[0, tri]  # a copy: the degree-13 Pade step scales P in place
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(deg)) + 1, [g]))
    X = np.concatenate([_pade(int(deg[a]), P[:, a:b], s[a:b], work[a:b])
                        for a, b in zip(cuts[:-1], cuts[1:])])
    for j in range(s[-1] + 1):
        if j:
            a = int(np.searchsorted(s, j - 1, side="right"))
            if a == 0:
                X, work = np.matmul(X, X, out=work), X
            else:
                X[a:] = np.matmul(X[a:], X[a:], out=work[a:])
        # X[i] now approximates exp(2^(j - s_i) A_i) where s_i >= j.
        fix = np.flatnonzero(s[tri] >= j) if tri.size else tri
        if fix.size:
            band = X[tri[fix]]
            _exact_band(band, T[fix], np.exp2(j - s[tri[fix]]))
            X[tri[fix]] = band
    X *= d[:, :, None]
    X /= d[:, None, :]
    X[order] = X.copy()
    if flip.any():
        X[flip] = X[flip].transpose(0, 2, 1)
    return X


def _expm_blocks(A_RR: np.ndarray, A_TT: np.ndarray, A_TR: np.ndarray) -> tuple:
    """exp of the block lower triangular [[blockdiag(A_RR), 0], [A_TR, blockdiag(A_TT)]].

    The blocks are those of a `ClosedLoop`; returns F_RR, F_TT and F_TR of
    the same shapes.  `_scaling` balances and scales the two stacks once
    each, and F_RR is the retained stack's exponential, as `expm` computes
    it.  The coupling enters the exponential linearly, so
    the whole matrix takes its balancing D = (d_R, d_T) and its (m, s) from
    the diagonal blocks alone, as Al-Mohy and Higham scale the block matrix
    of the Frechet derivative (SIAM J. Matrix Anal. Appl. 30(4), 2009): S is
    the largest s of any block, with degree 13, or the largest block degree
    where S = 0.  One structured Pade step and S structured squarings then
    give F_TT and F_TR.
    """
    tail, m, _ = A_TR.shape
    ops = _Blocks(len(A_RR), tail, m)
    P_R, work_R, d_R, deg_R, s_R = _scaling(A_RR)
    P_T, _, d_T, deg_T, s_T = _scaling(A_TT)
    # A, A^2, A^4 and A^6 of the balanced matrix: the blocks' own powers on
    # the diagonal, and only the coupling parts formed here.
    P = np.empty((4, 1, ops.size))
    for k in range(4):
        RR, TT, _ = ops.split(P[k])
        RR[:], TT[:] = P_R[k], P_T[k]
    F_RR = _exponentiate(P_R, work_R, d_R, deg_R, s_R)
    TR = ops.split(P[0])[2]
    np.multiply(A_TR, d_R.reshape(-1), out=TR)
    TR /= d_T[:, :, None]
    ops.couple(P[0], P[0], P[1])
    ops.couple(P[1], P[1], P[2])
    ops.couple(P[2], P[1], P[3])
    S = int(max(s_R.max(), s_T.max()))
    deg = 13 if S else int(max(deg_R.max(), deg_T.max()))
    work = np.empty((1, ops.size))
    X = _pade(deg, P, np.array([S]), work, ops)
    for _ in range(S):
        X, work = ops.mul(X, X, out=work), X
    ops.unbalance(X, d_R, d_T)
    _, F_TT, F_TR = ops.split(X)
    return F_RR, F_TT, F_TR


def _output_steps(t_final: float, dt_out: float) -> int:
    """Steps of the output grid j dt_out, j = 0..steps, ending at or before t_final.

    A grid point within 1e-9 (relative) of t_final counts as reaching it.
    """
    steps = int(round(t_final / dt_out))
    if abs(steps * dt_out - t_final) > 1e-9 * max(t_final, 1.0):
        steps = math.floor(t_final / dt_out)
    return steps


def _live_modes(power: np.ndarray) -> int:
    """One past the last slice of the (n, m, m) stack `power` holding a nonzero."""
    nonzero = np.flatnonzero(power.any(axis=(1, 2)))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _spans(count: int, size: int) -> list:
    """Balanced spans (a, b) covering 0..count, none longer than `size`."""
    parts = -(-count // size)
    bounds = [count * k // parts for k in range(parts + 1)] if parts else []
    return list(zip(bounds[:-1], bounds[1:]))


def _propagate(out: np.ndarray, z0: np.ndarray, F: np.ndarray,
               F_TR: np.ndarray | None = None, Z_R: np.ndarray | None = None) -> None:
    """Write the trajectory of decoupled modes into `out`, (steps + 1, modes, m).

    The modes obey x_{j+1} = F x_j + F_TR z_R(j), from x_0 = z0, with z_R(j)
    the rows of the retained trajectory Z_R, or no drive without F_TR.  They
    are taken in chunks of at most _CHUNK_BYTES of trajectory.  A chunk's buffer X is
    loaded at sample j with what enters there, z0 or the drive, which is
    one product over all steps; then the recurrence is summed by a doubling
    scan: after the pass with shift s, X[..., j] holds the terms of the
    last 2s samples, each carried forward by the matching power of F.
    Only the first `live` modes carry a nonzero power: past the last one,
    every product with a finite X is an exact zero, so the pass stops
    carrying them.  Every mode below `live` takes the pass's sum, as in one
    pass over all modes, so a zero term turns a -0.0 into +0.0 there too.
    """
    steps, count, m = out.shape[0] - 1, out.shape[1], out.shape[2]
    passes, power, shift = [], F, 1
    while shift <= steps:
        live = _live_modes(power)
        if not live:
            break
        power = power[:live]
        passes.append((shift, live, power))
        power, shift = power @ power, 2 * shift
    # The chunks are balanced, so none is a sliver: OpenBLAS takes other
    # kernels (gemv, its small-matrix path) for a drive product of one or a
    # few rows, and they round differently from the product over the whole
    # tail.  At least four modes per chunk leave every balanced chunk two.
    # On a one-step grid the drive is a matrix-vector product, whose
    # rounding OpenBLAS ties to a row's place in the call, so the tail is
    # one chunk there.
    chunk = max(_CHUNK_BYTES // (m * (steps + 1) * out.itemsize), 4)
    if steps == 1:
        chunk = max(count, 1)
    spans = _spans(count, chunk)
    X = np.empty((max((b - a for a, b in spans), default=0), m, steps + 1))
    for a, b in spans:
        x = X[:b - a]
        x[:, :, 0] = z0[a:b]
        x[:, :, 1:] = 0.0 if F_TR is None else (F_TR[a:b].reshape((b - a) * m, -1)
                                                 @ Z_R[:-1].T).reshape(b - a, m, steps)
        for shift, live, power in passes:
            hi = min(b, live) - a
            if hi <= 0:
                break
            x[:hi, :, shift:] += power[a:a + hi] @ x[:hi, :, :-shift]
        out[:, a:b] = x.transpose(2, 0, 1)


def integrate(loop: ClosedLoop, z0: np.ndarray, t_final: float,
              dt_out: float) -> Trajectory:
    """Propagate the closed loop `loop` exactly on the output grid.

    z0 holds the (M, m) modal coefficients; the trajectory records every
    dt_out from 0 up to the last grid point at or before t_final
    (`_output_steps`).

    The step matrix exp(dt_out A) keeps the block form of `loop`: F_RR is
    the stacked `expm` of the retained blocks, and F_TT and F_TR come from
    the same `_expm_blocks` call, or F_TT from `expm` where no mode is
    retained.  `_propagate` writes the retained modes, then the tail modes
    driven by them, straight into the result by a doubling scan over the
    steps, and the norms are taken in row blocks of _CHUNK_BYTES.  So
    besides the trajectory and the step matrices, the scratch is a few
    buffers of _CHUNK_BYTES, and the chunks give the bits of one pass.
    """
    z0 = np.asarray(z0, dtype=float)
    M, m = z0.shape
    R = len(loop.A_RR)
    tail = M - R
    steps = _output_steps(t_final, dt_out)
    A_RR = loop.A_RR * dt_out
    if R and tail:
        F_RR, F_TT, F_TR = _expm_blocks(A_RR, loop.A_TT * dt_out, loop.A_TR * dt_out)
    else:
        F_RR = expm(A_RR)
        F_TT, F_TR = expm(loop.A_TT * dt_out), np.zeros((tail, m, R * m))

    modal = np.empty((steps + 1, M, m))
    _propagate(modal[:, :R], z0[:R], F_RR)
    _propagate(modal[:, R:], z0[R:], F_TT, F_TR, modal[:, :R].reshape(steps + 1, R * m))

    # The norms, a block of rows at a time; each row's sum is the same in
    # any block.
    flat = modal.reshape(steps + 1, -1)
    norms = np.empty(steps + 1)
    rows = max(_CHUNK_BYTES // flat[0].nbytes, 1)
    for i in range(0, steps + 1, rows):
        norms[i:i + rows] = np.linalg.norm(flat[i:i + rows], axis=1)
    times = np.arange(steps + 1) * dt_out
    return Trajectory(times=times, modal=modal, l2_norm=norms)


def estimate_decay(traj: Trajectory) -> float:
    """Least-squares decay rate of ln||z|| over _FIT_WINDOW (positive = decay).

    A grid that puts fewer than two samples in the window is an input
    problem (ValueError).  Samples whose norm has collapsed to numerical
    zero are dropped, which shortens the window automatically; ZeroNorm is
    raised only if fewer than two usable samples remain.
    """
    t_final = traj.times[-1]
    lo, hi = _FIT_WINDOW
    mask = (traj.times >= lo * t_final) & (traj.times <= hi * t_final)
    if np.count_nonzero(mask) < 2:
        raise ValueError(
            f"the output grid puts {np.count_nonzero(mask)} sample(s) in the decay "
            f"fit window [{lo}, {hi}] x t_final, and the fit needs 2: raise "
            f"--t-final or lower --dt-out")
    mask &= traj.l2_norm > _NORM_FLOOR
    if np.count_nonzero(mask) < 2:
        raise ZeroNorm("trajectory norm vanished over the whole fit window")
    slope = np.polyfit(traj.times[mask], np.log(traj.l2_norm[mask]), 1)[0]
    return float(-slope)


def certificate_bound(traj: Trajectory, M_cert: float, delta: float) -> np.ndarray:
    """M_cert exp(-delta t) ||z(0)|| at every sample."""
    return M_cert * np.exp(-delta * traj.times) * traj.l2_norm[0]


def certificate_bound_holds(traj: Trajectory, M_cert: float, delta: float) -> bool:
    """Check ||z(t)|| <= M_cert exp(-delta t) ||z(0)|| at every sample."""
    bound = certificate_bound(traj, M_cert, delta)
    return bool(np.all(traj.l2_norm <= bound * (1.0 + _BOUND_SLACK) + _NORM_FLOOR))


def target_residual(traj: Trajectory, retained: Retained, A_RR: np.ndarray) -> float:
    """Relative defect of ydot^N = H y^N along the trajectory, y_n = T_n z_n.

    The derivative is evaluated through A_RR, the exact closed-loop
    generator of the retained block (`ClosedLoop.A_RR`), so the residual
    isolates the transform identity rather than finite differencing error.
    T_n and H_n are the stacks of `retained`.
    """
    T, H = retained.T, retained.H
    N = len(T)
    if N == 0:
        return 0.0

    # Block n of every product acts on z_n alone: (N, m, samples) stacks.
    Z = traj.modal[:, :N, :].transpose(1, 2, 0)
    samples = len(traj.times)
    defect = (T @ A_RR - H @ T) @ Z
    target = H @ (T @ Z)
    worst = float(np.max(np.linalg.norm(defect.reshape(-1, samples), axis=0)))
    scale = max(_NORM_FLOOR,
                float(np.max(np.linalg.norm(target.reshape(-1, samples), axis=0))))
    return worst / scale


def reconstruct_field(traj: Trajectory, basis: SpectralBasis, grid, out=None) -> np.ndarray:
    """Partial-sum fields z_i(t, x), shape (T, m, len(grid)), written into
    `out` where given."""
    return expand(traj.modal, basis, grid, out=out)


def run_closed_loop(plant: ValidatedPlant, controller: Controller,
                    basis: SpectralBasis, z0_funcs, config: SimConfig) -> Trajectory:
    """Project, assemble, integrate, and fit; one-stop simulation entry.

    An open-loop run passes `synthesis.zero_controller`; the certificate
    bound is checked on the result by `certificate_bound_holds`.
    """
    config.validate(controller.N)
    basis = extend_basis(basis, config.M_modes)
    loop = assemble_closed_loop(plant, controller, basis, config.M_modes)
    z0 = project_initial(z0_funcs, basis, config.M_modes)
    traj = integrate(loop, z0, config.t_final, config.resolved_dt())
    try:
        decay = estimate_decay(traj)
    except ZeroNorm:
        decay = float("inf")
    return traj._replace(fitted_decay=decay)


# ---------------------------------------------------------------------------
# CSV export.  Full-precision reals, byte for byte ",".join(map(repr, row)),
# formatted by model._csv_lines in blocks of about _VALUES_PER_BLOCK values,
# which keeps the memory of the byte buffers small next to the arrays being
# written.  Block k of a table is its steps k*block .. (k+1)*block - 1,
# counted from step 0, so a block's text is the same whoever formats it.
# The text stays ASCII bytes from orjson.dumps to the file: the temp files
# and the helper's memfd are written in binary.
#
# `write_csvs` formats on two CPUs: the parent from the front of each table,
# one forked `_Helper` from the back.  The claims live in a mapping shared
# across the fork and change only under an fcntl lock on the memfd, which
# the kernel drops if the holder dies.  The parent forks before it fills
# the tables that have a `shape`, then lets the helper on to them with one
# byte down a pipe.  Before that byte the helper reads only arrays that
# existed before the fork; a read that ends without the byte means the
# parent died.  The helper only slices, stacks and formats: it computes
# nothing through BLAS, whose threads do not survive a fork.  It leaves
# only by os._exit, and the parent always reaps it, after killing it if the
# parent stopped early; a helper that stops early is a CsvHelperFailed.
#
# Formatting a block takes about as long as the fork, so the helper is
# forked only where the tables hold at least two blocks' worth of values.
# Below that, or where the platform has no fork or memfd_create, or they
# fail, the parent fills and formats every block alone.

_VALUES_PER_BLOCK = 8192


class CsvTable(NamedTuple):
    """A CSV file: the header line, then the rows of steps 0..steps-1.

    rows(start, stop) is the 2-D float table of steps start..stop-1, with
    `width` values per step.  A table that formats an array computed for it
    gives the array's `shape` and fill(out), which computes it into `out`,
    a float array that `write_csvs` allocates; its rows read that array as
    rows(start, stop, out=out), with `out` bound by `write_csvs`.
    """

    path: str
    header: str
    steps: int
    width: int
    rows: Callable[..., np.ndarray]
    shape: tuple | None = None
    fill: Callable[[np.ndarray], object] | None = None

    @property
    def block(self) -> int:
        """Steps per formatted block."""
        return max(1, _VALUES_PER_BLOCK // max(1, self.width))

    def blocks(self) -> int:
        """The number of formatted blocks, the last one possibly short."""
        return -(-self.steps // self.block)

    def lines(self, k: int) -> bytes:
        """The CSV lines of block k."""
        start = k * self.block
        return _csv_lines(self.rows(start, min(start + self.block, self.steps)))


_PAIR = struct.Struct("2q")     # a table's (front, back): blocks front..back-1 are unclaimed
_MESSAGE = struct.Struct("4q")  # the helper's (table, block, start, stop)


def _shared_empty(shape) -> np.ndarray:
    """An uninitialised float array in an anonymous mapping, which a forked
    helper shares."""
    import mmap

    return np.ndarray(shape, buffer=mmap.mmap(-1, max(1, 8 * math.prod(shape))))


class _Helper:
    """The forked process that formats blocks from the back of the tables,
    and what it shares with the parent: each table's claims, the memfd that
    holds its blocks and whose lock guards the claims, and two pipes."""

    def __init__(self, tables: list):
        """Every block of `tables` unclaimed; no process is forked yet."""
        import fcntl
        import mmap

        self.tables, self.pid, self.pipe, self.go = tables, None, None, None
        self.lockf, self.lock_ex, self.lock_un = fcntl.lockf, fcntl.LOCK_EX, fcntl.LOCK_UN
        self.map = mmap.mmap(-1, _PAIR.size * len(tables))
        for i, table in enumerate(tables):
            _PAIR.pack_into(self.map, _PAIR.size * i, 0, table.blocks())
        self.memfd = os.memfd_create("cascade-stab-csv", os.MFD_CLOEXEC)

    @classmethod
    def fork(cls, tables) -> _Helper | None:
        """A helper sharing the blocks of `tables`; None where none starts."""
        fds = []
        try:
            helper = cls(tables)
            fds.append(helper.memfd)
            fds += os.pipe() + os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        _, helper.pipe, end, wait, helper.go = fds
        if pid == 0:
            helper._serve(end, wait)
        os.close(end)
        os.close(wait)
        helper.pid = pid
        return helper

    def claim(self, tables, front: bool):
        """Claim the front or the back block of the first of `tables` (their
        indices) with one unclaimed, as (table, block); None where none has."""
        self.lockf(self.memfd, self.lock_ex)
        try:
            for i in tables:
                first, end = _PAIR.unpack_from(self.map, _PAIR.size * i)
                if first < end:
                    first, end = (first + 1, end) if front else (first, end - 1)
                    _PAIR.pack_into(self.map, _PAIR.size * i, first, end)
                    return i, first - 1 if front else end
            return None
        finally:
            self.lockf(self.memfd, self.lock_un)

    def _serve(self, end: int, wait: int) -> NoReturn:
        """The helper's whole life: claim, format, report each block, _exit."""
        status = 1
        try:
            os.close(self.pipe)
            os.close(self.go)
            tables = self.tables
            # Tables from the first filled one on are claimed after the signal.
            ready = next((i for i, table in enumerate(tables) if table.shape is not None),
                         len(tables))
            with open(self.memfd, "wb", closefd=False) as out:
                start = 0
                while True:
                    claim = self.claim(range(ready), front=False)
                    if claim is None:
                        if ready == len(tables):
                            status = 0
                            break
                        if not os.read(wait, 1):
                            break  # the parent died before its signal
                        ready = len(tables)
                        continue
                    i, k = claim
                    lines = tables[i].lines(k)
                    out.write(lines)
                    out.flush()
                    stop = start + len(lines)
                    os.write(end, _MESSAGE.pack(i, k, start, stop))
                    start = stop
        except BaseException:
            import traceback  # to the inherited stderr; the parent raises on the status
            traceback.print_exc()
            raise
        finally:
            os._exit(status)

    def start(self) -> None:
        """Let the helper on to the filled tables.  A helper that has exited
        already is reported where its blocks are read, by append_to."""
        try:
            os.write(self.go, b"\1")
        except BrokenPipeError:
            pass

    def append_to(self, fd: int, i: int, first: int, table: CsvTable) -> None:
        """Append the helper's blocks first.. of table i, in order, to the file fd."""
        spans = [None] * (table.blocks() - first)
        data = b""
        while len(data) < _MESSAGE.size * len(spans):
            more = os.read(self.pipe, _MESSAGE.size * len(spans) - len(data))
            if not more:
                left = len(spans) - len(data) // _MESSAGE.size
                code = self._reap()
                raise CsvHelperFailed(
                    f"the CSV helper process exited with status {code} with "
                    f"{left} claimed block(s) of {os.path.basename(table.path)} unwritten")
            data += more
        for t, k, start, stop in _MESSAGE.iter_unpack(data):
            if t != i or not first <= k < table.blocks() or spans[k - first]:
                raise CsvHelperFailed(f"the CSV helper sent block {k} of table {t} "
                                      f"while table {i} was being written")
            spans[k - first] = (start, stop)
        for start, stop in spans:
            while start < stop:
                sent = os.sendfile(fd, self.memfd, start, stop - start)
                if not sent:
                    raise CsvHelperFailed("the CSV helper's buffer ended early")
                start += sent

    def _reap(self) -> int:
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def close(self, kill: bool) -> None:
        """Reap the helper, killing it first if asked; release what it shared."""
        try:
            if self.pid is not None:
                if kill:
                    import signal  # only here: importing it costs about 0.8 ms
                    os.kill(self.pid, signal.SIGKILL)
                self._reap()
        finally:
            self.map.close()
            for fd in (self.pipe, self.go, self.memfd):
                os.close(fd)


def write_csvs(tables) -> None:
    """Atomically write every CsvTable, on two processes where that pays.

    The files are written in order, each replacing its target only when
    complete; see the comment above for how the blocks are shared.
    """
    tables, fills = list(tables), []
    forks = (sum(table.steps * table.width for table in tables) >= 2 * _VALUES_PER_BLOCK
             and hasattr(os, "fork") and hasattr(os, "memfd_create"))
    empty = _shared_empty if forks else np.empty
    for i, table in enumerate(tables):
        if table.shape is not None:
            out = empty(table.shape)
            fills.append(functools.partial(table.fill, out))
            tables[i] = table._replace(rows=functools.partial(table.rows, out=out))
    helper = _Helper.fork(tables) if forks else None
    finished = False
    try:
        for fill in fills:
            fill()
        if helper is not None and fills:
            helper.start()
        for i, table in enumerate(tables):
            with atomic_write(table.path) as fh:
                fh.write(table.header.encode() + b"\n")
                k, n = 0, table.blocks()
                while k < n and (helper is None or helper.claim((i,), front=True)):
                    fh.write(table.lines(k))
                    k += 1
                if k < n:
                    fh.flush()
                    helper.append_to(fh.fileno(), i, k, table)
        finished = True
    finally:
        if helper is not None:
            helper.close(kill=not finished)


def modal_table(traj: Trajectory, path: str) -> CsvTable:
    """Header t, z_{i}_{n} for component i of mode n."""
    cols = ["t"] + [f"z_{i + 1}_{n + 1}" for n in range(traj.n_modes)
                    for i in range(traj.m)]
    t = traj.times
    Z = traj.modal.reshape(len(t), -1)
    return CsvTable(path, ",".join(cols), len(t), 1 + Z.shape[1],
                    lambda a, b: np.column_stack([t[a:b], Z[a:b]]))


def field_table(traj: Trajectory, basis: SpectralBasis, grid, path: str) -> CsvTable:
    """Long format: t, x, z1..zm, of the fields `reconstruct_field` fills."""
    t = traj.times
    x = np.asarray(grid, dtype=float)

    def rows(a, b, out):
        return np.column_stack([np.repeat(t[a:b], x.size), np.tile(x, b - a),
                                out[a:b].transpose(0, 2, 1).reshape(-1, traj.m)])

    header = "t,x," + ",".join(f"z{i + 1}" for i in range(traj.m))
    return CsvTable(path, header, len(t), x.size * (2 + traj.m), rows,
                    (len(t), traj.m, x.size), lambda out: reconstruct_field(traj, basis, x, out))


def norms_table(traj: Trajectory, M_cert: float, delta: float, path: str) -> CsvTable:
    """Columns t, l2norm and `certificate_bound`."""
    bound = certificate_bound(traj, M_cert, delta)
    table = np.column_stack([traj.times, traj.l2_norm, bound])
    return CsvTable(path, "t,l2norm,bound", len(table), 3, lambda a, b: table[a:b])


def export_modal_csv(traj: Trajectory, path: str) -> None:
    """Write `modal_table` to path."""
    write_csvs([modal_table(traj, path)])


def export_field_csv(traj: Trajectory, basis: SpectralBasis, grid, path: str) -> None:
    """Write `field_table` to path."""
    write_csvs([field_table(traj, basis, grid, path)])


def export_norms_csv(traj: Trajectory, M_cert: float, delta: float, path: str) -> None:
    """Write `norms_table` to path."""
    write_csvs([norms_table(traj, M_cert, delta, path)])
