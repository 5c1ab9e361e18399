"""Closed-loop modal simulation and decay-rate measurement.

The closed loop truncated at M modes is the LTI system

    zdot_n = (-lambda_n D + Q) z_n + B * Brow_n * K * z^N,   n = 1..M,

with Brow_n the mode-n projections of the shape functions.  Modes couple
only through z^N, so the truncation is exact for the retained block, and
the generator is block lower triangular:

    [[A_RR, 0], [A_TR, blockdiag(A_n, n > N)]].

`assemble_closed_loop` builds these blocks (a `ClosedLoop`) and `integrate`
propagates them exactly on the output grid.  The step matrix exp(dt A) has
the same shape, and scaling and squaring keeps it: every power, Pade
approximant and square of such a matrix is one, with

    RR = X_RR Y_RR,  TT = X_TT @ Y_TT,  TR = X_TR Y_RR + X_TT @ Y_TR

for its product (Van Loan, IEEE Trans. Automat. Control 23(3), 1978).
`_expm_blocks` runs the algorithm of `expm` once on the retained block
(mN x mN), the stack of tail blocks (tail, m, m) and the coupling
(tail m) x mN.  One scaling serves the whole matrix, so the retained block
F_RR, which a fast tail block may over-scale, is taken from `expm` of
A_RR alone instead.

`expm` is numpy's own, so no command needs scipy: the scaling-and-squaring
algorithm of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 31(3), 2009) on
every slice of the stack at once, after a diagonal balancing.  The
closed-loop steps are far from normal (1-norms up to 2e9 from the feedback
rows, against 100 once balanced); unbalanced, wide-actuation's come out
with relative errors near 2e-7.  Each slice is first scaled to D^-1 A D
with D a diagonal of powers of two (Parlett and Reinsch, Numer. Math. 13,
1969, as LAPACK's gebal does with job 'S'), which adds no rounding.  From
exact 1-norms of A^4 and A^6, and of A^8 and A^10 where bounds on them do
not settle the choice, each slice takes the least Pade degree m in
{3, 5, 7, 9, 13} whose backward error bound holds, or m = 13 with s
squarings; the bound's correction ell needs the 1-norm of |A|^(2m+1) only
where ||A||^(2m+1) does not already settle it.  Each degree's approximants
come from one stacked solve, the squarings run on the slices that still
need them, and the result is scaled back by D.  Balancing, the choice of
(m, s) and the Pade step reach the matrices only through an operations
object, `_Stack` for a stack or `_Blocks` for the block form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroNorm
from .model import ShapeFunction, ValidatedPlant, _csv_lines, atomic_write
from .spectral import (
    SpectralBasis,
    expand,
    extend_basis,
    project_callable,
    shape_projection_matrix,
)
from .synthesis import Controller, block_diagonal, closed_blocks, mode_blocks
from .transform import TransformFamily, mode_transform

_NORM_FLOOR = 1e-300
# certificate_bound_holds allows this relative rounding slack over the bound.
_BOUND_SLACK = 1e-9
# estimate_decay fits ln||z|| over [0.2, 1.0] * t_final.
_FIT_WINDOW = (0.2, 1.0)


@dataclass(frozen=True)
class SimConfig:
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


@dataclass
class Trajectory:
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


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop [[A_RR, 0], [A_TR, blockdiag(A_TT)]] of N retained modes.

    A_RR is (mN) x (mN), A_TT the (M - N, m, m) stack of tail blocks and
    A_TR the (M - N, m, mN) drive of the tail by the retained modes.
    """

    A_RR: np.ndarray
    A_TT: np.ndarray
    A_TR: np.ndarray


def assemble_closed_loop(plant: ValidatedPlant, controller: Controller,
                         basis: SpectralBasis, M_modes: int) -> ClosedLoop:
    """The truncated closed loop of M_modes modes, in block form."""
    m = plant.m
    N = controller.N
    if M_modes < N:
        raise ValueError(f"M_modes={M_modes} cannot be below N={N}")
    basis = extend_basis(basis, M_modes)
    blocks = mode_blocks(plant, basis.lam[:M_modes])
    A_RR = block_diagonal(blocks[:N])
    A_RR += 0.0  # a -0.0 of Q reads +0.0, as in a sum onto zeros
    A_TR = np.zeros((M_modes - N, m, m * N))
    if N > 0:
        P = shape_projection_matrix(plant.shapes[:N], basis, M_modes)
        # One P[n] @ K per mode, stacked: P @ K would round differently.
        drive = np.matmul(P[:, None, :], controller.K)[:, 0]
        A_RR[::m] += drive[:N]
        A_TR[:, 0] += drive[N:]
    return ClosedLoop(A_RR=A_RR, A_TT=blocks[N:], A_TR=A_TR)


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
# Balancing stops at the first sweep that lowers no slice's 1-norm by 1%;
# the cap is only a guard.
_BALANCE_GAIN = 0.99
_BALANCE_SWEEPS = 64


class _Stack:
    """The matrix operations of the exponential on a (g, n, n) stack."""

    mul = staticmethod(np.matmul)
    solve = staticmethod(np.linalg.solve)

    @staticmethod
    def order(X: np.ndarray) -> int:
        return X.shape[-1]

    @staticmethod
    def diags(X: np.ndarray) -> tuple:
        """Writable views of the diagonals, (g, n)."""
        return (np.einsum("gii->gi", X),)

    @staticmethod
    def rmatvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v_i^T X_i for the rows v_i of v, (g, n)."""
        return (v[:, None, :] @ X)[:, 0]

    @staticmethod
    def matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
        """X_i v_i for the rows v_i of v, (g, n)."""
        return (X @ v[:, :, None])[:, :, 0]

    @staticmethod
    def colsums(X: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Column sums of abs(X), (g, n), using the scratch `work` of X's shape."""
        return np.ones(X.shape[-1]) @ np.abs(X, out=work)

    @staticmethod
    def similarity(X: np.ndarray, d: np.ndarray, undo: bool = False) -> None:
        """X <- D^-1 X D in place with D = diag(d) per slice; D X D^-1 if undo."""
        rows, cols = d[:, :, None], d[:, None, :]
        X *= rows if undo else cols
        X /= cols if undo else rows


class _Blocks:
    """Block lower triangular matrices [[X_RR, 0], [X_TR, blockdiag(X_TT)]].

    X_RR is r x r, X_TT the (tail, m, m) stack of diagonal blocks and X_TR
    the (tail, m, r) coupling.  A matrix is one row of `size` floats holding
    X_RR, X_TT and X_TR in turn, so sums and multiples of matrices are those
    of rows; operands carry a leading axis of one, as one slice of a stack.
    Products keep the shape:

        RR = X_RR Y_RR,  TT = X_TT @ Y_TT,  TR = X_TR Y_RR + X_TT @ Y_TR.
    """

    def __init__(self, r: int, tail: int, m: int):
        self.r, self.tail, self.m = r, tail, m
        self.cuts = (r * r, r * r + tail * m * m)
        self.size = self.cuts[1] + tail * m * r

    def split(self, X: np.ndarray) -> tuple:
        """Views X_RR, X_TT and X_TR of the matrix X."""
        a, b = self.cuts
        X = X.reshape(-1)
        return (X[:a].reshape(self.r, self.r),
                X[a:b].reshape(self.tail, self.m, self.m),
                X[b:].reshape(self.tail, self.m, self.r))

    def order(self, X: np.ndarray) -> int:
        return self.r + self.tail * self.m

    def diags(self, X: np.ndarray) -> tuple:
        RR, TT, _ = self.split(X)
        return np.einsum("ii->i", RR), np.einsum("tii->ti", TT)

    def rmatvec(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        RR, TT, TR = self.split(X)
        r = self.r
        out = np.empty_like(v)
        out[0, :r] = v[0, :r] @ RR + v[0, r:] @ TR.reshape(-1, r)
        out[0, r:] = (v[0, r:].reshape(self.tail, 1, self.m) @ TT).reshape(-1)
        return out

    def matvec(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        RR, TT, TR = self.split(X)
        r = self.r
        out = np.empty_like(v)
        out[0, :r] = RR @ v[0, :r]
        out[0, r:] = TR.reshape(-1, r) @ v[0, :r]
        out[0, r:] += (TT @ v[0, r:].reshape(self.tail, self.m, 1)).reshape(-1)
        return out

    def colsums(self, X: np.ndarray, work: np.ndarray) -> np.ndarray:
        return self.rmatvec(np.abs(X, out=work), np.ones((1, self.order(X))))

    def similarity(self, X: np.ndarray, d: np.ndarray, undo: bool = False) -> None:
        RR, TT, TR = self.split(X)
        d_R, d_T = d[0, :self.r], d[0, self.r:].reshape(self.tail, self.m, 1)
        for B, rows, cols in ((RR, d_R[:, None], d_R),
                              (TT, d_T, d_T.transpose(0, 2, 1)), (TR, d_T, d_R)):
            B *= rows if undo else cols
            B /= cols if undo else rows

    def mul(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(X) if out is None else out
        (XR, XT, XC), (YR, YT, YC), (OR, OT, OC) = map(self.split, (X, Y, out))
        np.matmul(XR, YR, out=OR)
        np.matmul(XT, YT, out=OT)
        np.matmul(XC.reshape(-1, self.r), YR, out=OC.reshape(-1, self.r))
        OC += XT @ YC
        return out

    def solve(self, Q: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Q^-1 V: X_RR and the stacked X_TT, then X_TR = Q_TT^-1 (V_TR - Q_TR X_RR)."""
        (QR, QT, QC), (VR, VT, VC) = self.split(Q), self.split(V)
        X = np.empty_like(V)
        XR, XT, XC = self.split(X)
        XR[:] = np.linalg.solve(QR, VR)
        # One factorization of each Q_TT block serves X_TT and X_TR.
        rhs = np.concatenate([VT, VC - (QC.reshape(-1, self.r) @ XR).reshape(VC.shape)],
                             axis=2)
        sol = np.linalg.solve(QT, rhs)
        XT[:], XC[:] = sol[:, :, :self.m], sol[:, :, self.m:]
        return X


def _balance(A: np.ndarray, work: np.ndarray, ops=_Stack) -> tuple[np.ndarray, np.ndarray]:
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
    diags = ops.diags(absA)
    diag = np.concatenate([v.reshape(len(A), -1) for v in diags], axis=1)
    for v in diags:
        v[...] = 0.0
    k = np.zeros(diag.shape)
    best = np.full(len(A), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_BALANCE_SWEEPS):
            d = np.exp2(k)
            c = d * ops.rmatvec(absA, 1.0 / d)
            r = ops.matvec(absA, d) / d
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
    if not keep.any():
        return np.ones_like(k), original
    d = np.exp2(np.where(keep[:, None], k, 0.0))
    ops.similarity(A, d)
    return d, np.where(keep, norm, original)


def _ell(A: np.ndarray, i: np.ndarray, norm: np.ndarray, m: int, s,
         ops=_Stack) -> np.ndarray:
    """Extra squarings ell(2^-s A, m) of Al-Mohy and Higham for slices i of A.

    ell = max(0, ceil(log2(alpha / u) / 2m)) with u = 2^-53 and
    alpha = ||abs(B)^(2m+1)||_1 / (e_m ||B||_1), B = 2^-s A and
    e_m = _PADE_ERROR_COEFF[m]: the squarings that the degree-m backward
    error bound needs beyond the norm-based choice.  As
    ||abs(B)^(2m+1)||_1 <= ||B||_1^(2m+1), ell = 0 wherever
    ||B||_1^2m <= u e_m.  Elsewhere the power is formed as
    the largest entry of 1^T abs(A)^(2m+1), with abs(A) scaled to 1-norm
    one and the vector renormalized at every step so that nothing
    overflows.  norm holds the 1-norms of all slices of A.
    """
    with np.errstate(divide="ignore"):
        log2_bound = (2 * m * (np.log2(norm[i]) - s)
                      - np.log2(_PADE_ERROR_COEFF[m]) + 53.0)
    ell = np.zeros(len(i), dtype=int)
    need = np.flatnonzero(log2_bound > 0.0)
    if need.size:
        absA = np.abs(A[i[need]])
        absA /= norm[i[need]].reshape((-1,) + (1,) * (absA.ndim - 1))
        v = np.ones((need.size, ops.order(A)))
        log2_ratio = np.zeros(need.size)  # log2 of ||abs(A)^p|| / ||A||^p
        with np.errstate(divide="ignore"):
            for _ in range(2 * m + 1):
                v = ops.rmatvec(absA, v)
                top = v.max(axis=1)
                log2_ratio += np.log2(top)
                v /= np.where(top > 0.0, top, 1.0)[:, None]
        extra = np.ceil((log2_ratio + log2_bound[need]) / (2 * m))
        ell[need] = np.maximum(np.nan_to_num(extra, nan=0.0, neginf=0.0), 0.0)
    return ell


def _squarings(eta: np.ndarray) -> np.ndarray:
    """Least s >= 0 with 2^-s eta <= theta_13 (0 where eta = 0)."""
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(eta / _PADE_THETA[13]))
    return np.where(eta > 0.0, np.maximum(s, 0.0), 0.0).astype(int)


def _choose(A: np.ndarray, i: np.ndarray, norm: np.ndarray, d6, d8, d10, ops=_Stack):
    """Pade degree m in (7, 9, 13) and squarings s for slices i of A.

    For slices that degrees 3 and 5 do not serve (Al-Mohy and Higham):
    d_p = ||A^p||_1^(1/p), m the least of 7 and 9 with eta = max(d6, d8)
    below theta_m and ell 0; else m = 13 with s from eta_13 = min(eta,
    max(d8, d10)), plus ell.  Both m and s grow with d8 and d10.
    """
    eta = np.maximum(d6, d8)
    deg = np.full(len(i), 13)
    s = np.zeros(len(i), dtype=int)
    for m in (7, 9):
        cand = np.flatnonzero((deg == 13) & (eta < _PADE_THETA[m]))
        if cand.size:
            deg[cand[_ell(A, i[cand], norm, m, 0, ops) == 0]] = m
    big = np.flatnonzero(deg == 13)
    if big.size:
        s13 = _squarings(np.minimum(eta[big], np.maximum(d8[big], d10[big])))
        s[big] = s13 + _ell(A, i[big], norm, 13, s13, ops)
    return deg, s


def _scaling(P: np.ndarray, work: np.ndarray, ops=_Stack) -> tuple:
    """Balance and choose the Pade degree m and squarings s of every slice.

    P[0] holds the g slices of A; they are balanced in place (`_balance`),
    and P[1:] receives A^2, A^4 and A^6 of the balanced slices.  Returns d
    of the balancing and (m, s) per slice (Al-Mohy and Higham): degree 3 or
    5 where eta = max(d4, d6), d_p = ||A^p||_1^(1/p), is below theta_m and
    ell is 0, else `_choose` from d6, d8 and d10.
    """
    d, norm = _balance(P[0], work, ops)
    ops.mul(P[0], P[0], out=P[1])
    ops.mul(P[1], P[1], out=P[2])
    ops.mul(P[2], P[1], out=P[3])
    col4 = ops.colsums(P[2], work)
    norm4, norm6 = col4.max(axis=1), ops.colsums(P[3], work).max(axis=1)
    d4, d6 = norm4 ** (1 / 4), norm6 ** (1 / 6)

    deg = np.full(len(norm), 13)
    s = np.zeros(len(norm), dtype=int)
    eta = np.maximum(d4, d6)
    for m in (3, 5):
        cand = np.flatnonzero((deg == 13) & (eta < _PADE_THETA[m]))
        if cand.size:
            deg[cand[_ell(P[0], cand, norm, m, 0, ops) == 0]] = m
    i = np.flatnonzero(deg == 13)
    if i.size:
        # ||A^8|| and ||A^10|| lie between ||A^8 x|| and ||A^4||^2, and
        # between ||A^10 x|| and ||A^4|| ||A^6||, for x = A^4 e_j the largest
        # column of A^4.  Where (m, s) is the same at both ends, it is what
        # the exact norms give; the powers are formed only for the other
        # slices.
        e = np.zeros((i.size, ops.order(P[0])))
        e[np.arange(i.size), col4[i].argmax(axis=1)] = 1.0
        x = ops.matvec(P[2][i], e)
        low8 = np.abs(ops.matvec(P[2][i], x)).sum(axis=1) ** (1 / 8)
        low10 = np.abs(ops.matvec(P[3][i], x)).sum(axis=1) ** (1 / 10)
        low = _choose(P[0], i, norm, d6[i], low8, low10, ops)
        high = _choose(P[0], i, norm, d6[i], d4[i], (norm4[i] * norm6[i]) ** (1 / 10), ops)
        deg[i], s[i] = low
        i = i[(low[0] != high[0]) | (low[1] != high[1])]
        if i.size:
            def d_p(X, p):
                return ops.colsums(X, work[i]).max(axis=1) ** (1 / p)
            d8 = d_p(ops.mul(P[3][i], P[1][i]), 8)
            d10 = d_p(ops.mul(P[2][i], P[3][i]), 10)
            deg[i], s[i] = _choose(P[0], i, norm, d6[i], d8, d10, ops)
    return d, deg, s


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
    g, n = A.shape[:2]
    if g == 0 or n == 0:
        return A.copy()
    if n == 1:
        return np.exp(A)
    # A, A^2, A^4, A^6 of the balanced slices, and one scratch stack.
    P = np.empty((4, g, n, n))
    work = np.empty((g, n, n))
    P[0] = A
    d, deg, s = _scaling(P, work)

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
            d[flip] = 1.0 / d[flip]

    # Sorted by degree, then by s, each degree is a contiguous block and
    # the slices still squaring at step j are a suffix.
    order = np.lexsort((s, deg))
    if (np.diff(order) < 0).any():
        P, d, s, deg, triangular = (P[:, order], d[order], s[order], deg[order],
                                    triangular[order])
    else:
        order = None
    tri = np.flatnonzero(triangular)
    T = P[0, tri]  # a copy: the degree-13 Pade step scales P in place
    if deg[0] == deg[-1]:
        X = _pade(int(deg[0]), P, s, work)
    else:
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
    if (d != 1.0).any():
        _Stack.similarity(X, d, undo=True)
    if order is not None:
        X[order] = X.copy()
    if flip.any():
        X[flip] = X[flip].transpose(0, 2, 1)
    return X


def _expm_blocks(A_RR: np.ndarray, A_TT: np.ndarray, A_TR: np.ndarray) -> tuple:
    """exp of the block lower triangular [[A_RR, 0], [A_TR, blockdiag(A_TT)]].

    A_RR is r x r, A_TT the (tail, m, m) diagonal blocks and A_TR the
    (tail, m, r) coupling; returns F_RR, F_TT and F_TR of the same shapes.
    `expm`'s algorithm carried out in `_Blocks` form, with one (m, s) for
    the whole matrix: balancing and `_scaling`, one structured Pade solve
    and s structured squarings.
    """
    tail, m, r = A_TR.shape
    ops = _Blocks(r, tail, m)
    P = np.empty((4, 1, ops.size))
    work = np.empty((1, ops.size))
    for block, value in zip(ops.split(P[0]), (A_RR, A_TT, A_TR)):
        block[...] = value
    d, deg, s = _scaling(P, work, ops)
    X = _pade(int(deg[0]), P, s, work, ops)
    for _ in range(s[0]):
        X, work = ops.mul(X, X, out=work), X
    ops.similarity(X, d, undo=True)
    return ops.split(X)


def _output_steps(t_final: float, dt_out: float) -> int:
    """Steps of the output grid j dt_out, j = 0..steps, ending at or before t_final.

    A grid point within 1e-9 (relative) of t_final counts as reaching it.
    """
    steps = int(round(t_final / dt_out))
    if abs(steps * dt_out - t_final) > 1e-9 * max(t_final, 1.0):
        steps = math.floor(t_final / dt_out)
    return steps


def integrate(loop: ClosedLoop, z0: np.ndarray, t_final: float,
              dt_out: float) -> Trajectory:
    """Propagate the closed loop `loop` exactly on the output grid.

    z0 holds the (M, m) modal coefficients; the trajectory records every
    dt_out from 0 up to the last grid point at or before t_final
    (`_output_steps`).

    The step matrix exp(dt_out A) keeps the block form of `loop`: F_RR is
    `expm` of dt A_RR alone, with its own scaling, and F_TT and F_TR come
    from `_expm_blocks`, or from the stacked `expm` of the tail blocks when
    no mode is retained.  The retained block steps with F_RR, the drive
    F_TR z_R on every tail mode is one product over all steps, and the tail
    recurrence is summed by a doubling scan over the steps with powers of
    the m x m blocks of F_TT.
    """
    z0 = np.asarray(z0, dtype=float)
    M, m = z0.shape
    tail, r = len(loop.A_TT), len(loop.A_RR)
    R = M - tail
    steps = _output_steps(t_final, dt_out)
    A_RR = loop.A_RR * dt_out
    F_RR = expm(A_RR[None])[0]
    if R and tail:
        _, F_TT, F_TR = _expm_blocks(A_RR, loop.A_TT * dt_out, loop.A_TR * dt_out)
    else:
        F_TT, F_TR = expm(loop.A_TT * dt_out), np.zeros((tail, m, r))

    Z_R = np.empty((steps + 1, r))
    Z_R[0] = z0[:R].reshape(-1)
    F_RR_T = np.ascontiguousarray(F_RR.T)
    for j in range(steps):
        np.dot(Z_R[j], F_RR_T, out=Z_R[j + 1])

    # Tail modes obey x_{j+1} = F_TT x_j + F_TR z_R(j).  Load X[..., j]
    # with what enters at sample j, then sum the recurrence as a doubling
    # scan: after the pass with shift s, X[..., j] holds the terms of the
    # last 2s samples, each carried forward by the matching power of F_TT.
    X = np.empty((tail, m, steps + 1))
    X[:, :, 0] = z0[R:]
    X[:, :, 1:] = (F_TR.reshape(tail * m, r) @ Z_R[:-1].T).reshape(tail, m, steps)
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


def certificate_bound_holds(traj: Trajectory, M_cert: float, delta: float) -> bool:
    """Check ||z(t)|| <= M_cert exp(-delta t) ||z(0)|| at every sample."""
    bound = M_cert * np.exp(-delta * traj.times) * traj.l2_norm[0]
    return bool(np.all(traj.l2_norm <= bound * (1.0 + _BOUND_SLACK) + _NORM_FLOOR))


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
    lam = extend_basis(basis, N).lam[:N]
    T, _ = mode_transform(family, lam)
    H = closed_blocks(plant, controller.K_Q, lam)
    A_cl = mode_blocks(plant, lam)  # mode-n closed-loop blocks, -lam_n D + Q + B Kbar_n
    A_cl[:, 0, :] += controller.Kbar[:N]

    # Block n of every product acts on z_n alone: (N, m, samples) stacks.
    Z = traj.modal[:, :N, :].transpose(1, 2, 0)
    samples = len(traj.times)
    defect = (T @ A_cl - H @ T) @ Z
    target = H @ (T @ Z)
    worst = float(np.max(np.linalg.norm(defect.reshape(-1, samples), axis=0)))
    scale = max(_NORM_FLOOR,
                float(np.max(np.linalg.norm(target.reshape(-1, samples), axis=0))))
    return worst / scale


def reconstruct_field(traj: Trajectory, basis: SpectralBasis, grid) -> np.ndarray:
    """Partial-sum fields z_i(t, x), shape (T, m, len(grid))."""
    return expand(traj.modal, basis, grid)


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
        traj.fitted_decay = estimate_decay(traj)
    except ZeroNorm:
        traj.fitted_decay = float("inf")
    return traj


# ---------------------------------------------------------------------------
# CSV export.  Full-precision reals, byte for byte ",".join(map(repr, row)),
# formatted by model._csv_lines.  Blocks hold about _VALUES_PER_BLOCK values,
# which keeps the memory of the byte buffers small next to the arrays being
# written.

_VALUES_PER_BLOCK = 8192


def _write_csv(path: str, header: str, steps: int, width: int, table) -> None:
    """Atomically write the header line, then the lines of table(start, stop).

    table(start, stop) is the 2-D float table of time steps start..stop-1,
    `width` values per step.
    """
    block = max(1, _VALUES_PER_BLOCK // max(1, width))
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for start in range(0, steps, block):
            fh.write(_csv_lines(table(start, min(start + block, steps))))


def export_modal_csv(traj: Trajectory, path: str) -> None:
    """Header t, z_{i}_{n} for component i of mode n."""
    cols = ["t"] + [f"z_{i + 1}_{n + 1}" for n in range(traj.n_modes)
                    for i in range(traj.m)]
    t = traj.times
    Z = traj.modal.reshape(len(t), -1)
    _write_csv(path, ",".join(cols), len(t), 1 + Z.shape[1],
               lambda a, b: np.column_stack([t[a:b], Z[a:b]]))


def export_field_csv(traj: Trajectory, basis: SpectralBasis, grid, path: str) -> None:
    """Long format: t, x, z1..zm."""
    fields = reconstruct_field(traj, basis, grid)
    t = traj.times
    x = np.asarray(grid, dtype=float)

    def table(a, b):
        return np.column_stack([np.repeat(t[a:b], x.size), np.tile(x, b - a),
                                fields[a:b].transpose(0, 2, 1).reshape(-1, traj.m)])

    header = "t,x," + ",".join(f"z{i + 1}" for i in range(traj.m))
    _write_csv(path, header, len(t), x.size * (2 + traj.m), table)


def export_norms_csv(traj: Trajectory, M_cert: float, delta: float, path: str) -> None:
    """Columns t, l2norm, bound with bound = M_cert exp(-delta t) ||z(0)||."""
    z0 = traj.l2_norm[0]
    # One scalar exp per sample: a vectorized exp may round differently, and
    # the file's bytes must not depend on that.
    bound = [float(M_cert * np.exp(-delta * t) * z0) for t in traj.times]
    table = np.column_stack([traj.times, traj.l2_norm, bound])
    _write_csv(path, "t,l2norm,bound", len(table), 3, lambda a, b: table[a:b])
