"""Low-rank semidefinite relaxation solver.

The relaxation replaces each +-1 variable by a unit vector u_i; the feasible
set is the elliptope {Y psd, diag Y = 1} represented through its Gram factor
U (columns u_i).  For a fixed weight vector the objective is linear in Y:

* maxcut:   sum_e w_e (1 - u_i.u_j)/2
* dicut:    sum_a w_a (1 + u0.u_i - u0.u_j - u_i.u_j)/4   (u0 = reference column)
* allequal: sum_C w_C ||sum_{i in C} s_i u_i||^2 / k^2

Every kind's per-term coefficient is affine in the Gram matrix,
coef_t = c0 + sum_p beta_p <u_a(p), u_b(p)>, and the instance stores it once
as a pair table (:attr:`instances.Instance.pair_table`):

=========  ====  ===========================================================
kind       c0    pairs (a, b): beta
=========  ====  ===========================================================
maxcut     1/2   (i, j): -1/2
dicut      1/4   (0, i+1): +1/4, (0, j+1): -1/4, (i+1, j+1): -1/4
allequal   0     literal pairs a <= b of a clause: (2 - [a = b]) s_a s_b / k^2
=========  ====  ===========================================================

The table scatters w[term] * beta into a symmetric ncols x ncols matrix C(w)
with objective sum_t w_t c0 + <C(w), U^T U>/2, so the Euclidean gradient is
U C(w).  Block-coordinate ascent (the mixing method of Wang, Chang & Kolter
2017 on the Burer-Monteiro factor) sets each column to the unit vector along
U C[:, i] with C's diagonal zeroed, which maximizes its local linear term and
is monotone in the objective.  Columns that share no pair do not enter each
other's local terms, so a sweep visits the instance's colour classes
(:attr:`instances.Instance.colour_classes`, a greedy colouring of the pairs
in column order) and updates each class in one product U C[class]^T: the
column-by-column sweep in class order, with a few numpy calls per class
instead of per column.  The stall test reads the objective after each sweep
from the same C(w), as sum_t w_t c0 + <U, U C(w)>/2 (diagonal kept), scaled
by a power of two so that it overflows only where the objective does;
reported values come from :func:`relaxed_value`.  With rank
ceil(sqrt(2n)) + 1 and a few random restarts this reliably reaches the global
optimum at the scales this package targets.

One code path runs every ascent: :func:`stacked_ascent` takes a stack of R
(weights, start) members and runs each colour class for all live members in
one product, one norm and one division; a member leaves the stack when its
own stop rule fires.  Each member's products are its own matmul inside the
stacked one, so its factor and report are bit for bit those of a stack of
one.  :func:`solve_elliptope_max` stacks its restarts at one weight vector;
the saddle loop of :mod:`robust` stacks the polishes of its restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import streams
from .instances import DomainError, Instance


@dataclass
class SolveReport:
    value: float
    iterations: int
    residual: float
    converged: bool
    restarts: int = 1   # starts run
    restart: int = 0    # index of the start that gave `value`
    stop: str = ""      # the saddle loop's stop rule that fired (robust)
    gap: Optional[float] = None  # its last certified relative gap, if any


def default_rank(ncols: int) -> int:
    """ceil(sqrt(2 n)) + 1: above the barrier where low-rank ascent admits
    spurious local maxima."""
    return int(math.ceil(math.sqrt(2.0 * ncols))) + 1


def _check_factor(inst: Instance, U) -> np.ndarray:
    """The factor U as a float array of the instance's (rank, ncols) shape."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != inst.ncols:
        raise DomainError(f"factor: expected {inst.ncols} columns for {inst.kind}, "
                          f"got shape {U.shape}")
    return U


def pair_gram(inst: Instance, U) -> np.ndarray:
    """The Gram entry <u_a, u_b> of the factor U for each pair (a, b) of
    :attr:`instances.Instance.pair_table`."""
    U = _check_factor(inst, U)
    _, _, a, b, _ = inst.pair_table
    return np.einsum("ri,ri->i", U[:, a], U[:, b])


def term_gram_coefficients(inst: Instance, U: np.ndarray) -> np.ndarray:
    """Per-term relaxation coefficients at a factor (the factor multiplying
    each weight in the relaxed objective); they reduce to
    :func:`instances.term_coefficients` at integral factors.  They are >= 0
    up to roundoff for maxcut and allequal; a dicut entry is
    (||u0 + u_i - u_j||^2 - 1)/8 >= -1/8, and the inner oracles take it
    signed, so the saddle loop solves the relaxation itself, which is
    concave in the Gram matrix."""
    c0, term, _, _, beta = inst.pair_table
    return c0 + np.bincount(term, beta * pair_gram(inst, U), minlength=inst.m)


def relaxed_value(inst: Instance, U: np.ndarray, w: np.ndarray) -> float:
    """Relaxation objective at (U, w)."""
    w = np.asarray(w, dtype=float)
    return float(term_gram_coefficients(inst, U) @ w)


def _weight_matrix(inst: Instance, w: np.ndarray) -> np.ndarray:
    """C(w): the symmetric matrix with objective sum_t w_t c0 + <C, U^T U>/2."""
    _, term, a, b, beta = inst.pair_table
    ncols = inst.ncols
    C = np.bincount(a * ncols + b, w[term] * beta,
                    minlength=ncols * ncols).reshape(ncols, ncols)
    return C + C.T


def _check_weights(inst: Instance, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.m,):
        raise DomainError(f"weights: expected shape ({inst.m},), got {w.shape}")
    return w


def objective_gradient(inst: Instance, U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the relaxed objective in the factor columns."""
    U = _check_factor(inst, U)
    return U @ _weight_matrix(inst, _check_weights(inst, w))


def _random_unit_columns(rank: int, ncols: int, rng: np.random.Generator) -> np.ndarray:
    U = rng.standard_normal((rank, ncols))
    U /= np.linalg.norm(U, axis=0)
    return U


@dataclass(frozen=True, eq=False)
class _Sweep:
    """Block-coordinate ascent at fixed weights for a stack of R members, by
    colour class: calling it on an (R, rank, ncols) stack of factors runs one
    sweep of every member in place, :meth:`values` reads their objectives.
    Every product is a per-member matmul, so a member's bits do not depend on
    the others."""

    # per class: its columns and the members' rows of C(w), diagonal zeroed
    # and transposed, (R, ncols, k); unscaled, so a sweep at weights near the
    # float limit overflows as the column-by-column sweep did
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    # the objective's terms over `scale`, a power of two near max |w| per
    # member, so the value overflows only at its last product: C(w) / scale
    # with the diagonal kept, (R, ncols, ncols), and c0 * sum(w) / scale
    C: np.ndarray
    base: list[float]
    scale: list[float]

    def __call__(self, U: np.ndarray) -> None:
        for cols, rows in self.blocks:
            G = U @ rows
            nrm = np.sqrt(np.add.reduce(G * G, axis=-2, keepdims=True))
            if np.count_nonzero(nrm) == nrm.size:
                U[..., cols] = G / nrm
            else:  # a column whose local term is zero stays put
                block = U[..., cols]
                np.divide(G, nrm, out=block, where=nrm > 0.0)
                U[..., cols] = block

    def values(self, U: np.ndarray) -> list[float]:
        """sum_t w_t c0 + <C(w), U^T U>/2 for each member of the stack U."""
        return [s * (b + 0.5 * float(np.vdot(u, uc)))
                for u, uc, s, b in zip(U, U @ self.C, self.scale, self.base)]

    def take(self, keep: list[int]) -> "_Sweep":
        """The sweep of the members `keep`, in that order."""
        return _Sweep(tuple((cols, rows.transpose(0, 2, 1)[keep].swapaxes(-1, -2))
                            for cols, rows in self.blocks),
                      self.C[keep], [self.base[r] for r in keep],
                      [self.scale[r] for r in keep])


def _ascent_pass(inst: Instance, W: np.ndarray) -> _Sweep:
    """The block-coordinate sweep at each row of an (R, m) weight stack `W`.
    It visits the colour classes of :attr:`instances.Instance.colour_classes`
    in turn and sets every column u_i of a class at once to the unit vector
    maximizing its local linear term, U C[:, i] / ||U C[:, i]|| with C's
    diagonal zeroed.  Columns of a class share no pair, so this is the
    column-by-column sweep in class order.  A column in no pair with another
    column is skipped, and one whose local term is zero stays put."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != inst.m or len(W) == 0:
        raise DomainError(f"weights: expected shape (R, {inst.m}) with R >= 1, "
                          f"got {W.shape}")
    C = np.stack([_weight_matrix(inst, w) for w in W])
    _, _, a, b, _ = inst.pair_table
    paired = np.zeros(inst.ncols, dtype=bool)
    paired[a[a != b]] = paired[b[a != b]] = True
    blocks = []
    for cls in inst.colour_classes:
        cols = cls[paired[cls]]
        if cols.size:
            rows = C.take(cols, axis=1)
            rows[:, np.arange(cols.size), cols] = 0.0
            blocks.append((cols, rows.swapaxes(-1, -2)))
    top = np.max(np.abs(W), axis=1, initial=0.0)
    scale = np.where(top > 0.0, np.ldexp(1.0, np.frexp(top)[1] - 1), 1.0)
    base = inst.pair_table[0] * np.sum(W / scale[:, None], axis=1)
    return _Sweep(tuple(blocks), C / scale[:, None, None], base.tolist(), scale.tolist())


ASCENT_TOL = 1e-9  # a sweep that gains less than this, relative, stalls


def stacked_ascent(inst: Instance, W: np.ndarray, starts: np.ndarray,
                   max_iter: int = 2000, tols: Optional[Sequence[float]] = None,
                   ) -> tuple[np.ndarray, list[SolveReport]]:
    """Block-coordinate ascent for a stack of R independent members: member r
    maximizes the relaxed objective at the weights W[r] (W is (R, m)) from the
    unit-column factor starts[r] (starts is (R, rank, ncols)).

    Each sweep updates every live member in one product per colour class.  A
    member leaves the stack when its own stop rule fires: converged means the
    relative objective improvement of a full sweep stayed below its stop
    tolerance tols[r] (default :data:`ASCENT_TOL`) for two consecutive
    sweeps, or the sweep moved nothing (an exact fixed point), before
    `max_iter` was hit.  So its factor and report are the ones a stack of
    one at its tolerance gives.  The report's value is the
    objective as the stall test reads it from C(w), equal to
    :func:`relaxed_value` up to roundoff.  Returns the (R, rank, ncols)
    factors and the members' reports.
    """
    sweep = _ascent_pass(inst, W)
    U = np.array(starts, dtype=float)
    if U.ndim != 3 or U.shape[0] != len(sweep.scale) or U.shape[2] != inst.ncols:
        raise DomainError(f"starts: expected shape ({len(sweep.scale)}, rank, "
                          f"{inst.ncols}), got {U.shape}")
    out = np.empty_like(U)
    tols = [ASCENT_TOL] * len(U) if tols is None else [float(t) for t in tols]
    if len(tols) != len(U):
        raise DomainError(f"tols: expected {len(U)} stop tolerances, got {len(tols)}")
    members = list(range(len(U)))  # the member in each row of the stack
    reports: list = [None] * len(U)
    val = sweep.values(U)
    stall = [False] * len(U)  # the last sweep's improvement was below its tol
    residual = [0.0] * len(U)
    for it in range(1, max_iter + 1):
        before = U.copy()
        sweep(U)
        new = sweep.values(U)
        keep = []
        for row, r in enumerate(members):
            residual[r] = abs(new[row] - val[row]) / max(1.0, abs(new[row]))
            # a sweep that moves nothing leaves the value's bits as they were
            if not residual[r] > 0.0 and np.array_equal(U[row], before[row]):
                reports[r] = SolveReport(new[row], it, 0.0, True)  # exact fixed point
            elif residual[r] < tols[r] and stall[r]:
                reports[r] = SolveReport(new[row], it, residual[r], True)
            else:
                stall[r] = residual[r] < tols[r]
                keep.append(row)
                continue
            out[r] = U[row]
        val = new
        if len(keep) < len(members):
            if not keep:
                return out, reports
            members = [members[row] for row in keep]
            U, sweep, val = U[keep], sweep.take(keep), [val[row] for row in keep]
    for row, r in enumerate(members):
        out[r] = U[row]
        reports[r] = SolveReport(val[row], max_iter, residual[r], False)
    return out, reports


def solve_elliptope_max(inst: Instance, w: np.ndarray, rank: int = 0,
                        max_iter: int = 2000, restarts: int = 3,
                        seed: int = 0) -> tuple[np.ndarray, SolveReport]:
    """Maximize the relaxed objective over the elliptope at fixed weights.

    Runs max(1, `restarts`) seeded random starts of block-coordinate ascent
    as one :func:`stacked_ascent` and keeps the best factor U, the earliest
    on ties; the report names the starts run and the winning one.  Identical
    (instance, w, seed, rank) inputs reproduce U bitwise.  To ascend from a
    given factor, call :func:`stacked_ascent` with a stack of one.
    """
    w = _check_weights(inst, w)
    ncols = inst.ncols
    if rank <= 0:
        rank = default_rank(ncols)
    starts = [_random_unit_columns(rank, ncols,
                                   streams.stream(seed, streams.TAG_SOLVER_INIT, r))
              for r in range(max(1, restarts))]
    U, reports = stacked_ascent(inst, np.tile(w, (len(starts), 1)), np.stack(starts),
                                max_iter)
    best = 0
    for r, rep in enumerate(reports):
        if rep.value > reports[best].value:
            best = r
    report = reports[best]
    report.restart, report.restarts = best, len(starts)
    return U[best].copy(), report
