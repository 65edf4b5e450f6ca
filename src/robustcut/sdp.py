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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .instances import DomainError, Instance


@dataclass
class GramFactor:
    """Unit-column factor U (shape rank x ncols), its columns laid out as
    :attr:`instances.Instance.reference` says."""

    U: np.ndarray

    @property
    def rank(self) -> int:
        return self.U.shape[0]

    @property
    def ncols(self) -> int:
        return self.U.shape[1]


@dataclass
class SolveReport:
    value: float
    iterations: int
    residual: float
    converged: bool
    restarts: int = 1   # starts run
    restart: int = 0    # index of the start that gave `value`


def default_rank(ncols: int) -> int:
    """ceil(sqrt(2 n)) + 1: above the barrier where low-rank ascent admits
    spurious local maxima."""
    return int(math.ceil(math.sqrt(2.0 * ncols))) + 1


def _check_factor(inst: Instance, factor: GramFactor) -> np.ndarray:
    U = np.asarray(factor.U, dtype=float)
    if U.ndim != 2 or U.shape[1] != inst.ncols:
        raise DomainError(f"factor: expected {inst.ncols} columns for {inst.kind}, "
                          f"got shape {U.shape}")
    return U


def term_gram_coefficients(inst: Instance, factor: GramFactor) -> np.ndarray:
    """Per-term relaxation coefficients at a factor (the factor multiplying
    each weight in the relaxed objective); they reduce to
    :func:`instances.term_coefficients` at integral factors.  They are >= 0
    up to roundoff for maxcut and allequal; a dicut entry is
    (||u0 + u_i - u_j||^2 - 1)/8 >= -1/8, and the callers in :mod:`robust`
    clip it at 0 (``_saddle_loop``, ``inner_worst`` and both reformulated
    values; ROADMAP item 1)."""
    U = _check_factor(inst, factor)
    c0, term, a, b, beta = inst.pair_table
    dots = np.einsum("ri,ri->i", U[:, a], U[:, b])
    return c0 + np.bincount(term, beta * dots, minlength=inst.m)


def relaxed_value(inst: Instance, factor: GramFactor, w: np.ndarray) -> float:
    """Relaxation objective at (factor, w)."""
    w = np.asarray(w, dtype=float)
    return float(term_gram_coefficients(inst, factor) @ w)


def _weight_matrix(inst: Instance, w: np.ndarray) -> np.ndarray:
    """C(w): the symmetric matrix with objective sum_t w_t c0 + <C, U^T U>/2."""
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.m,):
        raise DomainError(f"weights: expected shape ({inst.m},), got {w.shape}")
    _, term, a, b, beta = inst.pair_table
    ncols = inst.ncols
    C = np.bincount(a * ncols + b, w[term] * beta,
                    minlength=ncols * ncols).reshape(ncols, ncols)
    return C + C.T


def objective_gradient(inst: Instance, factor: GramFactor, w: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the relaxed objective in the factor columns."""
    U = _check_factor(inst, factor)
    return U @ _weight_matrix(inst, w)


def _random_unit_columns(rank: int, ncols: int, rng: np.random.Generator) -> np.ndarray:
    U = rng.standard_normal((rank, ncols))
    U /= np.linalg.norm(U, axis=0)
    return U


@dataclass(frozen=True, eq=False)
class _Sweep:
    """Block-coordinate ascent at fixed weights, by colour class: calling it
    on U runs one sweep in place, :meth:`value` reads the objective."""

    # per class: its columns and their rows of C(w), the diagonal zeroed;
    # unscaled, so a sweep at weights near the float limit overflows as the
    # column-by-column sweep did
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    # the objective's terms over `scale`, a power of two near max |w|, so the
    # value overflows only at its last product: C(w) / scale with the
    # diagonal kept, and c0 * sum(w) / scale
    C: np.ndarray
    base: float
    scale: float

    def __call__(self, U: np.ndarray) -> None:
        for cols, rows in self.blocks:
            G = U @ rows.T
            nrm = np.sqrt((G * G).sum(axis=0))
            if np.count_nonzero(nrm) == nrm.size:
                U[:, cols] = G / nrm
            else:  # a column whose local term is zero stays put
                live = nrm > 0.0
                U[:, cols[live]] = G[:, live] / nrm[live]

    def value(self, U: np.ndarray) -> float:
        """sum_t w_t c0 + <C(w), U^T U>/2 at the factor U."""
        return self.scale * (self.base + 0.5 * float(np.vdot(U, U @ self.C)))


def _ascent_pass(inst: Instance, w: np.ndarray) -> _Sweep:
    """The block-coordinate sweep at weights `w`.  It visits the colour
    classes of :attr:`instances.Instance.colour_classes` in turn and sets
    every column u_i of a class at once to the unit vector maximizing its
    local linear term, U C[:, i] / ||U C[:, i]|| with C's diagonal zeroed.
    Columns of a class share no pair, so this is the column-by-column sweep
    in class order.  A column whose C row is zero is skipped, and one whose
    local term is zero stays put."""
    C = _weight_matrix(inst, w)
    w = np.asarray(w, dtype=float)
    off = np.count_nonzero(C, axis=0) > (np.diagonal(C) != 0.0)  # an off-diagonal entry
    blocks = []
    for cls in inst.colour_classes:
        cols = cls[off[cls]]
        if cols.size:
            rows = C[cols]
            rows[np.arange(cols.size), cols] = 0.0
            blocks.append((cols, rows))
    top = float(np.max(np.abs(w), initial=0.0))
    scale = 2.0 ** (math.frexp(top)[1] - 1) if top > 0.0 else 1.0
    return _Sweep(tuple(blocks), C / scale,
                  inst.pair_table[0] * float(np.sum(w / scale)), scale)


def solve_elliptope_max(inst: Instance, w: np.ndarray, rank: int = 0,
                        tol: float = 1e-9, max_iter: int = 2000,
                        restarts: int = 3, seed: int = 0,
                        start: GramFactor | None = None) -> tuple[GramFactor, SolveReport]:
    """Maximize the relaxed objective over the elliptope at fixed weights.

    Runs `restarts` seeded random starts (plus an optional warm start, which
    counts as start 0) of block-coordinate ascent and keeps the best; the
    report names the starts run and the winning one.  Converged means the
    relative objective improvement of a full sweep stayed below `tol` for two
    consecutive sweeps before `max_iter` was hit.  The report's value is the
    objective as the stall test reads it from C(w), equal to
    :func:`relaxed_value` up to roundoff.  Identical (instance, w, seed, rank)
    inputs reproduce the factor bitwise.
    """
    w = np.asarray(w, dtype=float)
    ncols = inst.ncols
    if rank <= 0:
        rank = default_rank(ncols)
    step = _ascent_pass(inst, w)  # checks the shape of w

    def run(U0: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        U = U0.copy()
        val = step.value(U)
        stall = 0
        residual = 0.0
        for sweep in range(1, max_iter + 1):
            before = U.copy()
            step(U)
            new = step.value(U)
            residual = abs(new - val) / max(1.0, abs(new))
            val = new
            if np.array_equal(U, before):  # exact fixed point
                return U, SolveReport(val, sweep, 0.0, True)
            if residual < tol:
                stall += 1
                if stall >= 2:
                    return U, SolveReport(val, sweep, residual, True)
            else:
                stall = 0
        return U, SolveReport(val, max_iter, residual, False)

    starts: list[np.ndarray] = []
    if start is not None:
        U0 = _check_factor(inst, start).copy()
        if U0.shape[0] != rank:
            pad = np.zeros((rank, ncols))
            r = min(rank, U0.shape[0])
            pad[:r] = U0[:r]
            nrm = np.linalg.norm(pad, axis=0)
            dead = nrm == 0.0
            if np.any(dead):  # column lost all mass in truncation
                pad[0, dead] = 1.0
                nrm[dead] = 1.0
            U0 = pad / nrm
        starts.append(U0)
    for r in range(restarts):
        rng = streams.stream(seed, streams.TAG_SOLVER_INIT, r)
        starts.append(_random_unit_columns(rank, ncols, rng))
    if not starts:
        rng = streams.stream(seed, streams.TAG_SOLVER_INIT, 0)
        starts.append(_random_unit_columns(rank, ncols, rng))

    best_U = None
    best_rep = None
    for r, U0 in enumerate(starts):
        U, rep = run(U0)
        if best_rep is None or rep.value > best_rep.value:
            best_U, best_rep = U, rep
            rep.restart = r
    assert best_U is not None and best_rep is not None
    best_rep.restarts = len(starts)
    return GramFactor(best_U), best_rep
