"""Low-rank semidefinite relaxation solver.

The relaxation replaces each +-1 variable by a unit vector u_i; the feasible
set is the elliptope {Y psd, diag Y = 1} represented through its Gram factor
U (columns u_i).  For a fixed weight vector the objective is linear in Y:

* maxcut:   sum_e w_e (1 - u_i.u_j)/2
* dicut:    sum_a w_a (1 + u0.u_i - u0.u_j - u_i.u_j)/4   (u0 = reference column)
* allequal: sum_C w_C ||sum_{i in C} s_i u_i||^2 / k^2

Block-coordinate ascent: each column is repeatedly set to the unit vector
maximizing its (linear) local term, which is monotone in the objective.  With
rank ceil(sqrt(2n)) + 1 and a few random restarts this reliably reaches the
global optimum at the scales this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .instances import ALLEQUAL, DICUT, MAXCUT, DomainError, Instance


@dataclass
class GramFactor:
    """Unit-column factor U (shape rank x ncols).

    For dicut factors ``reference`` is True and column 0 is the reference
    direction u0; problem vertex i lives in column i+1.  Otherwise column i
    is vertex/variable i.
    """

    U: np.ndarray
    reference: bool = False

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


def factor_columns(inst: Instance) -> int:
    return inst.n + 1 if inst.kind == DICUT else inst.n


def _check_factor(inst: Instance, factor: GramFactor) -> np.ndarray:
    U = np.asarray(factor.U, dtype=float)
    want = factor_columns(inst)
    if U.ndim != 2 or U.shape[1] != want:
        raise DomainError(f"factor: expected {want} columns for {inst.kind}, got shape {U.shape}")
    if inst.kind == DICUT and not factor.reference:
        raise DomainError("factor: dicut factor must carry a reference column")
    return U


def term_gram_coefficients(inst: Instance, factor: GramFactor) -> np.ndarray:
    """Per-term relaxation coefficients at a factor (the factor multiplying
    each weight in the relaxed objective).  All entries are >= 0 up to
    roundoff; they reduce to :func:`instances.term_coefficients` at integral
    factors."""
    U = _check_factor(inst, factor)
    if inst.kind == MAXCUT:
        i, j = inst.endpoints()
        dots = np.einsum("ri,ri->i", U[:, i], U[:, j])
        return (1.0 - dots) / 2.0
    if inst.kind == DICUT:
        i, j = inst.endpoints()
        u0 = U[:, 0]
        a = U[:, i + 1].T @ u0
        b = U[:, j + 1].T @ u0
        c = np.einsum("ri,ri->i", U[:, i + 1], U[:, j + 1])
        return (1.0 + a - b - c) / 4.0
    s = _clause_sums(inst, U)
    k = inst.arity
    return np.matmul(s[:, None, :], s[:, :, None]).reshape(inst.m) / (k * k)


def _clause_sums(inst: Instance, U: np.ndarray) -> np.ndarray:
    """Signed member sum of each clause, one row per clause (m x rank), added
    up in literal order."""
    V, S = inst.clause_arrays
    terms = S[:, :, None] * U.T[V]
    sums = np.zeros((inst.m, U.shape[0]))
    for c in range(inst.arity):
        sums += terms[:, c]
    return sums


def relaxed_value(inst: Instance, factor: GramFactor, w: np.ndarray) -> float:
    """Relaxation objective at (factor, w)."""
    w = np.asarray(w, dtype=float)
    return float(term_gram_coefficients(inst, factor) @ w)


def objective_gradient(inst: Instance, factor: GramFactor, w: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the relaxed objective in the factor columns."""
    U = _check_factor(inst, factor)
    w = np.asarray(w, dtype=float)
    G = np.zeros_like(U)
    if inst.kind == MAXCUT:
        i, j = inst.endpoints()
        half = w / 2.0
        np.add.at(G.T, i, -(half[:, None] * U[:, j].T))
        np.add.at(G.T, j, -(half[:, None] * U[:, i].T))
    elif inst.kind == DICUT:
        i, j = inst.endpoints()
        q = w / 4.0
        u0 = U[:, 0]
        np.add.at(G.T, i + 1, q[:, None] * (u0[None, :] - U[:, j + 1].T))
        np.add.at(G.T, j + 1, q[:, None] * (-u0[None, :] - U[:, i + 1].T))
        G[:, 0] += (U[:, i + 1] - U[:, j + 1]) @ q
    else:
        V, S = inst.clause_arrays
        s = _clause_sums(inst, U)
        scale = 2.0 * w[:, None] * S / float(inst.arity ** 2)
        np.add.at(G.T, V.ravel(), (scale[:, :, None] * s[:, None, :]).reshape(-1, U.shape[0]))
    return G


def _random_unit_columns(rank: int, ncols: int, rng: np.random.Generator) -> np.ndarray:
    U = rng.standard_normal((rank, ncols))
    U /= np.linalg.norm(U, axis=0)
    return U


def _set_column(U: np.ndarray, col: int, g: np.ndarray) -> bool:
    """Column update of the ascent: u_col <- g / ||g|| unless g is zero.
    Returns whether the column was set."""
    nrm = math.sqrt(g @ g)
    if nrm > 0.0:
        g /= nrm
        U[:, col] = g
        return True
    return False


def _row_sum(G: np.ndarray) -> np.ndarray:
    """The rows of G added in order onto zeros, bitwise as a loop of
    ``g += row`` would (``G.sum(axis=0)`` sums a single column pairwise)."""
    return np.cumsum(G, axis=0)[-1] + 0.0


def _ascent_pass_maxcut(U, cols):
    # cols: (vertex, neighbour columns, edge weights) of each non-isolated
    # vertex.  The new column is -g / ||g||, with the sign folded into the
    # division (bitwise the same, one array operation fewer).
    for i, nbrs, w in cols:
        g = U[:, nbrs] @ w
        nrm = math.sqrt(g @ g)
        if nrm > 0.0:
            g /= -nrm
            U[:, i] = g


def _ascent_pass_dicut(U, out_arcs, in_arcs, out_total, in_total):
    # column 0 is the reference; vertex i sits in column i+1.  out_arcs[i] /
    # in_arcs[i] is (neighbour columns, w/4) of vertex i's arcs i -> j /
    # j -> i, or None when it has none; out_total / in_total sum their w/4.
    g = np.zeros(U.shape[0])
    scaled = U[:, 1:] * out_total
    for i, arcs in enumerate(out_arcs):
        if arcs is not None:
            g += scaled[:, i] - U[:, arcs[0]] @ arcs[1]
    _set_column(U, 0, g)
    toward = np.multiply.outer(out_total, U[:, 0])
    away = np.multiply.outer(in_total, -U[:, 0])
    for i, (out, into) in enumerate(zip(out_arcs, in_arcs)):
        g = np.zeros(U.shape[0])
        if out is not None:
            g += toward[i] - U[:, out[0]] @ out[1]
        if into is not None:
            g += away[i] - U[:, into[0]] @ into[1]
        _set_column(U, i + 1, g)


def _ascent_pass_allequal(U, clause_vars, clause_signs, cols):
    # cols: (variable, its clauses, its signs there, weight * sign) of each
    # variable that occurs in a clause.  Row t of `sums` is clause t's signed
    # member sum, maintained incrementally; it starts as one batched
    # vector-matrix product per clause, bitwise equal to U[:, vars] @ signs.
    sums = np.matmul(clause_signs[:, None, :], U.T[clause_vars]).reshape(len(clause_vars), -1)
    for i, ts, ss, ws in cols:
        g = _row_sum(ws[:, None] * (sums[ts] - ss[:, None] * U[:, i]))
        old = U[:, i].copy()
        if _set_column(U, i, g):
            sums[ts] += ss[:, None] * (g - old)


def _ascent_pass(inst: Instance, w: np.ndarray):
    """One in-place block-coordinate sweep over the factor columns at weights
    `w`: each column in turn becomes the unit vector maximizing its local
    linear term."""
    if inst.kind == MAXCUT:
        cols = [(v, nbrs, w[edges])
                for v, (edges, nbrs, _) in enumerate(inst.incidence) if edges.size]
        return lambda U: _ascent_pass_maxcut(U, cols)
    if inst.kind == DICUT:
        q = w / 4.0

        def arcs(nbrs, edges):
            return (nbrs + 1, q[edges]) if edges.size else None

        out_arcs = [arcs(nbrs[:k], edges[:k]) for edges, nbrs, k in inst.incidence]
        in_arcs = [arcs(nbrs[k:], edges[k:]) for edges, nbrs, k in inst.incidence]
        out_total = np.array([a[1].sum() if a else 0.0 for a in out_arcs])
        in_total = np.array([a[1].sum() if a else 0.0 for a in in_arcs])
        return lambda U: _ascent_pass_dicut(U, out_arcs, in_arcs, out_total, in_total)
    if inst.kind == ALLEQUAL:
        V, S = inst.clause_arrays
        cols = [(v, ts, ss, w[ts] * ss)
                for v, (ts, ss) in enumerate(inst.var_clauses) if ts.size]
        return lambda U: _ascent_pass_allequal(U, V, S, cols)
    raise DomainError(f"unknown instance kind {inst.kind}")


def solve_elliptope_max(inst: Instance, w: np.ndarray, rank: int = 0,
                        tol: float = 1e-9, max_iter: int = 2000,
                        restarts: int = 3, seed: int = 0,
                        start: GramFactor | None = None) -> tuple[GramFactor, SolveReport]:
    """Maximize the relaxed objective over the elliptope at fixed weights.

    Runs `restarts` seeded random starts (plus an optional warm start, which
    counts as start 0) of block-coordinate ascent and keeps the best; the
    report names the starts run and the winning one.  Converged means the
    relative objective improvement of a full sweep stayed below `tol` for two
    consecutive sweeps before `max_iter` was hit.  Identical (instance, w,
    seed, rank) inputs reproduce the factor bitwise.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.m,):
        raise DomainError(f"weights: expected shape ({inst.m},), got {w.shape}")
    ncols = factor_columns(inst)
    if rank <= 0:
        rank = default_rank(ncols)
    step = _ascent_pass(inst, w)

    def run(U0: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        U = U0.copy()
        fac = GramFactor(U, reference=(inst.kind == DICUT))
        val = relaxed_value(inst, fac, w)
        stall = 0
        residual = 0.0
        for sweep in range(1, max_iter + 1):
            before = U.copy()
            step(U)
            new = relaxed_value(inst, fac, w)
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
    return GramFactor(best_U, reference=(inst.kind == DICUT)), best_rep
