"""Dense numerical kernels: PSD matrix square root and a two-phase simplex
solver with exact duals whose phase 1 can be kept and reused for any number
of cost vectors.

Matrices are plain ``numpy.ndarray``; everything here is deterministic for a
fixed input (no randomized pivoting, Bland's rule throughout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """Numerical contract violation (asymmetry, indefiniteness, ...)."""


class InfeasibleError(RuntimeError):
    """LP feasible region is empty."""


class UnboundedError(RuntimeError):
    """LP objective is unbounded below."""


# ---------------------------------------------------------------------------
# PSD factorizations
# ---------------------------------------------------------------------------

def _check_symmetric(M: np.ndarray, tol: float, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericError(f"{what}: expected a square matrix, got shape {M.shape}")
    skew = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if skew > tol:
        raise NumericError(f"{what}: not symmetric (max |M - M^T| = {skew:.3e})")
    return 0.5 * (M + M.T)


def sqrt_psd(Q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-tol*scale, 0) are clamped to zero; anything more negative
    raises :class:`NumericError`.
    """
    Q = np.asarray(Q, dtype=float)
    scale = 1.0 + (float(np.max(np.abs(Q))) if Q.size else 0.0)
    Q = _check_symmetric(Q, max(tol, 1e-12) * scale, "sqrt_psd")
    lam, V = np.linalg.eigh(Q)
    scale = max(1.0, float(lam[-1])) if lam.size else 1.0
    if lam.size and lam[0] < -tol * scale:
        raise NumericError(f"sqrt_psd: negative eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    return (V * np.sqrt(lam)) @ V.T


def sqrt_psd_diagonal(q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """:func:`sqrt_psd` of the diagonal matrix diag(q), returned as the root's
    diagonal: elementwise square roots, with the same clamp and the same
    error for negative entries.  Equal bit for bit to the diagonal of
    ``sqrt_psd(np.diag(q))``, whose eigendecomposition returns q exactly."""
    q = np.asarray(q, dtype=float)
    scale = max(1.0, float(q.max())) if q.size else 1.0
    if q.size and q.min() < -tol * scale:
        raise NumericError(f"sqrt_psd: negative eigenvalue {q.min():.3e}")
    return np.sqrt(np.clip(q, 0.0, None))


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

SENSES = (">=", "<=", "=")


def _check_region(A, b, senses, lb):
    """Normalise and validate the constraint data of {A x (senses) b, x >= lb}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b: expected shape ({m},), got {b.shape}")
    senses = tuple(senses)
    if len(senses) != m:
        raise ValueError(f"senses: expected {m} entries, got {len(senses)}")
    for s in senses:
        if s not in SENSES:
            raise ValueError(f"senses: unknown sense {s!r}")
    if lb is None:
        lb = np.zeros(n)
    else:
        lb = np.asarray(lb, dtype=float)
        if lb.shape != (n,):
            raise ValueError(f"lb: expected shape ({n},), got {lb.shape}")
        if not np.all(np.isfinite(lb)):
            raise ValueError("lb: bounds must be finite")
    return A, b, senses, lb


def _check_cost(c, n: int) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (n,):
        raise ValueError(f"c: expected shape ({n},), got {c.shape}")
    return c


@dataclass
class LpProblem:
    """min c.x  s.t.  A x (>=|<=|=) b  componentwise per `senses`, x >= lb.

    Lower bounds default to zero; upper bounds, if needed, are expressed as
    rows so that every constraint carries an exact dual multiplier.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: Sequence[str]
    lb: Optional[np.ndarray] = None

    def __post_init__(self):
        self.A, self.b, self.senses, self.lb = _check_region(self.A, self.b,
                                                             self.senses, self.lb)
        self.c = _check_cost(self.c, self.A.shape[1])


@dataclass
class LpResult:
    x: np.ndarray
    value: float
    dual: np.ndarray
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * piv
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                 tol: float, max_pivots: int) -> int:
    """Bland-rule simplex iterations on a tableau in canonical form.

    Entering: lowest-index allowed column with reduced cost < -tol.  Leaving:
    minimum-ratio row, ties broken by lowest basis index.  Returns the pivot
    count; raises UnboundedError when a descent column has no blocking row.
    """
    m = T.shape[0] - 1
    pivots = 0
    while True:
        cand_cols = np.flatnonzero(allowed & (T[-1, :-1] < -tol))
        if cand_cols.size == 0:
            return pivots
        enter = int(cand_cols[0])
        col = T[:m, enter]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            raise UnboundedError(f"unbounded: column {enter} has no blocking row")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        cand = rows[ratios <= best + tol * (1.0 + abs(best))]
        leave = int(cand[np.argmin(basis[cand])])
        _pivot(T, basis, leave, enter)
        pivots += 1
        if pivots > max_pivots:
            raise NumericError(f"simplex: pivot limit {max_pivots} exceeded")


# Optimal bases a FeasibleTableau keeps for values().  A row that no kept
# basis certifies is tested against every one of them, so on regions where
# most cost vectors have their own optimal basis an unbounded list would make
# a block quadratic in the number of bases.
BASIS_CACHE = 8


class _OptimalBasis:
    """An optimal basis of a phase-2 tableau: the final rows B^-1 A of the
    basic structural variables over the allowed columns, and the vertex x."""

    def __init__(self, T: np.ndarray, basis: np.ndarray, x: np.ndarray, ncols: int):
        rows = np.flatnonzero(basis < len(x))  # basic variables with a cost
        self._cols = basis[rows]
        self._rows = T[rows, :ncols]
        self.x = x

    def certifies(self, C: np.ndarray, tol: float) -> np.ndarray:
        """Rows of C whose reduced costs here are all >= -tol."""
        reduced = -(C[:, self._cols] @ self._rows)
        reduced[:, :C.shape[1]] += C
        return np.all(reduced >= -tol, axis=1)


class FeasibleTableau:
    """Phase 1 of the dense two-phase simplex for the fixed region
    {x : A x (senses) b, x >= lb}, run once.

    The constructor standardises the rows, drives the artificials out (also
    the zero-level ones where possible) and keeps the feasible tableau and
    basis; it raises :class:`InfeasibleError` when the region is empty.
    :meth:`solve` runs phase 2 for one cost vector on a copy of them, so
    every solve starts from the same phase-1 basis and no state carries over
    between solves.  :meth:`values` scores a block of cost vectors against
    the optimal bases its earlier phase-2 runs found.  ``phase1_pivots``
    counts the constructor's pivots.
    """

    def __init__(self, A, b, senses, lb=None, tol: float = 1e-9):
        A, b, senses, lb = _check_region(A, b, senses, lb)
        m, n = A.shape
        # shift lower bounds to zero
        b = b - A @ lb
        # slack/surplus columns
        ns = sum(1 for s in senses if s != "=")
        A_std = np.zeros((m, n + ns))
        A_std[:, :n] = A
        k = n
        slack_col = [-1] * m
        for i, s in enumerate(senses):
            if s == "<=":
                A_std[i, k] = 1.0
                slack_col[i] = k
                k += 1
            elif s == ">=":
                A_std[i, k] = -1.0
                slack_col[i] = k
                k += 1
        # flip rows to make rhs nonnegative
        flip = np.where(b < 0.0, -1.0, 1.0)
        A_std *= flip[:, None]
        b = b * flip
        # initial basis: a +1 slack column where available, else an artificial
        ncols = n + ns
        ident_col = np.empty(m, dtype=int)
        basis = np.empty(m, dtype=int)
        art_cols = []
        art_extra = []
        for i in range(m):
            sc = slack_col[i]
            if sc >= 0 and A_std[i, sc] > 0.5:
                basis[i] = sc
                ident_col[i] = sc
            else:
                art_extra.append(i)
        A_full = np.zeros((m, ncols + len(art_extra)))
        A_full[:, :ncols] = A_std
        for a, i in enumerate(art_extra):
            col = ncols + a
            A_full[i, col] = 1.0
            basis[i] = col
            ident_col[i] = col
            art_cols.append(col)
        total = A_full.shape[1]
        art_mask = np.zeros(total, dtype=bool)
        art_mask[art_cols] = True

        T = np.zeros((m + 1, total + 1))
        T[:m, :total] = A_full
        T[:m, -1] = b
        max_pivots = 2000 + 50 * (m + total)

        # phase 1: drive out artificials
        pivots = 0
        if art_cols:
            T[-1, :] = 0.0
            T[-1, art_cols] = 1.0
            for i in range(m):
                if art_mask[basis[i]]:
                    T[-1] -= T[i]
            pivots += _run_simplex(T, basis, np.ones(total, dtype=bool), tol, max_pivots)
            feas = -T[-1, -1]
            if feas > 1e-7 * (1.0 + float(np.abs(b).sum())):
                raise InfeasibleError(f"infeasible: phase-1 residual {feas:.3e}")
            # pivot remaining zero-level artificials out where possible
            for i in range(m):
                if art_mask[basis[i]]:
                    cand = np.flatnonzero(~art_mask & (np.abs(T[i, :total]) > tol))
                    if cand.size:
                        _pivot(T, basis, i, int(cand[0]))
                        pivots += 1

        self.phase1_pivots = pivots
        self._lb = lb
        self._tol = tol
        self._T = T
        self._basis = basis
        self._allowed = ~art_mask  # the first ncols columns: all but the artificials
        self._ncols = ncols
        self._bases: list[_OptimalBasis] = []  # most recently used first, for values()
        self._ident_col = ident_col
        self._flip = flip
        self._max_pivots = max_pivots

    def _phase2(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Phase 2 for a checked cost vector on a copy of the phase-1 tableau;
        returns the optimal tableau, its basis and the pivot count."""
        n = len(self._lb)
        T = self._T.copy()
        basis = self._basis.copy()
        total = T.shape[1] - 1
        cost = np.zeros(total)
        cost[:n] = c
        T[-1, :total] = cost
        T[-1, -1] = 0.0
        for i in np.flatnonzero(cost[basis] != 0.0):
            T[-1] -= cost[basis[i]] * T[i]
        pivots = _run_simplex(T, basis, self._allowed, self._tol, self._max_pivots)
        return T, basis, pivots

    def _vertex(self, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
        x_std = np.zeros(T.shape[1] - 1)
        x_std[basis] = T[:-1, -1]
        return x_std[:len(self._lb)] + self._lb

    def solve(self, c) -> LpResult:
        """Phase 2 for  min c.x  over the region, from the phase-1 basis.

        Returns the Bland-first optimal vertex, the objective value, and one
        dual multiplier per input row (sign convention: duals of ``>=`` rows
        are >= 0, of ``<=`` rows <= 0, of ``=`` rows free, so that value =
        b.dual whenever lb = 0).  ``iterations`` counts this call's phase-2
        pivots only.
        """
        c = _check_cost(c, len(self._lb))
        T, basis, pivots = self._phase2(c)
        x = self._vertex(T, basis)
        value = float(c @ x)
        # duals read off the reduced costs of the initial identity columns
        y_tilde = -T[-1, self._ident_col]
        dual = y_tilde * self._flip
        return LpResult(x=x, value=value, dual=dual, iterations=pivots)

    def values(self, C) -> np.ndarray:
        """Optimal values of  min c.x  for each row c of the B x n block C.

        A row is certified by a kept optimal basis when its reduced costs on
        the allowed columns are all >= -tol (the test phase 2 stops on); its
        value is then c.x at that basis's vertex.  Rows no kept basis
        certifies run phase 2 from the phase-1 basis in row order, as
        :meth:`solve` does, and give its value bit for bit.  Each new basis
        goes to the front of the tableau's :data:`BASIS_CACHE` most recently
        used ones, and the rest of the block is tested against it.  Values of
        certified rows agree with :meth:`solve` to roundoff.
        """
        n = len(self._lb)
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != n:
            raise ValueError(f"C: expected shape (B, {n}), got {C.shape}")
        out = np.empty(len(C))
        todo = np.arange(len(C))
        used = []
        for kept in self._bases:
            if not todo.size:
                break
            ok = kept.certifies(C[todo], self._tol)
            if ok.any():
                out[todo[ok]] = C[todo[ok]] @ kept.x
                todo = todo[~ok]
                used.append(kept)
        self._bases = used + [kept for kept in self._bases if kept not in used]
        while todo.size:
            c = C[todo[0]]
            T, basis, _ = self._phase2(c)
            found = _OptimalBasis(T, basis, self._vertex(T, basis), self._ncols)
            self._bases = [found] + self._bases[:BASIS_CACHE - 1]
            out[todo[0]] = float(c @ found.x)
            todo = todo[1:]
            ok = found.certifies(C[todo], self._tol)
            out[todo[ok]] = C[todo[ok]] @ found.x
            todo = todo[~ok]
        return out


def simplex_solve(lp: LpProblem, tol: float = 1e-9) -> LpResult:
    """Solve an :class:`LpProblem` by the dense two-phase simplex method.

    One-shot use of :class:`FeasibleTableau`: phase 1 for the problem's
    region, then phase 2 for its cost vector.  ``iterations`` counts the
    pivots of both phases.  Strong duality holds to machine precision at the
    returned point.
    """
    tableau = FeasibleTableau(lp.A, lp.b, lp.senses, lp.lb, tol)
    res = tableau.solve(lp.c)
    res.iterations += tableau.phase1_pivots
    return res
