"""Dense numerical kernels: PSD matrix square root and a two-phase simplex
solver with exact duals whose phase 1 can be kept and reused for any number
of cost vectors.

Matrices are plain ``numpy.ndarray``; everything here is deterministic for a
fixed input (no randomized pivoting, Bland's rule throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

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


PSD_TOL = 1e-10  # relative asymmetry and negative eigenvalues below it are roundoff


def sqrt_psd(Q: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_TOL*scale, 0) are clamped to zero; anything more
    negative raises :class:`NumericError`.
    """
    Q = np.asarray(Q, dtype=float)
    scale = 1.0 + (float(np.max(np.abs(Q))) if Q.size else 0.0)
    Q = _check_symmetric(Q, PSD_TOL * scale, "sqrt_psd")
    lam, V = np.linalg.eigh(Q)
    scale = max(1.0, float(lam[-1])) if lam.size else 1.0
    if lam.size and lam[0] < -PSD_TOL * scale:
        raise NumericError(f"sqrt_psd: negative eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    return (V * np.sqrt(lam)) @ V.T


def sqrt_psd_diagonal(q: np.ndarray) -> np.ndarray:
    """:func:`sqrt_psd` of the diagonal matrix diag(q), returned as the root's
    diagonal: elementwise square roots, with the same clamp and the same
    error for negative entries.  Equal bit for bit to the diagonal of
    ``sqrt_psd(np.diag(q))``, whose eigendecomposition returns q exactly."""
    q = np.asarray(q, dtype=float)
    scale = max(1.0, float(q.max())) if q.size else 1.0
    if q.size and q.min() < -PSD_TOL * scale:
        raise NumericError(f"sqrt_psd: negative eigenvalue {q.min():.3e}")
    return np.sqrt(np.clip(q, 0.0, None))


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

SENSES = (">=", "<=", "=")

PIVOT_TOL = 1e-9  # the simplex's: reduced costs above -PIVOT_TOL are optimal


def _check_region(A, b, senses):
    """Normalise and validate the constraint data of {A x (senses) b, x >= 0}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b: expected shape ({m},), got {b.shape}")
    senses = tuple(senses)
    if len(senses) != m:
        raise ValueError(f"senses: expected {m} entries, got {len(senses)}")
    for s in senses:
        if s not in SENSES:
            raise ValueError(f"senses: unknown sense {s!r}")
    return A, b, senses


def _check_cost(c, n: int) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (n,):
        raise ValueError(f"c: expected shape ({n},), got {c.shape}")
    return c


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
                 max_pivots: int) -> int:
    """Bland-rule simplex iterations on a tableau in canonical form.

    Entering: lowest-index allowed column with reduced cost < -PIVOT_TOL.
    Leaving: the row of the minimum ratio over the entries > PIVOT_TOL of
    the entering column, exact ties broken by lowest basis index.  A ratio within a
    tolerance of the minimum is no tie: that row's basic variable would go
    negative by up to the tolerance, which is as large as right-hand sides
    near 1e-9.  After each pivot the right-hand sides are clipped at 0, so
    the roundoff of the update (and the rows whose entering-column entries
    are too small to block) cannot leave a negative basic variable.  Returns
    the pivot count; raises UnboundedError when a descent column has no
    blocking row.
    """
    m = T.shape[0] - 1
    pivots = 0
    while True:
        cand_cols = np.flatnonzero(allowed & (T[-1, :-1] < -PIVOT_TOL))
        if cand_cols.size == 0:
            return pivots
        enter = int(cand_cols[0])
        col = T[:m, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            raise UnboundedError(f"unbounded: column {enter} has no blocking row")
        ratios = T[rows, -1] / col[rows]
        cand = rows[ratios == ratios.min()]
        leave = int(cand[np.argmin(basis[cand])])
        _pivot(T, basis, leave, enter)
        np.maximum(T[:m, -1], 0.0, out=T[:m, -1])
        pivots += 1
        if pivots > max_pivots:
            raise NumericError(f"simplex: pivot limit {max_pivots} exceeded")


class FeasibleTableau:
    """Phase 1 of the dense two-phase simplex for the fixed region
    {x : A x (senses) b, x >= 0}, run once.

    The constructor standardises the rows, drives the artificials out (also
    the zero-level ones where possible) and keeps the feasible tableau and
    basis; it raises :class:`InfeasibleError` when the region is empty.
    :meth:`solve` runs phase 2 for one cost vector on a copy of them, so
    every solve starts from the same phase-1 basis and no state carries over
    between solves.  ``phase1_pivots`` counts the constructor's pivots.
    """

    def __init__(self, A, b, senses):
        A, b, senses = _check_region(A, b, senses)
        m, n = A.shape
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
            pivots += _run_simplex(T, basis, np.ones(total, dtype=bool), max_pivots)
            feas = -T[-1, -1]
            if feas > 1e-7 * (1.0 + float(np.abs(b).sum())):
                raise InfeasibleError(f"infeasible: phase-1 residual {feas:.3e}")
            # pivot remaining zero-level artificials out where possible
            for i in range(m):
                if art_mask[basis[i]]:
                    cand = np.flatnonzero(~art_mask & (np.abs(T[i, :total]) > PIVOT_TOL))
                    if cand.size:
                        _pivot(T, basis, i, int(cand[0]))
                        pivots += 1

        self.phase1_pivots = pivots
        self._n = n
        self._T = T
        self._basis = basis
        self._allowed = ~art_mask  # the first ncols columns: all but the artificials
        self._ident_col = ident_col
        self._flip = flip
        self._max_pivots = max_pivots

    def solve(self, c) -> LpResult:
        """Phase 2 for  min c.x  over the region, from the phase-1 basis.

        Returns the Bland-first optimal vertex, the objective value, and one
        dual multiplier per input row (sign convention: duals of ``>=`` rows
        are >= 0, of ``<=`` rows <= 0, of ``=`` rows free, so that value =
        b.dual).  ``iterations`` counts this call's phase-2 pivots only.
        """
        n = self._n
        c = _check_cost(c, n)
        T = self._T.copy()
        basis = self._basis.copy()
        total = T.shape[1] - 1
        cost = np.zeros(total)
        cost[:n] = c
        T[-1, :total] = cost
        T[-1, -1] = 0.0
        for i in np.flatnonzero(cost[basis] != 0.0):
            T[-1] -= cost[basis[i]] * T[i]
        pivots = _run_simplex(T, basis, self._allowed, self._max_pivots)
        x_std = np.zeros(total)
        x_std[basis] = T[:-1, -1]
        x = x_std[:n] + 0.0  # a -0.0 coordinate reads +0.0
        value = float(c @ x)
        # duals read off the reduced costs of the initial identity columns
        y_tilde = -T[-1, self._ident_col]
        dual = y_tilde * self._flip
        return LpResult(x=x, value=value, dual=dual, iterations=pivots)


def simplex_solve(c, A, b, senses) -> LpResult:
    """min c.x  s.t.  A x (>=|<=|=) b  componentwise per `senses`, x >= 0,
    by the dense two-phase simplex method.

    Other bounds, if needed, are expressed as rows so that every constraint
    carries an exact dual multiplier.  One-shot use of
    :class:`FeasibleTableau`: phase 1 for the region, then phase 2 for the
    cost vector, which is checked before phase 1 runs.  ``iterations``
    counts the pivots of both phases.  Strong duality holds to machine
    precision at the returned point.
    """
    A, b, senses = _check_region(A, b, senses)
    c = _check_cost(c, A.shape[1])
    tableau = FeasibleTableau(A, b, senses)
    res = tableau.solve(c)
    res.iterations += tableau.phase1_pivots
    return res
