"""Uncertainty sets over edge/clause weight vectors and their exact
worst-case oracles.

Four set kinds, all living in per-term weight space (dimension m = number of
edges, arcs, or clauses):

* ``singleton``    -- one fixed weight vector;
* ``polyhedral``   -- {w : A w >= b, w >= 0}, worst case by simplex LP with a
  matching explicit dual (max b.p s.t. A^T p <= coef, p >= 0) for
  cross-checking strong duality.  An axis-aligned box (one nonzero per row,
  one lower and one upper bound per weight, as :func:`box_spec` writes it)
  is recognised once per set and answered in closed form, without a
  tableau: its worst case for any coef >= 0 is the lower corner;
* ``ellipsoidal``  -- {w : (w-w0)^T Q^{-1} (w-w0) <= a}, worst case in closed
  form  w* = w0 - sqrt(a) Q coef / ||Q^{1/2} coef||  (boundary-active).  A
  diagonal Q is recognised once per set: validation sorts its diagonal
  instead of an eigendecomposition, and Q coef and Q^{1/2} become
  elementwise products;
* ``wasserstein``  -- ball of radius r0 around an empirical distribution on a
  finite support, under a ground metric; the worst-case *mean* weight vector
  comes from a small transport LP over couplings.

The oracle argument ``coef`` is the per-term coefficient vector of the
(relaxed) objective, i.e. the inner problem is  min_w  coef . w  over the set.
Coefficients are nonnegative for every scheme this package produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .instances import DomainError, Instance, ParseError
from .numerics import (FeasibleTableau, InfeasibleError, LpProblem, UnboundedError,
                       simplex_solve, sqrt_psd, sqrt_psd_diagonal)

SINGLETON = "singleton"
POLYHEDRAL = "polyhedral"
ELLIPSOIDAL = "ellipsoidal"
WASSERSTEIN = "wasserstein"
SET_KINDS = (SINGLETON, POLYHEDRAL, ELLIPSOIDAL, WASSERSTEIN)

_ZERO_COEF = 1e-14


@dataclass
class UncertaintySpec:
    kind: str
    # singleton
    weights: Optional[np.ndarray] = None
    # polyhedral
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    # ellipsoidal
    w0: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    a: float = 0.0
    # wasserstein
    support: Optional[np.ndarray] = None
    empirical: Optional[np.ndarray] = None
    radius: float = 0.0
    metric: Optional[np.ndarray] = None
    auto_metric: bool = False  # metric was derived as d_ij = ||s_i - s_j||_1
    # (defining fields, value) caches built on first use and rebuilt when a
    # defining field is reassigned; not part of the set's value.  _lp: the
    # FeasibleTableau of the LP region (_feasible_tableau); _box: a box's
    # (lower, upper) or None (_box_view); _diag: diag(Q) or None (_diag_view)
    _lp: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _box: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _diag: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __eq__(self, other) -> bool:
        """Value equality: same kind and equal defining fields, array fields
        compared element-wise with :func:`numpy.array_equal`."""
        if not isinstance(other, UncertaintySpec):
            return NotImplemented
        for f in fields(self):
            if not f.compare:
                continue
            x, y = getattr(self, f.name), getattr(other, f.name)
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                if not np.array_equal(x, y):
                    return False
            elif x != y:
                return False
        return True

    def dim(self) -> int:
        """Dimension of the weight space the set lives in."""
        if self.kind == SINGLETON:
            return len(self.weights)
        if self.kind == POLYHEDRAL:
            return self.A.shape[1]
        if self.kind == ELLIPSOIDAL:
            return len(self.w0)
        return self.support.shape[1]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def singleton_spec(weights) -> UncertaintySpec:
    return UncertaintySpec(kind=SINGLETON, weights=np.asarray(weights, dtype=float))


def polyhedral_spec(A, b) -> UncertaintySpec:
    return UncertaintySpec(kind=POLYHEDRAL, A=np.atleast_2d(np.asarray(A, dtype=float)),
                           b=np.atleast_1d(np.asarray(b, dtype=float)))


def box_spec(lower, upper) -> UncertaintySpec:
    """Polyhedral box {l <= w <= u} as stacked rows (w >= l, -w >= -u); the
    oracles recognise the rows and answer in closed form (:func:`_box_view`)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m = len(lower)
    eye = np.eye(m)
    return polyhedral_spec(np.vstack([eye, -eye]), np.concatenate([lower, -upper]))


def ellipsoidal_spec(w0, Q, a) -> UncertaintySpec:
    return UncertaintySpec(kind=ELLIPSOIDAL, w0=np.asarray(w0, dtype=float),
                           Q=np.atleast_2d(np.asarray(Q, dtype=float)), a=float(a))


def wasserstein_spec(support, empirical, radius, metric="l1") -> UncertaintySpec:
    support = np.atleast_2d(np.asarray(support, dtype=float))
    auto = isinstance(metric, str)
    if auto:
        if metric != "l1":
            raise DomainError(f"metric: unknown auto-metric {metric!r}")
        metric_m = np.abs(support[:, None, :] - support[None, :, :]).sum(axis=2)
    else:
        metric_m = np.atleast_2d(np.asarray(metric, dtype=float))
    return UncertaintySpec(kind=WASSERSTEIN, support=support,
                           empirical=np.asarray(empirical, dtype=float),
                           radius=float(radius), metric=metric_m, auto_metric=auto)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_set(spec: UncertaintySpec, inst: Instance | None = None,
                 m: int | None = None) -> ValidationReport:
    """Check structural and domain invariants; returns every violation found.

    After a clean validation each set kind is a nonempty, bounded subset of
    the nonnegative orthant (distributions, for wasserstein).
    """
    v: list[str] = []
    if m is None and inst is not None:
        m = inst.m
    if spec.kind not in SET_KINDS:
        return ValidationReport(False, [f"kind: unknown set kind {spec.kind!r}"])
    dim = spec.dim()
    if m is not None and dim != m:
        v.append(f"dim: set dimension {dim} != instance term count {m}")

    if spec.kind == SINGLETON:
        if np.any(spec.weights < 0.0):
            v.append("weights: negative entry in singleton weights")
    elif spec.kind == POLYHEDRAL:
        if spec.b.shape != (spec.A.shape[0],):
            v.append(f"b: expected shape ({spec.A.shape[0]},), got {spec.b.shape}")
        else:
            # declared per-coordinate lower bounds (rows proportional to
            # +e_i) must not rely on the implicit w >= 0 clamp
            mask = np.abs(spec.A) > 1e-12
            rows = np.flatnonzero(np.count_nonzero(mask, axis=1) == 1)
            cols = np.argmax(mask[rows], axis=1) if rows.size else rows  # the one entry
            keep = spec.A[rows, cols] > 0.0
            rows, cols = rows[keep], cols[keep]
            lower = spec.b[rows] / spec.A[rows, cols]
            for r in np.flatnonzero(lower < -1e-9):
                v.append(f"polyhedron: negative declared lower bound "
                         f"{float(lower[r])!r} for weight {int(cols[r])}")
            if _box_view(spec) is None:  # a box is nonempty and bounded
                try:
                    tableau = _feasible_tableau(spec)
                except InfeasibleError:
                    v.append("polyhedron: empty feasible set")
                if not v:
                    try:
                        tableau.solve(-np.ones(dim))
                    except UnboundedError:
                        v.append("polyhedron: unbounded (no finite weight cap)")
    elif spec.kind == ELLIPSOIDAL:
        q = _diag_view(spec)
        if spec.Q.shape != (dim, dim):
            v.append(f"Q: expected shape ({dim}, {dim}), got {spec.Q.shape}")
        else:
            if q is None and \
                    np.max(np.abs(spec.Q - spec.Q.T)) > 1e-9 * (1.0 + np.max(np.abs(spec.Q))):
                v.append("Q: not symmetric")
            else:
                # eigenvalues below dim * eps * lambda_max are roundoff of a
                # singular matrix; a diagonal matrix's are its sorted diagonal
                eig = np.linalg.eigvalsh(spec.Q) if q is None else np.sort(q)
                if eig[0] <= dim * np.finfo(float).eps * eig[-1]:
                    v.append(f"Q: not positive definite (min eigenvalue {eig[0]:.3e})")
        if spec.a <= 0.0:
            v.append(f"a: radius parameter must be positive, got {spec.a}")
        if not v:
            reach = spec.w0 - np.sqrt(spec.a * np.diag(spec.Q))
            if np.any(reach < -1e-9):
                k = int(np.argmin(reach))
                v.append(f"ellipsoid: negative weights reachable at index {k} "
                         f"(w0[{k}] - sqrt(a Q[{k},{k}]) = {reach[k]:.3e})")
    else:  # wasserstein
        k = spec.support.shape[0]
        if np.any(spec.support < 0.0):
            v.append("support: negative weight entry in a support point")
        if spec.empirical.shape != (k,):
            v.append(f"empirical: expected shape ({k},), got {spec.empirical.shape}")
        else:
            if np.any(spec.empirical < 0.0):
                v.append("empirical: negative probability")
            if abs(float(spec.empirical.sum()) - 1.0) > 1e-9:
                v.append(f"empirical: probabilities sum to {float(spec.empirical.sum())!r}, not 1")
        if spec.radius < 0.0:
            v.append(f"radius: must be >= 0, got {spec.radius}")
        if spec.metric.shape != (k, k):
            v.append(f"metric: expected shape ({k}, {k}), got {spec.metric.shape}")
        else:
            if np.any(spec.metric < 0.0) or np.max(np.abs(np.diag(spec.metric))) > 1e-12:
                v.append("metric: must be nonnegative with zero diagonal")
            if np.max(np.abs(spec.metric - spec.metric.T)) > 1e-12:
                v.append("metric: not symmetric")
    return ValidationReport(not v, v)


def require_valid(spec: UncertaintySpec, inst: Instance | None = None,
                  m: int | None = None) -> None:
    rep = validate_set(spec, inst, m)
    if not rep.ok:
        raise DomainError("invalid uncertainty set: " + "; ".join(rep.violations))


# ---------------------------------------------------------------------------
# worst-case oracles
# ---------------------------------------------------------------------------

def _feasible_tableau(spec: UncertaintySpec) -> FeasibleTableau:
    """Phase 1 of the set's LP region, run once per set: the rows A w >= b of
    a polyhedron, or the transport rows of a Wasserstein ball (coupling K >= 0
    flattened row-major, index i*k + j; column marginals sum_i K_ij equal the
    empirical weights; transport cost sum d_ij K_ij <= r0).

    The tableau is kept on the spec and rebuilt only when one of its defining
    fields was reassigned.  Each oracle call then runs phase 2 alone.
    """
    if spec.kind == POLYHEDRAL:
        return _cached(spec, "_lp", (spec.A, spec.b), lambda: FeasibleTableau(
            spec.A, spec.b, [">="] * spec.A.shape[0]))
    k = spec.support.shape[0]
    return _cached(spec, "_lp", (spec.empirical, spec.metric, spec.radius),
                   lambda: FeasibleTableau(
                       np.vstack([np.tile(np.eye(k), k), spec.metric.reshape(1, -1)]),
                       np.append(spec.empirical, spec.radius), ["="] * k + ["<="]))


def _cached(spec: UncertaintySpec, slot: str, key: tuple, build):
    """The value cached in `slot` for the defining fields `key` (compared by
    identity), or ``build()``, cached, when a field was reassigned."""
    memo = getattr(spec, slot)
    if memo is not None and all(x is y for x, y in zip(memo[0], key)):
        return memo[1]
    value = build()
    setattr(spec, slot, (key, value))
    return value


def _box_view(spec: UncertaintySpec) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(lower, upper) of a polyhedron that is an axis-aligned box, else None.

    The polyhedron is a box when every row of A has exactly one nonzero
    entry, each weight has at most one row with a positive entry (l = b/a)
    and exactly one with a negative entry (u = b/a), u is finite, and lower
    = max(l, 0) <= u.  ``lower`` is then the exact minimizer of coef . w for
    every coef >= 0.  Every other polyhedron keeps the tableau.
    """
    return _cached(spec, "_box", (spec.A, spec.b), lambda: _box_bounds(spec.A, spec.b))


def _box_bounds(A: np.ndarray, b: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """:func:`_box_view` for the rows A w >= b."""
    nonzero = A != 0.0
    if A.ndim != 2 or b.shape != (A.shape[0],) or np.any(nonzero.sum(axis=1) != 1):
        return None
    m = A.shape[1]
    rows = np.arange(A.shape[0])
    cols = np.argmax(nonzero, axis=1)
    a = A[rows, cols]
    pos, neg = a > 0.0, a < 0.0
    if np.any(np.bincount(cols[pos], minlength=m) > 1) or \
            np.any(np.bincount(cols[neg], minlength=m) != 1):
        return None
    l = np.zeros(m)
    upper = np.empty(m)
    with np.errstate(over="ignore"):  # an infinite bound makes no box (below)
        l[cols[pos]] = b[rows[pos]] / a[pos]
        upper[cols[neg]] = b[rows[neg]] / a[neg]
    lower = np.maximum(l, 0.0) + 0.0  # + 0.0: the tableau's zeros are +0.0
    if not np.all(np.isfinite(upper)) or np.any(lower > upper):
        return None
    return lower, upper


def _diag_view(spec: UncertaintySpec) -> Optional[np.ndarray]:
    """diag(Q) when Q is square with no off-diagonal nonzero, else None."""
    return _cached(spec, "_diag", (spec.Q,), lambda: _diagonal(spec.Q))


def _diagonal(Q: np.ndarray) -> Optional[np.ndarray]:
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        return None
    q = np.diagonal(Q)
    return q.copy() if np.count_nonzero(Q) == np.count_nonzero(q) else None


def _check_coef(spec: UncertaintySpec, coef, rows: bool = False) -> np.ndarray:
    """`coef` of shape (dim,), or (B, dim) with `rows`, clipped at 0; a
    DomainError for any other shape or an entry below -1e-9."""
    coef = np.asarray(coef, dtype=float)
    dim = spec.dim()
    if coef.shape[-1:] != (dim,) or coef.ndim != 1 + rows:
        want = f"(B, {dim})" if rows else f"({dim},)"
        raise DomainError(f"coef: expected shape {want}, got {coef.shape}")
    if np.any(coef < -1e-9):
        raise DomainError(f"coef: negative coefficient {coef.min():.3e}")
    return np.clip(coef, 0.0, None)


def worst_case_weights(spec: UncertaintySpec, coef) -> tuple[np.ndarray, float]:
    """Exact minimizer of coef . w over the set; returns (w*, value).

    A zero coefficient vector is degenerate (every point is optimal); the
    documented representative is returned: the singleton point, the
    polyhedron's Bland-first feasible vertex, the ellipsoid center, or the
    empirical mean.
    """
    coef = _check_coef(spec, coef)
    degenerate = float(coef.max(initial=0.0)) <= _ZERO_COEF

    if spec.kind == SINGLETON:
        w = spec.weights.copy()
        return w, float(coef @ w)

    if spec.kind == POLYHEDRAL:
        box = _box_view(spec)
        if box is not None:
            return box[0].copy(), float(coef @ box[0])
        res = _feasible_tableau(spec).solve(coef)
        return res.x, res.value

    if spec.kind == ELLIPSOIDAL:
        if degenerate:
            return spec.w0.copy(), 0.0
        q = _q_times(spec, coef)
        denom = float(np.sqrt(coef @ q))
        w = spec.w0 - np.sqrt(spec.a) * q / denom
        return w, float(coef @ w)

    # wasserstein: worst mean weights
    _, mean_w, value = _worst_mean(spec, coef)
    return mean_w, value


def worst_case_values(spec: UncertaintySpec, coef_block) -> np.ndarray:
    """Minimum of c . w over the set for each row c of a B x dim block:
    the values of :func:`worst_case_weights`, row by row, to roundoff.

    Polyhedra other than boxes, and Wasserstein balls, score the block
    against the optimal bases their tableau keeps
    (:meth:`FeasibleTableau.values`); singletons, boxes and ellipsoids
    evaluate their closed forms on the whole block.
    """
    C = _check_coef(spec, coef_block, rows=True)
    if spec.kind == SINGLETON:
        return C @ spec.weights
    if spec.kind == POLYHEDRAL:
        box = _box_view(spec)
        return _feasible_tableau(spec).values(C) if box is None else C @ box[0]
    out = np.zeros(len(C))
    live = C.max(axis=1, initial=0.0) > _ZERO_COEF  # degenerate rows are worth 0
    C = C[live]
    if spec.kind == ELLIPSOIDAL:
        q = _q_times(spec, C)  # row r is Q @ C[r]
        denom = np.sqrt(np.einsum("ij,ij->i", C, q))
        W = spec.w0 - np.sqrt(spec.a) * q / denom[:, None]
        out[live] = np.einsum("ij,ij->i", C, W)
    else:
        k = spec.support.shape[0]
        out[live] = _feasible_tableau(spec).values(np.repeat(C @ spec.support.T, k, axis=1))
    return out


def _q_times(spec: UncertaintySpec, C: np.ndarray) -> np.ndarray:
    """Q @ c for a vector c, or each row times Q for a block (C @ Q.T); an
    elementwise product when Q is diagonal (the same bits: the dense
    products only add zeros)."""
    q = _diag_view(spec)
    if q is not None:
        return C * q
    return spec.Q @ C if C.ndim == 1 else C @ spec.Q.T


def _root_times(spec: UncertaintySpec, X: np.ndarray) -> np.ndarray:
    """Q^{1/2} @ x for a vector x, or each row times Q^{1/2} for a block
    (X @ Q^{1/2}.T), with the root of :func:`sqrt_psd`; an elementwise
    product with :func:`sqrt_psd_diagonal` when Q is diagonal."""
    q = _diag_view(spec)
    if q is not None:
        return X * sqrt_psd_diagonal(q)
    root = sqrt_psd(spec.Q)
    return root @ X if X.ndim == 1 else X @ root.T


def ellipsoid_root_norm(spec: UncertaintySpec, coef: np.ndarray) -> float:
    """||Q^{1/2} coef|| for an ellipsoidal set."""
    return float(np.linalg.norm(_root_times(spec, coef)))


def worst_case_mean(spec: UncertaintySpec, coef) -> tuple[np.ndarray, np.ndarray, float]:
    """Worst distribution inside a Wasserstein ball for a linear objective.

    Minimizes  sum_i p_i (coef . s_i)  over distributions p on the support
    whose transport distance to the empirical distribution is at most the
    radius.  Solved as an LP over couplings K >= 0 with column marginals fixed
    to the empirical weights and transport cost sum d_ij K_ij <= r0 (phase 1
    shared by every call on the set, see :func:`_feasible_tableau`).  Returns
    (p*, mean weights, value).
    """
    if spec.kind != WASSERSTEIN:
        raise DomainError(f"worst_case_mean: set kind is {spec.kind}")
    return _worst_mean(spec, _check_coef(spec, coef))


def _worst_mean(spec: UncertaintySpec, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`worst_case_mean` for a coefficient vector already checked."""
    k = spec.support.shape[0]
    if float(coef.max(initial=0.0)) <= _ZERO_COEF:
        p = spec.empirical.copy()
        return p, spec.support.T @ p, 0.0
    costs = spec.support @ coef  # cost of landing on each support point
    res = _feasible_tableau(spec).solve(np.repeat(costs, k))  # cost of K_ij: costs_i
    K = res.x.reshape(k, k)
    p = K.sum(axis=1)
    return p, spec.support.T @ p, float(costs @ p)


def dual_polyhedral_value(spec: UncertaintySpec, coef) -> float:
    """Value of the dual LP  max b.p  s.t.  A^T p <= coef, p >= 0.

    Equals the primal worst case by strong duality; computed through an
    independent, cold simplex run (no shared tableau) for cross-checking.
    """
    if spec.kind != POLYHEDRAL:
        raise DomainError(f"dual_polyhedral_value: set kind is {spec.kind}")
    coef = _check_coef(spec, coef)
    res = simplex_solve(LpProblem(-spec.b, spec.A.T, coef, ["<="] * spec.dim()))
    return -res.value


# ---------------------------------------------------------------------------
# feasible sampling (for certification sweeps)
# ---------------------------------------------------------------------------

def sample_feasible(spec: UncertaintySpec, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    """Draw `count` feasible weight vectors (mean weights for wasserstein).

    Any feasible point serves the certification sweeps, so each kind draws
    the cheapest way it has:

    * a box: uniform on [lower, upper], ``lower + U (upper - lower)`` with
      ``U = rng.random((count, m))``;
    * an ellipsoid: uniform in the ball, through Q^{1/2};
    * a Wasserstein ball: the mean of the mixture (1 - lam) p_hat + lam e_i
      that moves the share lam of every atom's mass to one atom i, drawn
      uniformly, with lam uniform on [0, min(1, r / cost_i)) where cost_i =
      sum_j p_hat_j d_ij is the cost of moving all the mass to i;
    * any other polyhedron: hit-and-run (2 m steps between samples) from the
      tableau's vertex for a zero cost.
    """
    dim = spec.dim()
    if spec.kind == SINGLETON:
        return np.tile(spec.weights, (count, 1))

    if spec.kind == ELLIPSOIDAL:
        z = rng.standard_normal((count, dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        rho = rng.random(count) ** (1.0 / dim)
        pts = spec.w0 + _root_times(spec, np.sqrt(spec.a) * (rho[:, None] * z))
        return np.clip(pts, 0.0, None)  # clip roundoff-level negatives

    if spec.kind == POLYHEDRAL:
        box = _box_view(spec)
        if box is not None:
            lower, upper = box
            return lower + rng.random((count, dim)) * (upper - lower)
        w = _feasible_tableau(spec).solve(np.zeros(dim)).x
        out = np.empty((count, dim))
        for t in range(count):
            for _ in range(2 * dim):  # a few hit-and-run steps between samples
                d = rng.standard_normal(dim)
                lo, hi = _chord(spec.A, spec.b, w, d)
                if hi <= lo:
                    continue
                w = w + rng.uniform(lo, hi) * d
            out[t] = np.clip(w, 0.0, None)
        return out

    # wasserstein: an atom within r of all the mass (cost_i <= r, 0 included)
    # can take all of it
    k = spec.support.shape[0]
    emp_mean = spec.support.T @ spec.empirical
    cost = spec.metric @ spec.empirical
    reach = np.divide(spec.radius, cost, out=np.ones(k), where=cost > spec.radius)
    atom = rng.integers(k, size=count)
    lam = rng.random(count) * reach[atom]
    return emp_mean + lam[:, None] * (spec.support[atom] - emp_mean)


def _chord(A: np.ndarray, b: np.ndarray, w: np.ndarray, d: np.ndarray,
           eps: float = 1e-12) -> tuple[float, float]:
    """Step range t so that w + t d stays in {A x >= b, x >= 0}."""
    # every row, of A x >= b and of x >= 0 alike, reads slack + t * rate >= 0;
    # rows with |rate| <= eps do not bound t
    rate = np.concatenate([A @ d, d])
    slack = np.concatenate([A @ w - b, w])
    down = rate < -eps
    up = rate > eps
    hi = float(np.min(slack[down] / -rate[down], initial=np.inf))
    lo = float(np.max(-slack[up] / rate[up], initial=-np.inf))
    return lo, hi


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spec_from_dict(d: dict) -> UncertaintySpec:
    if not isinstance(d, dict):
        raise ParseError("spec: expected a JSON object")
    kind = d.get("kind")
    if kind not in SET_KINDS:
        raise ParseError(f"kind: expected one of {SET_KINDS}, got {kind!r}")
    try:
        if kind == SINGLETON:
            return singleton_spec(_numbers(d, "weights", _VECTOR))
        if kind == POLYHEDRAL:
            return polyhedral_spec(_numbers(d, "A", _MATRIX), _numbers(d, "b", _VECTOR))
        if kind == ELLIPSOIDAL:
            return ellipsoidal_spec(_numbers(d, "w0", _VECTOR), _numbers(d, "Q", _MATRIX),
                                    _numbers(d, "a", _NUMBER))
        metric = d.get("metric", "l1")
        if not isinstance(metric, str):
            metric = _numbers(d, "metric", _MATRIX)
        return wasserstein_spec(_numbers(d, "support", _MATRIX),
                                _numbers(d, "empirical", _VECTOR),
                                _numbers(d, "radius", _NUMBER), metric)
    except KeyError as exc:
        raise ParseError(f"spec field missing: {exc.args[0]}") from exc


# a spec field's form and the array dimensions it accepts; a matrix of lower
# dimension is promoted by numpy.atleast_2d
_NUMBER, _VECTOR, _MATRIX = "a number", "a list of numbers", "a matrix of numbers"
_NDIM = {_NUMBER: (0,), _VECTOR: (1,), _MATRIX: (0, 1, 2)}


def _numbers(d: dict, key: str, form: str) -> np.ndarray:
    """Field `key` as a float array of the dimensions `form` accepts; a
    ParseError names the field, or the first entry that is not a finite
    number (JSON text may carry NaN and Infinity)."""
    try:
        arr = np.asarray(d[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected numbers ({exc})") from exc
    if arr.ndim not in _NDIM[form]:
        raise ParseError(f"{key}: expected {form}, got an array of shape {arr.shape}")
    finite = np.isfinite(arr)
    if not np.all(finite):
        at = tuple(int(i) for i in np.argwhere(~finite)[0]) if arr.ndim else ()
        index = "".join(f"[{i}]" for i in at)
        raise ParseError(f"{key}{index}: not a finite number ({float(arr[at])})")
    return arr


def parse_spec(text: str) -> UncertaintySpec:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"spec JSON: {exc}") from exc
    return spec_from_dict(d)


def spec_to_dict(spec: UncertaintySpec) -> dict:
    d: dict = {"kind": spec.kind}
    if spec.kind == SINGLETON:
        d["weights"] = spec.weights.tolist()
    elif spec.kind == POLYHEDRAL:
        d["A"] = spec.A.tolist()
        d["b"] = spec.b.tolist()
    elif spec.kind == ELLIPSOIDAL:
        d["w0"] = spec.w0.tolist()
        d["Q"] = spec.Q.tolist()
        d["a"] = spec.a
    else:
        d["support"] = spec.support.tolist()
        d["empirical"] = spec.empirical.tolist()
        d["radius"] = spec.radius
        d["metric"] = "l1" if spec.auto_metric else spec.metric.tolist()
    return d


def spec_to_json(spec: UncertaintySpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=2) + "\n"


def load_spec(path: str) -> UncertaintySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
