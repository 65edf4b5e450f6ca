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
  tableau: its worst case is the corner at the upper bound where a
  coefficient is negative and at the lower bound elsewhere;
* ``ellipsoidal``  -- {w : (w-w0)^T Q^{-1} (w-w0) <= a}, worst case in closed
  form  w* = w0 - sqrt(a) Q coef / ||Q^{1/2} coef||  (boundary-active).  A
  diagonal Q is recognised once per set: validation sorts its diagonal
  instead of an eigendecomposition, and Q coef and Q^{1/2} become
  elementwise products;
* ``wasserstein``  -- ball of radius r0 around an empirical distribution on a
  finite support, under a ground metric; the worst distribution, whose mean
  is the worst-case weight vector, comes in closed form: the greedy optimum
  of a fractional multiple-choice knapsack (:func:`_worst_distributions`).
  No LP is built for it.

The oracle argument ``coef`` is the per-term coefficient vector of the
(relaxed) objective, i.e. the inner problem is  min_w  coef . w  over the set.
The oracles take coefficients of either sign, as they come: relaxed dicut
coefficients reach -1/8 (:func:`sdp.term_gram_coefficients`), and clipping
them at 0 would solve a surrogate that lies above the relaxation.

One kernel, :func:`_worst_block`, holds the per-kind inner minimum for a
block of coefficient rows.  :func:`worst_case_weights` and
:func:`worst_case_mean` pass it one row, :func:`worst_case_values` a block,
and each row of a block carries the bits of the same vector scored alone.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .instances import DomainError, ParseError, _frozen, read_text
from .numerics import (FeasibleTableau, InfeasibleError, UnboundedError,
                       simplex_solve, sqrt_psd, sqrt_psd_diagonal)

SINGLETON = "singleton"
POLYHEDRAL = "polyhedral"
ELLIPSOIDAL = "ellipsoidal"
WASSERSTEIN = "wasserstein"
SET_KINDS = (SINGLETON, POLYHEDRAL, ELLIPSOIDAL, WASSERSTEIN)

_ZERO_COEF = 1e-14

# a spec field's form and the array dimensions the parser accepts; a matrix of
# lower dimension is promoted by numpy.atleast_2d, except that an empty list
# is the (0, 0) matrix
_NUMBER, _VECTOR, _MATRIX = "a number", "a list of numbers", "a matrix of numbers"
_NDIM = {_NUMBER: (0,), _VECTOR: (1,), _MATRIX: (0, 1, 2)}

# each kind's defining fields and their forms, in parse order; the last axis
# of the first field is the dimension of the weight space
_FIELDS = {
    SINGLETON: (("weights", _VECTOR),),
    POLYHEDRAL: (("A", _MATRIX), ("b", _VECTOR)),
    ELLIPSOIDAL: (("w0", _VECTOR), ("Q", _MATRIX), ("a", _NUMBER)),
    WASSERSTEIN: (("support", _MATRIX), ("empirical", _VECTOR), ("radius", _NUMBER),
                  ("metric", _MATRIX)),
}


@dataclass(frozen=True, eq=False)
class UncertaintySpec:
    """An uncertainty set: a frozen value of its kind and the kind's defining
    fields (:data:`_FIELDS`), the others left at their defaults.

    On construction numbers become floats and arrays become read-only float
    views (vectors at least 1-D, matrices at least 2-D, an empty list the
    (0, 0) matrix) of what was passed in; a float array is not copied, so a
    caller must not write to an array it passed.
    A set with ``auto_metric`` builds its metric from the support, d_ij =
    ||s_i - s_j||_1.  Change a set with :func:`dataclasses.replace`, which
    builds a new one.  The derived forms (box bounds, diag(Q), a polyhedron's
    phase-1 tableau, a Wasserstein ball's transport tables, the term counts a
    clean validation was for) are built on first use and kept on the set;
    they are not part of its value.
    """

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
    auto_metric: bool = False

    def __post_init__(self):
        if self.auto_metric:
            s = np.atleast_2d(np.asarray(self.support, dtype=float))
            object.__setattr__(self, "metric",
                               np.abs(s[:, None, :] - s[None, :, :]).sum(axis=2))
        for name, form in _FIELDS.get(self.kind, ()):
            value = getattr(self, name)
            if form == _NUMBER:
                value = float(value)
            else:
                value = np.asarray(value, dtype=float)
                if form == _MATRIX and value.shape == (0,):
                    value = value.reshape(0, 0)  # [] has no rows, not one empty row
                promote = np.atleast_2d if form == _MATRIX else np.atleast_1d
                value = _frozen(promote(value).view())
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        """Value equality: same kind and equal defining fields, array fields
        compared element-wise with :func:`numpy.array_equal`."""
        if not isinstance(other, UncertaintySpec):
            return NotImplemented
        for f in fields(self):
            x, y = getattr(self, f.name), getattr(other, f.name)
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                if not np.array_equal(x, y):
                    return False
            elif x != y:
                return False
        return True

    def dim(self) -> int:
        """Dimension of the weight space the set lives in."""
        return getattr(self, _FIELDS[self.kind][0][0]).shape[-1]

    @functools.cached_property
    def _box(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(lower, upper) of a polyhedron that is an axis-aligned box, else None.

        The polyhedron is a box when every row of A has exactly one nonzero
        entry, each weight has at most one row with a positive entry (l = b/a)
        and exactly one with a negative entry (u = b/a), u is finite, and
        lower = max(l, 0) <= u.  The exact minimizer of coef . w is then the
        corner chosen by sign: ``upper`` where coef < 0, ``lower`` elsewhere.
        Every other polyhedron keeps the tableau.
        """
        A, b = self.A, self.b
        nonzero = A != 0.0
        if A.ndim != 2 or b.shape != (A.shape[0],) or np.any(nonzero.sum(axis=1) != 1):
            return None
        m = A.shape[1]
        rows = np.arange(A.shape[0])
        cols = np.argmax(nonzero, axis=1) if m else rows  # no rows when m = 0
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
        return _frozen(lower), _frozen(upper)

    @functools.cached_property
    def _diag(self) -> Optional[np.ndarray]:
        """diag(Q) when Q is square with no off-diagonal nonzero, else None."""
        Q = self.Q
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            return None
        q = np.diagonal(Q)
        return _frozen(q.copy()) if np.count_nonzero(Q) == np.count_nonzero(q) else None

    @functools.cached_property
    def _transport(self) -> tuple[np.ndarray, np.ndarray]:
        """A Wasserstein ball's constant tables for :func:`_worst_distributions`:
        dist[j, i], the radius a unit of mass moved j -> i spends (the metric
        transposed, its diagonal zeroed), and the reciprocal of the rise
        dist[j, i] - dist[j, v] at [j, v, i] where the rise is positive, else
        0.  Rises below 1e-200 count as 1e-200, so no reciprocal overflows."""
        k = self.metric.shape[0]
        dist = self.metric.T.copy()
        dist.flat[::k + 1] = 0.0
        rise = dist[:, None, :] - dist[:, :, None]
        per_rise = np.divide(1.0, np.maximum(rise, 1e-200), out=np.zeros_like(rise),
                             where=rise > 0.0)
        return _frozen(dist), _frozen(per_rise)

    @functools.cached_property
    def _tableau(self) -> FeasibleTableau:
        """Phase 1 of a polyhedron's rows A w >= b; each oracle call runs
        phase 2 alone.  Boxes (:attr:`_box`) and the other set kinds build
        none."""
        return FeasibleTableau(self.A, self.b, [">="] * self.A.shape[0])

    @functools.cached_property
    def _validated(self) -> set:
        """The term counts a clean validation was for (:func:`require_valid`)."""
        return set()


def singleton_spec(weights) -> UncertaintySpec:
    return UncertaintySpec(SINGLETON, weights=weights)


def polyhedral_spec(A, b) -> UncertaintySpec:
    return UncertaintySpec(POLYHEDRAL, A=A, b=b)


def box_spec(lower, upper) -> UncertaintySpec:
    """Polyhedral box {l <= w <= u} as stacked rows (w >= l, -w >= -u); the
    oracles recognise the rows and answer in closed form
    (:attr:`UncertaintySpec._box`)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m = len(lower)
    eye = np.eye(m)
    return polyhedral_spec(np.vstack([eye, -eye]), np.concatenate([lower, -upper]))


def ellipsoidal_spec(w0, Q, a) -> UncertaintySpec:
    return UncertaintySpec(ELLIPSOIDAL, w0=w0, Q=Q, a=a)


def wasserstein_spec(support, empirical, radius, metric="l1") -> UncertaintySpec:
    auto = isinstance(metric, str)
    if auto and metric != "l1":
        raise DomainError(f"metric: unknown auto-metric {metric!r}")
    return UncertaintySpec(WASSERSTEIN, support=support, empirical=empirical, radius=radius,
                           metric=None if auto else metric, auto_metric=auto)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_set(spec: UncertaintySpec, m: int | None = None) -> list[str]:
    """Check structural and domain invariants; returns every violation found,
    so an empty list means the set is valid.

    After a clean validation each set kind is a nonempty, bounded subset of
    the nonnegative orthant (distributions, for wasserstein).  A defining
    field of more dimensions than its form allows, or with a NaN or an
    infinity, is reported, naming the field, before anything else is
    checked.  With `m`, the set's dimension must be that term count.
    """
    if spec.kind not in SET_KINDS:
        return [f"kind: unknown set kind {spec.kind!r}"]
    v = [bad for bad in (_field_error(name, np.asarray(getattr(spec, name)), form)
                         for name, form in _FIELDS[spec.kind]) if bad]
    if v:
        return v
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
            if spec._box is None:  # a box is nonempty and bounded
                try:
                    tableau = spec._tableau
                except InfeasibleError:
                    v.append("polyhedron: empty feasible set")
                if not v:
                    try:
                        tableau.solve(-np.ones(dim))
                    except UnboundedError:
                        v.append("polyhedron: unbounded (no finite weight cap)")
    elif spec.kind == ELLIPSOIDAL:
        q = spec._diag
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
                if eig.size and eig[0] <= dim * np.finfo(float).eps * eig[-1]:
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
    return v


def require_valid(spec: UncertaintySpec, m: int | None = None) -> None:
    """Raise :class:`DomainError` naming every violation :func:`validate_set`
    finds.  A set that passed is not checked again for the same term count."""
    if m in spec._validated:
        return
    violations = validate_set(spec, m=m)
    if violations:
        raise DomainError("invalid uncertainty set: " + "; ".join(violations))
    spec._validated.add(m)


# ---------------------------------------------------------------------------
# worst-case oracles
# ---------------------------------------------------------------------------

def _check_coef(spec: UncertaintySpec, coef, rows: bool = False) -> np.ndarray:
    """`coef` as a float array of shape (dim,), or (B, dim) with `rows`; a
    DomainError for any other shape.  The result may be the caller's
    array."""
    coef = np.asarray(coef, dtype=float)
    dim = spec.dim()
    if coef.shape[-1:] != (dim,) or coef.ndim != 1 + rows:
        want = f"(B, {dim})" if rows else f"({dim},)"
        raise DomainError(f"coef: expected shape {want}, got {coef.shape}")
    return coef


def worst_case_weights(spec: UncertaintySpec, coef) -> tuple[np.ndarray, float]:
    """Exact minimizer of coef . w over the set; returns (w*, value).  For a
    Wasserstein ball w* is the mean of the worst distribution
    (:func:`worst_case_mean`).

    A zero coefficient vector is degenerate (every point is optimal); the
    documented representative is returned: the singleton point, the
    polyhedron's Bland-first feasible vertex, the ellipsoid center, or the
    empirical mean.
    """
    values, W, P = _worst_block(spec, _check_coef(spec, coef)[None])
    w = spec.support.T @ P[0] if W is None else W[0].copy()
    return w, float(values[0])


def worst_case_values(spec: UncertaintySpec, coef_block) -> np.ndarray:
    """Minimum of c . w over the set for each row c of a B x dim block; each
    value has the bits :func:`worst_case_weights` gives for its row alone."""
    return _worst_block(spec, _check_coef(spec, coef_block, rows=True))[0]


def worst_case_mean(spec: UncertaintySpec, coef) -> tuple[np.ndarray, np.ndarray, float]:
    """Worst distribution inside a Wasserstein ball for a linear objective.

    Minimizes  sum_i p_i (coef . s_i)  over distributions p on the support
    whose transport distance to the empirical distribution is at most the
    radius, in closed form (:func:`_worst_distributions`), with no LP.
    Returns (p*, mean weights, value); the value is costs . p*.  A zero
    coefficient vector returns the empirical distribution and value 0.
    """
    if spec.kind != WASSERSTEIN:
        raise DomainError(f"worst_case_mean: set kind is {spec.kind}")
    values, _, P = _worst_block(spec, _check_coef(spec, coef)[None])
    return P[0], spec.support.T @ P[0], float(values[0])


def _worst_block(spec: UncertaintySpec, C: np.ndarray,
                 ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The inner minimum for each row of a checked (B, dim) block: (values,
    worst weights W, worst distributions P).  W is None for a Wasserstein
    ball, P for every other kind.

    Every sum over a row is :func:`numpy.vecdot` on C-ordered rows, numpy's
    dot loop, the one ``a @ b`` runs for two vectors; every other step is
    elementwise or row by row, so a row's bits do not depend on the block
    around it.  A polyhedron that is not a box runs phase 2 of its tableau
    for each row, and a box takes each row's corner by sign.  An ellipsoid
    or Wasserstein row whose largest entry in absolute value is at most
    ``_ZERO_COEF`` is degenerate: it is worth 0 at the center or the
    empirical distribution.
    """
    C = np.ascontiguousarray(C)
    if spec.kind == POLYHEDRAL and spec._box is None:
        res = [spec._tableau.solve(c) for c in C]
        return (np.array([r.value for r in res]),
                np.array([r.x for r in res]).reshape(C.shape), None)
    if spec.kind == SINGLETON:
        return np.vecdot(C, spec.weights), np.broadcast_to(spec.weights, C.shape), None
    if spec.kind == POLYHEDRAL:
        lower, upper = spec._box
        W = np.where(C < 0.0, upper, lower)
        return np.vecdot(C, W), W, None
    live = np.abs(C).max(axis=1, initial=0.0) > _ZERO_COEF
    if spec.kind == ELLIPSOIDAL:
        q = C * spec._diag if spec._diag is not None else np.vecdot(C[:, None], spec.Q)
        # a degenerate row is divided by inf, which leaves it at the center
        denom = np.where(live, np.sqrt(np.vecdot(C, q)), np.inf)
        W = spec.w0 - np.sqrt(spec.a) * q / denom[:, None]
        return np.where(live, np.vecdot(C, W), 0.0), W, None
    costs = np.vecdot(C[:, None], spec.support)  # cost of landing on each support point
    P = np.where(live[:, None], _worst_distributions(spec, costs), spec.empirical)
    return np.where(live, np.vecdot(costs, P), 0.0), None, P


def ellipsoid_root_norm(spec: UncertaintySpec, coef: np.ndarray) -> float:
    """||Q^{1/2} coef|| for an ellipsoidal set, with the root of
    :func:`sqrt_psd`; an elementwise product with :func:`sqrt_psd_diagonal`
    when Q is diagonal."""
    q = spec._diag
    root_coef = coef * sqrt_psd_diagonal(q) if q is not None else sqrt_psd(spec.Q) @ coef
    return float(np.linalg.norm(root_coef))


def _worst_distributions(spec: UncertaintySpec, costs: np.ndarray) -> np.ndarray:
    """The worst distribution in a Wasserstein ball for each row of a (B, k)
    block of atom costs: a minimizer of costs . p within transport distance
    r of the empirical distribution.

    The problem is a fractional multiple-choice knapsack with one budget row
    (Gao & Kleywegt 2016), solved greedily.  Each atom's mass first moves for
    free to the cheapest atom at distance 0 (it stays on ties).  From there
    it can walk the lower convex hull of the points {(d_ij, cost_i)}; a hull
    segment spends the mass times its length of the radius.  The segments of
    all atoms are taken in slope order, steepest first, until the radius is
    spent, the last one in part.  Hull points are often collinear (costs and
    the l1 auto-metric are both linear in the atoms), so roundoff can make a
    later segment of a walk look steeper: slopes are made nondecreasing along
    each walk and sorted stably, so no segment goes before the one that
    brings its mass.
    """
    B, k = costs.shape
    n = k * k - k  # segments in a row: k - 1 for each atom's walk
    atom = np.arange(k)
    dist, per_rise = spec._transport
    fall = costs[:, None, :] - costs[:, :, None]  # [b, v, i]: costs[b, i] - costs[b, v]
    down = fall < 0.0
    # slope[b, j, v, i] < 0 exactly for a move v -> i of atom j's walk to a
    # farther, cheaper atom; the steepest is the next hull vertex after v
    slope = fall[:, None] * per_rise
    after = slope.argmin(axis=3).ravel()  # tables over (b, j, v), flattened
    steep = slope.ravel().take(np.arange(0, B * k ** 3, k) + after)
    after = np.where(steep < 0.0, after, np.arange(B * k * k) % k)  # no move: stay at v
    start = np.where(down & (dist == 0.0), fall, np.inf)
    start[:, atom, atom] = 0.0
    row = (np.arange(B)[:, None] * k + atom) * k  # index of (b, j, 0) in the tables
    walk = np.empty((B, k, k), dtype=np.intp)  # hull vertices, the last one repeated
    walk[:, :, 0] = start.argmin(axis=2)
    for t in range(1, k):
        walk[:, :, t] = after.take(row + walk[:, :, t - 1])
    steps = steep.take(row[:, :, None] + walk[:, :, :-1])  # 0 once a walk has ended
    np.maximum.accumulate(steps, axis=2, out=steps)
    order = steps.reshape(B, n).argsort(axis=1, kind="stable") + np.arange(B)[:, None] * n
    at = dist.ravel().take(atom[:, None] * k + walk)
    spend = ((at[:, :, 1:] - at[:, :, :-1]) * spec.empirical[:, None]).ravel().take(order)
    spent = spend.cumsum(axis=1)  # shifted below: the radius spent before each segment
    spent[:, 1:] = spent[:, :-1]
    spent[:, :1] = 0.0
    share = np.divide(spec.radius - spent, spend, out=np.zeros_like(spend), where=spend > 0.0)
    done = np.empty(B * n)
    done[order] = np.minimum(np.maximum(share, 0.0), 1.0)
    # taken[t]: the share of an atom's mass that reaches vertex t of its walk
    # (nonincreasing in t); what reaches t and goes no further stays there
    taken = np.concatenate([np.ones((B, k, 1)), done.reshape(B, k, k - 1),
                            np.zeros((B, k, 1))], axis=2)
    stays = (taken[:, :, :-1] - taken[:, :, 1:]) * spec.empirical[:, None]
    p = np.bincount((walk + (row // k - atom)[:, :, None]).ravel(), stays.ravel(),
                    minlength=B * k)
    return p.reshape(B, k)


def dual_polyhedral_value(spec: UncertaintySpec, coef) -> float:
    """Value of the dual LP  max b.p  s.t.  A^T p <= coef, p >= 0.

    Equals the primal worst case by strong duality; computed through an
    independent, cold simplex run (no shared tableau) for cross-checking.
    """
    if spec.kind != POLYHEDRAL:
        raise DomainError(f"dual_polyhedral_value: set kind is {spec.kind}")
    coef = _check_coef(spec, coef)
    res = simplex_solve(-spec.b, spec.A.T, coef, ["<="] * spec.dim())
    return -res.value


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spec_from_dict(d: dict) -> UncertaintySpec:
    """The set a JSON object describes: its kind's fields (:data:`_FIELDS`)
    parsed in table order; a Wasserstein ``metric`` may be omitted or the
    name of an auto-metric."""
    if not isinstance(d, dict):
        raise ParseError("spec: expected a JSON object")
    kind = d.get("kind")
    if kind not in SET_KINDS:
        raise ParseError(f"kind: expected one of {SET_KINDS}, got {kind!r}")
    metric = d.get("metric", "l1")
    try:
        args = {name: _numbers(d, name, form) for name, form in _FIELDS[kind]
                if name != "metric" or not isinstance(metric, str)}
    except KeyError as exc:
        raise ParseError(f"spec field missing: {exc.args[0]}") from exc
    if kind == WASSERSTEIN:
        return wasserstein_spec(**{"metric": metric, **args})
    return UncertaintySpec(kind, **args)


def _numbers(d: dict, key: str, form: str) -> np.ndarray:
    """Field `key` as a float array; a ParseError names the field, with
    :func:`_field_error`'s message when it has the wrong dimensions or an
    entry that is not a finite number (JSON text may carry NaN and
    Infinity)."""
    try:
        arr = np.asarray(d[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{key}: expected numbers ({exc})") from exc
    bad = _field_error(key, arr, form)
    if bad:
        raise ParseError(bad)
    return arr


def _field_error(key: str, arr: np.ndarray, form: str) -> Optional[str]:
    """A message naming field `key` when `arr` has dimensions its `form` does
    not accept, or naming its first entry that is not finite; else None."""
    if arr.ndim not in _NDIM[form]:
        return f"{key}: expected {form}, got an array of shape {arr.shape}"
    finite = np.isfinite(arr)
    if np.all(finite):
        return None
    at = tuple(int(i) for i in np.argwhere(~finite)[0]) if arr.ndim else ()
    index = "".join(f"[{i}]" for i in at)
    return f"{key}{index}: not a finite number ({float(arr[at])})"


def parse_spec(text: str) -> UncertaintySpec:
    try:
        d = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond 4,300 digits
        raise ParseError(f"spec JSON: {exc}") from exc
    return spec_from_dict(d)


def spec_to_dict(spec: UncertaintySpec) -> dict:
    d: dict = {"kind": spec.kind}
    for name, form in _FIELDS[spec.kind]:
        value = getattr(spec, name)
        d[name] = value if form == _NUMBER else value.tolist()
    if spec.auto_metric:
        d["metric"] = "l1"
    return d


def spec_to_json(spec: UncertaintySpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=2) + "\n"


def load_spec(path: str, data: bytes | None = None) -> UncertaintySpec:
    """Load a set from a JSON file; `data` is the file's bytes when the
    caller has already read them."""
    return parse_spec(read_text(path, data))
