"""Ground-truth oracles and certification.

``brute_force_robust`` enumerates every cut/assignment (2^(n-1) after fixing
the first coordinate where the objective allows it), bounds all of them at
once from the pair table at one point of the set, and scores every cut that
can still win with the exact inner minimization oracle, whose block rows are
bit for bit the one-cut values.  The bound only prunes, with a rounding
margin.  It reads the solvers' own C(w), so the tests hold the answer to a
candidate-by-candidate loop's, which shares no math with the solvers it
certifies beyond the uncertainty oracles themselves.

``certify_sandwich`` verifies, for a solved saddle and its rounding, the
two-sided guarantee:

* lower half:   the exact expected rounded value e . w at the worst weights,
  and for the graph kinds its minimum over the whole set, >= ratio *
  brute-force robust value.  e . w is linear in w, so one inner-oracle call
  on e finds the set's binding point exactly;
* upper half:   the worst-case value of any fixed rounded solution never
  exceeds the brute-force robust value,

plus the relaxation bound (solver value >= brute force) and consistency of
the reported saddle value with a fresh inner minimization at the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .instances import (ALLEQUAL, DICUT, MAXCUT, DomainError, Instance,
                        term_coefficients)
from .robust import SaddleSolution, _best_response, inner_worst
from .rounding import (ALLEQUAL_COEF, APPROX_RATIO_DICUT, APPROX_RATIO_MAXCUT,
                       expected_terms, rounding_draws)
from .sdp import _weight_matrix
from .uncertainty import (SINGLETON, UncertaintySpec, require_valid,
                          worst_case_values, worst_case_weights)

BRUTE_FORCE_LIMIT = 24
_BLOCK = 128  # rows a scoring call takes; a bound block spans _BLOCK high bit patterns
_PRUNE_REL = 1e-6  # rounding margin of the pruning bound, relative to sum_i |w_bar_i|
CERT_TOL = 1e-6  # relative slack of the relaxation-bound and saddle-consistency checks


@dataclass
class OracleResult:
    best: np.ndarray      # maximizing cut/assignment
    worst: np.ndarray     # inner minimizing weights at the maximizer
    value: float          # max-min value
    enumerated: int
    scored: int           # inner-oracle rows: the seed, then the survivors of the bound


def _bits(t: np.ndarray, width: int) -> np.ndarray:
    """The +-1 patterns of the low `width` bits of the integers t, one row
    each: entry i is +1 exactly when bit i of t is set."""
    return 2 * ((t[:, None] >> np.arange(width)) & 1) - 1


def _signs(n: int, fix_first: bool, t: np.ndarray) -> np.ndarray:
    """Rows t of the enumeration of +-1 vectors of length n, the first
    coordinate pinned to +1 when the objective is flip-symmetric: row t has
    +1 in free coordinate i exactly when bit i of t is set."""
    Y = _bits(t, n - 1 if fix_first else n)
    if fix_first:
        Y = np.hstack([np.ones((len(t), 1), dtype=Y.dtype), Y])
    return Y


def _bound_blocks(inst: Instance, w: np.ndarray) -> tuple[range, Callable[[int], np.ndarray]]:
    """The bound c0 sum(w) + x^T K x / 2 of every candidate at nonnegative
    weights w, with K = C(w) (:func:`sdp._weight_matrix`) and x the
    candidate's factor columns as +-1 scalars, in blocks of ``_BLOCK`` high
    bit patterns: the first candidate of every block, and a function from a
    block's first candidate to its bounds in enumeration order.

    Column 0 is +1 (the pinned first vertex, or di-cut's reference) and free
    bit i of a candidate is column i + 1.  The low bits L (at most
    log2 ``_BLOCK``) and the high bits H split the form into

        bound[h, l] = const + low[l] + high[h] + (X_H K_HL X_L^T)[h, l],

    so a block costs one small matmul and no candidate's coefficient row."""
    K = _weight_matrix(inst, w)
    free = inst.ncols - 1
    nl = min(free, _BLOCK.bit_length() - 1)
    lo, hi = slice(1, 1 + nl), slice(1 + nl, None)
    X_L = _bits(np.arange(1 << nl), nl).astype(float)
    const = inst.pair_table[0] * w.sum() + 0.5 * K[0, 0]
    low = const + (X_L @ K[0, lo] + 0.5 * np.vecdot(X_L @ K[lo, lo], X_L))  # const + low[l]
    cross = K[hi, lo] @ X_L.T

    def bounds(start: int) -> np.ndarray:
        h = start >> nl
        X_H = _bits(np.arange(h, min(h + _BLOCK, 1 << (free - nl))), free - nl).astype(float)
        high = X_H @ K[0, hi] + 0.5 * np.vecdot(X_H @ K[hi, hi], X_H)
        return (low + high[:, None] + X_H @ cross).ravel()

    return range(0, 1 << free, _BLOCK << nl), bounds


def brute_force_robust(inst: Instance, spec: UncertaintySpec) -> OracleResult:
    """Exact robust optimum by enumeration: max over cuts of the exact inner
    minimum, the first maximizer in enumeration order.  Guarded at n <= 24.

    Bound, seed and prune (the bounding step of BiqMac; Rendl, Rinaldi &
    Wiegele 2010).  Let w_bar be the set's minimizer of sum(w), one
    :func:`worst_case_weights` call, and w+ = max(w_bar, 0).  For every cut,
    with coefficient row c in [0, 1]^m (:func:`term_coefficients`) and
    relaxed coefficients q(x) of its rank-one Gram matrix xx^T,

        V(c) = min_w c . w  <=  c . w_bar  <=  c . w+  <=  q(x) . w+,

    since w_bar lies in the set and c >= 0; q = c for max-cut and di-cut,
    and for all-equal q = (sum_i s_i y_i)^2 / k^2 >= the satisfied
    indicator.  q(x) . w+ = c0 sum(w+) + x^T K x / 2 with K = C(w+), the
    matrix the ascent builds, so the bounds of all candidates come from the
    pair table, ``_BLOCK`` high bit patterns at a time
    (:func:`_bound_blocks`), and no candidate's row is built to bound it.

    The first pass takes every block's largest bound and seeds the
    incumbent with the candidate of the largest (the first, NaN bounds
    aside).  The second walks the candidates in enumeration order and
    prunes one when

        bound + M < incumbent,   M = _PRUNE_REL sum_i |w_bar_i|,

    the incumbent being the largest value scored so far; a block whose
    largest bound is pruned is not rebuilt.  M covers all that separates a
    computed value from a computed bound, and it does not shrink with the
    bound (a bound of 0, the uncut partition, is a difference of sums of
    order sum(w+)):
    * the form's rounding.  Its terms c0 w+_t and w+_t beta_p x_a x_b have
      absolute sum S = sum(w+) for every kind (max-cut 1/2 + 1/2, di-cut
      1/4 + 3/4, all-equal sum over a <= b of (2 - [a = b]) / k^2 = 1).
      Each term is rounded fewer than P + 2 ncols + 6 times on its way to a
      bound, P the pairs (K's sums, two matmul levels, the block's sums;
      the signs and the halving are exact), so the computed bound lies
      within (P + 2 ncols + 6) u S of q(x) . w+, u = 2^-53: under 1e-8 S
      while P < 10^7, and S <= sum_i |w_bar_i|;
    * a computed w_bar an ulp or so outside the set, which moves c . w_bar
      by about u sum_i c_i |w_bar_i| <= u sum_i |w_bar_i|;
    * the oracle's own rounding and 1e-9 simplex tolerances, relative to
      the same sum_i c_i |w_bar_i|.
    All lie far below 1e-6 sum_i |w_bar_i|, so a pruned candidate's
    computed value lies strictly below the incumbent: it can neither win
    nor tie.  A NaN bound (or margin) is never pruned, and a bound that
    ties the incumbent is scored.

    The survivors are scored in enumeration order by
    :func:`worst_case_values`, at most ``_BLOCK`` rows a call, and each row
    carries the bits :func:`worst_case_weights` gives for the same cut.  The
    first candidate to reach the largest value is never pruned, as the
    incumbent never exceeds that value; so the first strict maximum of the
    walk's values, taken batch by batch, is the candidate a
    candidate-by-candidate loop finds, with the same value.  A NaN never
    wins; a NaN seed prunes nothing.  One :func:`worst_case_weights` call
    gives the winner's weights.  ``scored`` counts the seed and the
    survivors, so the seed counts twice.
    """
    if inst.n > BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force: n = {inst.n} exceeds limit {BRUTE_FORCE_LIMIT}")
    require_valid(spec, inst.m)
    fix_first = not inst.reference  # oriented objectives are not flip-symmetric
    count = 1 << (inst.ncols - 1)
    w_bar = worst_case_weights(spec, np.ones(spec.dim()))[0]
    w_pos = np.maximum(w_bar, 0.0)
    margin = _PRUNE_REL * np.abs(w_bar).sum()

    def values(t: np.ndarray) -> np.ndarray:
        return worst_case_values(spec, term_coefficients(inst, _signs(inst.n, fix_first, t)))

    starts, bounds = _bound_blocks(inst, w_pos)
    tops, seed, seed_bound = [], 0, -np.inf
    for start in starts:
        b = bounds(start)
        tops.append(b.max())  # NaN when the block holds a NaN bound
        b_top = np.fmax.reduce(b)
        if b_top > seed_bound:
            seed, seed_bound = start + int(np.argmax(b == b_top)), b_top
    top = np.fmax(values(np.array([seed]))[0], -np.inf)  # a NaN seed prunes nothing
    best, best_v, scored = None, -np.inf, 1
    for start, block_top in zip(starts, tops):
        if block_top + margin < top:
            continue
        b = bounds(start)
        live = np.flatnonzero(~(b + margin < top))  # a NaN bound is kept
        while live.size:
            t = start + live[:_BLOCK]
            v = values(t)
            scored += len(t)
            batch_top = np.fmax.reduce(v)  # NaN only where every value is NaN
            if batch_top > best_v:
                best_v, best = batch_top, t[np.argmax(v == batch_top)]
                top = max(top, best_v)
            live = live[_BLOCK:]
            live = live[~(b[live] + margin < top)]
    if best is None:  # every value NaN or -inf: no candidate beats -inf
        return OracleResult(best=None, worst=None, value=-np.inf, enumerated=count,
                            scored=scored)
    y = _signs(inst.n, fix_first, best[None])[0]
    w, value = worst_case_weights(spec, term_coefficients(inst, y))
    return OracleResult(best=y, worst=w, value=value, enumerated=count, scored=scored)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    lhs: float
    rhs: float


@dataclass
class SandwichReport:
    ok: bool
    ratio: float
    solver_value: float
    oracle_value: float
    checks: list[Check] = field(default_factory=list)


def guarantee_ratio(inst: Instance) -> float:
    if inst.kind == MAXCUT:
        return APPROX_RATIO_MAXCUT
    if inst.kind == DICUT:
        return APPROX_RATIO_DICUT
    return ALLEQUAL_COEF * inst.arity / (2.0 ** inst.arity)


def certify_sandwich(inst: Instance, spec: UncertaintySpec, sol: SaddleSolution,
                     cuts: Optional[list[np.ndarray]] = None,
                     seed: int = 0) -> SandwichReport:
    """Certify the approximation sandwich around a solved saddle.

    Every inequality is checked with exact (closed-form or LP) quantities;
    nothing here depends on Monte-Carlo noise or wall-clock.  The lower half
    reads the expected rounded term values e (:func:`rounding.expected_terms`)
    of the draws of ``rounding_draws(..., seed, 4)``: ``lower_sandwich[worst]``
    checks e . w at the saddle's worst weights, and for the graph kinds on a
    set that is not a singleton ``lower_sandwich[set]`` checks min_w e . w
    over the set, one inner-oracle call.  For max-cut e >= 0.878 times the
    relaxed coefficients term by term, so that minimum is >= 0.878 phi >=
    0.878 OPT; for di-cut it is a checked inequality, since the relaxation
    does not impose the triangle inequalities the 0.796 analysis assumes.  All-equal's seed vector is
    chosen against the worst weights, so it is checked there only.  The
    upper half tests `cuts`, by default the same draws: for the graph kinds,
    the first 4 draws solve makes.
    """
    oracle = brute_force_robust(inst, spec)
    ratio = guarantee_ratio(inst)
    checks: list[Check] = []
    scale = max(1.0, abs(oracle.value))

    # relaxation bound: the relaxed saddle dominates the exact one
    checks.append(Check("relaxation_bound", sol.value >= oracle.value - CERT_TOL * scale,
                        sol.value, oracle.value))

    # saddle consistency: reported value equals a fresh inner minimization
    _, fresh, _ = inner_worst(inst, spec, sol.factor)
    checks.append(Check("saddle_consistency", abs(fresh - sol.value) <= CERT_TOL * scale,
                        sol.value, fresh))

    exact_tol = 1e-9 * scale
    floor = ratio * oracle.value
    draws, _, z = rounding_draws(inst, sol.factor, sol.worst, seed, 4)
    e = expected_terms(inst, sol.factor, z)
    lower = [("worst", float(e @ sol.worst))]
    if inst.kind != ALLEQUAL and spec.kind != SINGLETON:
        lower.append(("set", _best_response(spec, e)[1]))
    for label, expected in lower:
        checks.append(Check(f"lower_sandwich[{label}]", expected >= floor - exact_tol,
                            expected, floor))

    # upper half: the worst case of any fixed rounded solution is dominated
    # by the robust optimum; one block call, each row with its scalar bits
    upper = worst_case_values(spec, term_coefficients(
        inst, np.stack(draws if cuts is None else cuts)))
    for t, v in enumerate(upper.tolist()):
        checks.append(Check(f"upper_sandwich[round{t}]",
                            v <= oracle.value + exact_tol, v, oracle.value))

    ok = all(c.passed for c in checks)
    return SandwichReport(ok=ok, ratio=ratio, solver_value=sol.value,
                          oracle_value=oracle.value, checks=checks)
