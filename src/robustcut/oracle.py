"""Ground-truth oracles and certification.

``brute_force_robust`` enumerates every cut/assignment (2^(n-1) after fixing
the first coordinate where the objective allows it) and scores them a block
at a time with the exact inner minimization oracle, whose block rows are bit
for bit the one-cut values -- no shortcuts, no shared math with the solvers
it certifies beyond the uncertainty oracles themselves.

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
from typing import Optional

import numpy as np

from .instances import (ALLEQUAL, DICUT, MAXCUT, DomainError, Instance,
                        term_coefficients)
from .robust import SaddleSolution, _best_response, inner_worst
from .rounding import (ALLEQUAL_COEF, APPROX_RATIO_DICUT, APPROX_RATIO_MAXCUT,
                       expected_terms, rounding_draws)
from .uncertainty import (SINGLETON, UncertaintySpec, require_valid,
                          worst_case_values, worst_case_weights)

BRUTE_FORCE_LIMIT = 24
_BLOCK = 128  # candidates scored at once; peak memory grows with it
_PRUNE_REL = 1e-6  # rounding margin of the pruning bound, relative to sum_i c_i |w_bar_i|


@dataclass
class OracleResult:
    best: np.ndarray      # maximizing cut/assignment
    worst: np.ndarray     # inner minimizing weights at the maximizer
    value: float          # max-min value
    enumerated: int
    scored: int           # candidates the inner oracle scored; the rest were pruned


def _signs(n: int, fix_first: bool, t: np.ndarray) -> np.ndarray:
    """Rows t of the enumeration of +-1 vectors of length n, the first
    coordinate pinned to +1 when the objective is flip-symmetric: row t has
    +1 in free coordinate i exactly when bit i of t is set."""
    free = n - 1 if fix_first else n
    Y = 2 * ((t[:, None] >> np.arange(free)) & 1) - 1
    if fix_first:
        Y = np.hstack([np.ones((len(t), 1), dtype=Y.dtype), Y])
    return Y


def brute_force_robust(inst: Instance, spec: UncertaintySpec) -> OracleResult:
    """Exact robust optimum by enumeration: max over cuts of the exact inner
    minimum, the first maximizer in enumeration order.  Guarded at n <= 24.

    Bound and prune (the bounding step of BiqMac; Rendl, Rinaldi & Wiegele
    2010): for any point w_bar of the set, V(c) = min_w c . w <= c . w_bar,
    so one dot product bounds a candidate's value.  w_bar is the set's
    minimizer of sum(w), one :func:`worst_case_weights` call; on a box it is
    the lower corner, the exact minimizer for every candidate.  Candidates
    are built ``_BLOCK`` at a time in enumeration order, and one is pruned
    when

        c . (w_bar + _PRUNE_REL |w_bar|) < incumbent,

    the incumbent being the largest value scored so far.  As c >= 0, the
    left side is the bound plus a rounding margin of _PRUNE_REL sum_i c_i
    |w_bar_i|.  The margin covers what separates a computed bound from a
    computed value: the dot products' rounding (m u relative, u = 2^-53), a
    computed w_bar that lies an ulp or so outside the set, and the oracle's
    own rounding and 1e-9 simplex tolerances.  With c in [0, 1] and w_bar
    on the weights' scale, all of them lie far below 1e-6 of sum_i c_i
    |w_bar_i|.  So a pruned candidate's computed value lies strictly below
    the incumbent: it can neither win nor tie.  A NaN bound is never pruned,
    and a bound that ties the incumbent is scored.

    The survivors are scored in enumeration order by
    :func:`worst_case_values`, at most ``_BLOCK`` rows a call, and each row
    carries the bits :func:`worst_case_weights` gives for the same cut.  So
    the first strict maximum of the scored values, taken batch by batch, is
    the candidate a candidate-by-candidate loop finds, with the same value;
    a NaN never wins.  One :func:`worst_case_weights` call gives the
    winner's weights.  ``scored`` counts the candidates scored.
    """
    if inst.n > BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force: n = {inst.n} exceeds limit {BRUTE_FORCE_LIMIT}")
    require_valid(spec, inst)
    fix_first = not inst.reference  # oriented objectives are not flip-symmetric
    count = 1 << (inst.n - 1 if fix_first else inst.n)
    w_bar = worst_case_weights(spec, np.ones(spec.dim()))[0]
    w_high = w_bar + _PRUNE_REL * np.abs(w_bar)
    top, best, scored = -np.inf, None, 0
    held_t, held_c = np.empty(0, dtype=int), np.empty((0, spec.dim()))  # survivors to score
    for start in range(0, count, _BLOCK):
        t = np.arange(start, min(start + _BLOCK, count))
        C = term_coefficients(inst, _signs(inst.n, fix_first, t))
        keep = ~(np.vecdot(C, w_high) < top)  # a NaN bound is kept
        held_t, held_c = np.concatenate([held_t, t[keep]]), np.concatenate([held_c, C[keep]])
        last = start + _BLOCK >= count
        while len(held_t) >= _BLOCK or (last and len(held_t)):
            v = worst_case_values(spec, held_c[:_BLOCK])
            batch_top = np.fmax.reduce(v)  # NaN only where every value is NaN
            if batch_top > top:
                top, best = batch_top, held_t[np.argmax(v == batch_top)]
            scored += len(v)
            held_t, held_c = held_t[_BLOCK:], held_c[_BLOCK:]
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
                     seed: int = 0, tol: float = 1e-6) -> SandwichReport:
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
    checks.append(Check("relaxation_bound", sol.value >= oracle.value - tol * scale,
                        sol.value, oracle.value))

    # saddle consistency: reported value equals a fresh inner minimization
    _, fresh, _ = inner_worst(inst, spec, sol.factor)
    checks.append(Check("saddle_consistency", abs(fresh - sol.value) <= tol * scale,
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
