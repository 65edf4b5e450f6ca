"""Brute-force oracles, the Monte-Carlo references, and the certificate report."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from robustcut import numerics, oracle, streams
from robustcut.gen import (box_for, complete_instance, cycle_instance,
                           ellipsoid_for, gnp_instance, random_allequal_instance,
                           singleton_for, wasserstein_for)
from robustcut.instances import (ALLEQUAL, DICUT, MAXCUT, DomainError,
                                 allequal_instance, allequal_value, cut_value,
                                 dicut_value, graph_instance, term_coefficients)
from robustcut.oracle import (BRUTE_FORCE_LIMIT, OracleResult,
                              brute_force_robust, certify_sandwich,
                              guarantee_ratio)
from robustcut.robust import SolverConfig, solve_robust
from robustcut.rounding import (allequal_quadratic_matrix, expected_rounded_value,
                                expected_terms, rounding_draws)
from robustcut.uncertainty import (box_spec, ellipsoidal_spec, polyhedral_spec,
                                   singleton_spec, wasserstein_spec,
                                   worst_case_mean, worst_case_values,
                                   worst_case_weights)

from mc_reference import mc_allequal_value, mc_expected_cut


def triangle(kind=MAXCUT, edges=None):
    if edges is None:
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    return graph_instance(3, kind, edges)


def exhaustive_max(inst, w):
    """Inline reference: max cut value over all 2^n sign vectors."""
    value_of = {MAXCUT: cut_value, DICUT: dicut_value}[inst.kind]
    best = -np.inf
    for bits in range(1 << inst.n):
        y = np.array([1 if (bits >> i) & 1 else -1 for i in range(inst.n)])
        best = max(best, value_of(inst, y, w))
    return best


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_signs(n, fix_first):
    """Reference enumeration: all +-1 vectors of length n (first coordinate
    pinned to +1 when the objective is flip-symmetric), one at a time."""
    free = n - 1 if fix_first else n
    y = np.empty(n, dtype=int)
    for bits in range(1 << free):
        if fix_first:
            y[0] = 1
            for i in range(free):
                y[i + 1] = 1 if (bits >> i) & 1 else -1
        else:
            for i in range(free):
                y[i] = 1 if (bits >> i) & 1 else -1
        yield y


def brute_force_loop(inst, spec):
    """Reference brute force: one scalar inner oracle call per candidate,
    the first strict maximum wins."""
    best_v = -np.inf
    best_y = None
    best_w = None
    count = 0
    for y in enumerate_signs(inst.n, inst.kind != DICUT):
        count += 1
        w, v = worst_case_weights(spec, term_coefficients(inst, y))
        if v > best_v:
            best_v = v
            best_y = y.copy()
            best_w = w
    return OracleResult(best=best_y, worst=best_w, value=float(best_v),
                        enumerated=count, scored=count)


def test_enumerate_signs_counts_and_pinning():
    fixed = list(enumerate_signs(4, True))
    assert len(fixed) == 8
    assert all(y[0] == 1 for y in fixed)
    free = {tuple(y) for y in enumerate_signs(3, False)}
    assert len(free) == 8


def test_brute_k3_singleton():
    inst = triangle()
    res = brute_force_robust(inst, singleton_spec(inst.nominal_weights()))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.enumerated == 4
    assert cut_value(inst, res.best, inst.nominal_weights()) == \
        pytest.approx(2.0)
    assert np.array_equal(res.worst, inst.nominal_weights())


def test_brute_c5_singleton():
    inst = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    res = brute_force_robust(inst, singleton_spec(inst.nominal_weights()))
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.enumerated == 16


def test_brute_directed_cycle_and_tournament():
    cyc = graph_instance(3, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    res = brute_force_robust(cyc, singleton_spec(cyc.nominal_weights()))
    assert res.enumerated == 8  # no flip symmetry for directed objectives
    assert res.value == pytest.approx(exhaustive_max(cyc, cyc.nominal_weights()))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    tour = graph_instance(3, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    res2 = brute_force_robust(tour, singleton_spec(tour.nominal_weights()))
    assert res2.value == pytest.approx(2.0, abs=1e-12)


def test_brute_two_scenario_hull():
    A = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                  [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    spec = polyhedral_spec(A, np.array([1.0, -1.0, 1.0, -1.0]))
    res = brute_force_robust(triangle(), spec)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.all(res.worst >= -1e-9)


def test_brute_wasserstein_zero_radius_reduces():
    inst = triangle()
    sup = np.array([[1.0, 0.5, 1.5], [0.5, 1.5, 0.5]])
    emp = np.array([0.25, 0.75])
    res = brute_force_robust(inst, wasserstein_spec(sup, emp, 0.0))
    mean = emp @ sup
    nominal = brute_force_robust(inst, singleton_spec(mean))
    assert res.value == pytest.approx(nominal.value, abs=1e-9)
    assert res.value == pytest.approx(exhaustive_max(inst, mean), abs=1e-9)


def count_tableaus(monkeypatch):
    built = []
    init = numerics.FeasibleTableau.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(numerics.FeasibleTableau, "__init__", counting_init)
    return built


@pytest.mark.parametrize("make_spec", [lambda inst: _budgeted_box(inst, 3),
                                       lambda inst: wasserstein_for(inst, 3, 0.3)])
def test_brute_force_builds_one_tableau(monkeypatch, make_spec):
    # 2^(n-1) oracle calls on a general polyhedron share one phase 1
    # (validation builds it); a Wasserstein ball is answered in closed form
    # and builds none
    inst = gnp_instance(8, 0.5, 3)
    spec = make_spec(inst)
    built = count_tableaus(monkeypatch)
    res = brute_force_robust(inst, spec)
    assert res.enumerated == 2 ** 7
    assert len(built) == (1 if spec.kind == "polyhedral" else 0)


@pytest.mark.parametrize("kind", ["singleton", "box", "ellipsoid", "wasserstein",
                                  "wasserstein_metric", "budgeted_box"])
def test_only_general_polyhedra_build_a_tableau(monkeypatch, kind):
    # validation, both oracles, a solve and a certificate: every
    # set kind but a polyhedron that is not a box runs without an LP
    inst = gnp_instance(6, 0.5, 3)
    D = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    spec = {"singleton": lambda: singleton_for(inst),
            "box": lambda: box_for(inst, 0.2),
            "ellipsoid": lambda: ellipsoid_for(inst, 0.5, seed=1),
            "wasserstein": lambda: wasserstein_for(inst, 4, 0.3, seed=2),
            "wasserstein_metric": lambda: wasserstein_spec(
                wasserstein_for(inst, 3, 0.3, seed=2).support, np.full(3, 1 / 3), 0.5, D),
            "budgeted_box": lambda: _budgeted_box(inst, 3)}[kind]()
    built = count_tableaus(monkeypatch)
    sol = solve_robust(inst, spec, SolverConfig(seed=0, restarts=1, max_iter=40))
    rep = certify_sandwich(inst, spec, sol)
    worst_case_values(spec, term_coefficients(inst, np.ones((2, inst.n), dtype=int)))
    assert rep.oracle_value > 0.0
    assert len(built) == (1 if kind == "budgeted_box" else 0)


def test_brute_force_box_builds_no_tableau(monkeypatch):
    # a box is answered in closed form: validation and oracle build no LP
    inst = gnp_instance(8, 0.5, 3)
    built = count_tableaus(monkeypatch)
    res = brute_force_robust(inst, box_for(inst, 0.2))
    assert res.enumerated == 2 ** 7
    assert built == []


def test_brute_singleton_matches_exhaustive_sweep():
    rng = streams.stream(97, streams.TAG_GEN, 0)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        kind = MAXCUT if rng.random() < 0.5 else DICUT
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    a, b = (i, j) if rng.random() < 0.5 else (j, i)
                    edges.append((a, b, float(rng.uniform(0.2, 2.0))))
        if not edges:
            edges = [(0, 1, 1.0)]
        inst = graph_instance(n, kind, edges)
        w = inst.nominal_weights()
        res = brute_force_robust(inst, singleton_spec(w))
        assert res.value == pytest.approx(exhaustive_max(inst, w), abs=1e-9)


def test_brute_force_guard():
    n = BRUTE_FORCE_LIMIT + 1
    inst = graph_instance(n, MAXCUT, [(0, 1, 1.0)])
    with pytest.raises(DomainError, match="limit"):
        brute_force_robust(inst, singleton_spec(inst.nominal_weights()))


def test_brute_force_rejects_an_invalid_set():
    inst = triangle()
    with pytest.raises(DomainError, match="invalid uncertainty set: dim"):
        brute_force_robust(inst, singleton_spec(np.ones(4)))
    spec = box_spec(np.zeros(3), np.ones(3))
    brute_force_robust(inst, spec)
    spec = dataclasses.replace(spec, b=np.concatenate([-np.ones(3), -np.ones(3)]))  # negative lower bounds
    with pytest.raises(DomainError, match="negative declared lower bound"):
        brute_force_robust(inst, spec)


def _scenario_hull(inst, seed):
    """The segment between two weight scenarios, as pairs of opposite rows."""
    rng = np.random.default_rng(seed)
    w0 = inst.nominal_weights()
    s1, s2 = w0 * rng.uniform(0.7, 1.3, size=(2, inst.m))
    d = s2 - s1
    N = np.linalg.svd(d[None, :])[2][1:]  # rows span the complement of d
    A = np.vstack([N, -N, d, -d])
    b = np.concatenate([N @ s1, -(N @ s1), [d @ s1], [-(d @ s2)]])
    return polyhedral_spec(A, b)


def _budgeted_box(inst, seed):
    rng = np.random.default_rng(seed)
    w0 = inst.nominal_weights()
    R = rng.uniform(0.0, 1.0, size=(2, inst.m))
    box = box_for(inst, 0.2)
    return polyhedral_spec(np.vstack([box.A, R]), np.concatenate([box.b, R @ w0]))


def _budget_row_box(inst, seed=None):
    """A +-20% box with one Bertsimas-Sim budget row: at most Gamma = 0.2 m
    of the total relative deviation, sum_i (u_i - w_i)/(u_i - l_i) <= Gamma."""
    box = box_for(inst, 0.2)
    lower, upper = box._box
    g = 1.0 / (upper - lower)
    return polyhedral_spec(np.vstack([box.A, g]),
                           np.concatenate([box.b, [g @ upper - 0.2 * inst.m]]))


def _dense_ellipsoid(inst, seed):
    rng = np.random.default_rng(seed)
    w0 = inst.nominal_weights()
    G = rng.standard_normal((inst.m, inst.m))
    Q = G @ G.T / inst.m + 0.5 * np.eye(inst.m)
    a = float(np.min((0.4 * w0) ** 2 / np.diag(Q)))
    return ellipsoidal_spec(w0, Q, a)


def _explicit_metric_ball(inst, seed):
    spec = wasserstein_for(inst, 3, 0.3, seed=seed)
    k = spec.support.shape[0]
    rng = np.random.default_rng(seed)
    D = rng.uniform(0.5, 2.0, size=(k, k))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return wasserstein_spec(spec.support, spec.empirical, 0.4, D)


SET_MAKERS = {
    "singleton": lambda inst, seed: singleton_for(inst),
    "box": lambda inst, seed: box_for(inst, 0.2),
    "budgeted_box": _budgeted_box,
    "budget_row_box": _budget_row_box,
    "scenario_hull": _scenario_hull,
    "ellipsoid_dense": _dense_ellipsoid,
    "wasserstein_auto": lambda inst, seed: wasserstein_for(inst, 4, 0.3, seed=seed),
    "wasserstein_metric": _explicit_metric_ball,
    "wasserstein_r0": lambda inst, seed: wasserstein_for(inst, 3, 0.0, seed=seed),
}

BRUTE_INSTANCES = {
    "maxcut_gnp": lambda: gnp_instance(9, 0.5, 21),
    "dicut_gnp": lambda: gnp_instance(8, 0.5, 22, kind=DICUT),
    "allequal": lambda: random_allequal_instance(7, 3, 10, 23),
    "unit_cycle": lambda: cycle_instance(8),
    "unit_dicycle": lambda: cycle_instance(7, kind=DICUT),
    "unit_complete": lambda: complete_instance(8),
    "isolated_vertex": lambda: graph_instance(
        8, MAXCUT, [(i, j, 1.0 + 0.1 * ((i * j) % 4)) for i in range(7)
                    for j in range(i + 1, 7) if (i + j) % 3]),
}


def assert_same_result(got, want):
    assert np.array_equal(got.best, want.best)
    assert got.best.dtype == want.best.dtype
    assert got.worst.tobytes() == want.worst.tobytes()
    assert got.value == want.value
    assert got.enumerated == want.enumerated


@pytest.mark.parametrize("set_name", sorted(SET_MAKERS))
@pytest.mark.parametrize("inst_name", sorted(BRUTE_INSTANCES))
def test_brute_force_equals_candidate_loop(inst_name, set_name):
    inst = BRUTE_INSTANCES[inst_name]()
    spec = SET_MAKERS[set_name](inst, 5)
    assert_same_result(brute_force_robust(inst, spec), brute_force_loop(inst, spec))


def _seeded_instance(kind, n, seed):
    """A numpy-seeded instance: each vertex pair an edge with probability
    0.3 (a randomly oriented arc for di-cut), or, for kind ("allequal", k),
    2n clauses of k distinct variables with random negations; weights
    uniform in [0.5, 1.5].  n = 1 has no edges."""
    rng = np.random.default_rng(seed)
    if isinstance(kind, tuple):
        k = kind[1]
        return allequal_instance(n, [((rng.permutation(n)[:k] + 1) * rng.choice([-1, 1], k),
                                      rng.uniform(0.5, 1.5)) for _ in range(2 * n)])
    pairs = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return graph_instance(n, kind, [(i, j, rng.uniform(0.5, 1.5)) for i, j in pairs])


def _seeded_ellipsoid(inst, seed):
    """A diagonal ellipsoid inside the nonnegative orthant (any a <= 1 when
    there are no terms)."""
    rng = np.random.default_rng(seed)
    w0 = inst.nominal_weights()
    q = rng.uniform(0.5, 1.5, inst.m)
    return ellipsoidal_spec(w0, np.diag(q), float(np.min((0.5 * w0) ** 2 / q, initial=1.0)))


GRID_SETS = {
    "singleton": lambda inst, seed: singleton_for(inst),
    "box": lambda inst, seed: box_for(inst, 0.2),
    "budget_row_box": _budget_row_box,
    "ellipsoid": _seeded_ellipsoid,
    "wasserstein_r0": lambda inst, seed: wasserstein_for(inst, 3, 0.0, seed=seed),
    "wasserstein": lambda inst, seed: wasserstein_for(inst, 4, 0.3, seed=seed),
}


SEEDED_KINDS = [MAXCUT, DICUT, ("allequal", 2), ("allequal", 3), ("allequal", 4)]


# 0, 7 and 8 free bits sit at the edges of a bound block's low bits
@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in SEEDED_KINDS for n in (1, 2, 8, 9, 12)
    if not isinstance(kind, tuple) or kind[1] <= n], ids=str)
def test_brute_force_equals_candidate_loop_on_seeded_cases(kind, n):
    inst = _seeded_instance(kind, n, 100 + n)
    assert (inst.m == 0) == (n == 1)
    for name, make in GRID_SETS.items():
        spec = make(inst, n)
        got, want = brute_force_robust(inst, spec), brute_force_loop(inst, spec)
        assert_same_result(got, want)
        assert 1 < got.scored <= got.enumerated + 1, name


@pytest.mark.parametrize("kind", SEEDED_KINDS, ids=str)
def test_pair_table_bound_dominates_every_candidate(kind):
    # bound = q(x) . w+ >= c . w+ >= c . w_bar, for every candidate of
    # n = 10 and every set's minimizer of sum(w); q = c for the graph kinds
    inst = _seeded_instance(kind, 10, 7)
    count = 1 << (inst.ncols - 1)
    C = term_coefficients(inst, oracle._signs(inst.n, inst.kind != DICUT, np.arange(count)))
    for make in GRID_SETS.values():
        w_bar = worst_case_weights(make(inst, 3), np.ones(inst.m))[0]
        w_pos = np.maximum(w_bar, 0.0)
        starts, bounds = oracle._bound_blocks(inst, w_pos)
        blocks = [bounds(start) for start in starts]
        assert [len(b) for b in blocks] == np.diff([*starts, count]).tolist()
        bound = np.concatenate(blocks)
        assert np.all(bound >= C @ w_bar - 1e-12 * w_bar.sum())
        if inst.kind == ALLEQUAL:
            V, S = inst.clause_arrays
            y = oracle._signs(inst.n, True, np.arange(count))
            q = np.sum(S * y[:, V], axis=-1) ** 2 / inst.arity ** 2
            np.testing.assert_allclose(bound, q @ w_pos, rtol=1e-13)
        else:
            np.testing.assert_allclose(bound, C @ w_pos, rtol=1e-13, atol=1e-13)


def test_brute_force_spans_several_blocks():
    # 2^11 candidates, 16 scoring batches' worth; a fresh spec and one whose
    # tableau already keeps bases from an earlier run give the loop's result
    inst = gnp_instance(12, 0.5, 11)
    for spec in (box_for(inst, 0.2), wasserstein_for(inst, 4, 0.3, seed=11)):
        want = brute_force_loop(inst, spec)
        assert want.enumerated > 8 * oracle._BLOCK
        assert_same_result(brute_force_robust(inst, spec), want)
        assert_same_result(brute_force_robust(inst, spec), want)


@pytest.mark.parametrize("inst, spec_of", [
    (complete_instance(16), singleton_for),  # 6,435 tied max cuts in both blocks
    (gnp_instance(16, 0.5, 16), lambda inst: box_for(inst, 0.2)),
    (gnp_instance(15, 0.5, 15, kind=DICUT), lambda inst: box_for(inst, 0.2)),
], ids=["unit_k16", "maxcut_g16", "dicut_g15"])
def test_brute_force_spans_several_bound_blocks(inst, spec_of):
    # 2^15 candidates: two blocks of 128 high bit patterns, bounded for the
    # seed and again for the walk unless a block's largest bound is pruned
    spec = spec_of(inst)
    starts, _ = oracle._bound_blocks(inst, inst.nominal_weights())
    assert len(starts) == 2
    assert_same_result(brute_force_robust(inst, spec), brute_force_loop(inst, spec))


def _scaled_ones_ball(inst, seed, radius):
    """A Wasserstein ball whose support points are multiples of the all-ones
    weights: every cut of unit K10 keeps its exact ties, while the sums of
    its 25 cut weights round differently with their positions."""
    alpha = np.random.default_rng(seed).uniform(0.5, 1.5, size=3)
    return wasserstein_spec(alpha[:, None] * np.ones((3, inst.m)), np.full(3, 1 / 3), radius)


@pytest.mark.parametrize("spec_of", [singleton_for, lambda inst: box_for(inst, 0.2)])
def test_brute_force_takes_the_first_of_tied_maxima(spec_of):
    # unit K10: 126 tied maximizers over 4 blocks; the first one in
    # enumeration order wins, as in the candidate loop
    inst = complete_instance(10)
    spec = spec_of(inst)
    want = brute_force_loop(inst, spec)
    assert want.enumerated == 4 * oracle._BLOCK
    assert_same_result(brute_force_robust(inst, spec), want)


@pytest.mark.parametrize("spec_of", [
    lambda inst: ellipsoidal_spec(np.ones(inst.m), 0.1 * np.eye(inst.m), 2.5),
    # on these two balls the set's minimizer of sum(w) is every max cut's
    # minimizer, and without the rounding margin the pruning bound of a later
    # tied cut reads below a value it beats in the last bit
    lambda inst: _scaled_ones_ball(inst, 2, 0.3),
    lambda inst: _scaled_ones_ball(inst, 14, 0.0),
], ids=["ellipsoid", "ones_ball_r0.3", "ones_ball_r0"])
def test_brute_force_takes_the_loops_maximizer_among_curved_ties(spec_of):
    # unit K10 on sets that keep its 126 ties exact: the tied values differ
    # in the last bit, and the pruned enumeration takes the loop's maximizer
    inst = complete_instance(10)
    spec = spec_of(inst)
    got = brute_force_robust(inst, spec)
    assert_same_result(got, brute_force_loop(inst, spec))
    assert got.scored < got.enumerated


def test_brute_force_scores_the_seed_and_the_ties():
    # a singleton's bound is its value: the seed, the first max cut (value 25
    # of unit K10; the next value is 24), sets the incumbent, and the walk
    # scores only the 126 max cuts, the seed among them
    inst = complete_instance(10)
    got = brute_force_robust(inst, singleton_for(inst))
    values = [cut_value(inst, y, inst.nominal_weights()) for y in enumerate_signs(10, True)]
    assert got.scored == 1 + sum(v == 25.0 for v in values) == 127
    assert brute_force_robust(inst, singleton_for(inst)).scored == got.scored


def test_brute_force_scores_bounds_that_tie_the_incumbent():
    # a box whose lower corner is 0: every bound, margin and value is 0, so
    # no bound lies below the incumbent and every candidate is scored, after
    # the seed
    inst = gnp_instance(10, 0.5, 4)
    spec = box_spec(np.zeros(inst.m), inst.nominal_weights())
    got = brute_force_robust(inst, spec)
    assert_same_result(got, brute_force_loop(inst, spec))
    assert got.value == 0.0 and got.enumerated == 512 and got.scored == 513


@pytest.mark.parametrize("spec_of", [
    lambda inst: wasserstein_for(inst, 4, 0.3, seed=11), _budget_row_box])
def test_brute_force_prunes_most_candidates(spec_of):
    # max-cut G(12): the bound c . w_bar prunes more than 80% of the 2,048
    # candidates before the inner oracle scores them
    inst = gnp_instance(12, 0.5, 11)
    got = brute_force_robust(inst, spec_of(inst))
    assert got.enumerated == 2048
    assert got.scored < 0.2 * got.enumerated


def test_brute_force_skips_nan_block_values(monkeypatch):
    # a NaN never wins and a NaN seed prunes nothing: the seed, the first
    # value of the first walk batch (np.argmax would stop there) and all of
    # the second walk batch read NaN
    inst = complete_instance(10)
    spec = singleton_for(inst)
    want = brute_force_loop(inst, spec)
    exact = oracle.worst_case_values
    batches = []

    def with_nans(spec, coef_block):
        v = exact(spec, coef_block)
        if len(batches) == 1:
            v[0] = np.nan
        else:
            v[:] = np.nan
        batches.append(v)
        return v

    monkeypatch.setattr(oracle, "worst_case_values", with_nans)
    got = brute_force_robust(inst, spec)
    assert_same_result(got, want)
    # the seed; all of the first 128 candidates, as nothing is pruned; then
    # the 91 max cuts among the other 384 (35 of the 126 lie in the first 128)
    assert [len(v) for v in batches] == [1, oracle._BLOCK, 91]
    assert np.argmax(batches[1]) == 0 and got.scored == 1 + oracle._BLOCK + 91
    # no value beats -inf, as in the loop: no maximizer, and nothing pruned
    monkeypatch.setattr(oracle, "worst_case_values",
                        lambda spec, coef_block: np.full(len(coef_block), np.nan))
    assert brute_force_robust(inst, spec) == OracleResult(None, None, -np.inf, 512, 513)


def test_brute_force_never_prunes_a_nan_bound(monkeypatch):
    # a NaN in the set's minimizer of sum(w) makes every bound NaN: nothing
    # is pruned, and the result is still the loop's
    inst = complete_instance(10)
    spec = singleton_for(inst)
    want = brute_force_loop(inst, spec)
    exact = oracle.worst_case_weights
    seen = []

    def nan_w_bar(spec, coef):
        w, v = exact(spec, coef)
        if not seen:
            w[3] = np.nan
        seen.append(v)
        return w, v

    monkeypatch.setattr(oracle, "worst_case_weights", nan_w_bar)
    got = brute_force_robust(inst, spec)
    assert_same_result(got, want)
    assert got.scored == 1 + got.enumerated and len(seen) == 2
    monkeypatch.undo()
    # every bound -inf but the winner's, NaN, under a finite margin: its
    # block is not skipped, it alone survives the seed, and it wins
    t_win = int(np.flatnonzero([np.array_equal(y, want.best)
                                for y in enumerate_signs(10, True)])[0])
    bound_blocks = oracle._bound_blocks

    def nan_at_winner(inst, w):
        starts, bounds = bound_blocks(inst, w)

        def nan_bounds(start):
            b = np.full_like(bounds(start), -np.inf)
            if 0 <= t_win - start < len(b):
                b[t_win - start] = np.nan
            return b
        return starts, nan_bounds

    monkeypatch.setattr(oracle, "_bound_blocks", nan_at_winner)
    got = brute_force_robust(inst, spec)
    assert_same_result(got, want)
    assert got.scored == 2


def test_brute_force_builds_only_one_block_at_a_time(monkeypatch):
    # at the guard n = 24 all candidates would be 2^23 x 24 integers (1.6 GB)
    # and all bounds 64 MB: the bound pass runs over every block, and no
    # scoring call takes more than _BLOCK rows
    inst = cycle_instance(BRUTE_FORCE_LIMIT)
    exact = oracle.worst_case_values
    shapes = []

    class Stop(Exception):
        pass

    def recorded(spec, coef_block):
        shapes.append(coef_block.shape)
        if len(shapes) > 4:
            raise Stop
        return exact(spec, coef_block)

    monkeypatch.setattr(oracle, "worst_case_values", recorded)
    tracemalloc.start()
    try:
        # the even cycle's one max cut: the seed, and that cut again
        got = brute_force_robust(inst, singleton_for(inst))
        assert got.value == 24.0 and got.scored == 2
        # a zero lower corner prunes nothing: the seed, then full batches
        with pytest.raises(Stop):
            brute_force_robust(inst, box_spec(np.zeros(inst.m), inst.nominal_weights()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes == [(1, inst.m)] * 3 + [(oracle._BLOCK, inst.m)] * 2
    assert peak < 4 << 20


def test_brute_allequal_example():
    inst = allequal_instance(3, [([1, 2], 2.0), ([2, 3], 3.0)])
    res = brute_force_robust(inst, singleton_spec(inst.nominal_weights()))
    assert res.value == pytest.approx(5.0, abs=1e-12)  # x = (1,1,1)
    assert allequal_value(inst, res.best, inst.nominal_weights()) == \
        pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Monte-Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_expected_cut_antipodal_edge():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    factor = np.array([[1.0, -1.0], [0.0, 0.0]])
    mean, stderr = mc_expected_cut(inst, factor, [1.0], trials=500, seed=3)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_mc_expected_cut_orthogonal_edge():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    factor = np.eye(2)
    trials = 40000
    mean, stderr = mc_expected_cut(inst, factor, [1.0], trials=trials, seed=5)
    assert abs(mean - 0.5) <= 3.0 * max(stderr, 0.5 / math.sqrt(trials))


def test_mc_expected_cut_pentagon():
    inst = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    ang = np.arange(5) * 4.0 * math.pi / 5.0
    factor = np.vstack([np.cos(ang), np.sin(ang)])
    w = inst.nominal_weights()
    exact = expected_rounded_value(inst, factor, None, w)
    mean, stderr = mc_expected_cut(inst, factor, w, trials=60000, seed=7)
    assert abs(mean - exact) <= 3.5 * stderr


def test_mc_expected_cut_dicut_always():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    U = np.array([[1.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
    mean, stderr = mc_expected_cut(inst, U, [1.0], trials=300, seed=1)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr == 0.0


def test_mc_expected_cut_determinism_and_kind():
    inst = triangle()
    rng = streams.stream(101, streams.TAG_GEN, 0)
    U = rng.standard_normal((3, 3))
    U /= np.linalg.norm(U, axis=0)
    w = inst.nominal_weights()
    m1, _ = mc_expected_cut(inst, U, w, trials=2000, seed=9)
    m2, _ = mc_expected_cut(inst, U, w, trials=2000, seed=9)
    m3, _ = mc_expected_cut(inst, U, w, trials=2000, seed=10)
    assert m1 == m2
    assert m1 != m3
    ae = allequal_instance(2, [([1, 2], 1.0)])
    with pytest.raises(DomainError, match="kind"):
        mc_expected_cut(ae, U, [1.0], trials=10, seed=0)


def mean_and_stderr(vals):
    """The estimators' summary of per-draw values."""
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


# The weights below are small integers, so every per-draw value is exact in
# any summation order and the loops must match the estimators bit for bit.

@pytest.mark.parametrize("kind", [MAXCUT, DICUT])
def test_mc_expected_cut_matches_per_draw_loop(kind):
    inst = gnp_instance(7, 0.6, 31, kind=kind)
    rng = streams.stream(103, streams.TAG_GEN, 0)
    U = rng.standard_normal((3, inst.n + (kind == DICUT)))
    U /= np.linalg.norm(U, axis=0)
    w = rng.integers(1, 5, size=inst.m).astype(float)
    trials = 700
    vals = []
    for r in streams.stream(17, streams.TAG_MC, 1).standard_normal((trials, 3)):
        s = [1 if x >= 0.0 else -1 for x in r @ U]
        if kind == DICUT:  # orient by the reference column
            y = [s[0] * s[v + 1] for v in range(inst.n)]
            vals.append(sum(wt for i, j, wt in zip(*inst.endpoints(), w)
                            if y[i] == 1 and y[j] == -1))
        else:
            vals.append(sum(wt for i, j, wt in zip(*inst.endpoints(), w) if s[i] != s[j]))
    got = mc_expected_cut(inst, U, w, trials=trials, seed=17)
    assert [x.hex() for x in got] == [x.hex() for x in mean_and_stderr(vals)]


def test_mc_allequal_value_matches_per_draw_loop():
    inst = random_allequal_instance(6, 3, 9, 37)
    z = np.array([1, -1, -1, 1, 1, -1])
    w = np.arange(1.0, inst.m + 1.0)
    trials = 700
    p_plus = [(1.0 + math.sqrt(2.0 / 3) * zi) / 2.0 for zi in z]
    vals = []
    for u in streams.stream(19, streams.TAG_MC, 1).random((trials, inst.n)):
        x = [1 if u[v] < p_plus[v] else -1 for v in range(inst.n)]
        vals.append(sum(wt for (lits, _), wt in zip(inst.clauses, w)
                        if len({s * x[v] for v, s in lits}) == 1))
    got = mc_allequal_value(inst, z, w, trials=trials, seed=19)
    assert [x.hex() for x in got] == [x.hex() for x in mean_and_stderr(vals)]


def test_mc_allequal_value_k2_deterministic():
    inst = allequal_instance(2, [([1, 2], 2.0)])
    mean, stderr = mc_allequal_value(inst, np.array([1, 1]), [2.0],
                                     trials=400, seed=11)
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert stderr == 0.0


def test_mc_allequal_value_matches_exact():
    from robustcut.rounding import expected_allequal_exact
    inst = allequal_instance(3, [([1, 2, 3], 1.0), ([1, -2, 3], 0.5)])
    z = np.array([1, -1, 1])
    w = inst.nominal_weights()
    exact = expected_allequal_exact(inst, z, w)
    trials = 60000
    mean, stderr = mc_allequal_value(inst, z, w, trials=trials, seed=13)
    assert abs(mean - exact) <= 3.5 * max(stderr, 1e-6)
    with pytest.raises(DomainError, match="kind"):
        mc_allequal_value(triangle(), z, w, trials=10, seed=0)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_guarantee_ratio_by_kind():
    assert guarantee_ratio(triangle()) == 0.878
    assert guarantee_ratio(graph_instance(2, DICUT, [(0, 1, 1.0)])) == 0.796
    k3 = allequal_instance(3, [([1, 2, 3], 1.0)])
    assert guarantee_ratio(k3) == pytest.approx(0.88 * 3 / 8)


def test_certify_k3_box():
    inst = triangle()
    w0 = inst.nominal_weights()
    spec = box_spec(0.8 * w0, 1.2 * w0)
    sol = solve_robust(inst, spec, SolverConfig(seed=2))
    rep = certify_sandwich(inst, spec, sol, seed=2)
    assert rep.ok
    assert rep.ratio == 0.878
    assert rep.solver_value >= rep.oracle_value - 1e-9
    names = [c.name for c in rep.checks]
    assert "relaxation_bound" in names
    assert "saddle_consistency" in names
    assert any(n.startswith("lower_sandwich") for n in names)
    assert any(n.startswith("upper_sandwich") for n in names)


def test_certify_two_scenario_hull():
    inst = triangle()
    A = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                  [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    spec = polyhedral_spec(A, np.array([1.0, -1.0, 1.0, -1.0]))
    sol = solve_robust(inst, spec, SolverConfig(seed=3))
    rep = certify_sandwich(inst, spec, sol, seed=3)
    assert rep.ok
    assert rep.oracle_value == pytest.approx(1.0, abs=1e-9)


def test_certify_wasserstein():
    inst = graph_instance(3, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0)])
    sup = np.array([[1.0, 0.5], [0.5, 1.0]])
    spec = wasserstein_spec(sup, np.array([0.5, 0.5]), 0.25)
    sol = solve_robust(inst, spec, SolverConfig(seed=4))
    rep = certify_sandwich(inst, spec, sol, seed=4)
    assert rep.ok


def test_certify_dicut_box():
    inst = graph_instance(3, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    w0 = inst.nominal_weights()
    spec = box_spec(0.9 * w0, 1.1 * w0)
    sol = solve_robust(inst, spec, SolverConfig(seed=5))
    rep = certify_sandwich(inst, spec, sol, seed=5)
    assert rep.ok
    assert rep.ratio == 0.796


def test_certify_allequal_box():
    inst = allequal_instance(3, [([1, 2], 1.0), ([2, 3], 1.0), ([1, -3], 1.0)])
    w0 = inst.nominal_weights()
    spec = box_spec(0.8 * w0, 1.2 * w0)
    sol = solve_robust(inst, spec, SolverConfig(seed=6))
    rep = certify_sandwich(inst, spec, sol, seed=6)
    assert rep.ok
    assert rep.ratio == pytest.approx(0.88 * 2 / 4)


def test_certify_flags_corrupted_value():
    inst = triangle()
    spec = singleton_spec(inst.nominal_weights())
    sol = solve_robust(inst, spec, SolverConfig(seed=7))
    up = dataclasses.replace(sol, value=sol.value + 0.5)
    rep_up = certify_sandwich(inst, spec, up, seed=7)
    assert not rep_up.ok
    assert any(c.name == "saddle_consistency" and not c.passed
               for c in rep_up.checks)
    down = dataclasses.replace(sol, value=sol.value - 0.7)
    rep_down = certify_sandwich(inst, spec, down, seed=7)
    assert not rep_down.ok
    assert any(c.name == "relaxation_bound" and not c.passed
               for c in rep_down.checks)


def test_certify_accepts_explicit_cuts():
    inst = triangle()
    spec = singleton_spec(inst.nominal_weights())
    sol = solve_robust(inst, spec, SolverConfig(seed=8))
    cuts = [np.array([1, 1, -1]), np.array([1, 1, 1])]
    rep = certify_sandwich(inst, spec, sol, cuts=cuts, seed=8)
    uppers = [c for c in rep.checks if c.name.startswith("upper_sandwich")]
    assert len(uppers) == 2
    assert all(c.passed for c in uppers)


@pytest.mark.parametrize("kind", [MAXCUT, DICUT])
def test_certify_upper_points_are_solves_first_draws(kind):
    inst = gnp_instance(7, 0.6, 12, kind=kind)
    spec = box_for(inst, 0.2)
    sol = solve_robust(inst, spec, SolverConfig(seed=4))
    solve_cuts, _, _ = rounding_draws(inst, sol.factor, sol.worst, 4, 16)  # solve's default
    rep = certify_sandwich(inst, spec, sol, seed=4)
    explicit = certify_sandwich(inst, spec, sol, cuts=solve_cuts[:4], seed=4)
    assert [c.name for c in rep.checks if c.name.startswith("upper")] == \
        [f"upper_sandwich[round{t}]" for t in range(4)]
    assert rep.checks == explicit.checks


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@pytest.mark.parametrize("make_spec", [lambda inst: wasserstein_for(inst, 4, 0.3, seed=2),
                                       lambda inst: ellipsoid_for(inst, 0.5, seed=1)],
                         ids=["wasserstein", "ellipsoid"])
def test_upper_sandwich_is_one_block_call_with_each_cuts_bits(monkeypatch, make_spec):
    inst = gnp_instance(9, 0.5, 5)
    spec = make_spec(inst)
    sol = solve_robust(inst, spec, SolverConfig(seed=2))
    draws, _, _ = rounding_draws(inst, sol.factor, sol.worst, 0, 4)
    exact, shapes = oracle.worst_case_values, []

    def recorded(spec, coef_block):
        shapes.append(coef_block.shape)
        return exact(spec, coef_block)

    monkeypatch.setattr(oracle, "worst_case_values", recorded)
    rep = certify_sandwich(inst, spec, sol)
    assert shapes[-1] == (4, inst.m)
    uppers = [c.lhs for c in rep.checks if c.name.startswith("upper_sandwich")]
    assert same_bits(uppers, [worst_case_weights(spec, term_coefficients(inst, y))[1]
                              for y in draws])


def test_lower_sandwich_set_is_one_oracle_call_on_the_expected_terms(monkeypatch):
    """lower_sandwich[set] is min_w e . w over the whole set, from one
    inner-oracle call on the expected rounded terms e: on an ellipsoid it
    lies strictly below e . w*, on a box the lower corner is both."""
    inst = gnp_instance(12, 0.5, 1)
    calls = []

    def counted(spec, coef):
        calls.append(coef)
        return best_response(spec, coef)

    best_response = oracle._best_response
    monkeypatch.setattr(oracle, "_best_response", counted)
    for spec in (ellipsoid_for(inst, 0.5), box_for(inst, 0.2)):
        sol = solve_robust(inst, spec, SolverConfig(seed=0))
        calls.clear()
        rep = certify_sandwich(inst, spec, sol)
        assert rep.ok and len(calls) == 1
        checks = {c.name: c for c in rep.checks}
        e = expected_terms(inst, sol.factor)
        assert same_bits(calls[0], e)
        assert same_bits(checks["lower_sandwich[set]"].lhs, worst_case_weights(spec, e)[1])
        assert same_bits(checks["lower_sandwich[worst]"].lhs, e @ sol.worst)
        if spec.kind == "ellipsoidal":
            assert checks["lower_sandwich[set]"].lhs < checks["lower_sandwich[worst]"].lhs
        else:
            assert checks["lower_sandwich[set]"].lhs == checks["lower_sandwich[worst]"].lhs


def test_lower_sandwich_set_reads_the_worst_distribution_of_a_wasserstein_ball():
    inst = gnp_instance(10, 0.5, 1)
    spec = wasserstein_for(inst, 4, 0.3)
    sol = solve_robust(inst, spec, SolverConfig(seed=0))
    rep = certify_sandwich(inst, spec, sol)
    e = expected_terms(inst, sol.factor)
    lhs = next(c.lhs for c in rep.checks if c.name == "lower_sandwich[set]")
    assert rep.ok and same_bits(lhs, worst_case_mean(spec, e)[2])


@pytest.mark.parametrize("kind", ["singleton", "allequal"])
def test_lower_sandwich_checks_only_the_worst_weights(kind):
    # a singleton is its own minimum; all-equal's seed vector is chosen
    # against the worst weights, so its bound is checked there only
    if kind == "singleton":
        inst = gnp_instance(8, 0.5, 2)
        spec = singleton_for(inst)
    else:
        inst = random_allequal_instance(6, 3, 8, 2)
        spec = box_for(inst, 0.2)
    sol = solve_robust(inst, spec, SolverConfig(seed=0))
    rep = certify_sandwich(inst, spec, sol)
    assert rep.ok
    assert [c.name for c in rep.checks if c.name.startswith("lower")] == \
        ["lower_sandwich[worst]"]


def test_allequal_quadratic_matrix():
    inst = allequal_instance(2, [([1, 2], 2.0), ([1, -2], 1.0)])
    A = allequal_quadratic_matrix(inst, inst.nominal_weights())
    want = 2.0 * np.array([[1.0, 1.0], [1.0, 1.0]]) + \
        np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(A, want)
    for z in ([1, 1], [1, -1], [-1, 1]):
        z = np.array(z, dtype=float)
        direct = 2.0 * (z[0] + z[1]) ** 2 + (z[0] - z[1]) ** 2
        assert float(z @ A @ z) == pytest.approx(direct)
    with pytest.raises(DomainError, match="kind"):
        allequal_quadratic_matrix(triangle(), [1.0])
