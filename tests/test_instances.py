"""Instance model, parsing, and exact objective evaluators.

Frozen values come from hand enumeration or the inline brute-force helpers
below, never from the code under test.
"""

import json

import numpy as np
import pytest

from robustcut import streams
from robustcut.instances import (DICUT, MAX_DENSE_ENTRIES, MAXCUT, DomainError,
                                 ParseError, allequal_instance,
                                 allequal_value, check_cut, cut_value,
                                 dicut_value, graph_instance,
                                 instance_from_dict, instance_to_dict,
                                 instance_to_json, parse_edge_list,
                                 parse_instance, term_coefficients,
                                 total_weight)


def brute_max(inst, w, value_fn):
    """Independent exhaustive maximizer over all 2^n sign vectors."""
    best = -np.inf
    for bits in range(1 << inst.n):
        y = np.array([1 if (bits >> i) & 1 else -1 for i in range(inst.n)])
        best = max(best, value_fn(inst, y, w))
    return best


def triangle():
    return graph_instance(3, MAXCUT, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_triangle_construction():
    inst = triangle()
    assert inst.n == 3 and inst.m == 3 and inst.kind == MAXCUT
    assert np.allclose(inst.nominal_weights(), 1.0)


def test_column_layout_of_each_kind():
    # only dicut carries a reference column u0 ahead of the vertex columns
    cases = [(triangle(), False, 3),
             (graph_instance(3, DICUT, [(0, 1, 1.0), (2, 1, 1.0)]), True, 4),
             (allequal_instance(4, [([1, -2, 3], 1.0)]), False, 4)]
    for inst, reference, ncols in cases:
        assert (inst.reference, inst.ncols) == (reference, ncols)


def test_self_loop_rejected():
    with pytest.raises(DomainError):
        graph_instance(3, MAXCUT, [(1, 1, 1.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(DomainError):
        graph_instance(3, MAXCUT, [(0, 1, 1.0), (1, 0, 2.0)])
    # dicut arcs are ordered: both directions coexist, exact duplicates do not
    graph_instance(3, DICUT, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(DomainError):
        graph_instance(3, DICUT, [(0, 1, 1.0), (0, 1, 2.0)])


def test_negative_weight_needs_signed_flag():
    with pytest.raises(DomainError):
        graph_instance(2, MAXCUT, [(0, 1, -0.5)])
    inst = graph_instance(2, MAXCUT, [(0, 1, -0.5)], signed=True)
    assert inst.signed


def test_out_of_range_index_rejected():
    with pytest.raises(DomainError):
        graph_instance(3, MAXCUT, [(0, 3, 1.0)])
    with pytest.raises(DomainError):
        graph_instance(3, MAXCUT, [(-1, 1, 1.0)])


def test_n_is_bounded_by_the_dense_weight_matrix():
    # the largest n whose ncols x ncols weight matrix has at most
    # MAX_DENSE_ENTRIES entries is accepted, the next one is refused by name
    assert MAX_DENSE_ENTRIES == 2 ** 28  # ncols up to 16384
    for kind, limit in ((MAXCUT, 16384), (DICUT, 16383)):
        assert graph_instance(limit, kind, [(0, 1, 1.0)]).ncols ** 2 <= MAX_DENSE_ENTRIES
        with pytest.raises(DomainError, match=f"^n: {limit + 1} exceeds {limit}"):
            graph_instance(limit + 1, kind, [(0, 1, 1.0)])
    assert allequal_instance(16384, [([1, 2], 1.0)]).n == 16384
    with pytest.raises(DomainError, match="^n: 16385 exceeds 16384"):
        allequal_instance(16385, [([1, 2], 1.0)])
    with pytest.raises(DomainError, match="^n: "):
        instance_from_dict({"kind": MAXCUT, "n": 10 ** 400, "edges": [[1, 2, 1.0]]})


def test_allequal_validation():
    inst = allequal_instance(3, [([1, -2], 1.0), ([2, 3], 2.0)])
    assert inst.arity == 2 and inst.m == 2
    with pytest.raises(DomainError):  # mixed arity
        allequal_instance(3, [([1, 2], 1.0), ([1, 2, 3], 1.0)])
    with pytest.raises(DomainError):  # repeated variable inside a clause
        allequal_instance(3, [([1, -1], 1.0)])
    with pytest.raises(DomainError):  # arity below 2
        allequal_instance(3, [([1], 1.0)])
    with pytest.raises(DomainError):  # out of range literal
        allequal_instance(3, [([1, 4], 1.0)])


# ---------------------------------------------------------------------------
# evaluators against hand-computed and enumerated values
# ---------------------------------------------------------------------------

def test_cut_value_triangle():
    inst = triangle()
    w = inst.nominal_weights()
    assert cut_value(inst, np.array([1, 1, -1]), w) == 2.0
    assert cut_value(inst, np.array([1, 1, 1]), w) == 0.0


def test_cut_value_all_plus_is_zero():
    rng = streams.stream(11, streams.TAG_GEN, 0)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        edges = [(i, j, float(rng.uniform(0, 2))) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.6]
        if not edges:
            continue
        inst = graph_instance(n, MAXCUT, edges)
        assert cut_value(inst, np.ones(n), inst.nominal_weights()) == 0.0


def test_five_cycle_best_cut_is_four():
    edges = [(i, i + 1, 1.0) for i in range(4)] + [(0, 4, 1.0)]
    inst = graph_instance(5, MAXCUT, edges)
    assert brute_max(inst, inst.nominal_weights(), cut_value) == 4.0


def test_dicut_single_arc():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    w = inst.nominal_weights()
    assert dicut_value(inst, np.array([1, -1]), w) == 1.0   # forward
    assert dicut_value(inst, np.array([-1, 1]), w) == 0.0   # backward


def test_directed_triangle_cycle_best_is_one():
    # every nonempty proper vertex set cuts exactly one arc of a directed
    # 3-cycle, so the optimum is 1
    inst = graph_instance(3, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert brute_max(inst, inst.nominal_weights(), dicut_value) == 1.0


def test_transitive_tournament_best_is_two():
    inst = graph_instance(3, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert brute_max(inst, inst.nominal_weights(), dicut_value) == 2.0


def test_allequal_value_examples():
    eq = allequal_instance(2, [([1, 2], 1.0)])
    assert allequal_value(eq, np.array([1, 1]), eq.nominal_weights()) == 1.0
    ne = allequal_instance(2, [([1, -2], 1.0)])
    assert allequal_value(ne, np.array([1, 1]), ne.nominal_weights()) == 0.0
    two = allequal_instance(3, [([1, 2], 2.0), ([2, 3], 3.0)])
    assert allequal_value(two, np.array([1, 1, -1]), two.nominal_weights()) == 2.0


# ---------------------------------------------------------------------------
# structural invariants (seeded sweeps)
# ---------------------------------------------------------------------------

def random_graph(rng, kind):
    n = int(rng.integers(3, 9))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                w = float(rng.uniform(0.1, 2.0))
                if kind == DICUT and rng.random() < 0.5:
                    edges.append((j, i, w))
                else:
                    edges.append((i, j, w))
    if not edges:
        edges = [(0, 1, 1.0)]
    return graph_instance(n, kind, edges)


def test_cut_symmetry_and_range():
    rng = streams.stream(23, streams.TAG_GEN, 0)
    for _ in range(25):
        inst = random_graph(rng, MAXCUT)
        w = inst.nominal_weights()
        y = np.where(rng.random(inst.n) < 0.5, 1, -1)
        v = cut_value(inst, y, w)
        assert v == pytest.approx(cut_value(inst, -y, w))
        assert -1e-12 <= v <= total_weight(inst, w) + 1e-12


def test_dicut_forward_backward_disjoint():
    rng = streams.stream(29, streams.TAG_GEN, 0)
    for _ in range(25):
        inst = random_graph(rng, DICUT)
        w = inst.nominal_weights()
        y = np.where(rng.random(inst.n) < 0.5, 1, -1)
        both = dicut_value(inst, y, w) + dicut_value(inst, -y, w)
        assert both <= total_weight(inst, w) + 1e-12


def test_allequal_global_flip_invariance():
    rng = streams.stream(31, streams.TAG_GEN, 0)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, min(4, n) + 1))
        clauses = []
        for _ in range(int(rng.integers(2, 7))):
            vars_ = rng.choice(n, size=k, replace=False) + 1
            signs = np.where(rng.random(k) < 0.5, 1, -1)
            clauses.append(([int(s * v) for v, s in zip(vars_, signs)],
                            float(rng.uniform(0.1, 2.0))))
        inst = allequal_instance(n, clauses)
        x = np.where(rng.random(n) < 0.5, 1, -1)
        w = inst.nominal_weights()
        assert allequal_value(inst, x, w) == pytest.approx(
            allequal_value(inst, -x, w))


def test_term_coefficients_match_evaluators():
    rng = streams.stream(37, streams.TAG_GEN, 0)
    for kind, fn in ((MAXCUT, cut_value), (DICUT, dicut_value)):
        for _ in range(10):
            inst = random_graph(rng, kind)
            w = rng.uniform(0.0, 3.0, size=inst.m)
            y = np.where(rng.random(inst.n) < 0.5, 1, -1)
            assert term_coefficients(inst, y) @ w == pytest.approx(fn(inst, y, w))


def test_term_coefficients_of_a_block_are_its_rows():
    rng = streams.stream(41, streams.TAG_GEN, 0)
    insts = [random_graph(rng, MAXCUT), random_graph(rng, DICUT),
             allequal_instance(5, [([1, -2, 3], 1.0), ([2, 4, -5], 0.5),
                                   ([-1, 3, 5], 2.0)])]
    for inst in insts:
        Y = np.where(rng.random((9, inst.n)) < 0.5, 1, -1)
        block = term_coefficients(inst, Y)
        assert block.shape == (9, inst.m)
        assert block.flags["C_CONTIGUOUS"]  # the layout the inner oracle reads rows in
        for y, row in zip(Y, block):
            assert row.tobytes() == term_coefficients(inst, y).tobytes()


def test_check_cut_rejects_bad_vectors():
    inst = triangle()
    with pytest.raises(DomainError):
        check_cut(inst, np.array([1, 1]))          # wrong length
    with pytest.raises(DomainError):
        check_cut(inst, np.array([1, 0, -1]))      # entry not in {-1, +1}
    with pytest.raises(DomainError):
        check_cut(inst, np.ones((2, 2), dtype=int))      # block of wrong width
    with pytest.raises(DomainError):
        check_cut(inst, np.ones((2, 2, 3), dtype=int))   # not one block
    with pytest.raises(DomainError):
        check_cut(inst, np.array([[1, 1, 1], [1, 0, 1]]))
    with pytest.raises(DomainError, match="shape"):
        cut_value(inst, np.ones((1, 3), dtype=int))      # evaluators take one cut


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_json_round_trip_graph():
    inst = triangle()
    back = parse_instance(instance_to_json(inst))
    assert back == inst


def test_json_round_trip_allequal():
    inst = allequal_instance(4, [([1, -2, 3], 1.5), ([2, 3, -4], 0.5)])
    back = parse_instance(instance_to_json(inst))
    assert back == inst


def test_json_indices_are_one_based():
    d = instance_to_dict(triangle())
    assert sorted(tuple(e[:2]) for e in d["edges"]) == [(1, 2), (1, 3), (2, 3)]
    again = instance_from_dict(json.loads(json.dumps(d)))
    assert again.edges == triangle().edges


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_instance("{\"kind\": \"maxcut\"}")       # missing fields
    with pytest.raises(ParseError):
        parse_instance("not json at all {")
    with pytest.raises((ParseError, DomainError)):
        parse_instance(json.dumps({"kind": "maxcut", "n": 2,
                                   "edges": [[1, 1, 1.0]]}))
    with pytest.raises((ParseError, DomainError)):
        parse_instance(json.dumps({"kind": "maxcut", "n": 2,
                                   "edges": [[1, 2, -0.5]]}))


@pytest.mark.parametrize("d, field", [
    ({"kind": "maxcut", "n": 3, "edges": [[1, 2, float("nan")], [2, 3, 1.0]]}, "edges[0]"),
    ({"kind": "dicut", "n": 3, "edges": [[1, 2, 1.0], [2, 3, float("inf")]]}, "edges[1]"),
    ({"kind": "maxcut", "n": 3, "edges": [[1, 2, "heavy"]]}, "edges[0]"),
    ({"kind": "maxcut", "n": 3, "edges": [[1, None, 1.0]]}, "edges[0]"),
    ({"kind": "maxcut", "n": float("inf"), "edges": [[1, 2, 1.0]]}, "n"),
    ({"kind": "allequal", "n": 3, "clauses": [
        {"literals": [1, 2], "weight": 1.0},
        {"literals": [2, -3], "weight": float("-inf")}]}, "clauses[1].weight"),
])
def test_parse_rejects_non_finite_and_non_numeric(d, field):
    with pytest.raises(ParseError, match=field.replace("[", r"\[").replace("]", r"\]")):
        parse_instance(json.dumps(d))  # json writes NaN/Infinity and reads them back


def test_edge_list_rejects_non_finite_weight():
    with pytest.raises(ParseError, match=r"line 2: edges\[1\]"):
        parse_edge_list("1 2 1.0\n2 3 nan\n", kind=MAXCUT)
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("1 2 inf\n", kind=MAXCUT)


def test_edge_list_format():
    text = "# a triangle\n1 2 1.0\n2 3 0.5\n\n1 3 2.0\n"
    inst = parse_edge_list(text, kind=MAXCUT)
    assert inst.n == 3 and inst.m == 3
    assert total_weight(inst, inst.nominal_weights()) == pytest.approx(3.5)
    with pytest.raises(ParseError):
        parse_edge_list("1 2\n", kind=MAXCUT)  # missing weight column
