"""Elliptope SDP solver and relaxed objectives.

Anchors: the weighted-cycle SDP optimum has the closed form
(n/2) w (1 + cos(pi/n)) for even-free odd cycles (neighbors at angle
(n-1) pi / n in a planar embedding), giving C5 -> (5/2)(1 + cos(pi/5)).
"""

import math

import numpy as np
import pytest

from robustcut import sdp, streams
from robustcut.instances import (ALLEQUAL, DICUT, MAXCUT, allequal_instance,
                                 cut_value, graph_instance)
from robustcut.sdp import (GramFactor, default_rank, objective_gradient,
                           relaxed_value, solve_elliptope_max,
                           term_gram_coefficients)

C5_OPT = (5.0 / 2.0) * (1.0 + math.cos(math.pi / 5.0))  # 4.522542485937369


def cycle5():
    return graph_instance(5, MAXCUT, [(i, i + 1, 1.0) for i in range(4)] + [(0, 4, 1.0)])


def pentagon_factor():
    """Planar optimal C5 embedding: neighbors at angle 4*pi/5."""
    ang = np.arange(5) * 4.0 * math.pi / 5.0
    return GramFactor(np.vstack([np.cos(ang), np.sin(ang)]))


def brute_maxcut(inst, w):
    best = -np.inf
    for bits in range(1 << (inst.n - 1)):
        y = np.array([1] + [1 if (bits >> i) & 1 else -1 for i in range(inst.n - 1)])
        best = max(best, cut_value(inst, y, w))
    return best


# ---------------------------------------------------------------------------
# objective evaluators
# ---------------------------------------------------------------------------

def test_objective_antipodal_single_edge():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    U = GramFactor(np.array([[1.0, -1.0]]))
    assert relaxed_value(inst, U, np.ones(1)) == pytest.approx(1.0)


def test_objective_all_equal_is_zero():
    inst = cycle5()
    U = GramFactor(np.tile([[1.0], [0.0]], (1, 5)))
    assert relaxed_value(inst, U, np.ones(5)) == pytest.approx(0.0, abs=1e-12)


def test_objective_c5_pentagon_embedding():
    assert relaxed_value(cycle5(), pentagon_factor(), np.ones(5)) == \
        pytest.approx(C5_OPT, abs=1e-12)


def test_dicut_coefficient_formula():
    rng = streams.stream(3, streams.TAG_GEN, 0)
    inst = graph_instance(4, DICUT, [(0, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0)])
    U = rng.standard_normal((3, 5))
    U /= np.linalg.norm(U, axis=0)
    coef = term_gram_coefficients(inst, GramFactor(U, reference=True))
    u0 = U[:, 0]
    for t, (i, j, _) in enumerate(inst.edges):
        ui, uj = U[:, i + 1], U[:, j + 1]
        want = (1.0 + u0 @ ui - u0 @ uj - ui @ uj) / 4.0
        assert coef[t] == pytest.approx(want, abs=1e-12)


def test_allequal_coefficient_formula():
    rng = streams.stream(9, streams.TAG_GEN, 0)
    inst = allequal_instance(4, [([1, -2, 3], 1.0), ([2, 3, -4], 1.0)])
    U = rng.standard_normal((4, 4))
    U /= np.linalg.norm(U, axis=0)
    coef = term_gram_coefficients(inst, GramFactor(U))
    for t, (lits, _) in enumerate(inst.clauses):
        s = sum(sign * U[:, v] for v, sign in lits)
        assert coef[t] == pytest.approx((s @ s) / 9.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = streams.stream(15, streams.TAG_GEN, 0)
    cases = [
        (graph_instance(4, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)]), False),
        (graph_instance(4, DICUT, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)]), True),
        (allequal_instance(4, [([1, 2, -3], 1.0), ([2, -3, 4], 1.0)]), False),
    ]
    for inst, ref in cases:
        ncols = inst.n + 1 if ref else inst.n
        U = rng.standard_normal((3, ncols))
        U /= np.linalg.norm(U, axis=0)
        w = rng.uniform(0.2, 1.5, size=inst.m)
        G = objective_gradient(inst, GramFactor(U, reference=ref), w)
        eps = 1e-6
        for _ in range(6):
            r, c = int(rng.integers(3)), int(rng.integers(ncols))
            Up = U.copy()
            Up[r, c] += eps
            Um = U.copy()
            Um[r, c] -= eps
            # unnormalized directional derivative of the quadratic objective
            num = (relaxed_value(inst, GramFactor(Up, reference=ref), w)
                   - relaxed_value(inst, GramFactor(Um, reference=ref), w)) / (2 * eps)
            assert G[r, c] == pytest.approx(num, abs=1e-5)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_k2_antipodal_optimum():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    factor, rep = solve_elliptope_max(inst, np.ones(1), seed=0)
    assert rep.value == pytest.approx(1.0, abs=1e-6)
    assert factor.U[:, 0] @ factor.U[:, 1] == pytest.approx(-1.0, abs=1e-6)


def test_c5_reaches_analytic_optimum():
    factor, rep = solve_elliptope_max(cycle5(), np.ones(5), seed=1)
    assert rep.converged
    assert rep.value == pytest.approx(C5_OPT, abs=1e-4)
    assert np.allclose(np.linalg.norm(factor.U, axis=0), 1.0, atol=1e-10)


def test_zero_weights_single_pass():
    inst = cycle5()
    _, rep = solve_elliptope_max(inst, np.zeros(5), seed=0)
    assert rep.value == 0.0
    assert rep.iterations == 1
    assert rep.converged


def test_seed_determinism_bitwise():
    inst = cycle5()
    f1, r1 = solve_elliptope_max(inst, np.ones(5), seed=42)
    f2, r2 = solve_elliptope_max(inst, np.ones(5), seed=42)
    assert np.array_equal(f1.U, f2.U)
    assert r1.value == r2.value
    f3, _ = solve_elliptope_max(inst, np.ones(5), seed=43)
    assert not np.array_equal(f1.U, f3.U)


def test_relaxation_dominates_brute_force():
    rng = streams.stream(21, streams.TAG_GEN, 0)
    for trial in range(12):
        n = int(rng.integers(3, 8))
        edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.7]
        if not edges:
            continue
        inst = graph_instance(n, MAXCUT, edges)
        w = inst.nominal_weights()
        _, rep = solve_elliptope_max(inst, w, seed=trial)
        assert rep.value >= brute_maxcut(inst, w) - 1e-7


def test_warm_start_only_polishes():
    inst = cycle5()
    start = pentagon_factor()
    factor, rep = solve_elliptope_max(inst, np.ones(5), rank=2, restarts=0,
                                      seed=0, start=start)
    assert rep.value == pytest.approx(C5_OPT, abs=1e-9)


def test_max_iter_reports_non_convergence():
    _, rep = solve_elliptope_max(cycle5(), np.ones(5), seed=0, max_iter=2,
                                 restarts=1)
    assert not rep.converged
    assert rep.value > 0.0  # partial value still reported


def test_default_rank_formula():
    assert default_rank(2) == math.ceil(math.sqrt(4.0)) + 1
    assert default_rank(8) == math.ceil(math.sqrt(16.0)) + 1
    assert default_rank(50) == 11


# ---------------------------------------------------------------------------
# vector kernels against the per-column / per-clause loop references
# ---------------------------------------------------------------------------

def ref_pass_maxcut(U, nbrs, nw):
    moved = 0.0
    for i in range(len(nbrs)):
        if nbrs[i].size == 0:
            continue
        g = -(U[:, nbrs[i]] @ nw[i])
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            g /= nrm
            moved = max(moved, float(np.max(np.abs(g - U[:, i]))))
            U[:, i] = g
    return moved


def ref_pass_dicut(U, out_nbrs, out_w, in_nbrs, in_w):
    n = U.shape[1] - 1
    moved = 0.0
    for col in range(n + 1):
        if col == 0:
            g = np.zeros(U.shape[0])
            for i in range(n):
                if out_nbrs[i].size:
                    g += U[:, i + 1] * out_w[i].sum() - U[:, out_nbrs[i] + 1] @ out_w[i]
        else:
            i = col - 1
            g = np.zeros(U.shape[0])
            if out_nbrs[i].size:
                g += U[:, 0] * out_w[i].sum() - U[:, out_nbrs[i] + 1] @ out_w[i]
            if in_nbrs[i].size:
                g += -U[:, 0] * in_w[i].sum() - U[:, in_nbrs[i] + 1] @ in_w[i]
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            g /= nrm
            moved = max(moved, float(np.max(np.abs(g - U[:, col]))))
            U[:, col] = g
    return moved


def ref_pass_allequal(U, var_clauses, clause_vars, clause_signs, w):
    sums = [U[:, clause_vars[t]] @ clause_signs[t] for t in range(len(clause_vars))]
    moved = 0.0
    for i in range(U.shape[1]):
        g = np.zeros(U.shape[0])
        for t, s in var_clauses[i]:
            g += (w[t] * s) * (sums[t] - s * U[:, i])
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            g /= nrm
            moved = max(moved, float(np.max(np.abs(g - U[:, i]))))
            old = U[:, i].copy()
            U[:, i] = g
            for t, s in var_clauses[i]:
                sums[t] += s * (g - old)
    return moved


def ref_pass(inst, w):
    """One sweep built the loop way: O(n m) adjacency masks per call."""
    if inst.kind == MAXCUT:
        i_idx = np.array([e[0] for e in inst.edges], dtype=int)
        j_idx = np.array([e[1] for e in inst.edges], dtype=int)
        nbrs, nw = [], []
        for v in range(inst.n):
            mask_i, mask_j = i_idx == v, j_idx == v
            nbrs.append(np.concatenate([j_idx[mask_i], i_idx[mask_j]]))
            nw.append(np.concatenate([w[mask_i], w[mask_j]]))
        return lambda U: ref_pass_maxcut(U, nbrs, nw)
    if inst.kind == DICUT:
        i_idx = np.array([e[0] for e in inst.edges], dtype=int)
        j_idx = np.array([e[1] for e in inst.edges], dtype=int)
        out_nbrs, out_w, in_nbrs, in_w = [], [], [], []
        for v in range(inst.n):
            mask_o, mask_in = i_idx == v, j_idx == v
            out_nbrs.append(j_idx[mask_o])
            out_w.append(w[mask_o] / 4.0)
            in_nbrs.append(i_idx[mask_in])
            in_w.append(w[mask_in] / 4.0)
        return lambda U: ref_pass_dicut(U, out_nbrs, out_w, in_nbrs, in_w)
    clause_vars = [np.array([v for v, _ in lits], dtype=int) for lits, _ in inst.clauses]
    clause_signs = [np.array([s for _, s in lits], dtype=float) for lits, _ in inst.clauses]
    var_clauses = [[] for _ in range(inst.n)]
    for t, (lits, _) in enumerate(inst.clauses):
        for v, s in lits:
            var_clauses[v].append((t, float(s)))
    return lambda U: ref_pass_allequal(U, var_clauses, clause_vars, clause_signs, w)


def ref_coefficients_allequal(inst, U):
    coefs = np.empty(inst.m)
    k = inst.arity
    for t, (lits, _) in enumerate(inst.clauses):
        s = sum(sgn * U[:, v] for v, sgn in lits)
        coefs[t] = float(s @ s) / (k * k)
    return coefs


def ref_gradient_allequal(inst, U, w):
    G = np.zeros_like(U)
    k2 = float(inst.arity ** 2)
    for (lits, _), wc in zip(inst.clauses, w):
        s = sum(sgn * U[:, v] for v, sgn in lits)
        for v, sgn in lits:
            G[:, v] += (2.0 * wc * sgn / k2) * s
    return G


def random_graph(rng, n, kind, p):
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and (kind == DICUT or i < j)]
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in pairs if rng.random() < p]
    return graph_instance(n, kind, edges)


def random_allequal(rng, n, k, m):
    clauses = []
    for _ in range(m):
        lits = (rng.choice(n, size=k, replace=False) + 1) * rng.choice([-1, 1], size=k)
        clauses.append(([int(x) for x in lits], float(rng.uniform(0.1, 2.0))))
    return allequal_instance(n, clauses)


def kernel_cases():
    rng = streams.stream(41, streams.TAG_GEN, 0)
    cases = [
        # isolated vertex 3; n = 1 without edges
        graph_instance(5, MAXCUT, [(0, 1, 1.0), (1, 2, 2.0), (0, 4, 0.5), (2, 4, 1.5)]),
        graph_instance(1, MAXCUT, []),
        # vertex 0 has only out-arcs, vertex 3 only in-arcs, vertex 4 none
        graph_instance(5, DICUT, [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 1.5), (2, 3, 1.0),
                                  (1, 3, 2.0), (2, 1, 0.7)]),
        graph_instance(1, DICUT, []),
        # variable 5 occurs in no clause
        allequal_instance(6, [([1, -2, 3], 1.0), ([2, 3, -4], 0.5), ([-1, 4, 6], 2.0)]),
    ]
    for n, p in ((8, 0.5), (15, 0.3), (24, 0.6)):
        cases.append(random_graph(rng, n, MAXCUT, p))
        cases.append(random_graph(rng, n, DICUT, p))
    # (6, 3, 40): every variable sits in about 20 clauses
    for n, k, m in ((6, 2, 9), (12, 3, 20), (20, 4, 30), (9, 5, 12), (6, 3, 40)):
        cases.append(random_allequal(rng, n, k, m))
    return cases


def bits(a):
    return np.asarray(a).tobytes()


def test_row_sum_adds_rows_in_order():
    rng = streams.stream(44, streams.TAG_GEN, 0)
    for shape in ((1, 1), (20, 1), (20, 3), (9, 11)):
        G = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=(shape[0], 1))
        G[rng.random(shape) < 0.2] = 0.0
        G[rng.random(shape) < 0.2] = -0.0
        g = np.zeros(shape[1])
        for row in G:
            g += row
        assert bits(sdp._row_sum(G)) == bits(g)


@pytest.mark.parametrize("rank", [1, 2, 4, 7])
def test_ascent_pass_matches_loop_reference_bitwise(rank):
    rng = streams.stream(42, streams.TAG_GEN, rank)
    for inst in kernel_cases():
        w = rng.uniform(0.0, 2.0, size=inst.m)
        ncols = sdp.factor_columns(inst)
        U = rng.standard_normal((rank, ncols))
        U /= np.linalg.norm(U, axis=0)
        U_ref = U.copy()
        step, ref = sdp._ascent_pass(inst, w), ref_pass(inst, w)
        for _ in range(6):
            before = U.copy()
            step(U)
            moved = ref(U_ref)
            assert bits(U) == bits(U_ref), (inst.kind, inst.n, inst.m)
            assert (moved == 0.0) == np.array_equal(U, before)


def test_allequal_coefficients_and_gradient_match_loop_reference_bitwise():
    rng = streams.stream(43, streams.TAG_GEN, 0)
    for inst in kernel_cases():
        if inst.kind != ALLEQUAL:
            continue
        for rank in (1, 3, 6):
            U = rng.standard_normal((rank, inst.n))
            U /= np.linalg.norm(U, axis=0)
            w = rng.uniform(-1.0, 2.0, size=inst.m)
            fac = GramFactor(U)
            assert bits(term_gram_coefficients(inst, fac)) == \
                bits(ref_coefficients_allequal(inst, U))
            assert bits(objective_gradient(inst, fac, w)) == \
                bits(ref_gradient_allequal(inst, U, w))


def test_solver_fixed_point_and_degenerate_instances():
    # n = 1 and edgeless instances stop after one sweep that moves nothing
    for inst in (graph_instance(1, MAXCUT, []), graph_instance(1, DICUT, [])):
        factor, rep = solve_elliptope_max(inst, np.zeros(0), seed=0)
        assert rep.iterations == 1 and rep.converged and rep.value == 0.0
        assert factor.U.shape[1] == sdp.factor_columns(inst)
    inst = kernel_cases()[4]
    _, rep = solve_elliptope_max(inst, inst.nominal_weights(), seed=0)
    assert rep.converged


def test_instance_index_arrays_are_read_only_and_built_once():
    graph = kernel_cases()[2]
    i, j = graph.endpoints()
    assert graph.endpoints()[0] is i and graph.endpoints()[1] is j
    inc = graph.incidence
    assert graph.incidence is inc
    assert [(list(e), list(nb), k) for e, nb, k in inc] == [
        ([0, 1], [1, 2], 2), ([2, 4, 0, 5], [2, 3, 0, 2], 2),
        ([3, 5, 1, 2], [3, 1, 0, 1], 2), ([3, 4], [2, 1], 0), ([], [], 0)]
    ae = kernel_cases()[4]
    V, S = ae.clause_arrays
    assert ae.clause_arrays[0] is V
    assert ae.var_clauses is ae.var_clauses
    assert V.tolist() == [[0, 1, 2], [1, 2, 3], [0, 3, 5]]
    assert S.tolist() == [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]]
    assert [(t.tolist(), s.tolist()) for t, s in ae.var_clauses] == [
        ([0, 2], [1.0, -1.0]), ([0, 1], [-1.0, 1.0]), ([0, 1], [1.0, 1.0]),
        ([1, 2], [-1.0, 1.0]), ([], []), ([2], [1.0])]
    arrays = [i, j, V, S] + [a for e, nb, _ in inc for a in (e, nb)] + \
        [a for pair in ae.var_clauses for a in pair]
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        i[0] = 3
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
    # solving reuses the instance's arrays instead of rebuilding them
    for inst in (graph, ae):
        solve_elliptope_max(inst, inst.nominal_weights(), seed=0, restarts=1)
    assert graph.incidence is inc and graph.endpoints()[0] is i
    assert ae.clause_arrays[0] is V
    # cached arrays are not part of the instance's value
    assert graph == graph_instance(5, DICUT, [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 1.5),
                                              (2, 3, 1.0), (1, 3, 2.0), (2, 1, 0.7)])
