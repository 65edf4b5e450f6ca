"""Elliptope SDP solver and relaxed objectives.

Anchors: the weighted-cycle SDP optimum has the closed form
(n/2) w (1 + cos(pi/n)) for even-free odd cycles (neighbors at angle
(n-1) pi / n in a planar embedding), giving C5 -> (5/2)(1 + cos(pi/5)).
"""

import math

import numpy as np
import pytest

from robustcut import sdp, streams
from robustcut.instances import (ALLEQUAL, DICUT, MAXCUT, DomainError,
                                 allequal_instance, cut_value, graph_instance)
from robustcut.sdp import (SolveReport, default_rank, objective_gradient,
                           relaxed_value, solve_elliptope_max, stacked_ascent,
                           term_gram_coefficients)

C5_OPT = (5.0 / 2.0) * (1.0 + math.cos(math.pi / 5.0))  # 4.522542485937369


def cycle5():
    return graph_instance(5, MAXCUT, [(i, i + 1, 1.0) for i in range(4)] + [(0, 4, 1.0)])


def pentagon_factor():
    """Planar optimal C5 embedding: neighbors at angle 4*pi/5."""
    ang = np.arange(5) * 4.0 * math.pi / 5.0
    return np.vstack([np.cos(ang), np.sin(ang)])


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
    U = np.array([[1.0, -1.0]])
    assert relaxed_value(inst, U, np.ones(1)) == pytest.approx(1.0)


def test_objective_all_equal_is_zero():
    inst = cycle5()
    U = np.tile([[1.0], [0.0]], (1, 5))
    assert relaxed_value(inst, U, np.ones(5)) == pytest.approx(0.0, abs=1e-12)


def test_objective_c5_pentagon_embedding():
    assert relaxed_value(cycle5(), pentagon_factor(), np.ones(5)) == \
        pytest.approx(C5_OPT, abs=1e-12)


def test_dicut_coefficient_formula():
    rng = streams.stream(3, streams.TAG_GEN, 0)
    inst = graph_instance(4, DICUT, [(0, 1, 1.0), (2, 1, 1.0), (3, 2, 1.0)])
    U = rng.standard_normal((3, 5))
    U /= np.linalg.norm(U, axis=0)
    coef = term_gram_coefficients(inst, U)
    u0 = U[:, 0]
    for t, (i, j, _) in enumerate(inst.edges):
        ui, uj = U[:, i + 1], U[:, j + 1]
        want = (1.0 + u0 @ ui - u0 @ uj - ui @ uj) / 4.0
        assert coef[t] == pytest.approx(want, abs=1e-12)


def test_factor_width_follows_the_column_layout():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    with pytest.raises(DomainError, match="expected 3 columns for dicut"):
        term_gram_coefficients(inst, np.eye(2))
    with pytest.raises(DomainError, match="expected 3 columns for dicut"):
        objective_gradient(inst, np.ones((2, 4)), [1.0])
    assert term_gram_coefficients(inst, np.ones((1, 3)))[0] == 0.0


def test_allequal_coefficient_formula():
    rng = streams.stream(9, streams.TAG_GEN, 0)
    inst = allequal_instance(4, [([1, -2, 3], 1.0), ([2, 3, -4], 1.0)])
    U = rng.standard_normal((4, 4))
    U /= np.linalg.norm(U, axis=0)
    coef = term_gram_coefficients(inst, U)
    for t, (lits, _) in enumerate(inst.clauses):
        s = sum(sign * U[:, v] for v, sign in lits)
        assert coef[t] == pytest.approx((s @ s) / 9.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = streams.stream(15, streams.TAG_GEN, 0)
    cases = [
        graph_instance(4, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)]),
        graph_instance(4, DICUT, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)]),
        allequal_instance(4, [([1, 2, -3], 1.0), ([2, -3, 4], 1.0)]),
    ]
    for inst in cases:
        ncols = inst.ncols
        U = rng.standard_normal((3, ncols))
        U /= np.linalg.norm(U, axis=0)
        w = rng.uniform(0.2, 1.5, size=inst.m)
        G = objective_gradient(inst, U, w)
        eps = 1e-6
        for _ in range(6):
            r, c = int(rng.integers(3)), int(rng.integers(ncols))
            Up = U.copy()
            Up[r, c] += eps
            Um = U.copy()
            Um[r, c] -= eps
            # unnormalized directional derivative of the quadratic objective
            num = (relaxed_value(inst, Up, w)
                   - relaxed_value(inst, Um, w)) / (2 * eps)
            assert G[r, c] == pytest.approx(num, abs=1e-5)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_k2_antipodal_optimum():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    factor, rep = solve_elliptope_max(inst, np.ones(1), seed=0)
    assert rep.value == pytest.approx(1.0, abs=1e-6)
    assert factor[:, 0] @ factor[:, 1] == pytest.approx(-1.0, abs=1e-6)


def test_c5_reaches_analytic_optimum():
    factor, rep = solve_elliptope_max(cycle5(), np.ones(5), seed=1)
    assert rep.converged
    assert rep.value == pytest.approx(C5_OPT, abs=1e-4)
    assert np.allclose(np.linalg.norm(factor, axis=0), 1.0, atol=1e-10)


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
    assert np.array_equal(f1, f2)
    assert r1.value == r2.value
    f3, _ = solve_elliptope_max(inst, np.ones(5), seed=43)
    assert not np.array_equal(f1, f3)


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
    _, (rep,) = stacked_ascent(inst, np.ones((1, 5)), pentagon_factor()[None])
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
# the pair-table kernels against per-column / per-term loop references
# ---------------------------------------------------------------------------

def ref_pass_maxcut(U, nbrs, nw, order):
    for i in order:
        if nbrs[i].size == 0:
            continue
        g = -(U[:, nbrs[i]] @ nw[i])
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            g /= nrm
            U[:, i] = g


def ref_pass_dicut(U, out_nbrs, out_w, in_nbrs, in_w, order):
    n = U.shape[1] - 1
    for col in order:
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
            U[:, col] = g


def ref_pass_allequal(U, var_clauses, clause_vars, clause_signs, w, order):
    sums = [U[:, clause_vars[t]] @ clause_signs[t] for t in range(len(clause_vars))]
    for i in order:
        g = np.zeros(U.shape[0])
        for t, s in var_clauses[i]:
            g += (w[t] * s) * (sums[t] - s * U[:, i])
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            g /= nrm
            old = U[:, i].copy()
            U[:, i] = g
            for t, s in var_clauses[i]:
                sums[t] += s * (g - old)


def ref_pass(inst, w):
    """One sweep built the loop way: O(n m) adjacency masks per call.  It
    visits the columns class by class, in the order of the instance's colour
    classes, as the class sweep does."""
    order = np.concatenate(inst.colour_classes).tolist()
    if inst.kind == MAXCUT:
        i_idx = np.array([e[0] for e in inst.edges], dtype=int)
        j_idx = np.array([e[1] for e in inst.edges], dtype=int)
        nbrs, nw = [], []
        for v in range(inst.n):
            mask_i, mask_j = i_idx == v, j_idx == v
            nbrs.append(np.concatenate([j_idx[mask_i], i_idx[mask_j]]))
            nw.append(np.concatenate([w[mask_i], w[mask_j]]))
        return lambda U: ref_pass_maxcut(U, nbrs, nw, order)
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
        return lambda U: ref_pass_dicut(U, out_nbrs, out_w, in_nbrs, in_w, order)
    clause_vars = [np.array([v for v, _ in lits], dtype=int) for lits, _ in inst.clauses]
    clause_signs = [np.array([s for _, s in lits], dtype=float) for lits, _ in inst.clauses]
    var_clauses = [[] for _ in range(inst.n)]
    for t, (lits, _) in enumerate(inst.clauses):
        for v, s in lits:
            var_clauses[v].append((t, float(s)))
    return lambda U: ref_pass_allequal(U, var_clauses, clause_vars, clause_signs, w,
                                       order)


def ref_coefficients_maxcut(inst, U):
    coefs = np.empty(inst.m)
    for t, (i, j, _) in enumerate(inst.edges):
        coefs[t] = (1.0 - float(U[:, i] @ U[:, j])) / 2.0
    return coefs


def ref_gradient_maxcut(inst, U, w):
    G = np.zeros_like(U)
    for (i, j, _), we in zip(inst.edges, w):
        G[:, i] -= (we / 2.0) * U[:, j]
        G[:, j] -= (we / 2.0) * U[:, i]
    return G


def ref_coefficients_dicut(inst, U):
    coefs = np.empty(inst.m)
    u0 = U[:, 0]
    for t, (i, j, _) in enumerate(inst.edges):
        ui, uj = U[:, i + 1], U[:, j + 1]
        coefs[t] = (1.0 + float(u0 @ ui) - float(u0 @ uj) - float(ui @ uj)) / 4.0
    return coefs


def ref_gradient_dicut(inst, U, w):
    G = np.zeros_like(U)
    u0 = U[:, 0]
    for (i, j, _), wa in zip(inst.edges, w):
        ui, uj = U[:, i + 1], U[:, j + 1]
        q = wa / 4.0
        G[:, 0] += q * (ui - uj)
        G[:, i + 1] += q * (u0 - uj)
        G[:, j + 1] += q * (-u0 - ui)
    return G


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


REF_COEFFICIENTS = {MAXCUT: ref_coefficients_maxcut, DICUT: ref_coefficients_dicut,
                    ALLEQUAL: ref_coefficients_allequal}
REF_GRADIENT = {MAXCUT: ref_gradient_maxcut, DICUT: ref_gradient_dicut,
                ALLEQUAL: ref_gradient_allequal}


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


def random_factor(rng, inst, rank):
    U = rng.standard_normal((rank, inst.ncols))
    U /= np.linalg.norm(U, axis=0)
    return U


def assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol


def test_coefficients_and_gradient_match_loop_reference():
    rng = streams.stream(43, streams.TAG_GEN, 0)
    for inst in kernel_cases():
        for rank in (1, 3, 6):
            fac = random_factor(rng, inst, rank)
            w = rng.uniform(-1.0, 2.0, size=inst.m)
            assert_close(term_gram_coefficients(inst, fac),
                         REF_COEFFICIENTS[inst.kind](inst, fac))
            assert_close(objective_gradient(inst, fac, w),
                         REF_GRADIENT[inst.kind](inst, fac, w))


@pytest.mark.parametrize("rank", [2, 4, 7])
def test_ascent_pass_matches_loop_reference(rank):
    rng = streams.stream(42, streams.TAG_GEN, rank)
    for inst in kernel_cases():
        w = rng.uniform(0.0, 2.0, size=inst.m)
        U = random_factor(rng, inst, rank)
        U_ref = U.copy()
        step, ref = sdp._ascent_pass(inst, w[None]), ref_pass(inst, w)
        for _ in range(6):
            step(U[None])
            ref(U_ref)
            assert_close(U, U_ref)


def test_sweep_value_does_not_overflow_before_the_objective():
    # C(w) has entries of 1e308; the value 1.5e308 is finite
    inst = graph_instance(3, MAXCUT, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
    w = inst.nominal_weights()
    fac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    step = sdp._ascent_pass(inst, w[None])
    with np.errstate(over="raise"):
        assert step.values(fac[None]) == [relaxed_value(inst, fac, w)] == [1.5e308]
    assert step.scale == [2.0 ** 1023]
    # an exponent of two: C(w) / scale is exact, so small weights keep their bits
    small = sdp._ascent_pass(inst, np.array([[3.0, 1.0, 0.25]]))
    assert small.scale == [2.0] and small.C[0, 0, 1] == -0.75


def test_rank1_ascent_pass_is_monotone_with_exact_fixed_points():
    # At rank 1 every column is +-1 and a column whose local term cancels to
    # zero is a tie that summation order may break either way, so the pass
    # is checked for what it guarantees rather than against the loops.
    rng = streams.stream(42, streams.TAG_GEN, 1)
    fixed = 0
    for inst in kernel_cases():
        w = rng.uniform(0.0, 2.0, size=inst.m)
        fac = random_factor(rng, inst, 1)
        step = sdp._ascent_pass(inst, w[None])
        for _ in range(6):
            before = fac.copy()
            value = relaxed_value(inst, fac, w)
            step(fac[None])
            assert relaxed_value(inst, fac, w) >= value - 1e-12
            if np.array_equal(fac, before):
                fixed += 1
                _, (rep,) = stacked_ascent(inst, w[None], before[None])
                assert (rep.iterations, rep.residual, rep.converged) == (1, 0.0, True)
    assert fixed > 0


def test_solver_fixed_point_and_degenerate_instances():
    # n = 1 and edgeless instances stop after one sweep that moves nothing
    for inst in (graph_instance(1, MAXCUT, []), graph_instance(1, DICUT, [])):
        factor, rep = solve_elliptope_max(inst, np.zeros(0), seed=0)
        assert rep.iterations == 1 and rep.converged and rep.value == 0.0
        assert factor.shape[1] == inst.ncols
    inst = kernel_cases()[4]
    _, rep = solve_elliptope_max(inst, inst.nominal_weights(), seed=0)
    assert rep.converged


def test_instance_index_arrays_are_read_only_and_built_once():
    graph = kernel_cases()[2]
    i, j = graph.endpoints()
    assert graph.endpoints()[0] is i and graph.endpoints()[1] is j
    table = graph.pair_table
    assert graph.pair_table is table
    c0, term, a, b, beta = table
    assert c0 == 0.25
    assert term.tolist() == list(range(6)) * 3
    assert a.tolist() == [0] * 12 + [1, 1, 2, 3, 2, 3]
    assert b.tolist() == [1, 1, 2, 3, 2, 3] + [2, 3, 3, 4, 4, 2] * 2
    assert beta.tolist() == [0.25] * 6 + [-0.25] * 12
    ae = kernel_cases()[4]
    V, S = ae.clause_arrays
    assert ae.clause_arrays[0] is V
    assert V.tolist() == [[0, 1, 2], [1, 2, 3], [0, 3, 5]]
    assert S.tolist() == [[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]]
    ae_table = ae.pair_table
    assert ae.pair_table is ae_table
    c0, term, a, b, beta = ae_table
    # literal pairs (0,0), (0,1), (0,2), (1,1), (1,2), (2,2) of each clause
    assert c0 == 0.0
    assert term.tolist() == [0] * 6 + [1] * 6 + [2] * 6
    assert a.tolist() == [0, 0, 0, 1, 1, 2, 1, 1, 1, 2, 2, 3, 0, 0, 0, 3, 3, 5]
    assert b.tolist() == [0, 1, 2, 1, 2, 2, 1, 2, 3, 2, 3, 3, 0, 3, 5, 3, 5, 5]
    assert beta.tolist() == [x / 9.0 for x in [1, -2, 2, 1, -2, 1, 1, 2, -2, 1, -2, 1,
                                                1, -2, -2, 1, 2, 1]]
    arrays = [i, j, V, S] + list(table[1:]) + list(ae_table[1:])
    for arr in arrays:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        i[0] = 3
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
    with pytest.raises(ValueError):
        ae_table[4][0] = 0.0
    # solving reuses the instance's arrays instead of rebuilding them
    for inst in (graph, ae):
        solve_elliptope_max(inst, inst.nominal_weights(), seed=0, restarts=1)
    assert graph.pair_table is table and graph.endpoints()[0] is i
    assert ae.pair_table is ae_table and ae.clause_arrays[0] is V
    # cached arrays are not part of the instance's value
    assert graph == graph_instance(5, DICUT, [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 1.5),
                                              (2, 3, 1.0), (1, 3, 2.0), (2, 1, 0.7)])


# ---------------------------------------------------------------------------
# the stacked ascent against single runs
# ---------------------------------------------------------------------------

def anderson_reference(window):
    """One member's Anderson extrapolation from its last K + 1 factors
    `window` (a list, oldest first), by the formulas of Bertrand & Massias
    (2021) and per member: differences D_k, z solving
    (D D^T / tr + 1e-10 I) z = 1, c = z / sum(z), and sum_k c_k U_k over the
    last K factors, taken as U_K - sum_{j<K} (c_1 + ... + c_j) D_j; moved
    columns renormalised.  None where the extrapolation is skipped (zero
    trace) or has a zero column."""
    K = len(window) - 1
    last = window[-1]
    D = np.stack([(window[k + 1] - window[k]).ravel() for k in range(K)])
    gram = D @ D.T
    tr = np.trace(gram)
    if not tr > 0.0:
        return None
    z = np.linalg.solve(gram / tr + 1e-10 * np.eye(K), np.ones((K, 1)))[:, 0]
    c = z / np.sum(z)
    E = last - (np.cumsum(c[:-1])[None] @ D[1:]).reshape(last.shape)
    moved = np.any(E != last, axis=0)
    nrm = np.sqrt(np.add.reduce(E * E, axis=0))  # summed row by row, as the sweep does
    if np.any(nrm[moved] == 0.0):
        return None
    E[:, moved] /= nrm[moved]
    return E


def single_run(inst, w, U0, max_iter=2000, tol=sdp.ASCENT_TOL, anderson=True):
    """One start's ascent: sweeps of a stack of one, each fifth followed by
    an Anderson extrapolation that is kept only where its value is finite
    and strictly higher, until an exact fixed point, two sweeps in a row
    that gain less than `tol` relative, or `max_iter`; the reference for
    each member of stacked_ascent."""
    step = sdp._ascent_pass(inst, w[None])
    U = U0[None].copy()
    val = step.values(U)[0]
    window = [U[0].copy()]
    stall = 0
    residual = 0.0
    for sweep in range(1, max_iter + 1):
        before = U.copy()
        step(U)
        new = step.values(U)[0]
        window.append(U[0].copy())
        if sweep % sdp.ANDERSON_DEPTH == 0:
            E = anderson_reference(window) if anderson else None
            if E is not None:
                with np.errstate(all="ignore"):
                    v = step.values(E[None])[0]
                if math.isfinite(v) and v > new:
                    U[0], new = E, v
            window = [U[0].copy()]
        residual = abs(new - val) / max(1.0, abs(new))
        val = new
        if np.array_equal(U, before):
            return U[0], SolveReport(val, sweep, 0.0, True)
        if residual < tol:
            stall += 1
            if stall >= 2:
                return U[0], SolveReport(val, sweep, residual, True)
        else:
            stall = 0
    return U[0], SolveReport(val, max_iter, residual, False)


def assert_members_are_single_runs(inst, W, starts, tols=None, **kwargs):
    U, reports = stacked_ascent(inst, W, starts, tols=tols, **kwargs)
    assert U.shape == starts.shape and len(reports) == len(W)
    for r in range(len(W)):
        tol = sdp.ASCENT_TOL if tols is None else tols[r]
        U1, rep1 = single_run(inst, W[r], starts[r], tol=tol, **kwargs)
        assert U[r].tobytes() == U1.tobytes()
        assert vars(reports[r]) == vars(rep1)
    return U, reports


def random_stack(rng, inst, R, rank):
    return np.stack([random_factor(rng, inst, rank) for _ in range(R)])


@pytest.mark.parametrize("R", [1, 2, 3, 4])
def test_stacked_ascent_members_are_single_runs(R):
    rng = streams.stream(47, streams.TAG_GEN, R)
    spread = []
    for inst in kernel_cases():
        W = rng.uniform(0.0, 2.0, size=(R, inst.m))
        starts = random_stack(rng, inst, R, default_rank(inst.ncols))
        _, reports = assert_members_are_single_runs(inst, W, starts)
        spread.append(len({rep.iterations for rep in reports}))
    # members leave the stack at different sweeps
    assert R == 1 or max(spread) == R


def test_stacked_ascent_members_keep_their_own_tolerance():
    # each member stops at its own tolerance, with the bits of a stack of
    # one at that tolerance; a tighter one sweeps at least as long
    rng = streams.stream(67, streams.TAG_GEN, 0)
    tols = [1e-12, sdp.ASCENT_TOL, 1e-6, 1e-12]
    for inst in kernel_cases()[5:9]:
        w = rng.uniform(0.5, 1.5, size=inst.m)
        start = random_factor(rng, inst, default_rank(inst.ncols))
        _, reports = assert_members_are_single_runs(inst, np.tile(w, (4, 1)),
                                                    np.stack([start] * 4), tols=tols)
        sweeps = [rep.iterations for rep in reports]
        assert sweeps[0] == sweeps[3] > sweeps[1] > sweeps[2]
    with pytest.raises(DomainError, match="tols"):
        stacked_ascent(inst, np.tile(w, (2, 1)), np.stack([start] * 2), tols=[1e-9])


def test_stacked_ascent_skips_isolated_columns_and_keeps_zero_local_terms():
    inst = kernel_cases()[0]  # maxcut; vertex 3 is in no edge
    rng = streams.stream(53, streams.TAG_GEN, 0)
    W = rng.uniform(0.5, 1.5, size=(3, inst.m))
    W[1, [0, 2]] = 0.0  # vertex 0's edges (0, 1) and (0, 4) weigh 0 in member 1
    starts = random_stack(rng, inst, 3, 4)
    U, _ = assert_members_are_single_runs(inst, W, starts)
    assert U[:, :, 3].tobytes() == starts[:, :, 3].tobytes()
    assert U[1, :, 0].tobytes() == starts[1, :, 0].tobytes()
    assert not np.array_equal(U[[0, 2], :, 0], starts[[0, 2], :, 0])


def test_stacked_ascent_at_max_iter():
    rng = streams.stream(59, streams.TAG_GEN, 0)
    for inst in kernel_cases()[5:9]:
        W = rng.uniform(0.0, 2.0, size=(3, inst.m))
        starts = random_stack(rng, inst, 3, default_rank(inst.ncols))
        _, reports = assert_members_are_single_runs(inst, W, starts, max_iter=3)
        assert [(rep.iterations, rep.converged) for rep in reports] == [(3, False)] * 3
        _, reports = assert_members_are_single_runs(inst, W, starts, max_iter=0)
        assert [(rep.iterations, rep.residual) for rep in reports] == [(0, 0.0)] * 3


def test_stacked_ascent_rejects_mismatched_stacks():
    inst = cycle5()
    starts = np.stack([pentagon_factor()] * 2)
    with pytest.raises(DomainError):
        stacked_ascent(inst, np.ones((3, 5)), starts)
    with pytest.raises(DomainError):
        stacked_ascent(inst, np.ones((2, 4)), starts)
    with pytest.raises(DomainError):
        stacked_ascent(inst, np.ones((2, 5)), starts[:, :, :4])
    with pytest.raises(DomainError):
        stacked_ascent(inst, np.ones((0, 5)), starts[:0])


def test_solve_keeps_the_earliest_best_of_its_seeded_starts():
    # the seeded starts run as one stack; the earliest best start wins
    rng = streams.stream(61, streams.TAG_GEN, 0)
    for inst in kernel_cases()[5:9]:
        w = rng.uniform(0.5, 1.5, size=inst.m)
        rank = default_rank(inst.ncols)
        factor, rep = solve_elliptope_max(inst, w, restarts=3, seed=5)
        starts = [sdp._random_unit_columns(
            rank, inst.ncols, streams.stream(5, streams.TAG_SOLVER_INIT, r)) for r in range(3)]
        runs = [single_run(inst, w, U0) for U0 in starts]
        best = 0
        for r, (_, single) in enumerate(runs):
            if single.value > runs[best][1].value:
                best = r
        assert factor.tobytes() == runs[best][0].tobytes()
        assert (rep.restart, rep.restarts) == (best, 3)
        assert (rep.value, rep.iterations, rep.residual, rep.converged) == \
            (runs[best][1].value, runs[best][1].iterations, runs[best][1].residual,
             runs[best][1].converged)


# ---------------------------------------------------------------------------
# the Anderson extrapolation
# ---------------------------------------------------------------------------

def test_ascent_value_never_falls_and_extrapolation_is_taken():
    # the value after every sweep (an extrapolation included) is no lower
    # than the one before, and some extrapolations are kept
    rng = streams.stream(71, streams.TAG_GEN, 0)
    taken = 0
    for inst in kernel_cases():
        W = rng.uniform(0.0, 2.0, size=(2, inst.m))
        starts = random_stack(rng, inst, 2, default_rank(inst.ncols))
        prev = sdp._ascent_pass(inst, W).values(starts)
        for max_iter in range(1, 16):
            _, reports = stacked_ascent(inst, W, starts, max_iter=max_iter)
            values = [rep.value for rep in reports]
            assert all(v >= p for v, p in zip(values, prev))
            prev = values
        _, reports = stacked_ascent(inst, W, starts)
        assert all(rep.value >= p for rep, p in zip(reports, prev))
        for r in range(2):
            plain, _ = single_run(inst, W[r], starts[r], anderson=False)
            taken += single_run(inst, W[r], starts[r])[0].tobytes() != plain.tobytes()
    assert taken > 0


def test_max_iter_below_the_depth_keeps_the_plain_ascent_bits():
    rng = streams.stream(73, streams.TAG_GEN, 0)
    moved = 0
    for inst in kernel_cases()[5:11]:
        W = rng.uniform(0.0, 2.0, size=(3, inst.m))
        starts = random_stack(rng, inst, 3, default_rank(inst.ncols))
        for max_iter in range(1, sdp.ANDERSON_DEPTH + 1):
            U, reports = stacked_ascent(inst, W, starts, max_iter=max_iter)
            for r in range(3):
                U1, rep1 = single_run(inst, W[r], starts[r], max_iter=max_iter,
                                      anderson=False)
                same = U[r].tobytes() == U1.tobytes() and vars(reports[r]) == vars(rep1)
                assert same or max_iter == sdp.ANDERSON_DEPTH
                moved += not same
    assert moved > 0  # the first extrapolation comes after sweep 5


def test_an_exact_fixed_point_still_stops_after_one_sweep():
    # a factor at an exact fixed point stops after the sweep that moves
    # nothing; a history that never moved has trace 0 and extrapolates to
    # its last factor's bits, which the safeguard does not take
    rng = streams.stream(79, streams.TAG_GEN, 0)
    fixed_points = 0
    for inst in kernel_cases()[5:9]:
        w = rng.uniform(0.5, 1.5, size=inst.m)
        start = random_factor(rng, inst, default_rank(inst.ncols))
        fixed, (rep,) = stacked_ascent(inst, w[None], start[None], tols=[0.0])
        if not rep.converged:  # roundoff may keep a value from settling
            continue
        fixed_points += 1
        again, (rep,) = stacked_ascent(inst, w[None], fixed)
        assert (rep.iterations, rep.residual, rep.converged) == (1, 0.0, True)
        assert again.tobytes() == fixed.tobytes()
        H = np.stack([fixed[0]] * (sdp.ANDERSON_DEPTH + 1))[None]
        assert sdp._anderson(H).tobytes() == fixed.tobytes()
    assert fixed_points >= 2


@pytest.mark.parametrize("bad", ["zero column", "nan entry", "infinite value"])
def test_extrapolation_with_a_zero_column_or_non_finite_value_is_rejected(monkeypatch, bad):
    # the extrapolation is replaced by one more sweep of the last factor,
    # which gains; spoiled, it must be rejected, leaving the plain ascent's
    # bits, while unspoiled it is taken (the control)
    inst = kernel_cases()[0]  # maxcut; vertex 3 is in no edge
    rng = streams.stream(83, streams.TAG_GEN, 0)
    W = np.tile(rng.uniform(0.5, 1.5, size=inst.m), (2, 1))
    starts = random_stack(rng, inst, 2, 4)
    extrapolated = []
    values = sdp._Sweep.values

    def one_more_sweep(spoiled):
        def extrapolate(H):
            E = H[:, -1].copy()
            sdp._ascent_pass(inst, W[:len(H)])(E)
            if spoiled and bad == "zero column":
                E[:, :, 3] = 0.0  # a column in no pair: the value keeps its gain
            elif spoiled and bad == "nan entry":
                E[:, 0, 0] = np.nan
            elif spoiled:
                extrapolated.append(E)
            return E
        return extrapolate

    def infinite_when_extrapolated(sweep, U):
        if any(U is E for E in extrapolated):
            return [math.inf] * len(U)
        return values(sweep, U)

    monkeypatch.setattr(sdp._Sweep, "values", infinite_when_extrapolated)
    plain = [single_run(inst, W[r], starts[r], anderson=False) for r in range(2)]
    monkeypatch.setattr(sdp, "_anderson", one_more_sweep(True))
    U, reports = stacked_ascent(inst, W, starts)
    for r in range(2):
        assert U[r].tobytes() == plain[r][0].tobytes()
        assert vars(reports[r]) == vars(plain[r][1])
    assert bad != "infinite value" or extrapolated
    monkeypatch.setattr(sdp, "_anderson", one_more_sweep(False))
    U, _ = stacked_ascent(inst, W, starts)
    assert U.tobytes() != np.stack([plain[r][0] for r in range(2)]).tobytes()
