"""Brute-force oracles, Monte-Carlo estimators, and the certificate report."""

import dataclasses
import math

import numpy as np
import pytest

from robustcut import numerics, streams
from robustcut.gen import box_for, gnp_instance, wasserstein_for
from robustcut.instances import (DICUT, MAXCUT, DomainError, allequal_instance,
                                 allequal_value, cut_value, dicut_value,
                                 graph_instance)
from robustcut.oracle import (BRUTE_FORCE_LIMIT, brute_force_robust,
                              certify_sandwich, enumerate_signs,
                              guarantee_ratio, mc_allequal_value,
                              mc_expected_cut)
from robustcut.robust import SolverConfig, solve_dro, solve_robust
from robustcut.rounding import (allequal_quadratic_matrix, expected_cut_exact,
                                rounding_draws)
from robustcut.sdp import GramFactor
from robustcut.uncertainty import (box_spec, polyhedral_spec, singleton_spec,
                                   wasserstein_spec)


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


@pytest.mark.parametrize("make_spec", [lambda inst: box_for(inst, 0.2),
                                       lambda inst: wasserstein_for(inst, 3, 0.3)])
def test_brute_force_builds_one_tableau(monkeypatch, make_spec):
    # 2^(n-1) oracle calls share one phase 1 (validation builds it)
    inst = gnp_instance(8, 0.5, 3)
    spec = make_spec(inst)
    built = []
    init = numerics.FeasibleTableau.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(numerics.FeasibleTableau, "__init__", counting_init)
    res = brute_force_robust(inst, spec)
    assert res.enumerated == 2 ** 7
    assert len(built) == 1


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
    factor = GramFactor(np.array([[1.0, -1.0], [0.0, 0.0]]))
    mean, stderr = mc_expected_cut(inst, factor, [1.0], trials=500, seed=3)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_mc_expected_cut_orthogonal_edge():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    factor = GramFactor(np.eye(2))
    trials = 40000
    mean, stderr = mc_expected_cut(inst, factor, [1.0], trials=trials, seed=5)
    assert abs(mean - 0.5) <= 3.0 * max(stderr, 0.5 / math.sqrt(trials))


def test_mc_expected_cut_pentagon():
    inst = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    ang = np.arange(5) * 4.0 * math.pi / 5.0
    factor = GramFactor(np.vstack([np.cos(ang), np.sin(ang)]))
    w = inst.nominal_weights()
    exact = expected_cut_exact(inst, factor, w)
    mean, stderr = mc_expected_cut(inst, factor, w, trials=60000, seed=7)
    assert abs(mean - exact) <= 3.5 * stderr


def test_mc_expected_cut_dicut_always():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    U = np.array([[1.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
    factor = GramFactor(U, reference=True)
    mean, stderr = mc_expected_cut(inst, factor, [1.0], trials=300, seed=1)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr == 0.0


def test_mc_expected_cut_determinism_and_kind():
    inst = triangle()
    rng = streams.stream(101, streams.TAG_GEN, 0)
    U = rng.standard_normal((3, 3))
    U /= np.linalg.norm(U, axis=0)
    factor = GramFactor(U)
    w = inst.nominal_weights()
    m1, _ = mc_expected_cut(inst, factor, w, trials=2000, seed=9)
    m2, _ = mc_expected_cut(inst, factor, w, trials=2000, seed=9)
    m3, _ = mc_expected_cut(inst, factor, w, trials=2000, seed=10)
    assert m1 == m2
    assert m1 != m3
    ae = allequal_instance(2, [([1, 2], 1.0)])
    with pytest.raises(DomainError, match="kind"):
        mc_expected_cut(ae, factor, [1.0], trials=10, seed=0)


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
    sol = solve_dro(inst, spec, SolverConfig(seed=4))
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
