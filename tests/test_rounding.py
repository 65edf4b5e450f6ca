"""Hyperplane rounding, exact expectations, and guarantee-ratio functions."""

import math
import sys

import numpy as np
import pytest

from robustcut import streams
from robustcut.cli import main
from robustcut.instances import (ALLEQUAL, DICUT, MAXCUT, DomainError,
                                 allequal_instance, graph_instance,
                                 instance_to_json, term_coefficients)
from robustcut.numerics import NumericError
from robustcut.rounding import (APPROX_RATIO_DICUT, CROSSOVER_GAMMA,
                                RoundConfig, allequal_round, alpha_ratio, dicut_biased_ratio_search,
                                dicut_triple_prob, expected_allequal_exact,
                                expected_cut_exact, expected_dicut_exact,
                                feasible_pair_grid, hyperplane_round,
                                large_cut_ratio, negative_weight_bound,
                                round_cut, rounding_draws, sign_round_psd,
                                uniform_arc_indicator)
from robustcut.sdp import GramFactor


def factor_from_columns(*cols, reference=False):
    return GramFactor(np.column_stack(cols).astype(float), reference=reference)


E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def golden_section_min(f, lo, hi, iters=200):
    """Independent minimizer used to pin the ratio-curve minimum."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# hyperplane draws
# ---------------------------------------------------------------------------

def test_hyperplane_equal_columns_agree():
    factor = factor_from_columns(E1, E1, E1)
    for trial in range(5):
        y = hyperplane_round(factor, RoundConfig(seed=11), trial)
        assert set(np.unique(y)) <= {-1, 1}
        assert len(set(y.tolist())) == 1


def test_hyperplane_antipodal_disagree():
    factor = factor_from_columns(E1, -E1)
    for trial in range(5):
        y = hyperplane_round(factor, RoundConfig(seed=3), trial)
        assert y[1] == -y[0]


def test_hyperplane_orthogonal_half():
    factor = factor_from_columns(E1, E2)
    trials = 4000
    agree = sum(
        int(y[0] == y[1])
        for y in (hyperplane_round(factor, RoundConfig(seed=17), t)
                  for t in range(trials))
    )
    sigma = 0.5 / math.sqrt(trials)
    assert abs(agree / trials - 0.5) <= 3.0 * sigma


def test_hyperplane_seed_and_trial_determinism():
    rng = streams.stream(5, streams.TAG_GEN, 0)
    U = rng.standard_normal((6, 10))
    U /= np.linalg.norm(U, axis=0)
    factor = GramFactor(U)
    a = hyperplane_round(factor, RoundConfig(seed=21), trial=2)
    b = hyperplane_round(factor, RoundConfig(seed=21), trial=2)
    c = hyperplane_round(factor, RoundConfig(seed=21), trial=3)
    d = hyperplane_round(factor, RoundConfig(seed=22), trial=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)


def test_round_cut_dicut_orientation():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    factor = factor_from_columns(E1, E1, -E1, reference=True)
    for trial in range(4):
        y = round_cut(inst, factor, RoundConfig(seed=9), trial)
        assert np.array_equal(y, [1, -1])


def test_round_cut_rejects_allequal():
    inst = allequal_instance(2, [([1, 2], 1.0)])
    factor = factor_from_columns(E1, E2)
    with pytest.raises(DomainError, match="allequal"):
        round_cut(inst, factor, RoundConfig(seed=0))


def random_factor(ncols, seed):
    rng = streams.stream(seed, streams.TAG_GEN, 0)
    U = rng.standard_normal((4, ncols))
    return GramFactor(U / np.linalg.norm(U, axis=0))


DRAW_CASES = [
    (graph_instance(4, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                (0, 3, 1.0), (0, 2, 1.0)]), 4),
    (graph_instance(4, DICUT, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
                               (3, 0, 0.5), (0, 2, 1.5)]), 5),
    (allequal_instance(5, [([1, 2, -3], 1.0), ([2, -4, 5], 2.0),
                           ([-1, 3, 4], 0.5), ([1, -5, 2], 1.5)]), 5),
]


@pytest.mark.parametrize("inst,ncols", DRAW_CASES, ids=lambda c: getattr(c, "kind", ""))
def test_rounding_draws_scores_and_prefixes(inst, ncols):
    factor = random_factor(ncols, 31)
    w = inst.nominal_weights()
    cuts1, vals1, z1 = rounding_draws(inst, factor, w, 13, 1)
    cuts8, vals8, z8 = rounding_draws(inst, factor, w, 13, 8)
    # fewer trials are a prefix of more (the all-equal seed vector takes at
    # least 8 draws either way), so more draws never score worse
    assert np.array_equal(cuts1[0], cuts8[0]) and vals1 == vals8[:1]
    assert max(vals8) >= max(vals1)
    assert (z1 is None) == (z8 is None) == (inst.kind != ALLEQUAL)
    for t, (x, v) in enumerate(zip(cuts8, vals8)):
        assert type(v) is float and v == float(term_coefficients(inst, x) @ w)
        if inst.kind != ALLEQUAL:
            assert np.array_equal(x, round_cut(inst, factor, RoundConfig(seed=13), trial=t))
        else:
            assert np.array_equal(x, allequal_round(z8, 3, RoundConfig(seed=13), trial=t))
    if inst.kind == ALLEQUAL:
        assert np.array_equal(z1, z8)


def test_allequal_assignments_and_hyperplanes_use_disjoint_streams(tmp_path, monkeypatch):
    # hyperplane draws (which pick the seed vector) and biased assignments
    # are independent purposes, so an all-equal solve must never read the
    # same stream for both
    inst = allequal_instance(5, [([1, 2, -3], 1.0), ([2, -4, 5], 2.0),
                                 ([-1, 3, 4], 0.5), ([1, -5, 2], 1.5)])
    path = tmp_path / "ae.json"
    path.write_text(instance_to_json(inst))
    real = streams.stream
    keys = {}

    def recording(seed, *key):
        caller = sys._getframe(1).f_code.co_name
        keys.setdefault(caller, set()).add((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(streams, "stream", recording)
    assert main(["solve", "--instance", str(path), "--seed", "3",
                 "--out", str(tmp_path / "r.json")]) == 0
    hyperplane = keys.get("hyperplane_round", set()) | keys.get("sign_round_psd", set())
    assign = keys.get("allequal_round", set())
    assert len(hyperplane) >= 8 and len(assign) == 16
    assert not hyperplane & assign


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------

def test_expected_cut_anchors():
    edge = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    assert expected_cut_exact(edge, factor_from_columns(E1, -E1), [1.0]) == \
        pytest.approx(1.0, abs=1e-12)
    assert expected_cut_exact(edge, factor_from_columns(E1, E2), [1.0]) == \
        pytest.approx(0.5, abs=1e-12)


def test_expected_cut_pentagon():
    inst = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    ang = np.arange(5) * 4.0 * math.pi / 5.0
    factor = GramFactor(np.vstack([np.cos(ang), np.sin(ang)]))
    v = expected_cut_exact(inst, factor, inst.nominal_weights())
    assert v == pytest.approx(4.0, abs=1e-9)


def test_expected_cut_linear_in_weights():
    inst = graph_instance(3, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                          signed=True)
    rng = streams.stream(37, streams.TAG_GEN, 0)
    U = rng.standard_normal((3, 3))
    U /= np.linalg.norm(U, axis=0)
    factor = GramFactor(U)
    wa = np.array([1.0, 0.0, 2.0])
    wb = np.array([0.0, -1.5, 1.0])
    va = expected_cut_exact(inst, factor, wa)
    vb = expected_cut_exact(inst, factor, wb)
    assert expected_cut_exact(inst, factor, wa + wb) == \
        pytest.approx(va + vb, abs=1e-12)


def test_expected_cut_wrong_kind():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    with pytest.raises(DomainError, match="kind"):
        expected_cut_exact(inst, factor_from_columns(E1, E1, E2, reference=True),
                           [1.0])


def test_expected_dicut_anchors():
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    always = factor_from_columns(E1, E1, -E1, reference=True)
    assert expected_dicut_exact(inst, always, [1.0]) == pytest.approx(1.0, abs=1e-12)
    ortho = factor_from_columns(E1, E2, E3, reference=True)
    assert expected_dicut_exact(inst, ortho, [1.0]) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(DomainError, match="kind"):
        expected_dicut_exact(graph_instance(2, MAXCUT, [(0, 1, 1.0)]),
                             ortho, [1.0])


def test_expected_dicut_matches_triple_prob():
    # the arc probability is exactly the triple-agreement probability of
    # (u0, u_i, -u_j)
    rng = streams.stream(41, streams.TAG_GEN, 0)
    inst = graph_instance(2, DICUT, [(0, 1, 1.0)])
    for _ in range(20):
        U = rng.standard_normal((4, 3))
        U /= np.linalg.norm(U, axis=0)
        factor = GramFactor(U, reference=True)
        p = expected_dicut_exact(inst, factor, [1.0])
        q = dicut_triple_prob(U[:, 0], U[:, 1], -U[:, 2])
        assert p == pytest.approx(q, abs=1e-12)


def test_expected_allequal_anchors():
    inst = allequal_instance(2, [([1, 2], 2.0)])
    assert expected_allequal_exact(inst, np.array([1, 1]), [2.0]) == \
        pytest.approx(2.0, abs=1e-12)
    assert expected_allequal_exact(inst, np.array([1, -1]), [2.0]) == \
        pytest.approx(0.0, abs=1e-12)
    neg = allequal_instance(2, [([1, -2], 1.0)])
    assert expected_allequal_exact(neg, np.array([1, -1]), [1.0]) == \
        pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError, match="kind"):
        expected_allequal_exact(graph_instance(2, MAXCUT, [(0, 1, 1.0)]),
                                np.array([1, -1]), [1.0])


def test_expected_allequal_k3_formula():
    # single clause on 3 distinct variables, z = (1, 1, 1):
    # p = (1 + sqrt(2/3))/2, value = p^3 + (1-p)^3
    inst = allequal_instance(3, [([1, 2, 3], 1.0)])
    p = (1.0 + math.sqrt(2.0 / 3.0)) / 2.0
    want = p ** 3 + (1.0 - p) ** 3
    got = expected_allequal_exact(inst, np.array([1, 1, 1]), [1.0])
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# ratio curves
# ---------------------------------------------------------------------------

def test_alpha_ratio_anchors():
    assert alpha_ratio(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert alpha_ratio(0.0) == pytest.approx(1.0, abs=1e-12)
    assert np.isinf(alpha_ratio(1.0))
    arr = alpha_ratio(np.array([-1.0, 0.0, 1.0]))
    assert arr[0] == pytest.approx(1.0) and np.isinf(arr[2])


def test_alpha_ratio_domain():
    with pytest.raises(DomainError):
        alpha_ratio(1.5)
    with pytest.raises(DomainError):
        alpha_ratio(np.array([0.0, -1.2]))


def test_alpha_ratio_minimum_location():
    t_star, v_star = golden_section_min(alpha_ratio, -0.9, -0.4)
    assert v_star == pytest.approx(0.87856, abs=5e-5)
    assert t_star == pytest.approx(-0.689, abs=5e-3)
    grid = np.linspace(-1.0, 0.999, 20001)
    assert float(np.min(alpha_ratio(grid))) >= v_star - 1e-9


def test_large_cut_ratio_values():
    assert large_cut_ratio(1.0) == pytest.approx(1.0, abs=1e-12)
    assert large_cut_ratio(0.5) == pytest.approx(1.0, abs=1e-12)
    v = large_cut_ratio(CROSSOVER_GAMMA)
    assert 0.878 <= v <= 0.880
    # crossover consistency: h(gamma)/gamma meets the flat guarantee level
    assert v == pytest.approx(0.87856, abs=5e-4)


def test_large_cut_ratio_domain():
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(DomainError):
            large_cut_ratio(bad)


def test_negative_weight_bound():
    assert negative_weight_bound(1.5, -1.0, 0.5)
    assert negative_weight_bound(0.0, 0.0, 0.0)
    assert not negative_weight_bound(0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        negative_weight_bound(1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# triple probability and the directed ratio search
# ---------------------------------------------------------------------------

def test_triple_prob_anchors():
    assert dicut_triple_prob(E1, E1, E1) == pytest.approx(1.0, abs=1e-12)
    assert dicut_triple_prob(E1, E2, E3) == pytest.approx(0.25, abs=1e-12)
    assert dicut_triple_prob(E1, -E1, E2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError, match="unit"):
        dicut_triple_prob(E1, 2.0 * E2, E3)


def test_triple_prob_monte_carlo():
    rng = streams.stream(43, streams.TAG_GEN, 0)
    V = rng.standard_normal((3, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    exact = dicut_triple_prob(V[0], V[1], V[2])
    draws = rng.standard_normal((40000, 3))
    signs = draws @ V.T >= 0.0
    hits = np.mean((signs[:, 0] == signs[:, 1]) & (signs[:, 0] == signs[:, 2]))
    sigma = 0.5 / math.sqrt(40000)
    assert abs(hits - exact) <= 3.0 * sigma


def test_triple_prob_pointwise_lower_bound():
    # on the feasible region, P(agree) >= (beta/4)(1 + sum of pair dots)
    # with beta = 0.796; checked exactly, no sampling
    u0, pairs = feasible_pair_grid(500, seed=47)
    for ui, mj in pairs:
        p = dicut_triple_prob(u0, ui, -mj)
        rel = (1.0 + float(u0 @ ui) + float(u0 @ -mj) + float(ui @ -mj)) / 4.0
        assert p >= APPROX_RATIO_DICUT * rel - 1e-9


def test_feasible_pair_grid_properties():
    u0, pairs = feasible_pair_grid(200, seed=53, min_denom=1e-2)
    assert u0.shape == (3,) and pairs.shape == (200, 2, 3)
    assert np.allclose(np.linalg.norm(pairs, axis=2), 1.0, atol=1e-9)
    a = pairs[:, 0, 0]
    b = pairs[:, 1, 0]
    c = np.einsum("nd,nd->n", pairs[:, 0], pairs[:, 1])
    assert np.all(a + b + c >= -1.0 - 1e-9)
    assert np.all(a - b - c >= -1.0 - 1e-9)
    assert np.all(-a + b - c >= -1.0 - 1e-9)
    assert np.all(-a - b + c >= -1.0 - 1e-9)
    assert np.all((1.0 + a - b - c) / 4.0 >= 1e-2 - 1e-12)
    _, again = feasible_pair_grid(200, seed=53, min_denom=1e-2)
    assert np.array_equal(pairs, again)


def test_ratio_search_single_pair_exact():
    u0 = E1
    pairs = np.array([[E1, -E1]])
    res = dicut_biased_ratio_search(u0, pairs, RoundConfig(seed=7, trials=500))
    assert res.denom == pytest.approx(1.0, abs=1e-12)
    assert res.prob == 1.0
    assert res.ratio == 1.0
    assert res.stderr == 0.0
    assert res.index == 0


def test_ratio_search_skips_zero_denominator():
    u0 = E1
    pairs = np.array([[-E1, E1], [E1, -E1]])  # first pair has denominator 0
    res = dicut_biased_ratio_search(u0, pairs, RoundConfig(seed=7, trials=200))
    assert res.index == 1
    with pytest.raises(DomainError, match="positive relaxation"):
        dicut_biased_ratio_search(u0, np.array([[-E1, E1]]),
                                  RoundConfig(seed=7, trials=10))
    with pytest.raises(DomainError, match="shape"):
        dicut_biased_ratio_search(u0, np.zeros((3, 2, 4)),
                                  RoundConfig(seed=7, trials=10))


def test_ratio_search_grid_meets_constant():
    u0, pairs = feasible_pair_grid(300, seed=59)
    res = dicut_biased_ratio_search(u0, pairs, RoundConfig(seed=61, trials=20000))
    assert res.ratio >= APPROX_RATIO_DICUT - 3.0 * res.stderr
    assert 0.0 <= res.prob <= 1.0
    # the estimate never sits far above the worst-case constant either:
    # the grid contains pairs near the minimizing configuration
    assert res.ratio <= 1.0


def test_ratio_search_custom_indicator():
    u0, pairs = feasible_pair_grid(50, seed=67)
    def pessimist(u0_, ui, uj, draws):
        return np.zeros(len(draws))
    res = dicut_biased_ratio_search(u0, pairs, RoundConfig(seed=7, trials=50),
                                    prob=pessimist)
    assert res.ratio == 0.0 and res.prob == 0.0


def test_uniform_arc_indicator_matches_exact():
    rng = streams.stream(71, streams.TAG_GEN, 1)
    ui = rng.standard_normal(3); ui /= np.linalg.norm(ui)
    uj = rng.standard_normal(3); uj /= np.linalg.norm(uj)
    draws = rng.standard_normal((50000, 3))
    est = float(np.mean(uniform_arc_indicator(E1, ui, uj, draws)))
    exact = dicut_triple_prob(E1, ui, -uj)
    assert abs(est - exact) <= 3.0 * 0.5 / math.sqrt(50000)


# ---------------------------------------------------------------------------
# all-equal pipeline
# ---------------------------------------------------------------------------

def test_sign_round_psd_identity():
    rng = streams.stream(73, streams.TAG_GEN, 2)
    U = rng.standard_normal((3, 5))
    U /= np.linalg.norm(U, axis=0)
    z = sign_round_psd(np.eye(5), GramFactor(U), RoundConfig(seed=1, trials=1))
    assert z.shape == (5,) and set(np.unique(z)) <= {-1, 1}
    assert float(z @ np.eye(5) @ z) == pytest.approx(5.0)


def test_sign_round_psd_equal_columns():
    U = np.tile([[1.0], [0.0]], (1, 4))
    A = np.ones((4, 4))
    z = sign_round_psd(A, GramFactor(U), RoundConfig(seed=2, trials=1))
    assert abs(int(np.sum(z))) == 4
    assert float(z @ A @ z) == pytest.approx(16.0)


def test_sign_round_psd_guarantee_sweep():
    rng = streams.stream(79, streams.TAG_GEN, 3)
    for case in range(200):
        n = int(rng.integers(2, 7))
        B = rng.standard_normal((n, n))
        A = B @ B.T
        U = rng.standard_normal((int(rng.integers(2, 5)), n))
        U /= np.linalg.norm(U, axis=0)
        z = sign_round_psd(A, GramFactor(U), RoundConfig(seed=case, trials=4))
        target = (2.0 / math.pi) * float(np.sum(A * (U.T @ U)))
        assert float(z @ A @ z) >= target - 1e-9 * (1.0 + abs(target))


def test_sign_round_psd_rejects_negative_definite():
    U = np.eye(3)
    with pytest.raises(NumericError, match="below target"):
        sign_round_psd(-np.eye(3), GramFactor(U), RoundConfig(seed=0, trials=1))
    with pytest.raises(DomainError, match="shape"):
        sign_round_psd(np.eye(2), GramFactor(U), RoundConfig(seed=0))


def test_sign_round_psd_exhausts_its_draws():
    """With A = -I every sign vector scores -n, below the target -(2/pi) n:
    the function gives up after 100 * trials draws with a NumericError."""
    rng = streams.stream(83, streams.TAG_GEN, 4)
    U = rng.standard_normal((3, 5))
    U /= np.linalg.norm(U, axis=0)
    with pytest.raises(NumericError) as err:
        sign_round_psd(-np.eye(5), GramFactor(U), RoundConfig(seed=4, trials=2))
    assert str(err.value) == \
        "sign_round_psd: best value -5 below target -3.1831 after 200 draws"


def test_allequal_round_k2_deterministic():
    z = np.array([1, -1, 1, 1, -1])
    for seed in range(4):
        x = allequal_round(z, 2, RoundConfig(seed=seed), trial=seed)
        assert np.array_equal(x, z)


def test_allequal_round_k8_marginals():
    z = np.ones(2000)
    hits = 0
    total = 0
    for t in range(10):
        x = allequal_round(z, 8, RoundConfig(seed=83), trial=t)
        hits += int(np.sum(x == 1))
        total += len(x)
    p_hat = hits / total
    sigma = math.sqrt(0.75 * 0.25 / total)
    assert abs(p_hat - 0.75) <= 3.0 * sigma


def test_allequal_round_k3_marginals():
    z = -np.ones(3000)
    p = (1.0 - math.sqrt(2.0 / 3.0)) / 2.0
    x = allequal_round(z, 3, RoundConfig(seed=89))
    p_hat = float(np.mean(x == 1))
    sigma = math.sqrt(p * (1.0 - p) / len(z))
    assert abs(p_hat - p) <= 3.5 * sigma


def test_allequal_round_rejects_bad_input():
    with pytest.raises(DomainError, match="arity"):
        allequal_round(np.array([1, -1]), 1, RoundConfig(seed=0))
    with pytest.raises(DomainError, match="sign|\\+-1"):
        allequal_round(np.array([1.0, 0.5]), 2, RoundConfig(seed=0))


def test_allequal_round_seed_determinism():
    z = np.array([1, -1, 1, -1, 1, 1, -1, 1])
    a = allequal_round(z, 4, RoundConfig(seed=5), trial=1)
    b = allequal_round(z, 4, RoundConfig(seed=5), trial=1)
    assert np.array_equal(a, b)
