"""Uncertainty-set validation and exact inner worst-case oracles.

Independent cross-checks: a projected-gradient minimizer for the ellipsoid
(never touches the closed form), a 2x2 transport enumeration for the
Wasserstein ball, and feasible-sample domination sweeps for everything.
"""

import json

import numpy as np
import pytest

from robustcut import streams
from robustcut.gen import ellipsoid_for, gnp_instance, wasserstein_for
from robustcut.instances import DomainError
from robustcut.numerics import (FeasibleTableau, InfeasibleError, LpProblem, simplex_solve,
                                sqrt_psd)
from robustcut.instances import ParseError
from robustcut.robust import ellipsoid_reformulated_value
from robustcut.sdp import (GramFactor, _random_unit_columns, default_rank, factor_columns,
                           term_gram_coefficients)
from robustcut.uncertainty import (_box_view, _chord, _diag_view,
                                   box_spec, dual_polyhedral_value,
                                   ellipsoidal_spec, load_spec, parse_spec,
                                   polyhedral_spec, sample_feasible,
                                   singleton_spec, spec_to_json, validate_set,
                                   wasserstein_spec, worst_case_mean,
                                   worst_case_values, worst_case_weights)


def pg_ellipsoid_min(w0, Q, a, coef, iters=4000):
    """Projected-gradient reference: minimize coef @ w over
    (w - w0)^T Q^{-1} (w - w0) <= a, via w = w0 + sqrt(a) L z, ||z|| <= 1,
    L = Q^{1/2} (so the constraint is exactly the unit ball in z)."""
    L = sqrt_psd(Q)
    g = np.sqrt(a) * (L @ coef)   # gradient in z-space
    z = np.zeros_like(w0)
    for t in range(iters):
        z = z - (0.5 / np.sqrt(t + 1.0)) * g
        nrm = np.linalg.norm(z)
        if nrm > 1.0:
            z /= nrm
    w = w0 + np.sqrt(a) * (L @ z)
    return w, float(coef @ w)


def transport_enum_2x2(costs, emp, d, r0, steps=20001):
    """Brute scan of 2-point transport plans: p = (q, 1-q); the cheapest
    coupling between p and emp moves |q - emp_0| mass across distance d."""
    best = np.inf
    best_p = None
    for q in np.linspace(0.0, 1.0, steps):
        move = abs(q - emp[0]) * d
        if move <= r0 + 1e-12:
            v = q * costs[0] + (1 - q) * costs[1]
            if v < best:
                best, best_p = v, np.array([q, 1 - q])
    return best_p, best


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_box_ok():
    rep = validate_set(box_spec(np.zeros(3), np.ones(3)), m=3)
    assert rep.ok and not rep.violations


def test_box_negative_lower_flagged():
    rep = validate_set(box_spec(np.array([-1.0, 0.0]), np.ones(2)), m=2)
    assert not rep.ok
    assert any("negativ" in v for v in rep.violations)


def test_unbounded_polyhedron_flagged():
    spec = polyhedral_spec(np.eye(2), np.zeros(2))  # {w >= 0}: no cap
    rep = validate_set(spec, m=2)
    assert not rep.ok
    assert any("unbounded" in v for v in rep.violations)


def test_empty_polyhedron_flagged():
    A = np.array([[1.0], [-1.0]])
    b = np.array([2.0, -1.0])  # w >= 2 and w <= 1
    rep = validate_set(polyhedral_spec(A, b), m=1)
    assert not rep.ok
    assert any("empty" in v or "infeasible" in v for v in rep.violations)


def test_ellipsoid_negativity_reachable_flagged():
    # w0_i - sqrt(a Q_ii) < 0 at index 1
    spec = ellipsoidal_spec(np.array([3.0, 0.5]), np.diag([1.0, 1.0]), 1.0)
    rep = validate_set(spec, m=2)
    assert not rep.ok
    assert any("1" in v for v in rep.violations)


def test_ellipsoid_q_must_be_positive_definite():
    spec = ellipsoidal_spec(np.ones(2), np.diag([1.0, 0.0]), 0.01)
    rep = validate_set(spec, m=2)
    assert not rep.ok


def test_ellipsoid_singular_q_rejected():
    # rank 5 of 6: eigvalsh returns a roundoff-sized smallest eigenvalue
    V = np.random.default_rng(1).standard_normal((6, 5))
    rep = validate_set(ellipsoidal_spec(10.0 * np.ones(6), V @ V.T, 0.01), m=6)
    assert not rep.ok
    assert any(v.startswith("Q: not positive definite (min eigenvalue")
               for v in rep.violations)
    # positive, but below dim * eps * lambda_max
    rep = validate_set(ellipsoidal_spec(np.ones(2), np.diag([1.0, 1e-17]), 0.01), m=2)
    assert rep.violations == ["Q: not positive definite (min eigenvalue 1.000e-17)"]
    # well-conditioned but tiny in scale is still positive definite
    assert validate_set(ellipsoidal_spec(np.ones(2), np.diag([1e-12, 2e-12]), 0.01), m=2).ok


def test_wasserstein_validation():
    sup = np.array([[1.0, 2.0], [2.0, 1.0]])
    ok = validate_set(wasserstein_spec(sup, np.array([0.5, 0.5]), 0.1), m=2)
    assert ok.ok
    bad_emp = validate_set(wasserstein_spec(sup, np.array([0.7, 0.5]), 0.1), m=2)
    assert not bad_emp.ok
    bad_sup = validate_set(
        wasserstein_spec(np.array([[1.0, -2.0], [2.0, 1.0]]),
                         np.array([0.5, 0.5]), 0.1), m=2)
    assert not bad_sup.ok


def test_dimension_mismatch_flagged():
    rep = validate_set(singleton_spec(np.ones(3)), m=4)
    assert not rep.ok


# ---------------------------------------------------------------------------
# worst-case oracles
# ---------------------------------------------------------------------------

def test_singleton_oracle():
    w0 = np.array([1.0, 2.0, 0.5])
    coef = np.array([1.0, 0.0, 2.0])
    w, v = worst_case_weights(singleton_spec(w0), coef)
    assert np.array_equal(w, w0)
    assert v == pytest.approx(2.0)


def test_box_worst_is_lower_corner():
    rng = streams.stream(41, streams.TAG_GEN, 0)
    for _ in range(15):
        m = int(rng.integers(1, 6))
        l = rng.uniform(0.0, 1.0, size=m)
        u = l + rng.uniform(0.1, 1.0, size=m)
        coef = rng.uniform(0.0, 2.0, size=m)
        w, v = worst_case_weights(box_spec(l, u), coef)
        assert np.allclose(w, l, atol=1e-9)
        assert v == pytest.approx(coef @ l, abs=1e-9)


def test_ellipsoid_single_edge_example():
    # center 3, Q = 2, a = 1, coef = 1 -> w* = 3 - sqrt(2) on the boundary
    spec = ellipsoidal_spec(np.array([3.0]), np.array([[2.0]]), 1.0)
    w, v = worst_case_weights(spec, np.array([1.0]))
    assert w[0] == pytest.approx(3.0 - np.sqrt(2.0), abs=1e-12)
    assert v == pytest.approx(3.0 - np.sqrt(2.0), abs=1e-12)
    quad = (w - spec.w0) @ np.linalg.solve(spec.Q, w - spec.w0)
    assert quad == pytest.approx(spec.a, abs=1e-10)


def test_ellipsoid_matches_projected_gradient():
    rng = streams.stream(43, streams.TAG_GEN, 0)
    for _ in range(12):
        m = int(rng.integers(1, 5))
        B = rng.standard_normal((m, m))
        Q = B @ B.T + 0.2 * np.eye(m)
        a = float(rng.uniform(0.05, 0.5))
        w0 = rng.uniform(0.0, 1.0, size=m) + np.sqrt(a * np.diag(Q))  # stays >= 0
        coef = rng.uniform(0.0, 2.0, size=m)
        spec = ellipsoidal_spec(w0, Q, a)
        w, v = worst_case_weights(spec, coef)
        _, v_ref = pg_ellipsoid_min(w0, Q, a, coef)
        assert v == pytest.approx(v_ref, abs=1e-5)
        if np.linalg.norm(coef) > 1e-9:  # boundary-active
            quad = (w - w0) @ np.linalg.solve(Q, w - w0)
            assert quad == pytest.approx(a, abs=1e-8)


def test_zero_coef_returns_center():
    spec = ellipsoidal_spec(np.array([2.0, 3.0]), np.eye(2), 0.5)
    w, v = worst_case_weights(spec, np.zeros(2))
    assert np.allclose(w, spec.w0)
    assert v == 0.0


def test_wasserstein_zero_radius_is_empirical():
    sup = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    emp = np.array([0.2, 0.3, 0.5])
    spec = wasserstein_spec(sup, emp, 0.0)
    p, mean_w, v = worst_case_mean(spec, np.array([1.0, 1.0]))
    assert np.allclose(p, emp, atol=1e-9)
    assert np.allclose(mean_w, emp @ sup, atol=1e-9)


def test_wasserstein_two_point_hand_example():
    # costs (1, 2), empirical (1/2, 1/2), d = 1, r0 = 1/4 -> p* = (3/4, 1/4)
    sup = np.array([[1.0], [2.0]])
    emp = np.array([0.5, 0.5])
    spec = wasserstein_spec(sup, emp, 0.25)  # auto l1 metric: d = 1
    coef = np.array([1.0])
    p, _, v = worst_case_mean(spec, coef)
    p_ref, v_ref = transport_enum_2x2(sup @ coef, emp, 1.0, 0.25)
    assert np.allclose(p, [0.75, 0.25], atol=1e-9)
    assert v == pytest.approx(1.25, abs=1e-9)
    assert v == pytest.approx(v_ref, abs=1e-4)
    assert np.allclose(p, p_ref, atol=1e-4)


def test_wasserstein_large_radius_reaches_cheapest_point():
    sup = np.array([[0.0, 0.0], [1.0, 2.0]])
    emp = np.array([0.1, 0.9])
    spec = wasserstein_spec(sup, emp, 10.0)
    p, _, v = worst_case_mean(spec, np.array([1.0, 1.0]))
    assert v == pytest.approx(0.0, abs=1e-9)
    assert p[0] == pytest.approx(1.0, abs=1e-9)


def test_worst_case_rejects_negative_coef():
    with pytest.raises(DomainError):
        worst_case_weights(singleton_spec(np.ones(2)), np.array([1.0, -0.5]))


def value_test_sets(m, rng):
    w0 = rng.uniform(0.5, 1.5, size=m)
    G = rng.standard_normal((m, m))
    Q = G @ G.T / m + 0.5 * np.eye(m)
    support = w0 * rng.uniform(0.7, 1.3, size=(3, m))
    D = rng.uniform(0.5, 2.0, size=(3, 3))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    budget = rng.uniform(0.0, 1.0, size=m)
    box = box_spec(0.8 * w0, 1.2 * w0)
    return {
        "singleton": singleton_spec(w0),
        "box": box,
        "budgeted_box": polyhedral_spec(np.vstack([box.A, budget]),
                                        np.append(box.b, budget @ w0)),
        "ellipsoid_dense": ellipsoidal_spec(w0, Q, float(np.min((0.4 * w0) ** 2 / np.diag(Q)))),
        "wasserstein_auto": wasserstein_spec(support, np.full(3, 1 / 3), 0.3),
        "wasserstein_metric": wasserstein_spec(support, np.full(3, 1 / 3), 0.3, D),
        "wasserstein_r0": wasserstein_spec(support, np.full(3, 1 / 3), 0.0),
    }


@pytest.mark.parametrize("name", ["singleton", "box", "budgeted_box", "ellipsoid_dense",
                                  "wasserstein_auto", "wasserstein_metric",
                                  "wasserstein_r0"])
def test_worst_case_values_match_scalar_oracle_row_by_row(name):
    m = 6
    rng = streams.stream(43, streams.TAG_GEN, 0)
    spec = value_test_sets(m, rng)[name]
    C = rng.uniform(0.0, 1.0, size=(40, m)) * (rng.random((40, m)) < 0.6)
    C[3] = 0.0                       # all-zero row
    C[7, 2] = -1e-10                 # within the accepted roundoff below zero
    C[11] = 1e-15                    # below the degenerate threshold everywhere
    got = worst_case_values(spec, C)
    want = [worst_case_weights(spec, c)[1] for c in C]
    assert got.shape == (40,)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert got[3] == want[3] == 0.0
    assert worst_case_values(spec, C[:0]).shape == (0,)


def test_worst_case_values_rejects_bad_blocks():
    spec = box_spec(np.ones(3), 2.0 * np.ones(3))
    with pytest.raises(DomainError, match="shape"):
        worst_case_values(spec, np.ones(3))          # one row, not a block
    with pytest.raises(DomainError, match="shape"):
        worst_case_values(spec, np.ones((2, 4)))     # wrong width
    with pytest.raises(DomainError, match="negative"):
        worst_case_values(spec, np.array([[1.0, 1.0, 1.0], [1.0, -1e-6, 1.0]]))


# ---------------------------------------------------------------------------
# duality and domination
# ---------------------------------------------------------------------------

def test_dual_lower_bound_set():
    # {w >= l}: dual value l @ coef with p = coef
    l = np.array([0.5, 1.0, 0.25])
    coef = np.array([2.0, 1.0, 4.0])
    v = dual_polyhedral_value(polyhedral_spec(np.eye(3), l), coef)
    assert v == pytest.approx(l @ coef, abs=1e-9)


def test_dual_simplex_set_min_entry():
    A = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    b = np.array([1.0, -1.0])
    coef = np.array([0.7, 0.3, 1.2])
    v = dual_polyhedral_value(polyhedral_spec(A, b), coef)
    assert v == pytest.approx(0.3, abs=1e-9)


def test_primal_dual_agreement_random():
    rng = streams.stream(47, streams.TAG_GEN, 0)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        l = rng.uniform(0.0, 1.0, size=m)
        u = l + rng.uniform(0.2, 1.5, size=m)
        spec = box_spec(l, u)
        coef = rng.uniform(0.0, 3.0, size=m)
        _, primal = worst_case_weights(spec, coef)
        assert dual_polyhedral_value(spec, coef) == pytest.approx(primal, abs=1e-8)


def test_sample_domination_all_kinds():
    rng = streams.stream(53, streams.TAG_GEN, 0)
    m = 4
    l = rng.uniform(0.1, 0.5, size=m)
    specs = [
        singleton_spec(rng.uniform(0.5, 1.5, size=m)),
        box_spec(l, l + rng.uniform(0.2, 1.0, size=m)),
        ellipsoidal_spec(rng.uniform(1.0, 2.0, size=m),
                         np.diag(rng.uniform(0.2, 0.5, size=m)), 0.5),
        wasserstein_spec(rng.uniform(0.0, 2.0, size=(3, m)),
                         np.array([0.3, 0.3, 0.4]), 0.5),
    ]
    for spec in specs:
        for _ in range(8):
            coef = rng.uniform(0.0, 2.0, size=m)
            if spec.kind == "wasserstein":
                _, _, v = worst_case_mean(spec, coef)
            else:
                _, v = worst_case_weights(spec, coef)
            for w in sample_feasible(spec, rng, 10):
                assert coef @ w >= v - 1e-8


def test_sample_feasible_stays_in_set():
    rng = streams.stream(59, streams.TAG_GEN, 0)
    l = np.array([0.2, 0.5, 0.1])
    u = np.array([1.0, 1.5, 0.9])
    for w in sample_feasible(box_spec(l, u), rng, 25):
        assert np.all(w >= l - 1e-9) and np.all(w <= u + 1e-9)
    ell = ellipsoidal_spec(np.array([2.0, 2.0]), np.diag([0.5, 1.0]), 1.0)
    for w in sample_feasible(ell, rng, 25):
        quad = (w - ell.w0) @ np.linalg.solve(ell.Q, w - ell.w0)
        assert quad <= ell.a + 1e-9


def test_monotone_in_set_size():
    rng = streams.stream(61, streams.TAG_GEN, 0)
    m = 3
    coef = rng.uniform(0.2, 1.5, size=m)
    w0 = np.full(m, 2.0)
    _, v_small = worst_case_weights(ellipsoidal_spec(w0, np.eye(m), 0.2), coef)
    _, v_big = worst_case_weights(ellipsoidal_spec(w0, np.eye(m), 1.0), coef)
    assert v_big <= v_small + 1e-10
    sup = rng.uniform(0.0, 2.0, size=(3, m))
    emp = np.array([0.5, 0.25, 0.25])
    _, _, t_small = worst_case_mean(wasserstein_spec(sup, emp, 0.1), coef)
    _, _, t_big = worst_case_mean(wasserstein_spec(sup, emp, 1.0), coef)
    assert t_big <= t_small + 1e-10
    l = np.full(m, 0.5)
    u = np.full(m, 1.5)
    _, b_tight = worst_case_weights(box_spec(l, u), coef)
    _, b_loose = worst_case_weights(box_spec(l * 0.5, u), coef)
    assert b_loose <= b_tight + 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_spec_json_round_trips():
    rng = streams.stream(67, streams.TAG_GEN, 0)
    m = 3
    specs = [
        singleton_spec(rng.uniform(0.0, 2.0, size=m)),
        box_spec(np.zeros(m), np.ones(m)),
        polyhedral_spec(rng.standard_normal((2, m)), rng.standard_normal(2)),
        ellipsoidal_spec(np.full(m, 2.0), np.eye(m), 0.5),
        wasserstein_spec(rng.uniform(0.0, 1.0, size=(2, m)),
                         np.array([0.5, 0.5]), 0.25),
    ]
    for spec in specs:
        back = parse_spec(spec_to_json(spec))
        assert back.kind == spec.kind
        assert back.dim() == spec.dim()
        coef = rng.uniform(0.0, 1.0, size=m)
        if spec.kind == "wasserstein":
            assert worst_case_mean(back, coef)[2] == pytest.approx(
                worst_case_mean(spec, coef)[2], abs=1e-12)
        else:
            assert worst_case_weights(back, coef)[1] == pytest.approx(
                worst_case_weights(spec, coef)[1], abs=1e-12)


def test_spec_parse_errors():
    with pytest.raises(Exception):
        parse_spec("{\"kind\": \"nope\"}")
    with pytest.raises(Exception):
        parse_spec("{}")


@pytest.mark.parametrize("d, field", [
    ({"kind": "singleton", "weights": [1.0, float("nan")]}, "weights[1]"),
    ({"kind": "polyhedral", "A": [[1.0, 0.0], [0.0, float("inf")]], "b": [0.0, 0.0]},
     "A[1][1]"),
    ({"kind": "polyhedral", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
      "b": [0.5, float("nan"), -1, -1]}, "b[1]"),
    ({"kind": "ellipsoidal", "w0": [float("-inf"), 1.0], "Q": [[1, 0], [0, 1]], "a": 0.1},
     "w0[0]"),
    ({"kind": "ellipsoidal", "w0": [1.0, 1.0], "Q": [[1, float("nan")], [0, 1]], "a": 0.1},
     "Q[0][1]"),
    ({"kind": "ellipsoidal", "w0": [1.0, 1.0], "Q": [[1, 0], [0, 1]], "a": float("nan")},
     "a"),
    ({"kind": "wasserstein", "support": [[1.0, float("nan")]], "empirical": [1.0],
      "radius": 0.1}, "support[0][1]"),
    ({"kind": "wasserstein", "support": [[1.0, 1.0]], "empirical": [float("nan")],
      "radius": 0.1}, "empirical[0]"),
    ({"kind": "wasserstein", "support": [[1.0, 1.0]], "empirical": [1.0],
      "radius": float("inf")}, "radius"),
    ({"kind": "wasserstein", "support": [[1.0], [2.0]], "empirical": [0.5, 0.5],
      "radius": 0.1, "metric": [[0, 1], [float("nan"), 0]]}, "metric[1][0]"),
    ({"kind": "polyhedral", "A": [[1.0, 0.0], [0.0]], "b": [0.0, 0.0]}, "A"),
])
def test_spec_parse_rejects_non_finite(d, field):
    # json writes NaN/Infinity and reads them back, so parse must catch them
    with pytest.raises(ParseError) as info:
        parse_spec(json.dumps(d))
    assert str(info.value).startswith(field + ":")


def test_spec_tableau_is_a_private_cache():
    spec = box_spec(np.array([0.5, 1.0]), np.array([1.5, 2.0]))
    twin = box_spec(np.array([0.5, 1.0]), np.array([1.5, 2.0]))
    w, _ = worst_case_weights(spec, np.array([1.0, 1.0]))
    assert np.allclose(w, [0.5, 1.0])
    assert repr(spec) == repr(twin)
    assert spec_to_json(spec) == spec_to_json(twin)
    # reassigning a defining field rebuilds phase 1 for the new region
    spec.b = np.array([0.2, 0.1, -1.5, -2.0])
    w, _ = worst_case_weights(spec, np.array([1.0, 1.0]))
    assert np.allclose(w, [0.2, 0.1])
    ball = wasserstein_spec(np.array([[1.0, 1.0], [0.0, 0.5]]), np.array([0.5, 0.5]), 0.0)
    assert worst_case_mean(ball, np.ones(2))[2] == pytest.approx(1.25)
    ball.radius = 10.0
    assert worst_case_mean(ball, np.ones(2))[2] == pytest.approx(0.5)


def test_spec_equality_by_value():
    spec = box_spec(np.zeros(2), np.ones(2))
    assert spec == box_spec(np.zeros(2), np.ones(2))
    assert not spec != box_spec(np.zeros(2), np.ones(2))
    assert spec != box_spec(np.zeros(2), 2.0 * np.ones(2))
    assert spec != box_spec(np.zeros(3), np.ones(3))
    assert spec != singleton_spec(np.ones(2))
    assert singleton_spec(np.ones(2)) != ellipsoidal_spec(np.ones(2), np.eye(2), 0.1)
    assert spec != "box"
    assert ellipsoidal_spec(np.ones(2), np.eye(2), 0.1) == \
        ellipsoidal_spec(np.ones(2), np.eye(2), 0.1)
    assert ellipsoidal_spec(np.ones(2), np.eye(2), 0.1) != \
        ellipsoidal_spec(np.ones(2), np.eye(2), 0.2)
    sup = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert wasserstein_spec(sup, [0.5, 0.5], 0.3) == wasserstein_spec(sup, [0.5, 0.5], 0.3)
    assert wasserstein_spec(sup, [0.5, 0.5], 0.3) != \
        wasserstein_spec(sup, [0.5, 0.5], 0.3, metric=[[0.0, 2.0], [2.0, 0.0]])
    # the cached phase-1 tableau is not part of the value; a box builds none
    worst_case_weights(spec, np.ones(2))
    assert spec._lp is None
    budget = polyhedral_spec(np.vstack([spec.A, np.ones((1, 2))]), np.append(spec.b, 0.5))
    twin = polyhedral_spec(budget.A.copy(), budget.b.copy())
    worst_case_weights(budget, np.ones(2))
    assert budget._lp is not None
    assert budget == twin and budget != spec


def chord_loops(A, b, w, d, eps=1e-12):
    """Row-by-row reference for the hit-and-run chord."""
    lo, hi = -np.inf, np.inf
    Ad = A @ d
    slack = A @ w - b
    for r in range(len(b)):
        if Ad[r] < -eps:
            hi = min(hi, slack[r] / -Ad[r])
        elif Ad[r] > eps:
            lo = max(lo, -slack[r] / Ad[r])
    for i in range(len(w)):
        if d[i] < -eps:
            hi = min(hi, w[i] / -d[i])
        elif d[i] > eps:
            lo = max(lo, -w[i] / d[i])
    return lo, hi


def test_chord_matches_row_loop_exactly():
    rng = streams.stream(31, streams.TAG_GEN, 0)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        lower = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
        upper = lower + rng.uniform(0.0, 1.0, m)
        spec = box_spec(lower, upper)
        # interior points and points on faces (zero slack)
        w = lower + np.clip(rng.uniform(-0.3, 1.3, m), 0.0, 1.0) * (upper - lower)
        d = rng.standard_normal(m) * (rng.random(m) < 0.8)
        assert _chord(spec.A, spec.b, w, d) == chord_loops(spec.A, spec.b, w, d)


def declared_lower_loop(A, b):
    """Row-by-row reference for validate_set's declared-lower-bound scan."""
    out = []
    for r in range(A.shape[0]):
        row = A[r]
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if len(nz) == 1 and row[nz[0]] > 0.0:
            lower = b[r] / row[nz[0]]
            if lower < -1e-9:
                out.append(f"polyhedron: negative declared lower bound "
                           f"{float(lower)!r} for weight {int(nz[0])}")
    return out


def test_declared_lower_bound_scan_matches_row_loop():
    A_hull = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                       [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    cases = [
        box_spec(np.array([0.5, 0.0, 1.0]), np.array([1.0, 2.0, 3.0])),
        polyhedral_spec(A_hull, np.array([1.0, -1.0, 1.0, -1.0])),
        # a negative single entry (w_0 <= -2, not a lower bound) and a
        # near-zero entry that leaves the row single
        polyhedral_spec(np.array([[-2.0, 0.0], [3.0, 1e-13], [1.0, 1.0]]),
                        np.array([4.0, -6.0, 1.0])),
        # negative declared lower bounds on weights 0 and 2, out of row order
        polyhedral_spec(np.array([[0.0, 0.0, 4.0], [1.0, 0.0, 0.0],
                                  [-1.0, 0.0, 0.0], [0.0, 0.5, 0.0],
                                  [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
                        np.array([-0.3, -1.0, -2.0, 0.25, -3.0, -2.0])),
        box_spec(np.array([-1.0, 0.0]), np.ones(2)),
    ]
    found = 0
    for spec in cases:
        expect = declared_lower_loop(spec.A, spec.b)
        found += len(expect)
        got = [v for v in validate_set(spec).violations
               if v.startswith("polyhedron: negative declared lower bound")]
        assert got == expect
    assert found == 4


def test_load_spec_from_file(tmp_path):
    spec = box_spec(np.zeros(2), np.ones(2))
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    again = load_spec(str(path))
    assert again.kind == spec.kind


# ---------------------------------------------------------------------------
# closed-form boxes and diagonal ellipsoids against the dense routes
# ---------------------------------------------------------------------------

def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def tableau_worst(spec, coef):
    """The simplex route for a polyhedron: phase 2 of a fresh tableau."""
    res = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b)).solve(np.clip(coef, 0.0, None))
    return res.x, res.value


def tableau_hit_and_run(spec, rng, count):
    """The simplex route of sample_feasible for a polyhedron: start at the
    tableau's vertex for a zero cost, step along the dense chords."""
    dim = spec.dim()
    w = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b)).solve(np.zeros(dim)).x
    out = np.empty((count, dim))
    for t in range(count):
        for _ in range(2 * dim):
            d = rng.standard_normal(dim)
            lo, hi = _chord(spec.A, spec.b, w, d)
            if hi <= lo:
                continue
            w = w + rng.uniform(lo, hi) * d
        out[t] = np.clip(w, 0.0, None)
    return out


def coef_cases(rng, m):
    c = rng.uniform(0.1, 2.0, m)
    sparse = c * (rng.random(m) < 0.5)
    roundoff = c.copy()
    roundoff[::2] = -1e-10       # accepted, clipped to 0
    return [c, np.zeros(m), sparse, roundoff]


def _box_cases():
    rng = streams.stream(53, streams.TAG_GEN, 0)
    m = 6
    lower = rng.uniform(0.2, 1.0, m)
    upper = lower + rng.uniform(0.1, 1.0, m)
    eye = np.eye(m)
    perm = rng.permutation(2 * m)
    A = np.vstack([2.0 * eye, -3.0 * eye])
    b = np.concatenate([2.0 * lower, -3.0 * upper])
    # weight 0 has no lower row, weight 1 a lower bound 0, weight 2 a point
    # interval, weight 3 a lower bound -0.0
    edge_lower = lower.copy()
    edge_lower[1] = 0.0
    edge_lower[2] = upper[2]
    edge_lower[3] = -0.0
    edge = box_spec(edge_lower, upper)
    return {
        "box_spec": box_spec(lower, upper),
        "permuted_scaled_rows": polyhedral_spec(A[perm], b[perm]),
        "open_zero_and_point_bounds": polyhedral_spec(edge.A[1:], edge.b[1:]),
    }


@pytest.mark.parametrize("name", sorted(_box_cases()))
def test_box_view_is_the_tableau_vertex_bit_for_bit(name):
    spec = _box_cases()[name]
    lower, upper = _box_view(spec)
    assert validate_set(spec, m=6).ok
    rng = streams.stream(59, streams.TAG_GEN, 0)
    coefs = coef_cases(rng, 6)
    for c in coefs:
        w, v = worst_case_weights(spec, c)
        x, value = tableau_worst(spec, c)
        assert same_bits(w, x) and same_bits(v, value)
        assert same_bits(w, lower)
    got = worst_case_values(spec, np.array(coefs))
    assert np.allclose(got, [tableau_worst(spec, c)[1] for c in coefs], rtol=1e-15, atol=0.0)
    assert spec._lp is None  # validation, oracle and block built no tableau
    if name == "open_zero_and_point_bounds":
        assert same_bits(lower[[0, 1, 3]], np.zeros(3)) and lower[2] == upper[2]


def _fallback_cases():
    box = box_spec(np.array([0.5, 1.0]), np.array([1.5, 2.0]))
    return {
        "budget_row": (polyhedral_spec(np.vstack([box.A, [[1.0, 1.0]]]),
                                       np.append(box.b, 2.0)), []),
        "duplicate_bound": (polyhedral_spec(np.vstack([box.A, [[1.0, 0.0]]]),
                                            np.append(box.b, 0.7)), []),
        "missing_cap": (polyhedral_spec(box.A[[0, 1, 3]], box.b[[0, 1, 3]]),
                        ["polyhedron: unbounded (no finite weight cap)"]),
        # inside the phase-1 tolerance: the tableau accepts it
        "lower_above_upper_by_1e-12": (box_spec([1.0 + 1e-12, 1.0], [1.0, 2.0]), []),
        "lower_above_upper_by_1": (box_spec([2.5, 1.0], [1.5, 2.0]),
                                   ["polyhedron: empty feasible set"]),
    }


@pytest.mark.parametrize("name", sorted(_fallback_cases()))
def test_box_view_fallbacks_keep_the_tableau(name):
    spec, violations = _fallback_cases()[name]
    assert _box_view(spec) is None
    assert validate_set(spec, m=2).violations == violations
    if violations:
        return
    for c in coef_cases(streams.stream(61, streams.TAG_GEN, 0), 2):
        w, v = worst_case_weights(spec, c)
        x, value = tableau_worst(spec, c)
        assert same_bits(w, x) and same_bits(v, value)
    assert spec._lp is not None


def _tied_box_cases():
    """Boxes on which the tableau's vertex is not `lower`: its ratio tests tie
    within the 1e-9 pivot tolerance, and which row wins depends on the row
    order and scale.  Each maps to (spec, coef, tableau's first weight)."""
    return {
        # u - l below the tolerance: phase 1 picks u, phase 2 keeps it for a
        # zero coefficient
        "bounds_tied": (box_spec([1.0, 1.0], [1.0 + 1e-12, 2.0]), np.zeros(2), 1.0 + 1e-12),
        # point intervals with u |a| at or below the tolerance: phase 2 moves
        # them to 0, outside the set, when the lower row comes first
        "point_below_pivot_tol": (box_spec([1e-10, 1.0], [1e-10, 2.0]), np.ones(2), 0.0),
        "scaled_point": (polyhedral_spec([[0.1, 0.0], [-0.1, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                         [0.1 * 5e-9, -0.1 * 5e-9, 1.0, -2.0]),
                         np.ones(2), 0.0),
    }


@pytest.mark.parametrize("name", sorted(_tied_box_cases()))
def test_box_view_answers_tied_bounds_at_lower(name):
    spec, coef, tableau_first = _tied_box_cases()[name]
    assert tableau_worst(spec, coef)[0][0] == tableau_first
    lower, upper = _box_view(spec)
    assert np.all(lower <= upper) and lower[1] == 1.0
    assert np.isclose(lower[0], {"bounds_tied": 1.0, "point_below_pivot_tol": 1e-10,
                                 "scaled_point": 5e-9}[name], rtol=1e-15, atol=0.0)
    assert validate_set(spec, m=2).ok
    for c in (coef, np.array([0.5, 2.0])):
        w, v = worst_case_weights(spec, c)
        assert same_bits(w, lower) and same_bits(v, float(c @ lower))
    assert spec._lp is None


def box_chord(lower, upper, w, d, eps=1e-12):
    """The chord of a box from its bounds, in O(m): the rows w >= lower and
    -w >= -upper read slack + t * rate >= 0; the rows w >= 0 are implied."""
    rate = np.concatenate([d, -d])
    slack = np.concatenate([w - lower, upper - w])
    down = rate < -eps
    up = rate > eps
    hi = float(np.min(slack[down] / -rate[down], initial=np.inf))
    lo = float(np.max(-slack[up] / rate[up], initial=-np.inf))
    return lo, hi


def test_box_chord_matches_dense_chord_bit_for_bit():
    """On unit rows the dense chord's slacks and rates are the same floats as
    the bounds' ones, so its step range is too."""
    rng = streams.stream(67, streams.TAG_GEN, 0)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        lower = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
        upper = lower + rng.uniform(0.01, 1.0, m) * (rng.random(m) < 0.9)
        spec = box_spec(lower, upper)
        lo_w, up_w = _box_view(spec)
        # interior points and points on faces (zero slack)
        w = lower + np.clip(rng.uniform(-0.3, 1.3, m), 0.0, 1.0) * (upper - lower)
        d = rng.standard_normal(m) * (rng.random(m) < 0.8)
        d[rng.random(m) < 0.1] = 1e-13  # below the chord's rate threshold
        assert same_bits(box_chord(lo_w, up_w, w, d), _chord(spec.A, spec.b, w, d))


def test_box_samples_match_tableau_route_bit_for_bit():
    """Box draws are uniform on the corners the tableau reaches: on unit rows
    its vertices for the costs +1 (lower) and -1 (upper) are the same floats
    as the box's bounds, so the draws are the same bits.  (On rows scaled by
    -3 the tableau's upper corner can differ from b / a in the last bit;
    test_box_samples_are_uniform_draws covers those rows.)"""
    inst = gnp_instance(9, 0.5, 2)
    w0 = inst.nominal_weights()
    for spec in (box_spec(0.8 * w0, 1.2 * w0),
                 box_spec(np.where(np.arange(inst.m) % 3 == 0, 0.0, 0.9 * w0), w0),
                 _box_cases()["box_spec"],
                 _box_cases()["open_zero_and_point_bounds"]):
        m = spec.dim()
        got = sample_feasible(spec, streams.stream(71, streams.TAG_GEN, 0), 12)
        assert spec._lp is None
        tableau = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b))
        lower, upper = tableau.solve(np.ones(m)).x, tableau.solve(-np.ones(m)).x
        U = streams.stream(71, streams.TAG_GEN, 0).random((12, m))
        assert same_bits(got, lower + U * (upper - lower))


def test_box_samples_are_uniform_draws():
    inst = gnp_instance(9, 0.5, 2)
    w0 = inst.nominal_weights()
    for spec in (box_spec(0.8 * w0, 1.2 * w0),
                 box_spec(np.where(np.arange(inst.m) % 3 == 0, 0.0, 0.9 * w0), w0),
                 _box_cases()["permuted_scaled_rows"],
                 _box_cases()["open_zero_and_point_bounds"]):
        lower, upper = _box_view(spec)
        m = spec.dim()
        got = sample_feasible(spec, streams.stream(71, streams.TAG_GEN, 0), 12)
        U = streams.stream(71, streams.TAG_GEN, 0).random((12, m))
        assert same_bits(got, lower + U * (upper - lower))
        assert np.all(got >= lower) and np.all(got <= upper)
        point = lower == upper
        assert same_bits(got[:, point], np.broadcast_to(lower[point], (12, point.sum())))
        assert spec._lp is None


def _general_polyhedra():
    """A box with two random budget rows, and the segment between two weight
    scenarios written as opposite pairs of rows: neither is a box."""
    inst = gnp_instance(7, 0.5, 3)
    w0 = inst.nominal_weights()
    rng = np.random.default_rng(5)
    box = box_spec(0.8 * w0, 1.2 * w0)
    R = rng.uniform(0.0, 1.0, size=(2, inst.m))
    s1, s2 = w0 * rng.uniform(0.7, 1.3, size=(2, inst.m))
    d = s2 - s1
    N = np.linalg.svd(d[None, :])[2][1:]  # rows span the complement of d
    return {
        "budgeted_box": polyhedral_spec(np.vstack([box.A, R]),
                                        np.concatenate([box.b, R @ w0])),
        "scenario_hull": polyhedral_spec(
            np.vstack([N, -N, d, -d]),
            np.concatenate([N @ s1, -(N @ s1), [d @ s1], [-(d @ s2)]])),
    }


@pytest.mark.parametrize("name", sorted(_general_polyhedra()))
def test_general_polyhedron_samples_match_tableau_route_bit_for_bit(name):
    spec = _general_polyhedra()[name]
    assert _box_view(spec) is None and validate_set(spec).ok
    got = sample_feasible(spec, streams.stream(71, streams.TAG_GEN, 0), 12)
    want = tableau_hit_and_run(spec, streams.stream(71, streams.TAG_GEN, 0), 12)
    assert same_bits(got, want)
    assert np.all(spec.A @ got.T >= spec.b[:, None] - 1e-9)


def in_wasserstein_ball(spec, w):
    """A cold feasibility LP over couplings K >= 0 (K_ij: mass moved from
    atom j to atom i): column marginals equal the empirical weights, the
    mean sum_ij K_ij s_i equals w, and the transport cost is at most r."""
    k, m = spec.support.shape
    marginals = np.tile(np.eye(k), k)
    mean_rows = np.repeat(spec.support.T, k, axis=1)
    A = np.vstack([marginals, mean_rows, spec.metric.reshape(1, -1)])
    b = np.concatenate([spec.empirical, w, [spec.radius]])
    try:
        simplex_solve(LpProblem(np.zeros(k * k), A, b, ["="] * (k + m) + ["<="]))
    except InfeasibleError:
        return False
    return True


def _wasserstein_cases():
    inst = gnp_instance(6, 0.6, 5)
    ball = wasserstein_for(inst, 4, 0.3, seed=2)
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]])
    pts = ball.support[:3]
    return {
        "auto_metric": ball,
        "explicit_metric": wasserstein_spec(pts, np.array([0.2, 0.5, 0.3]), 0.4, D),
        # large enough that some atoms take all the mass (reach 1)
        "wide": wasserstein_spec(ball.support, ball.empirical, 50.0),
        "radius_0": wasserstein_spec(ball.support, ball.empirical, 0.0),
        "one_point": wasserstein_spec(ball.support[:1], np.array([1.0]), 0.3),
        # atom 1 holds all the mass: moving it there costs 0
        "all_mass_on_one_atom": wasserstein_spec(pts, np.array([0.0, 1.0, 0.0]), 0.2),
        "all_mass_radius_0": wasserstein_spec(pts, np.array([0.0, 1.0, 0.0]), 0.0),
    }


@pytest.mark.parametrize("name", sorted(_wasserstein_cases()))
def test_wasserstein_samples_lie_in_the_ball(name):
    spec = _wasserstein_cases()[name]
    assert validate_set(spec).ok
    k = spec.support.shape[0]
    got = sample_feasible(spec, streams.stream(97, streams.TAG_GEN, 0), 16)
    assert got.shape == (16, spec.dim())
    for w in got:
        assert in_wasserstein_ball(spec, w)
    emp_mean = spec.support.T @ spec.empirical
    # the draws: mixtures (1 - lam) p_hat + lam e_i, lam below min(1, r / cost_i)
    rng = streams.stream(97, streams.TAG_GEN, 0)
    atom = rng.integers(k, size=16)
    share = rng.random(16)
    cost = spec.metric @ spec.empirical
    reach = np.array([1.0 if c <= spec.radius else spec.radius / c for c in cost])
    lam = share * reach[atom]
    assert same_bits(got, emp_mean + lam[:, None] * (spec.support[atom] - emp_mean))
    if spec.radius == 0.0 or k == 1:
        # no mass can move, or it all sits where it would go: the mean
        assert same_bits(got, np.broadcast_to(emp_mean, got.shape))
    if name == "wide":
        assert np.any(reach == 1.0) and np.any(lam > 0.5)


def test_wasserstein_ball_check_rejects_points_outside():
    """The feasibility LP above has teeth: a support point the radius does
    not reach, and a point off the support's hull, are outside the ball."""
    spec = _wasserstein_cases()["auto_metric"]
    cost = spec.metric @ spec.empirical
    far = int(np.argmax(cost))
    assert cost[far] > spec.radius
    assert not in_wasserstein_ball(spec, spec.support[far])
    assert not in_wasserstein_ball(spec, 1.5 * spec.support.max(axis=0))
    assert in_wasserstein_ball(spec, spec.support.T @ spec.empirical)


def dense_ellipsoid_worst(w0, Q, a, coef):
    """The dense route of the ellipsoid oracle, with Q @ coef."""
    coef = np.clip(coef, 0.0, None)
    q = Q @ coef
    w = w0 - np.sqrt(a) * q / float(np.sqrt(coef @ q))
    return w, float(coef @ w)


def _diag_ellipsoid(m=7, seed=73):
    rng = streams.stream(seed, streams.TAG_GEN, 0)
    w0 = rng.uniform(1.0, 2.0, m)
    q = rng.uniform(0.05, 3.0, m)
    return w0, q, float(np.min(0.25 * w0 ** 2 / q))


def test_diagonal_q_matches_dense_route_bit_for_bit():
    w0, q, a = _diag_ellipsoid()
    Q = np.diag(q)
    spec = ellipsoidal_spec(w0, Q, a)
    assert same_bits(_diag_view(spec), q)
    assert validate_set(spec, m=7).ok
    rng = streams.stream(79, streams.TAG_GEN, 0)
    coefs = coef_cases(rng, 7)
    for c in coefs[:1] + coefs[2:]:  # coefs[1] = 0 returns the center
        w, v = worst_case_weights(spec, c)
        w_d, v_d = dense_ellipsoid_worst(w0, Q, a, c)
        assert same_bits(w, w_d) and same_bits(v, v_d)
    # block values: the dense block product C @ Q.T
    C = np.clip(rng.uniform(0.0, 1.0, (16, 7)) * (rng.random((16, 7)) < 0.7), 0.0, None)
    C[0] = 0.0
    live = C.max(axis=1) > 1e-14
    qC = C[live] @ Q.T
    W = w0 - np.sqrt(a) * qC / np.sqrt(np.einsum("ij,ij->i", C[live], qC))[:, None]
    want = np.zeros(16)
    want[live] = np.einsum("ij,ij->i", C[live], W)
    assert same_bits(worst_case_values(spec, C), want)
    # sampling: the dense root from the eigendecomposition
    rng_a, rng_b = (streams.stream(83, streams.TAG_GEN, 0) for _ in range(2))
    z = rng_b.standard_normal((20, 7))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    rho = rng_b.random(20) ** (1.0 / 7)
    want = np.clip(w0 + np.sqrt(a) * (rho[:, None] * z) @ sqrt_psd(Q).T, 0.0, None)
    assert same_bits(sample_feasible(spec, rng_a, 20), want)


def test_diagonal_q_validation_message_matches_eigvalsh():
    w0, q, a = _diag_ellipsoid()
    for bad in (1e-20, 0.0, -0.5):
        qb = q.copy()
        qb[3] = bad
        eig = np.linalg.eigvalsh(np.diag(qb))
        spec = ellipsoidal_spec(w0, np.diag(qb), a)
        assert _diag_view(spec) is not None
        assert validate_set(spec, m=7).violations == \
            [f"Q: not positive definite (min eigenvalue {eig[0]:.3e})"]


def test_diagonal_q_norm_route_matches_dense_root():
    inst = gnp_instance(8, 0.5, 4)
    spec = ellipsoid_for(inst, 0.5, seed=2)
    assert _diag_view(spec) is not None
    ncols = factor_columns(inst)
    rng = streams.stream(89, streams.TAG_GEN, 0)
    for _ in range(3):
        factor = GramFactor(_random_unit_columns(default_rank(ncols), ncols, rng))
        coef = np.clip(term_gram_coefficients(inst, factor), 0.0, None)
        want = float(coef @ spec.w0 - np.sqrt(spec.a) * np.linalg.norm(sqrt_psd(spec.Q) @ coef))
        assert same_bits(ellipsoid_reformulated_value(inst, spec, factor), want)


def test_q_with_tiny_off_diagonal_keeps_the_dense_route():
    w0, q, a = _diag_ellipsoid()
    Q = np.diag(q)
    Q[0, 1] = Q[1, 0] = 1e-300
    spec = ellipsoidal_spec(w0, Q, a)
    assert _diag_view(spec) is None
    assert validate_set(spec, m=7).ok
    c = np.linspace(0.1, 1.0, 7)
    w, v = worst_case_weights(spec, c)
    w_d, v_d = dense_ellipsoid_worst(w0, Q, a, c)
    assert same_bits(w, w_d) and same_bits(v, v_d)
