"""Uncertainty-set validation and exact inner worst-case oracles.

Independent cross-checks: a projected-gradient minimizer for the ellipsoid
(never touches the closed form), a 2x2 transport enumeration for the
Wasserstein ball, and domination sweeps over the oracles' own minimizers
for everything.
"""

import dataclasses
import json

import numpy as np
import pytest

from robustcut import streams, uncertainty
from robustcut.gen import ellipsoid_for, gnp_instance, wasserstein_for
from robustcut.instances import (DICUT, MAXCUT, DomainError, cut_value, dicut_value,
                                 term_coefficients)
from robustcut.numerics import FeasibleTableau, InfeasibleError, simplex_solve, sqrt_psd
from robustcut.instances import ParseError
from robustcut.robust import ellipsoid_reformulated_value
from robustcut.sdp import _random_unit_columns, default_rank, term_gram_coefficients
from robustcut.uncertainty import (_worst_block, box_spec, dual_polyhedral_value,
                                   ellipsoidal_spec, load_spec, parse_spec,
                                   polyhedral_spec, require_valid, singleton_spec, spec_to_json, validate_set,
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
    assert validate_set(box_spec(np.zeros(3), np.ones(3)), m=3) == []


def test_box_negative_lower_flagged():
    violations = validate_set(box_spec(np.array([-1.0, 0.0]), np.ones(2)), m=2)
    assert violations
    assert any("negativ" in v for v in violations)


def test_unbounded_polyhedron_flagged():
    spec = polyhedral_spec(np.eye(2), np.zeros(2))  # {w >= 0}: no cap
    violations = validate_set(spec, m=2)
    assert violations
    assert any("unbounded" in v for v in violations)


def test_empty_polyhedron_flagged():
    A = np.array([[1.0], [-1.0]])
    b = np.array([2.0, -1.0])  # w >= 2 and w <= 1
    violations = validate_set(polyhedral_spec(A, b), m=1)
    assert violations
    assert any("empty" in v or "infeasible" in v for v in violations)


def test_ellipsoid_negativity_reachable_flagged():
    # w0_i - sqrt(a Q_ii) < 0 at index 1
    spec = ellipsoidal_spec(np.array([3.0, 0.5]), np.diag([1.0, 1.0]), 1.0)
    violations = validate_set(spec, m=2)
    assert violations
    assert any("1" in v for v in violations)


def test_ellipsoid_q_must_be_positive_definite():
    spec = ellipsoidal_spec(np.ones(2), np.diag([1.0, 0.0]), 0.01)
    assert validate_set(spec, m=2)


def test_ellipsoid_singular_q_rejected():
    # rank 5 of 6: eigvalsh returns a roundoff-sized smallest eigenvalue
    V = np.random.default_rng(1).standard_normal((6, 5))
    violations = validate_set(ellipsoidal_spec(10.0 * np.ones(6), V @ V.T, 0.01), m=6)
    assert violations
    assert any(v.startswith("Q: not positive definite (min eigenvalue")
               for v in violations)
    # positive, but below dim * eps * lambda_max
    assert validate_set(ellipsoidal_spec(np.ones(2), np.diag([1.0, 1e-17]), 0.01), m=2) == [
        "Q: not positive definite (min eigenvalue 1.000e-17)"]
    # well-conditioned but tiny in scale is still positive definite
    assert validate_set(ellipsoidal_spec(np.ones(2), np.diag([1e-12, 2e-12]), 0.01), m=2) == []


def test_wasserstein_validation():
    sup = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert validate_set(wasserstein_spec(sup, np.array([0.5, 0.5]), 0.1), m=2) == []
    assert validate_set(wasserstein_spec(sup, np.array([0.7, 0.5]), 0.1), m=2)
    assert validate_set(wasserstein_spec(np.array([[1.0, -2.0], [2.0, 1.0]]),
                                         np.array([0.5, 0.5]), 0.1), m=2)


NAN, INF = float("nan"), float("inf")
SUP2 = [[1.0, 2.0], [2.0, 1.0]]


@pytest.mark.parametrize("field, make", [
    ("radius", lambda: wasserstein_spec(SUP2, [0.5, 0.5], NAN)),
    ("radius", lambda: wasserstein_spec(SUP2, [0.5, 0.5], INF)),
    ("empirical[0]", lambda: wasserstein_spec(SUP2, [NAN, 0.5], 0.1)),
    ("support[1][0]", lambda: wasserstein_spec([[1.0, 2.0], [NAN, 1.0]], [0.5, 0.5], 0.1)),
    ("metric[0][1]", lambda: wasserstein_spec(SUP2, [0.5, 0.5], 0.1, [[0.0, NAN], [NAN, 0.0]])),
    ("a", lambda: ellipsoidal_spec([1.0, 1.0], np.eye(2), NAN)),
    ("w0[1]", lambda: ellipsoidal_spec([1.0, INF], np.eye(2), 0.1)),
    ("Q[0][1]", lambda: ellipsoidal_spec([1.0, 1.0], [[1.0, NAN], [NAN, 1.0]], 0.1)),
    ("b[0]", lambda: box_spec([NAN, 1.0], [2.0, 2.0])),
    ("A[0][1]", lambda: polyhedral_spec([[1.0, INF]], [0.0])),
    ("weights[0]", lambda: singleton_spec([NAN, 1.0])),
])
def test_non_finite_fields_are_rejected_by_name(field, make):
    # specs built in Python skip the parser's finite check; validation
    # names the field before any other check can trip on the NaN
    violations = validate_set(make())
    assert violations
    assert violations[0].startswith(f"{field}: not a finite number (")
    with pytest.raises(DomainError) as info:
        require_valid(make())
    assert str(info.value).startswith(f"invalid uncertainty set: {field}: not a finite")


def test_dimension_mismatch_flagged():
    assert validate_set(singleton_spec(np.ones(3)), m=4)


def test_require_valid_checks_a_set_once_per_term_count(monkeypatch):
    calls = []
    validate = uncertainty.validate_set
    monkeypatch.setattr(uncertainty, "validate_set",
                        lambda *a, **k: calls.append(k.get("m")) or validate(*a, **k))
    spec = ellipsoidal_spec(np.ones(3), np.diag([0.1, 0.2, 0.3]), 0.5)
    for _ in range(3):
        require_valid(spec, m=3)
    assert calls == [3]
    with pytest.raises(DomainError, match="dim: set dimension 3 != instance term count 4"):
        require_valid(spec, m=4)
    require_valid(spec, m=3)
    assert calls == [3, 4]
    # replacing a defining field, array or scalar, makes a set checked afresh
    spec = dataclasses.replace(spec, w0=np.ones(3))
    require_valid(spec, m=3)
    spec = dataclasses.replace(spec, a=0.25)
    require_valid(spec, m=3)
    assert calls == [3, 4, 3, 3]
    spec = dataclasses.replace(spec, a=-1.0)
    with pytest.raises(DomainError, match="a: radius parameter must be positive"):
        require_valid(spec, m=3)
    assert spec == ellipsoidal_spec(np.ones(3), np.diag([0.1, 0.2, 0.3]), -1.0)


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
    assert same_bits(got, want)
    assert got[3] == want[3] == 0.0
    assert worst_case_values(spec, C[:0]).shape == (0,)


@pytest.mark.parametrize("kind", [MAXCUT, DICUT])
def test_block_rows_are_the_one_vector_oracle_bit_for_bit(kind):
    # every row of a block carries the bits of the same vector scored alone:
    # values, worst weights and, for a Wasserstein ball, the worst distribution
    inst = gnp_instance(10, 0.5, 31, kind=kind)
    rng = streams.stream(47, streams.TAG_GEN, 0)
    sets = value_test_sets(inst.m, rng)
    w0, q, a = _diag_ellipsoid(inst.m)
    sets["ellipsoid_diagonal"] = ellipsoidal_spec(w0, np.diag(q), a)
    # a random block with an all-zero row, an entry of -1e-10 and a row of
    # 1e-15, and the term coefficients of random cuts
    C = rng.uniform(0.0, 1.0, size=(24, inst.m)) * (rng.random((24, inst.m)) < 0.6)
    C[3] = 0.0
    C[7, 2] = -1e-10
    C[11] = 1e-15
    blocks = (C, term_coefficients(inst, np.where(rng.random((64, inst.n)) < 0.5, 1, -1)))
    for name, spec in sets.items():
        for C in blocks:
            values, W, P = _worst_block(spec, np.clip(C, 0.0, None))
            assert same_bits(worst_case_values(spec, C), values)
            for r, c in enumerate(C):
                w, v = worst_case_weights(spec, c)
                assert same_bits(values[r], v), (name, r)
                if P is None:
                    assert same_bits(W[r], w), (name, r)
                    continue
                p, mean_w, v_mean = worst_case_mean(spec, c)
                assert same_bits(P[r], p) and same_bits(v_mean, v) and same_bits(mean_w, w)
    # a singleton's block values are cut_value's or dicut_value's bits
    w = rng.uniform(0.5, 1.5, inst.m)
    Y = np.where(rng.random((128, inst.n)) < 0.5, 1, -1)
    value_of = dicut_value if kind == DICUT else cut_value
    got = worst_case_values(singleton_spec(w), term_coefficients(inst, Y))
    assert same_bits(got, [value_of(inst, y, w) for y in Y])


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
        # every minimizer lies in the set, so no coefficient vector scores
        # another one's minimizer below its own minimum
        coefs = rng.uniform(0.0, 2.0, size=(8, m))
        points, values = [], []
        for coef in coefs:
            if spec.kind == "wasserstein":
                _, w, v = worst_case_mean(spec, coef)
            else:
                w, v = worst_case_weights(spec, coef)
            points.append(w)
            values.append(v)
        for coef, v in zip(coefs, values):
            for w in points:
                assert coef @ w >= v - 1e-8


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


def test_empty_matrix_fields_are_zero_by_zero():
    # [] is a matrix with no rows: a box and an ellipsoid in no weights are
    # valid sets whose oracles score the empty row; [[]] keeps its one row
    box = parse_spec(json.dumps({"kind": "polyhedral", "A": [], "b": []}))
    ball = parse_spec(json.dumps({"kind": "ellipsoidal", "w0": [], "Q": [], "a": 1.0}))
    for spec in (box, ball):
        assert spec.dim() == 0 and validate_set(spec, m=0) == []
        assert worst_case_weights(spec, np.empty(0))[1] == 0.0
        assert worst_case_values(spec, np.empty((3, 0))).tolist() == [0.0] * 3
        assert parse_spec(spec_to_json(spec)) == spec
    assert box.A.shape == ball.Q.shape == (0, 0) and box._box is not None
    one_row = parse_spec(json.dumps({"kind": "polyhedral", "A": [[]], "b": [0.0]}))
    assert one_row.A.shape == (1, 0)


def test_spec_tableau_is_a_private_cache():
    spec = box_spec(np.array([0.5, 1.0]), np.array([1.5, 2.0]))
    twin = box_spec(np.array([0.5, 1.0]), np.array([1.5, 2.0]))
    w, _ = worst_case_weights(spec, np.array([1.0, 1.0]))
    assert np.allclose(w, [0.5, 1.0])
    assert repr(spec) == repr(twin)
    assert spec_to_json(spec) == spec_to_json(twin)
    # a replaced defining field makes a new set with its own derived forms
    spec = dataclasses.replace(spec, b=np.array([0.2, 0.1, -1.5, -2.0]))
    w, _ = worst_case_weights(spec, np.array([1.0, 1.0]))
    assert np.allclose(w, [0.2, 0.1])
    ball = wasserstein_spec(np.array([[1.0, 1.0], [0.0, 0.5]]), np.array([0.5, 0.5]), 0.0)
    assert worst_case_mean(ball, np.ones(2))[2] == pytest.approx(1.25)
    ball = dataclasses.replace(ball, radius=10.0)
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
    assert "_tableau" not in vars(spec)
    budget = polyhedral_spec(np.vstack([spec.A, np.ones((1, 2))]), np.append(spec.b, 0.5))
    twin = polyhedral_spec(budget.A.copy(), budget.b.copy())
    worst_case_weights(budget, np.ones(2))
    assert "_tableau" in vars(budget)
    assert budget == twin and budget != spec


SUP = [[1.0, 2.0], [2.0, 1.0]]
ONE_OF_EACH = {
    "singleton": lambda: singleton_spec([1.0, 2.0]),
    "polyhedral": lambda: polyhedral_spec([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                          [0.5, -2.0, -2.0]),
    "box": lambda: box_spec([0.5, 1.0], [1.5, 2.0]),
    "ellipsoidal": lambda: ellipsoidal_spec([1.0, 1.0], np.eye(2), 0.1),
    "wasserstein": lambda: wasserstein_spec(SUP, [0.5, 0.5], 0.3),
    "wasserstein_metric": lambda: wasserstein_spec(SUP, [0.5, 0.5], 0.3,
                                                   [[0.0, 2.0], [2.0, 0.0]]),
}


@pytest.mark.parametrize("parsed", [False, True])
@pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
def test_spec_is_frozen(name, parsed):
    spec = ONE_OF_EACH[name]()
    if parsed:
        spec = parse_spec(spec_to_json(spec))
    for f in dataclasses.fields(spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, f.name, getattr(spec, f.name))
    arrays = [getattr(spec, f) for f in ("weights", "A", "b", "w0", "Q", "support",
                                         "empirical", "metric")
              if getattr(spec, f) is not None]
    assert arrays
    for arr in arrays:
        assert arr.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    assert validate_set(spec, m=2) == []


def test_spec_arrays_are_views_of_the_inputs():
    # a dense Q is not copied: the set reads the caller's matrix
    Q = np.eye(3)
    spec = ellipsoidal_spec(np.ones(3), Q, 0.1)
    assert np.shares_memory(spec.Q, Q) and Q.flags.writeable
    # lists become fresh arrays, vectors at least 1-D, matrices 2-D
    spec = polyhedral_spec([1.0, 1.0], 0.5)
    assert spec.A.shape == (1, 2) and spec.b.shape == (1,)


def test_a_validated_set_cannot_be_edited_in_place():
    spec = box_spec([0.5, 1], [1.5, 2])
    require_valid(spec, m=2)
    with pytest.raises(ValueError):
        spec.b[2] = -0.1  # would empty the set behind the validation
    assert np.array_equal(worst_case_weights(spec, np.ones(2))[0], [0.5, 1.0])
    assert validate_set(dataclasses.replace(spec, b=np.array([0.5, 1.0, -0.1, -2.0]))
                        ) == ["polyhedron: empty feasible set"]


def test_replace_validates_afresh_and_rebuilds_the_derived_forms(monkeypatch):
    calls = []
    validate = uncertainty.validate_set
    monkeypatch.setattr(uncertainty, "validate_set",
                        lambda *a, **k: calls.append(k.get("m")) or validate(*a, **k))
    box = box_spec([0.5, 1.0], [1.5, 2.0])
    require_valid(box, m=2)
    moved = dataclasses.replace(box, b=np.array([0.2, 0.1, -1.5, -2.0]))
    require_valid(moved, m=2)
    assert calls == [2, 2]
    assert np.array_equal(box._box[0], [0.5, 1.0])
    assert np.array_equal(moved._box[0], [0.2, 0.1])
    assert np.array_equal(worst_case_weights(moved, np.ones(2))[0], [0.2, 0.1])
    # a budget row w1 + w2 >= c makes a polyhedron that is no box; each set
    # builds its own tableau
    unit = box_spec(np.zeros(2), np.ones(2))
    budget = polyhedral_spec(np.vstack([unit.A, np.ones((1, 2))]), np.append(unit.b, 1.0))
    require_valid(budget, m=2)
    higher = dataclasses.replace(budget, b=np.append(unit.b, 1.5))
    require_valid(higher, m=2)
    assert calls == [2, 2, 2, 2]
    assert budget._box is None and higher._box is None
    assert vars(budget)["_tableau"] is not vars(higher)["_tableau"]
    assert worst_case_weights(budget, np.ones(2))[1] == pytest.approx(1.0)
    assert worst_case_weights(higher, np.ones(2))[1] == pytest.approx(1.5)
    with pytest.raises(DomainError, match="polyhedron: empty feasible set"):
        require_valid(dataclasses.replace(budget, b=np.append(unit.b, 3.0)), m=2)
    # an auto metric is rebuilt from the replaced support
    ball = wasserstein_spec(SUP, [0.5, 0.5], 0.3)
    far = dataclasses.replace(ball, support=3.0 * np.array(SUP))
    assert np.array_equal(far.metric, [[0.0, 6.0], [6.0, 0.0]])
    assert far == wasserstein_spec(3.0 * np.array(SUP), [0.5, 0.5], 0.3)


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
        got = [v for v in validate_set(spec)
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
    lower, upper = spec._box
    assert validate_set(spec, m=6) == []
    rng = streams.stream(59, streams.TAG_GEN, 0)
    coefs = coef_cases(rng, 6)
    for c in coefs:
        w, v = worst_case_weights(spec, c)
        x, value = tableau_worst(spec, c)
        assert same_bits(w, x) and same_bits(v, value)
        assert same_bits(w, lower)
    got = worst_case_values(spec, np.array(coefs))
    assert np.allclose(got, [tableau_worst(spec, c)[1] for c in coefs], rtol=1e-15, atol=0.0)
    assert "_tableau" not in vars(spec)  # validation, oracle and block built no tableau
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
    assert spec._box is None
    assert validate_set(spec, m=2) == violations
    if violations:
        return
    for c in coef_cases(streams.stream(61, streams.TAG_GEN, 0), 2):
        w, v = worst_case_weights(spec, c)
        x, value = tableau_worst(spec, c)
        assert same_bits(w, x) and same_bits(v, value)
    assert "_tableau" in vars(spec)


def _tied_box_cases():
    """Boxes whose bounds tie within the 1e-9 pivot tolerance.  The tableau's
    ratio test takes the exact minimum ratio, so its vertex is `lower` here
    too; when ratios within the tolerance counted as ties, which row left
    depended on the row order and scale, and the vertex was the upper bound
    or, for the points, 0, outside the set.  Each maps to (spec, coef,
    tableau's first weight)."""
    return {
        # u - l below the tolerance
        "bounds_tied": (box_spec([1.0, 1.0], [1.0 + 1e-12, 2.0]), np.zeros(2), 1.0),
        # point intervals with u |a| at or below the tolerance
        "point_below_pivot_tol": (box_spec([1e-10, 1.0], [1e-10, 2.0]), np.ones(2), 1e-10),
        "scaled_point": (polyhedral_spec([[0.1, 0.0], [-0.1, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                         [0.1 * 5e-9, -0.1 * 5e-9, 1.0, -2.0]),
                         np.ones(2), 5e-9),
    }


@pytest.mark.parametrize("name", sorted(_tied_box_cases()))
def test_box_view_answers_tied_bounds_at_lower(name):
    spec, coef, tableau_first = _tied_box_cases()[name]
    assert tableau_worst(spec, coef)[0][0] == tableau_first
    lower, upper = spec._box
    assert np.all(lower <= upper) and lower[1] == 1.0
    assert np.isclose(lower[0], {"bounds_tied": 1.0, "point_below_pivot_tol": 1e-10,
                                 "scaled_point": 5e-9}[name], rtol=1e-15, atol=0.0)
    assert validate_set(spec, m=2) == []
    for c in (coef, np.array([0.5, 2.0])):
        w, v = worst_case_weights(spec, c)
        assert same_bits(w, lower) and same_bits(v, float(c @ lower))
    assert "_tableau" not in vars(spec)


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
        simplex_solve(np.zeros(k * k), A, b, ["="] * (k + m) + ["<="])
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


def transport_coupling(spec, costs):
    """A cold LP over couplings K >= 0 (K_ij: mass moved from atom j to atom
    i): column marginals equal the empirical weights, the transport cost
    sum d_ij K_ij is at most r, and landing on atom i costs costs[i]."""
    k = len(costs)
    A = np.vstack([np.tile(np.eye(k), k), spec.metric.reshape(1, -1)])
    b = np.append(spec.empirical, spec.radius)
    return simplex_solve(np.repeat(costs, k), A, b, ["="] * k + ["<="])


def transport_lp(spec, costs):
    """The worst distribution and value by :func:`transport_coupling`."""
    res = transport_coupling(spec, costs)
    K = res.x.reshape(len(costs), len(costs))
    assert K.min() >= -1e-12  # a feasible coupling, so the reference is sound
    return K.sum(axis=1), res.value


def test_transport_lp_vertex_stays_feasible_at_a_radius_of_1e_9():
    """Right-hand sides at the simplex's 1e-9 pivot tolerance: a radius of
    1e-9 and an atom of empirical weight 0.  When ratios within the tolerance
    of the minimum counted as ties, the row that left could drive a coupling
    below 0: on these 200 rows 24 vertices had entries down to -1.6e-9, and
    values fell up to 5.7e-10 relative below the optimum."""
    rng = streams.stream(61, streams.TAG_GEN, 1)
    for _ in range(40):
        k, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        emp = rng.dirichlet(np.ones(k))
        emp[rng.integers(k)] = 0.0
        spec = wasserstein_spec(rng.uniform(0.0, 2.0, (k, m)), emp / emp.sum(), 1e-9)
        for c in rng.uniform(0.0, 1.0, (5, m)):
            res = transport_coupling(spec, spec.support @ c)
            assert res.x.min() >= 0.0
            v = worst_case_mean(spec, c)[2]
            assert abs(res.value - v) <= 1e-12 * abs(v)


@pytest.mark.parametrize("name", sorted(_wasserstein_cases()))
def test_wasserstein_closed_form_matches_transport_lp(name):
    spec = _wasserstein_cases()[name]
    rng = streams.stream(59, streams.TAG_GEN, 0)
    C = rng.uniform(0.0, 1.0, size=(24, spec.dim())) * (rng.random((24, spec.dim())) < 0.7)
    C[0] = 0.0
    C[1] = 1e-15
    block = worst_case_values(spec, C)
    for c, v_block in zip(C, block):
        p, mean_w, v = worst_case_mean(spec, c)
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12
        assert in_wasserstein_ball(spec, mean_w)
        if c.max() <= 1e-14:  # degenerate: the empirical distribution, worth 0
            assert same_bits(p, spec.empirical) and v == v_block == 0.0
            continue
        costs = np.array([s @ c for s in spec.support])  # one dot per atom
        p_lp, v_lp = transport_lp(spec, costs)
        assert abs(v - v_lp) <= 1e-12 * abs(v_lp)
        assert same_bits(v, v_block) and v == float(costs @ p)
        assert same_bits(mean_w, spec.support.T @ p)
        assert np.allclose(p, p_lp, rtol=0.0, atol=1e-12)


def test_wasserstein_subnormal_distances():
    # a distance of 1e-310 overflows its reciprocal; the closed form clamps
    # it, so no warning is raised and an equal-cost twin at that distance
    # does not hide the real move to the cheap atom
    D = np.array([[0.0, 1e-310, 1.0], [1e-310, 0.0, 1.0], [1.0, 1.0, 0.0]])
    spec = wasserstein_spec([[1.0], [1.0], [0.5]], [0.5, 0.5, 0.0], 0.1, D)
    p, _, v = worst_case_mean(spec, np.ones(1))
    assert v == pytest.approx(0.95, rel=1e-15) and p[2] == pytest.approx(0.1, rel=1e-15)
    assert worst_case_values(spec, np.ones((1, 1)))[0] == pytest.approx(0.95, rel=1e-15)
    # radius 0: even a subnormal move costs more than it may spend
    spec = wasserstein_spec([[1.0], [2.0]], [0.5, 0.5], 0.0, D[:2, :2])
    assert same_bits(worst_case_mean(spec, np.ones(1))[0], spec.empirical)


def test_wasserstein_transport_tables_are_built_once_per_set():
    spec = wasserstein_for(gnp_instance(8, 0.5, 3), 4, 0.3, seed=2)
    C = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, spec.dim()))
    values = worst_case_values(spec, C)
    dist, per_rise = spec._transport
    assert spec._transport[1] is per_rise
    assert not dist.flags.writeable and not per_rise.flags.writeable
    want = spec.metric.T.copy()
    np.fill_diagonal(want, 0.0)
    assert same_bits(dist, want)
    rise = want[:, None, :] - want[:, :, None]
    assert same_bits(per_rise, np.where(rise > 0.0, 1.0 / np.maximum(rise, 1e-200), 0.0))
    # a fresh copy of the set builds its own tables and gives the same bits
    assert same_bits(worst_case_values(dataclasses.replace(spec), C), values)


def dense_ellipsoid_worst(w0, Q, a, coef):
    """The dense route of the ellipsoid oracle: Q @ coef as one dot per row
    of Q."""
    coef = np.clip(coef, 0.0, None)
    q = np.array([row @ coef for row in Q])
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
    assert same_bits(spec._diag, q)
    assert validate_set(spec, m=7) == []
    rng = streams.stream(79, streams.TAG_GEN, 0)
    coefs = coef_cases(rng, 7)
    for c in coefs[:1] + coefs[2:]:  # coefs[1] = 0 returns the center
        w, v = worst_case_weights(spec, c)
        w_d, v_d = dense_ellipsoid_worst(w0, Q, a, c)
        assert same_bits(w, w_d) and same_bits(v, v_d)
    # block values: the dense route row by row, 0 for a zero row
    C = np.clip(rng.uniform(0.0, 1.0, (16, 7)) * (rng.random((16, 7)) < 0.7), 0.0, None)
    C[0] = 0.0
    want = [dense_ellipsoid_worst(w0, Q, a, c)[1] if c.max() > 1e-14 else 0.0 for c in C]
    assert same_bits(worst_case_values(spec, C), want)


def test_diagonal_q_validation_message_matches_eigvalsh():
    w0, q, a = _diag_ellipsoid()
    for bad in (1e-20, 0.0, -0.5):
        qb = q.copy()
        qb[3] = bad
        eig = np.linalg.eigvalsh(np.diag(qb))
        spec = ellipsoidal_spec(w0, np.diag(qb), a)
        assert spec._diag is not None
        assert validate_set(spec, m=7) == \
            [f"Q: not positive definite (min eigenvalue {eig[0]:.3e})"]


def test_diagonal_q_norm_route_matches_dense_root():
    inst = gnp_instance(8, 0.5, 4)
    spec = ellipsoid_for(inst, 0.5, seed=2)
    assert spec._diag is not None
    ncols = inst.ncols
    rng = streams.stream(89, streams.TAG_GEN, 0)
    for _ in range(3):
        factor = _random_unit_columns(default_rank(ncols), ncols, rng)
        coef = np.clip(term_gram_coefficients(inst, factor), 0.0, None)
        want = float(coef @ spec.w0 - np.sqrt(spec.a) * np.linalg.norm(sqrt_psd(spec.Q) @ coef))
        assert same_bits(ellipsoid_reformulated_value(inst, spec, factor), want)


def test_q_with_tiny_off_diagonal_keeps_the_dense_route():
    w0, q, a = _diag_ellipsoid()
    Q = np.diag(q)
    Q[0, 1] = Q[1, 0] = 1e-300
    spec = ellipsoidal_spec(w0, Q, a)
    assert spec._diag is None
    assert validate_set(spec, m=7) == []
    c = np.linspace(0.1, 1.0, 7)
    w, v = worst_case_weights(spec, c)
    w_d, v_d = dense_ellipsoid_worst(w0, Q, a, c)
    assert same_bits(w, w_d) and same_bits(v, v_d)
