"""All-equal evaluators that read ``Instance.clause_arrays``, checked against
per-clause loops kept here as references.

The loops walk ``inst.clauses`` one literal at a time, as the evaluators did
before they became array expressions.  Indicators and matrices must match
exactly; sums of weights may differ only in their rounding.
"""

import math

import numpy as np
import pytest

from robustcut import streams
from robustcut.instances import (allequal_instance, allequal_value,
                                 term_coefficients)
from robustcut.rounding import allequal_quadratic_matrix, expected_allequal_exact

from mc_reference import mc_allequal_value

REL = 1e-15


def ref_satisfied(lits, x):
    vals = [s * x[v] for v, s in lits]
    return all(v == vals[0] for v in vals)


def ref_term_coefficients(inst, x):
    return np.array([1.0 if ref_satisfied(lits, x) else 0.0 for lits, _ in inst.clauses])


def ref_allequal_value(inst, x, w):
    total = 0.0
    for (lits, _), wc in zip(inst.clauses, w):
        if ref_satisfied(lits, x):
            total += wc
    return total


def ref_expected(inst, z, w):
    p_plus = (1.0 + math.sqrt(2.0 / inst.arity) * np.asarray(z, dtype=float)) / 2.0
    total = 0.0
    for (lits, _), wc in zip(inst.clauses, w):
        q = np.array([p_plus[v] if s > 0 else 1.0 - p_plus[v] for v, s in lits])
        total += wc * (float(np.prod(q)) + float(np.prod(1.0 - q)))
    return total


def ref_matrix(inst, w):
    A = np.zeros((inst.n, inst.n))
    for (lits, _), wc in zip(inst.clauses, w):
        a = np.zeros(inst.n)
        for v, s in lits:
            a[v] = s
        A += wc * np.outer(a, a)
    return A


def ref_mc(inst, z, w, trials, seed):
    p_plus = (1.0 + math.sqrt(2.0 / inst.arity) * np.asarray(z, dtype=float)) / 2.0
    draws = streams.stream(seed, streams.TAG_MC, 1).random((trials, inst.n))
    X = np.where(draws < p_plus, 1.0, -1.0)
    vals = np.zeros(trials)
    for (lits, _), wc in zip(inst.clauses, w):
        vidx = np.array([v for v, _ in lits])
        sgns = np.array([s for _, s in lits], dtype=float)
        vals += wc * (np.abs((X[:, vidx] * sgns).sum(axis=1)) == inst.arity)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def random_instances(count=40):
    """Random all-equal instances with k in 2..4, negated literals, and the
    last variable in no clause."""
    rng = streams.stream(101, streams.TAG_GEN, 0)
    for _ in range(count):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 1, 9))
        clauses = []
        for _ in range(int(rng.integers(1, 12))):
            vs = rng.choice(n - 1, size=k, replace=False) + 1
            signs = np.where(rng.random(k) < 0.5, -1, 1)
            clauses.append(([int(v) for v in vs * signs], float(rng.uniform(0.1, 3.0))))
        yield allequal_instance(n, clauses), rng


def close(got, want):
    return abs(got - want) <= REL * abs(want)


def test_random_instances_cover_the_edge_cases():
    insts = [inst for inst, _ in random_instances()]
    assert {inst.arity for inst in insts} == {2, 3, 4}
    assert all(any(s < 0 for lits, _ in inst.clauses for _, s in lits) for inst in insts[:5])
    assert all(all(v != inst.n - 1 for lits, _ in inst.clauses for v, _ in lits)
               for inst in insts)


def test_indicators_and_values_match_clause_loop():
    for inst, rng in random_instances():
        w = inst.nominal_weights()
        for bits in range(1 << inst.n):
            x = np.array([1 if (bits >> i) & 1 else -1 for i in range(inst.n)])
            assert np.array_equal(term_coefficients(inst, x), ref_term_coefficients(inst, x))
            assert close(allequal_value(inst, x, w), ref_allequal_value(inst, x, w))


def test_quadratic_matrix_matches_clause_loop():
    for inst, rng in random_instances():
        w = rng.uniform(-1.0, 2.0, inst.m)
        assert np.array_equal(allequal_quadratic_matrix(inst, w), ref_matrix(inst, w))


def test_expectations_match_clause_loop():
    for inst, rng in random_instances():
        w = inst.nominal_weights()
        z = np.where(rng.random(inst.n) < 0.5, -1, 1)
        assert close(expected_allequal_exact(inst, z, w), ref_expected(inst, z, w))
        mean, se = mc_allequal_value(inst, z, w, trials=500, seed=9)
        ref_mean, ref_se = ref_mc(inst, z, w, 500, 9)
        assert close(mean, ref_mean)
        assert se == pytest.approx(ref_se, rel=1e-12)
