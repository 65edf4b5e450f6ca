"""Property tests: the closed-form box and diagonal-ellipsoid routes give the
exact box vertex and the dense routes' bits on randomly drawn sets, the
closed-form Wasserstein worst case is the transport LP's optimum on balls
drawn with many ties, and the colour classes of randomly drawn instances of
every kind are valid classes for the ascent sweep.

Drawn with ``hypothesis`` (a test-only dependency) at a fixed seed
(``derandomize``), without an example database, so every run checks the same
examples.
"""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from robustcut import sdp  # noqa: E402
from robustcut.instances import (ALLEQUAL, DICUT, MAXCUT,  # noqa: E402
                                 allequal_instance, graph_instance)
from robustcut.numerics import PIVOT_TOL, FeasibleTableau, simplex_solve  # noqa: E402
from robustcut.uncertainty import (_worst_distributions,  # noqa: E402
                                   ellipsoidal_spec, polyhedral_spec,
                                   validate_set, wasserstein_spec,
                                   worst_case_mean, worst_case_values,
                                   worst_case_weights)

FIXED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


# the oracles take coefficients of either sign (relaxed dicut ones reach -1/8)
coef_entry = st.one_of(st.just(0.0), st.just(-1e-10),
                       st.floats(1e-12, 10.0, allow_nan=False, allow_infinity=False),
                       st.floats(-10.0, -1e-12, allow_nan=False, allow_infinity=False))


@st.composite
def boxes(draw):
    """A polyhedron w >= l, -w >= -u written row by row: some weights without
    a lower row, bounds at 0 and below the pivot tolerance, point intervals,
    rows scaled and permuted.  Returns (spec, vertex, cap, tied, box):
    `vertex` is max(l, 0) with l = b / a as written, `cap` is u = b / a as
    written; `box` says that `cap` is at or over `vertex` everywhere, so the
    set's exact minimizer for a coef is `cap` where coef < 0 and `vertex`
    elsewhere.  A scaled point interval can miss that by an ulp,
    (-3 u) / (-3) < u; such a set is no box and the tableau answers it.
    `tied` says the tableau's ratio tests may tie on a point interval (its
    u |a| at or below the 1e-9 pivot tolerance, or a non-unit row), so its
    vertex need not be `vertex`."""
    m = draw(st.integers(1, 8))
    value = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(1e-300, 1e-8))
    lower = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    width = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                                   min_size=m, max_size=m)))
    upper = lower + width
    has_lower = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    scale = st.sampled_from([1.0, 1.0, 2.0, 0.5, 3.0])
    rows, b = [], []
    vertex = np.zeros(m)
    cap = np.zeros(m)
    tied = False
    for i in range(m):
        e = np.eye(m)[i]
        s_l = draw(scale)
        if has_lower[i]:
            rows.append(s_l * e)
            b.append(s_l * lower[i])
            vertex[i] = b[-1] / s_l
        s_u = draw(scale)
        rows.append(-s_u * e)
        b.append(-s_u * upper[i])
        cap[i] = b[-1] / -s_u
        if has_lower[i] and width[i] == 0.0 and lower[i] != 0.0:
            tied |= not (s_l == s_u == 1.0 and lower[i] > 1e-9)
    order = draw(st.permutations(range(len(rows))))
    spec = polyhedral_spec(np.array(rows)[order], np.array(b)[order])
    return spec, vertex, cap, tied, bool(np.all(vertex <= cap))


@st.composite
def boxes_and_coefs(draw):
    """A set of :func:`boxes` and a block of 1-4 signed coefficient rows."""
    box = draw(boxes())
    m = box[0].dim()
    rows = st.lists(st.lists(coef_entry, min_size=m, max_size=m), min_size=1, max_size=4)
    return (*box, np.array(draw(rows)))


def box_example(lower, upper, coefs):
    """A :func:`boxes_and_coefs` value for the box lower <= w <= upper
    written with unit rows in order: (spec, vertex, cap, tied, box, coefs)."""
    m = len(lower)
    eye = np.eye(m)
    spec = polyhedral_spec(np.vstack([eye, -eye]),
                           np.concatenate([lower, -np.asarray(upper)]))
    return spec, np.array(lower), np.array(upper), False, True, np.array(coefs)


def check_tableau_fallback(spec, vertex, coefs):
    """A set of :func:`boxes` that is no box as written: the tableau answers
    it, within its 1e-9 tolerance of `vertex` where no coefficient is
    negative."""
    assert spec._box is None
    tableau = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b))
    for c in coefs:
        w, v = worst_case_weights(spec, c)
        res = tableau.solve(c)
        assert same_bits(w, res.x) and same_bits(v, res.value)
        assert np.allclose(w[c >= 0.0], vertex[c >= 0.0], rtol=1e-9, atol=1e-9)
    assert "_tableau" in vars(spec)


def test_box_rows_an_ulp_apart_fall_back_to_the_tableau():
    # (-3 * 0.7) / -3 lands an ulp under 0.7, so the point interval
    # [0.7, 0.7] with its upper row scaled by 3 is no box as written
    spec = polyhedral_spec([[1.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           [0.7, -3.0 * 0.7, 0.0, -2.0])
    assert (-3.0 * 0.7) / -3.0 < 0.7
    assert validate_set(spec) == []
    check_tableau_fallback(spec, np.array([0.7, 0.0]), np.array([[1.0, 1.0], [0.0, 2.0]]))


_EXAMPLE_LOWER, _EXAMPLE_UPPER = [0.5, 0.0, 1.0, 2.0], [1.5, 2.0, 1.0, 3.0]


@FIXED
@given(boxes_and_coefs())
# explicit rows, checked whatever else the strategy draws: mixed signs, an
# all-negative row, entries of -1e-10 (within the tableau's pivot
# tolerance) and an all-zero row
@example(box_example(_EXAMPLE_LOWER, _EXAMPLE_UPPER,
                     [[1.0, -2.0, 0.5, -0.125], [-1.0, -0.5, -2.0, -1e-12]]))
@example(box_example(_EXAMPLE_LOWER, _EXAMPLE_UPPER,
                     [[-1e-10, 1.0, -1e-10, 0.0], [-1e-10] * 4]))
@example(box_example(_EXAMPLE_LOWER, _EXAMPLE_UPPER, [[0.0] * 4, [-0.0] * 4]))
def test_random_box_oracle_is_the_exact_vertex(case):
    spec, vertex, cap, tied, is_box, coefs = case
    assert validate_set(spec) == []
    if not is_box:
        check_tableau_fallback(spec, vertex, coefs)
        return
    assert same_bits(spec._box[0], vertex) and same_bits(spec._box[1], cap)
    tableau = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b))
    want = []
    for c in coefs:
        w, v = worst_case_weights(spec, c)
        corner = np.where(c < 0.0, cap, vertex)  # -0.0 is not negative
        assert same_bits(w, corner) and same_bits(v, float(c @ corner))
        want.append(v)
        if tied:  # the simplex's ratio tests may tie on a point interval
            continue
        res = tableau.solve(c)
        if np.all(c >= 0.0):  # the simplex lands on the same vertex
            assert same_bits(w, res.x) and same_bits(v, res.value)
        else:
            # the corner is the exact minimum: the tableau's vertex is no
            # lower, up to the ulp its row operations may put on u, and no
            # higher than the costs it prices as 0 within its pivot tolerance
            ulps = 4.0 * np.finfo(float).eps * float(np.abs(c) @ cap)
            slack = 3.0 * PIVOT_TOL * float(np.sum(cap - vertex))
            assert v - ulps <= res.value <= v + slack + ulps
    assert same_bits(worst_case_values(spec, coefs), want)
    assert "_tableau" not in vars(spec)


@st.composite
def diagonal_ellipsoids(draw):
    m = draw(st.integers(1, 8))
    q = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m)))
    w0 = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    a = draw(st.floats(1e-4, 10.0))
    return w0, q, a


@FIXED
@given(diagonal_ellipsoids(), st.data())
def test_random_diagonal_q_matches_dense_route(ellipsoid, data):
    w0, q, a = ellipsoid
    m = len(q)
    Q = np.diag(q)
    spec = ellipsoidal_spec(w0, Q, a)
    assert spec._diag is not None
    coefs = np.array(data.draw(st.lists(
        st.lists(coef_entry, min_size=m, max_size=m), min_size=1, max_size=4)))
    coefs = np.vstack([coefs, -np.ones(m)])  # all-negative: worth its closed form, not 0
    want = []
    for c in coefs:
        w, v = worst_case_weights(spec, c)
        if np.abs(c).max() <= 1e-14:  # the degenerate representative, not the closed form
            assert same_bits(w, w0) and v == 0.0
        else:  # the dense route: Q @ c as one dot per row of Q
            qc = np.array([row @ c for row in Q])
            w_d = w0 - np.sqrt(a) * qc / float(np.sqrt(c @ qc))
            assert same_bits(w, w_d) and same_bits(v, float(c @ w_d))
        want.append(v)
    assert same_bits(worst_case_values(spec, coefs), want)
    # validation reads the sorted diagonal where the dense route runs eigvalsh
    eig = np.linalg.eigvalsh(Q)
    pd = [] if eig[0] > m * np.finfo(float).eps * eig[-1] else \
        [f"Q: not positive definite (min eigenvalue {eig[0]:.3e})"]
    assert [v for v in validate_set(spec) if v.startswith("Q:")] == pd


# ---------------------------------------------------------------------------
# the Wasserstein worst case against the transport LP
# ---------------------------------------------------------------------------

@st.composite
def wasserstein_balls(draw):
    """A ball drawn for ties: atoms on one line (collinear hull points under
    the l1 auto-metric, whose costs are linear in the atoms too), duplicate
    atoms (distance 0, equal costs), or explicit metrics with zero
    off-diagonal entries; one atom or several; radius 0, 1e-9, moderate, or
    above the cost of every move.  Coordinates and distances lie on a grid
    of quarters, which makes ties exact and keeps every nonzero distance far
    above the reference simplex's 1e-9 tolerance."""
    k = draw(st.integers(1, 7))
    m = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(["line", "duplicates", "spread"]))
    entry = st.integers(0, 12).map(lambda i: i / 4.0)
    if layout == "line":
        base = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
        ahead = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
        at = np.array(draw(st.lists(entry, min_size=k, max_size=k)))
        support = base + at[:, None] * ahead
    else:
        support = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                         min_size=k, max_size=k)))
        if layout == "duplicates":
            support = support[draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))]
    empirical = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)), dtype=float)
    empirical /= empirical.sum()
    metric = "l1"
    if draw(st.booleans()):
        upper = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        metric = np.triu(upper, 1) + np.triu(upper, 1).T
    ball = wasserstein_spec(support, empirical, 0.0, metric)
    radius = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0,
                                   1.0 + float(ball.metric.max()) * 2.0]))
    return dataclasses.replace(ball, radius=radius)


def transport_lp(spec, costs):
    """A cold LP over couplings K >= 0 (K_ij: mass moved from atom j to atom
    i): column marginals are the empirical weights, the transport cost
    sum d_ij K_ij is at most r, landing on atom i costs costs[i].  The costs
    are scaled to a largest entry of 1 and the value scaled back, so the
    simplex's absolute 1e-9 tolerance does not swallow rows of 1e-15."""
    k = len(costs)
    scale = float(np.abs(costs).max()) or 1.0
    A = np.vstack([np.tile(np.eye(k), k), spec.metric.reshape(1, -1)])
    b = np.append(spec.empirical, spec.radius)
    res = simplex_solve(np.repeat(costs / scale, k), A, b, ["="] * k + ["<="])
    assert res.x.min() >= -1e-12  # a feasible coupling: the reference is sound
    return res.value * scale


def transport_cost(spec, p):
    """The least transport cost from the empirical distribution to p."""
    k = len(p)
    A = np.vstack([np.tile(np.eye(k), k), np.repeat(np.eye(k), k, axis=1)])
    res = simplex_solve(spec.metric.ravel(), A, np.concatenate([spec.empirical, p]),
                        ["="] * (2 * k))
    return res.value


@FIXED
@given(wasserstein_balls(), st.data())
def test_wasserstein_closed_form_is_the_transport_optimum(ball, data):
    k, m = ball.support.shape
    assert validate_set(ball) == []
    coefs = np.array(data.draw(st.lists(
        st.lists(coef_entry, min_size=m, max_size=m), min_size=1, max_size=3)))
    # degenerate rows, and an all-negative row the degenerate test must not
    # read as worth 0
    coefs = np.vstack([coefs, np.zeros(m), np.full(m, 1e-15), -np.ones(m)])
    costs = np.array([[s @ c for s in ball.support] for c in coefs])  # one dot per atom
    P = _worst_distributions(ball, costs)
    assert P.shape == (len(costs), k)
    # p's entries are exact to a few eps of the unit mass: a value of 0 may
    # come out as eps times the largest cost, a move as eps times the
    # longest distance
    eps = 16.0 * np.finfo(float).eps
    for c, p in zip(costs, P):
        want = transport_lp(ball, c)
        assert abs(float(c @ p) - want) <= 1e-12 * abs(want) + eps * float(np.abs(c).max())
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12
        assert transport_cost(ball, p) <= \
            ball.radius * (1.0 + 1e-12) + eps * float(ball.metric.max())
    # the one-row call of the solver is the closed form on these costs, and
    # each row of the brute-force block carries its bits
    want = []
    for coef, c, p in zip(coefs, costs, P):
        q, mean_w, v = worst_case_mean(ball, coef)
        if np.abs(coef).max() <= 1e-14:  # degenerate: the empirical distribution, worth 0
            assert same_bits(q, ball.empirical) and v == 0.0
        else:
            assert same_bits(q, p) and v == float(c @ p)
        assert same_bits(mean_w, ball.support.T @ q)
        want.append(v)
    assert same_bits(worst_case_values(ball, coefs), want)


# ---------------------------------------------------------------------------
# colour classes of the elliptope ascent
# ---------------------------------------------------------------------------

weight = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


@st.composite
def instances(draw):
    """An instance of any kind with 1-9 vertices (2-9 variables for
    allequal): graphs with isolated vertices, no edges at all or every pair
    (the dicut reference column then meets every vertex), and weights that
    may be zero."""
    kind = draw(st.sampled_from([MAXCUT, DICUT, ALLEQUAL]))
    if kind == ALLEQUAL:
        n = draw(st.integers(2, 9))
        k = draw(st.integers(2, min(n, 4)))
        clauses = []
        for _ in range(draw(st.integers(1, 12))):
            vs = draw(st.permutations(range(1, n + 1)))[:k]
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
            clauses.append(([v * s for v, s in zip(vs, signs)], draw(weight)))
        return allequal_instance(n, clauses)
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and (kind == DICUT or i < j)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_instance(n, kind, [(i, j, draw(weight))
                                    for (i, j), kept in zip(pairs, keep) if kept])


@FIXED
@given(instances())
def test_colour_classes_partition_the_columns_without_a_shared_pair(inst):
    ncols = inst.ncols
    classes = inst.colour_classes
    assert sorted(np.concatenate(classes).tolist()) == list(range(ncols))
    assert all(cls.size and np.all(np.diff(cls) > 0) for cls in classes)
    colour = np.empty(ncols, dtype=int)
    for c, cls in enumerate(classes):
        colour[cls] = c
    _, _, a, b, _ = inst.pair_table
    off = a != b
    assert not np.any(colour[a[off]] == colour[b[off]])
    # greedy in column order: each column takes the least colour its
    # lower-numbered partners leave free
    for v in range(ncols):
        lower = set(colour[b[off & (a == v) & (b < v)]]) | set(colour[a[off & (b == v) & (a < v)]])
        assert colour[v] == min(set(range(len(classes) + 1)) - lower)


@FIXED
@given(instances())
def test_colour_classes_are_read_only_and_built_once(inst):
    classes = inst.colour_classes
    assert inst.colour_classes is classes
    for cls in classes:
        assert not cls.flags.writeable
        with pytest.raises(ValueError):
            cls[0] = 0
    # the classes are not part of the instance's value
    if inst.kind == ALLEQUAL:
        again = allequal_instance(inst.n, [([s * (v + 1) for v, s in lits], w)
                                           for lits, w in inst.clauses])
    else:
        again = graph_instance(inst.n, inst.kind, inst.edges)
    assert again == inst and "colour_classes" not in vars(again)


@FIXED
@given(instances(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_sweep_value_is_the_relaxed_value(inst, rank, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((rank, inst.ncols))
    U /= np.linalg.norm(U, axis=0)
    w = inst.nominal_weights()
    step = sdp._ascent_pass(inst, w[None])
    for _ in range(3):
        want = sdp.relaxed_value(inst, U, w)
        assert abs(step.values(U[None])[0] - want) <= 1e-12 * max(1.0, abs(want))
        step(U[None])
