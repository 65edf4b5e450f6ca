"""Property tests: the closed-form box and diagonal-ellipsoid routes give the
exact box vertex and the dense routes' bits on randomly drawn sets, and box
samples are uniform draws inside the box.

Drawn with ``hypothesis`` (a test-only dependency) at a fixed seed
(``derandomize``), without an example database, so every run checks the same
examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from robustcut.numerics import FeasibleTableau, sqrt_psd  # noqa: E402
from robustcut.uncertainty import (_box_view, _diag_view,  # noqa: E402
                                   ellipsoidal_spec, polyhedral_spec,
                                   sample_feasible, validate_set,
                                   worst_case_values, worst_case_weights)

FIXED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


coef_entry = st.one_of(st.just(0.0), st.just(-1e-10),
                       st.floats(1e-12, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def boxes(draw):
    """A polyhedron w >= l, -w >= -u written row by row: some weights without
    a lower row, bounds at 0 and below the pivot tolerance, point intervals,
    rows scaled and permuted.  Returns (spec, vertex, tied): `vertex` is
    max(l, 0) with l = b / a as written, the set's exact minimizer for every
    coef >= 0; `tied` says the tableau's ratio tests may tie on a point
    interval (its u |a| at or below the 1e-9 pivot tolerance, or a non-unit
    row), so its vertex need not be `vertex`."""
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
        if has_lower[i] and width[i] == 0.0 and lower[i] != 0.0:
            tied |= not (s_l == s_u == 1.0 and lower[i] > 1e-9)
    order = draw(st.permutations(range(len(rows))))
    return polyhedral_spec(np.array(rows)[order], np.array(b)[order]), vertex, tied


@FIXED
@given(boxes(), st.data())
def test_random_box_oracle_is_the_exact_vertex(box, data):
    spec, vertex, tied = box
    m = spec.dim()
    assert same_bits(_box_view(spec)[0], vertex)
    assert validate_set(spec).ok
    tableau = FeasibleTableau(spec.A, spec.b, [">="] * len(spec.b))
    coefs = np.array(data.draw(st.lists(st.lists(coef_entry, min_size=m, max_size=m),
                                        min_size=1, max_size=4)))
    clipped = np.clip(coefs, 0.0, None)  # the oracles take -1e-10 as 0
    for c, c_clip in zip(coefs, clipped):
        w, v = worst_case_weights(spec, c)
        assert same_bits(w, vertex) and same_bits(v, float(c_clip @ vertex))
        if not tied:  # elsewhere the simplex lands on the same vertex
            res = tableau.solve(c_clip)
            assert same_bits(w, res.x) and same_bits(v, res.value)
    assert same_bits(worst_case_values(spec, coefs), clipped @ vertex)
    assert spec._lp is None


@FIXED
@given(boxes(), st.integers(0, 2 ** 32 - 1))
def test_random_box_samples_are_uniform_draws(box, seed):
    spec, _, _ = box
    m = spec.dim()
    lower, upper = _box_view(spec)
    got = sample_feasible(spec, np.random.default_rng(seed), 5)
    U = np.random.default_rng(seed).random((5, m))
    assert same_bits(got, lower + U * (upper - lower))
    assert np.all(got >= lower) and np.all(got <= upper)
    point = lower == upper  # the draws are exactly the point
    assert same_bits(got[:, point], np.broadcast_to(lower[point], (5, point.sum())))
    assert spec._lp is None


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
    assert _diag_view(spec) is not None
    coefs = np.clip(np.array(data.draw(st.lists(
        st.lists(coef_entry, min_size=m, max_size=m), min_size=1, max_size=4))), 0.0, None)
    for c in coefs:
        if c.max() <= 1e-14:
            continue  # the degenerate representative, not the closed form
        qc = Q @ c
        w_d = w0 - np.sqrt(a) * qc / float(np.sqrt(c @ qc))
        w, v = worst_case_weights(spec, c)
        assert same_bits(w, w_d) and same_bits(v, float(c @ w_d))
    live = coefs.max(axis=1) > 1e-14
    qC = coefs[live] @ Q.T
    W = w0 - np.sqrt(a) * qC / np.sqrt(np.einsum("ij,ij->i", coefs[live], qC))[:, None]
    want = np.zeros(len(coefs))
    want[live] = np.einsum("ij,ij->i", coefs[live], W)
    assert same_bits(worst_case_values(spec, coefs), want)
    # validation reads the sorted diagonal where the dense route runs eigvalsh
    eig = np.linalg.eigvalsh(Q)
    pd = [] if eig[0] > m * np.finfo(float).eps * eig[-1] else \
        [f"Q: not positive definite (min eigenvalue {eig[0]:.3e})"]
    assert [v for v in validate_set(spec).violations if v.startswith("Q:")] == pd
    # sampling: the dense root from the eigendecomposition
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, m))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    rho = rng.random(4) ** (1.0 / m)
    want = np.clip(w0 + np.sqrt(a) * (rho[:, None] * z) @ sqrt_psd(Q).T, 0.0, None)
    assert same_bits(sample_feasible(spec, np.random.default_rng(seed), 4), want)
