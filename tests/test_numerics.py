"""Dense linear-algebra and LP kernels.

The simplex solver is cross-checked against an independent brute-force
vertex enumerator (solve square subsystems of active constraints, keep the
feasible ones) so the two routes share no code.
"""

import itertools

import numpy as np
import pytest

from robustcut import streams
from robustcut.numerics import (FeasibleTableau, InfeasibleError, NumericError,
                                UnboundedError, _pivot, simplex_solve, sqrt_psd)


def vertex_enum_min(c, A, b, senses):
    """Minimize c @ x over {x >= 0, A x (senses) b} by enumerating basic
    points: every square system drawn from constraint rows and x_i = 0
    planes.  Exponential and proud of it."""
    m, n = A.shape
    rows = [(A[i], b[i]) for i in range(m)]
    rows += [(np.eye(n)[i], 0.0) for i in range(n)]
    best, best_x = np.inf, None
    for subset in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in subset])
        rhs = np.array([rows[i][1] for i in subset])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(x < -1e-9):
            continue
        ax = A @ x
        ok = all((ax[i] >= b[i] - 1e-9) if s == ">=" else
                 (ax[i] <= b[i] + 1e-9) if s == "<=" else
                 (abs(ax[i] - b[i]) <= 1e-9)
                 for i, s in enumerate(senses))
        if ok and c @ x < best:
            best, best_x = c @ x, x
    return best, best_x


# ---------------------------------------------------------------------------
# sqrt_psd
# ---------------------------------------------------------------------------

def test_sqrt_psd_basics():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(sqrt_psd(4.0 * np.eye(2)), 2.0 * np.eye(2), atol=1e-12)
    assert np.allclose(sqrt_psd(np.diag([1.0, 4.0, 9.0])),
                       np.diag([1.0, 2.0, 3.0]), atol=1e-12)


def test_sqrt_psd_round_trip_random():
    rng = streams.stream(7, streams.TAG_GEN, 0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        B = rng.standard_normal((n, n))
        Q = B @ B.T + 0.1 * np.eye(n)
        S = sqrt_psd(Q)
        assert np.allclose(S, S.T, atol=1e-12)
        assert np.max(np.abs(S @ S - Q)) <= 1e-10 * max(1.0, np.abs(Q).max())


def test_sqrt_psd_rejects_negative_eigenvalue():
    with pytest.raises(NumericError):
        sqrt_psd(np.array([[1.0, 0.0], [0.0, -0.5]]))


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_lp_hand_example():
    # min x1 + x2  s.t.  x1 + 2 x2 >= 2, x >= 0  ->  value 1 at (0, 1)
    res = simplex_solve(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([2.0]),
                        (">=",))
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-10)


def test_lp_box_monotone():
    # l <= w <= u with c >= 0 -> minimizer at the lower corner
    l = np.array([0.5, 1.0, 0.0])
    u = np.array([1.5, 2.0, 1.0])
    c = np.array([2.0, 1.0, 3.0])
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([l, -u])
    res = simplex_solve(c, A, b, (">=",) * 6)
    assert np.allclose(res.x, l, atol=1e-9)
    assert res.value == pytest.approx(c @ l)


def test_lp_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -0.0])  # w >= 1 and w <= 0
    with pytest.raises(InfeasibleError):
        simplex_solve(np.array([1.0]), A, b, (">=", ">="))


def test_lp_unbounded():
    with pytest.raises(UnboundedError):
        simplex_solve(np.array([-1.0]), np.array([[1.0]]), np.array([0.0]), (">=",))


def test_lp_equality_sense():
    # min x1 + 3 x2 s.t. x1 + x2 = 2 -> (2, 0)
    res = simplex_solve(np.array([1.0, 3.0]), np.array([[1.0, 1.0]]), np.array([2.0]),
                        ("=",))
    assert res.value == pytest.approx(2.0)
    assert np.allclose(res.x, [2.0, 0.0], atol=1e-9)


def random_bounded_lp(rng):
    """Feasible-by-construction LP (c, A, b, senses): box rows keep it
    bounded, extra random >= rows pass through a known interior point."""
    n = int(rng.integers(1, 5))
    x0 = rng.uniform(0.5, 1.5, size=n)
    rows, rhs, senses = [], [], []
    for i in range(n):  # x_i <= cap (keeps the region bounded)
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e)
        rhs.append(float(x0[i] + rng.uniform(0.5, 2.0)))
        senses.append("<=")
    for _ in range(int(rng.integers(0, 3))):
        a = rng.standard_normal(n)
        rows.append(a)
        rhs.append(float(a @ x0 - rng.uniform(0.0, 1.0)))  # slack at x0
        senses.append(">=")
    c = rng.uniform(-1.0, 2.0, size=n)
    return c, np.array(rows), np.array(rhs), tuple(senses)


def test_lp_matches_vertex_enumeration():
    rng = streams.stream(13, streams.TAG_GEN, 0)
    for _ in range(40):
        lp = random_bounded_lp(rng)
        res = simplex_solve(*lp)
        ref, _ = vertex_enum_min(*lp)
        assert res.value == pytest.approx(ref, abs=1e-8)


def test_lp_strong_duality():
    rng = streams.stream(17, streams.TAG_GEN, 0)
    for _ in range(40):
        _, _, b, senses = lp = random_bounded_lp(rng)
        res = simplex_solve(*lp)
        assert res.dual @ b == pytest.approx(res.value, abs=1e-8)
        # dual sign convention: >= rows yield y >= 0, <= rows y <= 0
        for i, s in enumerate(senses):
            if s == ">=":
                assert res.dual[i] >= -1e-9
            elif s == "<=":
                assert res.dual[i] <= 1e-9


def test_lp_dual_feasibility():
    # reduced costs: c - A^T y >= 0 at optimum (x >= 0 problems)
    rng = streams.stream(19, streams.TAG_GEN, 0)
    for _ in range(25):
        c, A, _, _ = lp = random_bounded_lp(rng)
        res = simplex_solve(*lp)
        reduced = c - A.T @ res.dual
        assert np.all(reduced >= -1e-8)


def test_lp_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="c: expected shape"):
        simplex_solve(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]), (">=",))
    with pytest.raises(ValueError, match="senses: expected 1 entries"):
        simplex_solve(np.array([1.0, 2.0]), np.array([[1.0, 2.0]]), np.array([1.0]),
                      (">=", "<="))
    with pytest.raises(ValueError, match="senses: unknown sense"):
        simplex_solve(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), ("!!",))
    # the cost is checked before phase 1: a bad cost on an empty region is
    # a shape error, not an InfeasibleError
    with pytest.raises(ValueError, match="c: expected shape"):
        simplex_solve(np.array([1.0, 2.0]), np.array([[1.0], [-1.0]]),
                      np.array([1.0, 0.0]), (">=", ">="))


# ---------------------------------------------------------------------------
# FeasibleTableau: phase 1 once per region, phase 2 once per cost vector
# ---------------------------------------------------------------------------

def pivot_loop(T, basis, row, col):
    """Row-by-row reference for the tableau pivot."""
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv
    basis[row] = col


def test_pivot_matches_row_loop_bitwise():
    rng = streams.stream(37, streams.TAG_GEN, 0)
    for _ in range(100):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        T = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.4)
        row, col = int(rng.integers(rows - 1)), int(rng.integers(cols))
        T[row, col] = rng.uniform(0.5, 2.0)
        ref, ref_basis = T.copy(), np.arange(rows - 1)
        basis = ref_basis.copy()
        pivot_loop(ref, ref_basis, row, col)
        _pivot(T, basis, row, col)
        assert T.tobytes() == ref.tobytes()
        assert np.array_equal(basis, ref_basis)


def box_region():
    lower = np.array([0.5, 1.0, 0.0, 0.2, 0.8])
    upper = lower + np.array([1.0, 0.5, 1.0, 2.0, 0.0])  # one degenerate side
    A = np.vstack([np.eye(5), -np.eye(5)])
    return A, np.concatenate([lower, -upper]), (">=",) * 10


def scenario_hull_region():
    # convex hull of three weight scenarios: w = S^T lam, lam in the simplex,
    # written over (w, lam) with equality and sign rows
    S = np.array([[1.0, 0.5, 1.5, 1.0], [0.5, 1.5, 0.5, 2.0], [1.2, 1.2, 0.2, 0.0]])
    k, m = S.shape
    A = np.vstack([np.hstack([np.eye(m), -S.T]),
                   np.concatenate([np.zeros(m), np.ones(k)])[None, :]])
    return A, np.concatenate([np.zeros(m), [1.0]]), ("=",) * (m + 1)


def transport_region():
    # couplings K >= 0 (row-major), column marginals fixed, transport cost <= r
    support = np.array([[1.0, 0.5, 1.5], [0.5, 1.5, 0.5], [2.0, 0.0, 1.0]])
    k = len(support)
    metric = np.abs(support[:, None, :] - support[None, :, :]).sum(axis=2)
    A = np.vstack([np.tile(np.eye(k), k), metric.reshape(1, -1)])
    b = np.append(np.array([0.2, 0.5, 0.3]), 0.6)
    return A, b, ("=",) * k + ("<=",)


@pytest.mark.parametrize("region", [box_region, scenario_hull_region,
                                    transport_region])
def test_tableau_solve_is_bitwise_cold_simplex(region):
    A, b, senses = region()
    n = A.shape[1]
    rng = streams.stream(29, streams.TAG_GEN, 0)
    costs = [rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.7)
             for _ in range(15)] + [np.zeros(n)]
    cold = [simplex_solve(c, A, b, senses) for c in costs]
    tableau = FeasibleTableau(A, b, senses)
    # shuffled and repeated, so state carried between solves would show
    for i in np.concatenate([rng.permutation(len(costs)), rng.permutation(len(costs))]):
        warm = tableau.solve(costs[i])
        assert warm.x.tobytes() == cold[i].x.tobytes()
        assert warm.value == cold[i].value
        assert warm.dual.tobytes() == cold[i].dual.tobytes()
        assert tableau.phase1_pivots + warm.iterations == cold[i].iterations


def test_beale_cycling_example_terminates():
    # Beale (1955): the largest-coefficient rule cycles on this degenerate LP;
    # Bland's rule must reach the optimum -5/4 at (1, 0, 1, 0)
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    senses = ("<=",) * 3
    for res in (simplex_solve(c, A, b, senses),
                FeasibleTableau(A, b, senses).solve(c)):
        assert res.value == pytest.approx(-1.25, abs=1e-12)
        assert np.allclose(res.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert res.dual @ b == pytest.approx(res.value, abs=1e-12)


def test_tableau_errors():
    with pytest.raises(InfeasibleError):
        FeasibleTableau(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), (">=", ">="))
    tableau = FeasibleTableau(np.array([[1.0]]), np.array([0.0]), (">=",))
    with pytest.raises(UnboundedError):
        tableau.solve(np.array([-1.0]))
    with pytest.raises(ValueError):
        tableau.solve(np.array([1.0, 2.0]))
    # a failed solve leaves the stored phase-1 tableau intact
    assert tableau.solve(np.array([1.0])).value == 0.0
