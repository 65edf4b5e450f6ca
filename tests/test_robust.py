"""Max-min saddle solvers and reformulation cross-checks."""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from robustcut import robust, streams
from robustcut.gen import (box_for, ellipsoid_for, gnp_instance,
                           random_allequal_instance, wasserstein_for)
from robustcut.instances import DICUT, MAXCUT, DomainError, graph_instance
from robustcut.oracle import brute_force_robust
from robustcut.robust import (SolverConfig, dual_reformulated_value,
                              ellipsoid_reformulated_value, inner_worst,
                              solve_robust)
from robustcut.sdp import (ASCENT_TOL, SolveReport, default_rank, objective_gradient,
                           solve_elliptope_max, stacked_ascent, term_gram_coefficients,
                           _random_unit_columns)
from robustcut.uncertainty import (box_spec, ellipsoidal_spec, polyhedral_spec,
                                   singleton_spec, wasserstein_spec)


def triangle():
    return graph_instance(3, MAXCUT, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def two_scenario_hull():
    """Convex hull of scenario weights (1,0,1) and (0,1,1) on the triangle
    (edges ordered (1,2), (1,3), (2,3)): w3 = 1 and w1 + w2 = 1."""
    A = np.array([[0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0],
                  [1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0]])
    b = np.array([1.0, -1.0, 1.0, -1.0])
    return polyhedral_spec(A, b)


def random_unit_factor(rng, rank, ncols):
    U = rng.standard_normal((rank, ncols))
    U /= np.linalg.norm(U, axis=0)
    return U


def test_singleton_reduces_to_nominal():
    inst = triangle()
    w = inst.nominal_weights()
    sol = solve_robust(inst, singleton_spec(w), SolverConfig(seed=3))
    _, rep = solve_elliptope_max(inst, w, seed=3)
    assert sol.value == pytest.approx(rep.value, abs=1e-6)
    assert np.array_equal(sol.worst, w)
    assert sol.report.converged


def test_two_scenario_triangle_saddle():
    inst = triangle()
    spec = two_scenario_hull()
    sol = solve_robust(inst, spec, SolverConfig(seed=1))
    bf = brute_force_robust(inst, spec)
    assert bf.value == pytest.approx(1.0, abs=1e-9)   # hand-enumerated
    assert sol.value >= 1.0 - 1e-6
    # saddle consistency: reported value equals a fresh inner minimization
    _, fresh, _ = inner_worst(inst, spec, sol.factor)
    assert fresh == pytest.approx(sol.value, abs=1e-6)
    # and the polyhedral dual agrees with the primal at the returned factor
    assert dual_reformulated_value(inst, spec, sol.factor) == \
        pytest.approx(fresh, abs=1e-8)


def test_worst_weights_feasible():
    inst = triangle()
    spec = two_scenario_hull()
    sol = solve_robust(inst, spec, SolverConfig(seed=2))
    w = sol.worst
    assert np.all(w >= -1e-9)
    assert np.all(spec.A @ w >= spec.b - 1e-7)


def test_zero_radius_wasserstein_matches_nominal():
    inst = triangle()
    sup = np.array([[1.0, 0.5, 1.5], [0.5, 1.0, 0.5]])
    emp = np.array([0.25, 0.75])
    spec = wasserstein_spec(sup, emp, 0.0)
    sol = solve_robust(inst, spec, SolverConfig(seed=5))
    mean = emp @ sup
    _, rep = solve_elliptope_max(inst, mean, seed=5)
    assert sol.value == pytest.approx(rep.value, abs=1e-6)
    assert np.allclose(sol.worst, mean, atol=1e-9)
    assert np.allclose(sol.worst_dist, emp, atol=1e-9)


def test_dro_large_radius_zero_point():
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    sup = np.array([[0.0], [1.0]])
    emp = np.array([0.0, 1.0])
    spec = wasserstein_spec(sup, emp, 10.0)
    sol = solve_robust(inst, spec, SolverConfig(seed=1))
    assert sol.value == pytest.approx(0.0, abs=1e-8)
    assert sol.worst_dist[0] == pytest.approx(1.0, abs=1e-8)


def test_dro_bipartite_path_matches_brute_force():
    # path 1-2-3 is bipartite, so the relaxation is tight and the DRO value
    # equals the enumerated optimum
    inst = graph_instance(3, MAXCUT, [(0, 1, 1.0), (1, 2, 1.0)])
    sup = np.array([[1.0, 0.5], [0.5, 1.0]])
    emp = np.array([0.5, 0.5])
    spec = wasserstein_spec(sup, emp, 0.3)
    sol = solve_robust(inst, spec, SolverConfig(seed=4))
    bf = brute_force_robust(inst, spec)
    assert sol.value == pytest.approx(bf.value, abs=1e-4)
    assert sol.value >= bf.value - 1e-7


def test_relaxation_dominates_brute_force_small_sweep():
    rng = streams.stream(71, streams.TAG_GEN, 0)
    for trial in range(6):
        n = int(rng.integers(3, 6))
        edges = [(i, j, float(rng.uniform(0.3, 1.5))) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.8]
        if not edges:
            continue
        inst = graph_instance(n, MAXCUT, edges)
        w0 = inst.nominal_weights()
        specs = [
            singleton_spec(w0),
            box_spec(0.7 * w0, 1.3 * w0),
            ellipsoidal_spec(w0, np.diag(0.1 * w0 ** 2), 1.0),
        ]
        for spec in specs:
            sol = solve_robust(inst, spec, SolverConfig(seed=trial))
            bf = brute_force_robust(inst, spec)
            assert sol.value >= bf.value - 1e-6
            _, fresh, _ = inner_worst(inst, spec, sol.factor)
            assert fresh == pytest.approx(sol.value, abs=1e-5)


def test_dicut_robust_saddle():
    inst = graph_instance(4, DICUT, [(0, 1, 1.0), (1, 2, 1.0), (3, 2, 1.0),
                                     (0, 3, 1.0)])
    w0 = inst.nominal_weights()
    spec = box_spec(0.8 * w0, 1.2 * w0)
    sol = solve_robust(inst, spec, SolverConfig(seed=6))
    bf = brute_force_robust(inst, spec)
    assert sol.value >= bf.value - 1e-6
    assert sol.factor.shape[1] == inst.ncols == 5  # dicut factors carry the orientation column


def test_monotone_in_set_size():
    inst = triangle()
    w0 = inst.nominal_weights()
    cfg = SolverConfig(seed=7)
    v_sing = solve_robust(inst, singleton_spec(w0), cfg).value
    v_small = solve_robust(inst, box_spec(0.9 * w0, 1.1 * w0), cfg).value
    v_big = solve_robust(inst, box_spec(0.6 * w0, 1.4 * w0), cfg).value
    assert v_small <= v_sing + 2e-6
    assert v_big <= v_small + 2e-6
    v_e1 = solve_robust(inst, ellipsoidal_spec(w0, np.eye(3), 0.1), cfg).value
    v_e2 = solve_robust(inst, ellipsoidal_spec(w0, np.eye(3), 0.5), cfg).value
    assert v_e2 <= v_e1 + 2e-6


def test_invalid_spec_rejected():
    inst = triangle()
    bad = polyhedral_spec(np.eye(3), np.zeros(3))  # unbounded
    with pytest.raises(DomainError):
        solve_robust(inst, bad, SolverConfig(seed=0))


# ---------------------------------------------------------------------------
# reformulated values at fixed factors
# ---------------------------------------------------------------------------

def test_dual_reformulated_box_random_factors():
    rng = streams.stream(73, streams.TAG_GEN, 0)
    inst = triangle()
    w0 = inst.nominal_weights()
    spec = box_spec(0.5 * w0, 1.5 * w0)
    for _ in range(10):
        factor = random_unit_factor(rng, 3, 3)
        _, primal, _ = inner_worst(inst, spec, factor)
        assert dual_reformulated_value(inst, spec, factor) == \
            pytest.approx(primal, abs=1e-8)


def test_dual_reformulated_singleton_as_equality():
    inst = triangle()
    wbar = np.array([1.0, 2.0, 0.5])
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([wbar, -wbar])
    spec = polyhedral_spec(A, b)
    rng = streams.stream(79, streams.TAG_GEN, 0)
    factor = random_unit_factor(rng, 3, 3)
    from robustcut.sdp import term_gram_coefficients
    coef = term_gram_coefficients(inst, factor)
    assert dual_reformulated_value(inst, spec, factor) == \
        pytest.approx(coef @ wbar, abs=1e-8)


def test_dual_reformulated_simplex_at_all_equal_factor():
    inst = triangle()
    A = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    spec = polyhedral_spec(A, np.array([1.0, -1.0]))
    U = np.tile([[1.0], [0.0]], (1, 3))
    assert dual_reformulated_value(inst, spec, U) == \
        pytest.approx(0.0, abs=1e-10)


def test_ellipsoid_reformulated_matches_closed_form():
    rng = streams.stream(83, streams.TAG_GEN, 0)
    inst = triangle()
    for _ in range(10):
        B = rng.standard_normal((3, 3))
        Q = B @ B.T + 0.3 * np.eye(3)
        a = float(rng.uniform(0.05, 0.4))
        w0 = rng.uniform(0.5, 1.5, size=3) + np.sqrt(a * np.diag(Q))
        spec = ellipsoidal_spec(w0, Q, a)
        factor = random_unit_factor(rng, 4, 3)
        _, primal, _ = inner_worst(inst, spec, factor)
        assert ellipsoid_reformulated_value(inst, spec, factor) == \
            pytest.approx(primal, abs=1e-8)


def test_ellipsoid_tiny_a_approaches_nominal():
    inst = triangle()
    w0 = np.array([1.0, 1.0, 1.0])
    spec = ellipsoidal_spec(w0, np.eye(3), 1e-12)
    rng = streams.stream(89, streams.TAG_GEN, 0)
    factor = random_unit_factor(rng, 3, 3)
    from robustcut.sdp import term_gram_coefficients
    coef = term_gram_coefficients(inst, factor)
    assert ellipsoid_reformulated_value(inst, spec, factor) == \
        pytest.approx(coef @ w0, abs=1e-5)


def test_ellipsoid_reformulated_all_equal_factor_zero():
    inst = triangle()
    spec = ellipsoidal_spec(np.full(3, 2.0), np.eye(3), 1.0)
    U = np.tile([[1.0], [0.0]], (1, 3))
    assert ellipsoid_reformulated_value(inst, spec, U) == \
        pytest.approx(0.0, abs=1e-12)


def test_single_edge_ellipsoid_end_to_end():
    # worst case over the 1-dim ellipsoid around 3 with Q = 2, a = 1 is
    # 3 - sqrt(2); at the antipodal factor that is the whole saddle value
    inst = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    spec = ellipsoidal_spec(np.array([3.0]), np.array([[2.0]]), 1.0)
    sol = solve_robust(inst, spec, SolverConfig(seed=1))
    assert sol.value == pytest.approx(3.0 - np.sqrt(2.0), abs=1e-6)
    assert sol.worst[0] == pytest.approx(3.0 - np.sqrt(2.0), abs=1e-5)


# ---------------------------------------------------------------------------
# restarts end at the first exact saddle
# ---------------------------------------------------------------------------

def count_polishes(monkeypatch):
    """Count the polishes the saddle loop runs: the members of its stacked
    ascents."""
    calls = []

    def counted(inst, W, starts, *args, **kwargs):
        calls.extend([1] * len(W))
        return stacked_ascent(inst, W, starts, *args, **kwargs)

    monkeypatch.setattr(robust, "stacked_ascent", counted)
    return calls


def gnm_box(n, m, seed):
    """G(n, m) max-cut with uniform [0.5, 1.5] weights and a +-20% box."""
    rng = streams.stream(seed, streams.TAG_GEN, 0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pick = np.sort(rng.choice(len(pairs), size=m, replace=False))
    inst = graph_instance(n, MAXCUT, [(*pairs[k], float(rng.uniform(0.5, 1.5)))
                                      for k in pick])
    w0 = inst.nominal_weights()
    return inst, box_spec(0.8 * w0, 1.2 * w0)


def assert_no_better_reply(inst, sol):
    """No fresh best reply to the worst weights beats the saddle value."""
    _, rep = solve_elliptope_max(inst, sol.worst, restarts=5, seed=7)
    assert rep.value <= sol.value + 1e-8 * max(1.0, abs(sol.value))
    assert sol.report.converged


@pytest.mark.parametrize("kind", [MAXCUT, DICUT])
@pytest.mark.parametrize("n", [8, 12])
def test_box_stops_after_first_exact_saddle(monkeypatch, kind, n):
    stops = []
    for seed in range(3):
        inst = gnp_instance(n, 0.5, seed, kind=kind)
        w0 = inst.nominal_weights()
        spec = box_spec(0.8 * w0, 1.2 * w0)
        calls = count_polishes(monkeypatch)
        sol = solve_robust(inst, spec, SolverConfig(seed=seed))
        # the adversary answers a factor with the box corner chosen by the
        # signs of its coefficients
        coef = term_gram_coefficients(inst, sol.factor)
        assert same_bits(sol.worst, np.where(coef < 0.0, 1.2 * w0, 0.8 * w0))
        opt = brute_force_robust(inst, spec).value  # below the relaxation, up to the polish
        assert sol.value >= opt - 1e-8 * max(1.0, opt)
        stops.append(sol.report.stop)
        if sol.report.stop != "saddle":
            continue
        # the initial polish and the one that confirms the saddle
        assert len(calls) == 2
        assert (sol.report.restarts, sol.report.restart) == (1, 0)
        assert sol.report.residual == 0.0 and sol.report.gap is None
        assert_no_better_reply(inst, sol)
    # max-cut coefficients are >= 0, so the lower corner answers every
    # factor and each solve is a saddle at t = 1; dicut's signed ones move
    # the corner, and some solves end only at the stall window
    want = {(MAXCUT, 8): ["saddle"] * 3, (MAXCUT, 12): ["saddle"] * 3,
            (DICUT, 8): ["stall", "saddle", "stall"],
            (DICUT, 12): ["stall", "saddle", "saddle"]}
    assert stops == want[kind, n]


@pytest.mark.parametrize("kind", [MAXCUT, DICUT])
@pytest.mark.parametrize("n", [8, 12])
def test_wasserstein_saddle_is_a_best_reply(kind, n):
    for seed in range(3):
        inst = gnp_instance(n, 0.5, seed, kind=kind)
        spec = wasserstein_for(inst, 4, 0.3, seed=seed)
        sol = solve_robust(inst, spec, SolverConfig(seed=seed))
        assert 1 <= sol.report.restarts <= 3
        assert 0 <= sol.report.restart < sol.report.restarts
        assert_no_better_reply(inst, sol)


def test_box_g40_stops_after_first_exact_saddle(monkeypatch):
    inst, spec = gnm_box(40, 234, 5)
    calls = count_polishes(monkeypatch)
    sol = solve_robust(inst, spec, SolverConfig(seed=11))
    assert len(calls) == 2
    assert sol.report.restarts == 1
    assert_no_better_reply(inst, sol)


def test_ellipsoid_runs_every_restart():
    inst = gnp_instance(10, 0.5, 2)
    w0 = inst.nominal_weights()
    spec = ellipsoidal_spec(w0, np.diag(0.1 * w0 ** 2), 1.0)
    # at gap_tol 1e-9 no certificate closes: the stall window ends each
    # restart, and every restart runs
    cfg = SolverConfig(seed=0, gap_tol=1e-9)
    sol = solve_robust(inst, spec, cfg)
    assert sol.report.converged and sol.report.residual > 0.0
    assert sol.report.stop == "stall" and 0.0 < sol.report.gap
    assert (sol.report.restarts, sol.report.restart) == (3, 2)
    # restart r draws the same start whatever the count, so dropping the
    # winner loses value
    fewer = solve_robust(inst, spec, replace(cfg, restarts=2))
    assert fewer.report.restarts == 2 and fewer.value < sol.value
    # restarts that hit max_iter do not end the loop either
    short = solve_robust(inst, spec, SolverConfig(seed=0, max_iter=2, restarts=4))
    assert not short.report.converged and short.report.restarts == 4
    assert (short.report.stop, short.report.gap) == ("max_iter", None)


def test_ellipsoid_certificate_ends_the_restarts():
    inst = gnp_instance(10, 0.5, 2)
    w0 = inst.nominal_weights()
    spec = ellipsoidal_spec(w0, np.diag(0.1 * w0 ** 2), 1.0)
    # restart 0 stalls short of the gap; restart 1 closes it at t = 40, and
    # no later restart runs
    sol = solve_robust(inst, spec, SolverConfig(seed=0))
    assert sol.report.converged and sol.report.stop == "certificate"
    assert (sol.report.restarts, sol.report.restart, sol.report.iterations) == (2, 1, 40)
    assert 0.0 <= sol.report.gap <= 1e-6 and sol.report.residual == sol.report.gap
    for restarts in (2, 4):
        assert_same_solution(solve_robust(inst, spec, SolverConfig(seed=0, restarts=restarts)),
                             sol)
    # restart 0 alone stalls: its gap is above gap_tol
    alone = solve_robust(inst, spec, SolverConfig(seed=0, restarts=1))
    assert alone.report.stop == "stall" and alone.report.gap > 1e-6


def test_singleton_reports_its_restarts():
    inst = gnp_instance(10, 0.5, 2)
    w0 = inst.nominal_weights()
    sol = solve_robust(inst, singleton_spec(w0), SolverConfig(seed=0))
    assert (sol.report.restarts, sol.report.restart) == (3, 2)
    _, fewer = solve_elliptope_max(inst, w0, restarts=2, max_iter=3000, seed=0)
    assert (fewer.restarts, fewer.restart) == (2, 1)
    assert fewer.value < sol.value
    # an ascent from the optimum, stacked before the three seeded starts,
    # stays there and is the earliest best of the four
    starts = [sol.factor] + [_random_unit_columns(
        default_rank(inst.ncols), inst.ncols, streams.stream(0, streams.TAG_SOLVER_INIT, r))
        for r in range(3)]
    _, warm = stacked_ascent(inst, np.tile(w0, (4, 1)), np.stack(starts), max_iter=3000)
    values = [rep.value for rep in warm]
    assert (len(warm), values.index(max(values))) == (4, 0)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_non_convergence_reported():
    inst = triangle()
    w0 = inst.nominal_weights()
    spec = ellipsoidal_spec(w0, np.diag(0.05 * np.ones(3)), 1.0)
    sol = solve_robust(inst, spec, SolverConfig(seed=0, max_iter=2, restarts=1))
    assert not sol.report.converged
    assert np.isfinite(sol.value)


def test_residual_before_the_stall_window_fills_is_the_change_so_far():
    # 9 iterations never fill the 40-iteration stall window nor reach the
    # first certificate check (t = 10); the residual is the incumbent's
    # relative change since the first polish (max_iter = 0)
    inst = gnp_instance(10, 0.5, 2)
    spec = ellipsoid_for(inst, 0.5, seed=1)
    start = solve_robust(inst, spec, SolverConfig(seed=0, max_iter=0))
    sol = solve_robust(inst, spec, SolverConfig(seed=0, max_iter=9))
    assert not sol.report.converged and sol.report.restart == start.report.restart
    assert (sol.report.stop, sol.report.gap) == ("max_iter", None)
    assert sol.value > start.value
    assert sol.report.residual == (sol.value - start.value) / sol.value


# ---------------------------------------------------------------------------
# the lockstep saddle loop against its restarts run one after the other
# ---------------------------------------------------------------------------

def sequential_saddle_loop(inst, cfg, spec):
    """The saddle loop with its restarts run one after the other and every
    polish its own stacked ascent of one: the reference for
    robust._saddle_loop, which runs the restarts in lockstep."""
    ncols = inst.ncols
    rank = cfg.rank if cfg.rank > 0 else default_rank(ncols)

    def respond(U):
        return robust._best_response(spec, term_gram_coefficients(inst, U))

    def polish(w, U, tol=ASCENT_TOL):
        return stacked_ascent(inst, w[None], U[None], tols=[tol])[0][0]

    best_phi = -np.inf
    best_U = best_w = best_extra = best_report = None
    for restart in range(max(1, cfg.restarts)):
        rng = streams.stream(cfg.seed, streams.TAG_SOLVER_INIT, 100 + restart)
        U = _random_unit_columns(rank, ncols, rng)
        w, phi, extra = respond(U)
        U = polish(w, U)
        w, phi, extra = respond(U)
        r_best = (phi, U.copy(), w, extra)
        hist = [phi]
        wbar = w.copy()
        nresp = 1
        w_prev = w
        converged = False
        stop = "max_iter"
        residual = np.inf
        ub = np.inf
        gap = None
        iters = 0
        for t in range(1, cfg.max_iter + 1):
            iters = t
            frozen = np.allclose(w, w_prev, rtol=1e-9, atol=1e-12)
            w_prev = w
            if frozen:
                fac = polish(w, U)
                w2, phi2, extra2 = respond(fac)
                if phi2 >= r_best[0]:
                    r_best = (phi2, fac.copy(), w2, extra2)
                if np.allclose(w2, w, rtol=1e-9, atol=1e-12):
                    converged, stop = True, "saddle"
                    residual = 0.0
                    break
                U = fac
                w, phi, extra = w2, phi2, extra2
                hist.append(r_best[0])
                continue
            G = objective_gradient(inst, U, w)
            gn = float(np.linalg.norm(G))
            if gn == 0.0:
                converged, stop = True, "stall"
                residual = 0.0
                break
            U = U + np.sqrt(ncols) / (np.sqrt(t) * gn) * G
            U /= np.maximum(np.linalg.norm(U, axis=0), 1e-300)
            w, phi, extra = respond(U)
            if phi > r_best[0]:
                r_best = (phi, U.copy(), w, extra)
            wbar = (nresp * wbar + w) / (nresp + 1.0)
            nresp += 1
            if t % 10 == 0:
                fac = polish(wbar, U, robust.CERT_POLISH_TOL)
                w_f, phi_f, extra_f = respond(fac)
                if phi_f > r_best[0]:
                    r_best = (phi_f, fac.copy(), w_f, extra_f)
                    U = fac
                    w, phi, extra = w_f, phi_f, extra_f
                ub = min(ub, robust.upper_bound(inst, wbar, fac))
                gap = (ub - r_best[0]) / max(1.0, abs(r_best[0]))
                if gap <= cfg.gap_tol:
                    converged, stop = True, "certificate"
                    residual = gap
                    break
            hist.append(r_best[0])
            if len(hist) > robust._STALL_WINDOW:
                gain = hist[-1] - hist[-1 - robust._STALL_WINDOW]
                residual = abs(gain) / max(1.0, abs(hist[-1]))
                if residual < cfg.gap_tol:
                    converged, stop = True, "stall"
                    break
        if not np.isfinite(residual):  # the window never filled
            residual = abs(hist[-1] - hist[0]) / max(1.0, abs(hist[-1]))
        phi_r, U_r, w_r, extra_r = r_best
        if phi_r > best_phi:
            best_phi, best_U, best_w, best_extra = phi_r, U_r, w_r, extra_r
            best_report = SolveReport(value=phi_r, iterations=iters, residual=float(residual),
                                      converged=converged, restart=restart, stop=stop,
                                      gap=gap)
        if stop in ("saddle", "certificate"):
            break
    best_report.restarts = restart + 1
    return robust.SaddleSolution(factor=best_U, worst=best_w, value=best_phi,
                                 report=best_report, worst_dist=best_extra)


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def assert_same_solution(got, want):
    assert same_bits(got.factor, want.factor)
    assert same_bits(got.worst, want.worst)
    assert same_bits(got.value, want.value)
    assert (got.worst_dist is None) == (want.worst_dist is None)
    if want.worst_dist is not None:
        assert same_bits(got.worst_dist, want.worst_dist)
    assert vars(got.report).keys() == vars(want.report).keys()
    for key, value in vars(want.report).items():
        if isinstance(value, str) or value is None:
            assert getattr(got.report, key) == value, key
        else:
            assert same_bits(getattr(got.report, key), value), key


def budgeted_box(inst):
    """A +-20% box that also caps the total weight: not a box, so the oracle
    runs the simplex."""
    w0 = inst.nominal_weights()
    m = inst.m
    A = np.vstack([np.eye(m), -np.eye(m), -np.ones((1, m))])
    b = np.concatenate([0.8 * w0, -1.2 * w0, [-1.1 * w0.sum()]])
    return polyhedral_spec(A, b)


def saddle_cases():
    maxcut = gnp_instance(9, 0.5, 3)
    dicut = gnp_instance(8, 0.5, 4, kind=DICUT)
    allequal = random_allequal_instance(8, 3, 10, 5)
    return [(maxcut, ellipsoid_for(maxcut, 0.5, seed=1)),
            (dicut, ellipsoid_for(dicut, 0.5, seed=2)),
            (allequal, ellipsoid_for(allequal, 0.5, seed=3)),
            (maxcut, box_for(maxcut, 0.2)),
            (dicut, wasserstein_for(dicut, 4, 0.3, seed=4)),
            (maxcut, budgeted_box(maxcut))]


@pytest.mark.parametrize("max_iter", [1, 5, 12])
@pytest.mark.parametrize("restarts", [1, 2, 3, 4])
def test_lockstep_saddle_loop_is_the_sequential_one(restarts, max_iter):
    for case, (inst, spec) in enumerate(saddle_cases()):
        cfg = SolverConfig(seed=case, restarts=restarts, max_iter=max_iter)
        assert_same_solution(robust._saddle_loop(inst, cfg, spec),
                             sequential_saddle_loop(inst, cfg, spec))


def test_lockstep_saddle_loop_is_the_sequential_one_to_the_stall_exit():
    # the default max_iter: the max-cut ellipsoid certifies its gap in
    # restart 0, which ends the restarts; on the other two no certificate
    # closes, and the 40-iteration stall window ends the restarts at their
    # own times
    stops = []
    for case, (inst, spec) in enumerate(saddle_cases()[:3]):
        cfg = SolverConfig(seed=case)
        got = robust._saddle_loop(inst, cfg, spec)
        assert_same_solution(got, sequential_saddle_loop(inst, cfg, spec))
        assert got.report.converged
        stops.append((got.report.stop, got.report.restarts))
    assert stops == [("certificate", 1), ("stall", 3), ("stall", 3)]


def flickering_oracle(monkeypatch):
    """The exact oracle, with the weights raised 10% whenever a checksum of
    the coefficients' bits is not a multiple of 4: a function of the
    coefficients alone, whose exact saddles come at different iterations in
    different restarts."""
    exact = robust._best_response

    def respond(spec, coef):
        w, value, extra = exact(spec, coef)
        if zlib.crc32(coef.tobytes()) % 4:
            w = 1.1 * w
            value = float(coef @ w)
        return w, value, extra

    monkeypatch.setattr(robust, "_best_response", respond)


@pytest.mark.parametrize("seed, max_iter, restarts, restart", [
    (2, 5, 3, 1),    # restart 2 is the first saddle; restart 3's, found a
                     # round earlier in lockstep, does not count
    (20, 5, 2, 1),   # restart 1 is a saddle at t = 1 and wins
])
def test_a_later_restart_that_is_the_first_saddle_ends_the_restarts(
        monkeypatch, seed, max_iter, restarts, restart):
    flickering_oracle(monkeypatch)
    inst = gnp_instance(8, 0.5, seed)
    spec = box_for(inst, 0.2)
    cfg = SolverConfig(seed=seed, restarts=4, max_iter=max_iter)
    got = robust._saddle_loop(inst, cfg, spec)
    assert_same_solution(got, sequential_saddle_loop(inst, cfg, spec))
    assert (got.report.restarts, got.report.restart) == (restarts, restart)


# ---------------------------------------------------------------------------
# the Burer-Monteiro certificate
# ---------------------------------------------------------------------------

def certificate_cases(kind, set_kind, seed):
    inst = {MAXCUT: lambda: gnp_instance(10, 0.5, seed),
            DICUT: lambda: gnp_instance(9, 0.5, seed, kind=DICUT),
            "allequal": lambda: random_allequal_instance(8, 3, 12, seed)}[kind]()
    spec = {"box": lambda: box_for(inst, 0.2),
            "ellipsoid": lambda: ellipsoid_for(inst, 0.5, seed=seed),
            "wasserstein": lambda: wasserstein_for(inst, 4, 0.3, seed=seed)}[set_kind]()
    return inst, spec


def polished(inst, w, U):
    """`U` polished at the weights `w` to the certificate's sweep tolerance."""
    return stacked_ascent(inst, w[None], U[None], tols=[robust.CERT_POLISH_TOL])[0][0]


def assert_bounds_the_solve(inst, spec, sol):
    """The certificate bounds the robust relaxation from above: at the worst
    weights, from the returned factor and from that factor polished, it is
    no lower than the solve's value and the brute-force optimum; and a
    certified exit's gap is no less than 0 (up to roundoff) and within
    gap_tol."""
    phi = sol.value
    opt = brute_force_robust(inst, spec).value
    roundoff = 1e-12 * max(1.0, abs(phi))
    for U in (sol.factor, polished(inst, sol.worst, sol.factor)):
        ub = robust.upper_bound(inst, sol.worst, U)
        assert ub >= phi - roundoff and ub >= opt - roundoff
    if sol.report.stop == "certificate":
        assert -1e-12 <= sol.report.gap <= SolverConfig().gap_tol


@pytest.mark.parametrize("set_kind", ["box", "ellipsoid", "wasserstein"])
@pytest.mark.parametrize("kind", [MAXCUT, DICUT, "allequal"])
def test_upper_bound_is_above_the_solve_and_the_optimum(kind, set_kind):
    for seed in range(2):
        inst, spec = certificate_cases(kind, set_kind, seed)
        assert_bounds_the_solve(inst, spec, solve_robust(inst, spec, SolverConfig(seed=seed)))


def test_upper_bound_holds_at_any_factor_and_weights_in_the_set():
    # the bound needs neither a polished factor nor the worst weights: any
    # unit-column factor and any point of the set give one
    inst = gnp_instance(9, 0.5, 1, kind=DICUT)
    spec = box_for(inst, 0.2)
    opt = brute_force_robust(inst, spec).value
    rng = streams.stream(5, streams.TAG_GEN, 0)
    w0 = inst.nominal_weights()
    for _ in range(5):
        w = rng.uniform(0.8 * w0, 1.2 * w0)
        U = random_unit_factor(rng, default_rank(inst.ncols), inst.ncols)
        assert robust.upper_bound(inst, w, U) >= opt
        assert robust.upper_bound(inst, w, polished(inst, w, U)) >= opt


def test_upper_bound_of_the_unit_five_cycle_is_its_relaxation():
    # the elliptope optimum of the unit 5-cycle is (5/2)(1 + cos(pi/5)); the
    # certificate of a factor polished to an exact fixed point closes on it,
    # and one polished to the certificate's tolerance is within the default
    # gap_tol of it
    inst = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    w = np.ones(5)
    want = 2.5 * (1.0 + np.cos(np.pi / 5))
    rng = streams.stream(3, streams.TAG_GEN, 0)
    for _ in range(3):
        U = random_unit_factor(rng, default_rank(5), 5)
        fixed = stacked_ascent(inst, w[None], U[None], tols=[0.0])[0][0]
        assert robust.upper_bound(inst, w, fixed) == pytest.approx(want, abs=1e-9)
        assert 0.0 <= robust.upper_bound(inst, w, polished(inst, w, U)) - want <= 1e-6 * want


def test_an_upper_bound_one_percent_low_fails_the_check(monkeypatch):
    # negative control: a bound 1% too low certifies a gap below 0 and
    # falls under the optimum, and the checks above catch both
    inst, spec = certificate_cases(MAXCUT, "ellipsoid", 0)
    exact = robust.upper_bound
    monkeypatch.setattr(robust, "upper_bound", lambda *args: 0.99 * exact(*args))
    sol = solve_robust(inst, spec, SolverConfig(seed=0))
    assert sol.report.stop == "certificate" and sol.report.gap < -1e-3
    with pytest.raises(AssertionError):
        assert_bounds_the_solve(inst, spec, sol)


def test_dicut_g40_ellipsoid_lands_in_its_certified_interval():
    # the true (signed) relaxation: an earlier independent solve certified
    # the interval [134.51330, 134.51343] for it
    inst = gnp_instance(40, 0.5, 1, kind=DICUT)
    cfg = SolverConfig(seed=0)
    sol = solve_robust(inst, ellipsoid_for(inst, 0.5), cfg)
    slack = cfg.gap_tol * sol.value
    assert 134.51330 - slack <= sol.value <= 134.51343 + slack
    assert (sol.report.stop, sol.report.restarts) == ("certificate", 1)
    assert 0.0 <= sol.report.gap <= cfg.gap_tol
