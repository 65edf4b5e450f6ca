"""Top-level acceptance gate: ten certified properties of the full pipeline.

Each test prints one `[acceptance] ... PASS/FAIL` line (with output capture
suspended, so the summary always reaches the real stdout) and then asserts.
Every randomized sweep runs under fixed seeds, so results are reproducible
bit-for-bit; Monte-Carlo comparisons use 3-sigma bands at the stated draw
counts.
"""

import json
import math
import time

import numpy as np

from robustcut import gen, streams
from robustcut.cli import EXIT_OK, main
from robustcut.instances import graph_instance, MAXCUT
from robustcut.oracle import brute_force_robust, guarantee_ratio
from robustcut.robust import (SolverConfig, dual_reformulated_value,
                              ellipsoid_reformulated_value, solve_robust)
from robustcut.rounding import (allequal_quadratic_matrix, alpha_ratio,
                                dicut_biased_ratio_search, expected_rounded_value,
                                feasible_pair_grid, large_cut_ratio,
                                negative_weight_bound, sign_round_psd)
from robustcut.sdp import solve_elliptope_max, term_gram_coefficients
from robustcut.uncertainty import (WASSERSTEIN, dual_polyhedral_value,
                                   worst_case_mean, worst_case_weights)

from mc_reference import mc_allequal_value

C5_OPT = 2.5 * (1.0 + math.cos(math.pi / 5.0))


def report(capfd, criterion, passed, detail, budget, elapsed):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    line = (f"[acceptance] {criterion}: {status} ({detail}; "
            f"{elapsed:.2f}s / budget {budget:.0f}s)")
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line
    assert elapsed < budget, line


def rounding_prob_coef(inst, U):
    """Per-edge cut probabilities arccos(u_i . u_j)/pi of hyperplane rounding."""
    i, j = inst.endpoints()
    d = np.clip(np.einsum("ri,ri->i", U[:, i], U[:, j]), -1.0, 1.0)
    return np.arccos(d) / math.pi


def robust_sandwich_sweep(spec_maker, count=18, seed0=300):
    """Shared engine of the robust/DRO sandwich criteria: zero tolerance for
    violations on either side.  The expected rounded cut q . w is linear in
    w, so both sides read its exact minimum over the set."""
    viol_lower = viol_upper = combos = 0
    for idx in range(count):
        rng = streams.stream(seed0 + idx, streams.TAG_GEN, 9)
        n = int(rng.integers(3, 9))
        inst = gen.gnp_instance(n, float(rng.uniform(0.4, 0.9)), seed0 + idx)
        spec = spec_maker(inst, idx)
        sol = solve_robust(inst, spec, SolverConfig(seed=idx))
        bf = brute_force_robust(inst, spec)
        scale = max(1.0, abs(bf.value))
        combos += 1
        q = rounding_prob_coef(inst, sol.factor)
        if spec.kind == WASSERSTEIN:
            _, _, v = worst_case_mean(spec, q)
        else:
            _, v = worst_case_weights(spec, q)
        if v < 0.878 * bf.value - 1e-6 * scale:
            viol_lower += 1
        if v > sol.value + 1e-6 * scale:
            viol_upper += 1
    return combos, viol_lower, viol_upper


def test_criterion_01_cut_ratio_curve_minimum(capfd):
    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 1_000_000)
    lo = float(np.min(alpha_ratio(grid)))
    passed = 0.87856 <= lo <= 0.8786
    report(capfd, "1 ratio-curve minimum", passed,
           f"min over 1e6 grid points = {lo:.6f} in [0.87856, 0.8786]",
           1.0, time.perf_counter() - t0)


def test_criterion_02_rounding_probability_mc(capfd):
    t0 = time.perf_counter()
    rng = streams.stream(15, streams.TAG_MC, 0)
    T = 100_000
    worst = 0.0
    for _ in range(50):  # pairs: disagreement probability arccos/pi
        V = rng.standard_normal((2, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        p = math.acos(max(-1.0, min(1.0, float(V[0] @ V[1])))) / math.pi
        S = rng.standard_normal((T, 3)) @ V.T >= 0.0
        p_hat = float(np.mean(S[:, 0] != S[:, 1]))
        sigma = max(math.sqrt(p * (1.0 - p) / T), 1e-12)
        worst = max(worst, abs(p_hat - p) / sigma)
    for _ in range(50):  # triples: agreement probability 1 - sum arccos/(2 pi)
        V = rng.standard_normal((3, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        dots = np.clip([V[0] @ V[1], V[0] @ V[2], V[1] @ V[2]], -1.0, 1.0)
        p = 1.0 - float(np.arccos(dots).sum()) / (2.0 * math.pi)
        S = rng.standard_normal((T, 3)) @ V.T >= 0.0
        p_hat = float(np.mean((S[:, 0] == S[:, 1]) & (S[:, 0] == S[:, 2])))
        sigma = max(math.sqrt(p * (1.0 - p) / T), 1e-12)
        worst = max(worst, abs(p_hat - p) / sigma)
    report(capfd, "2 rounding probabilities (MC)", worst <= 3.0,
           f"50 pairs + 50 triples at 1e5 draws, worst |z| = {worst:.2f} <= 3",
           30.0, time.perf_counter() - t0)


def test_criterion_03_robust_sandwich(capfd):
    t0 = time.perf_counter()
    makers = [lambda inst, i: gen.singleton_for(inst),
              lambda inst, i: gen.box_for(inst, 0.3),
              lambda inst, i: gen.ellipsoid_for(inst, 0.5, seed=i)]
    combos = viol_lo = viol_up = 0
    for maker in makers:
        c, vl, vu = robust_sandwich_sweep(maker)
        combos += c
        viol_lo += vl
        viol_up += vu
    passed = combos >= 50 and viol_lo == 0 and viol_up == 0
    report(capfd, "3 robust sandwich", passed,
           f"{combos} instance x set combos, lower violations {viol_lo}, "
           f"upper violations {viol_up}", 300.0, time.perf_counter() - t0)


def test_criterion_04_dro_sandwich(capfd):
    t0 = time.perf_counter()
    combos, viol_lo, viol_up = robust_sandwich_sweep(
        lambda inst, i: gen.wasserstein_for(inst, min(5, 2 + i % 4), 0.3, seed=i),
        count=50, seed0=400)
    passed = combos >= 50 and viol_lo == 0 and viol_up == 0
    report(capfd, "4 DRO sandwich", passed,
           f"{combos} instances with <=5 support points, lower violations "
           f"{viol_lo}, upper violations {viol_up}", 300.0,
           time.perf_counter() - t0)


def test_criterion_05_reformulation_agreement(capfd):
    t0 = time.perf_counter()
    rng = streams.stream(505, streams.TAG_GEN, 0)
    worst_poly = worst_ell = worst_bnd = 0.0
    for case in range(100):
        n = int(rng.integers(3, 7))
        inst = gen.gnp_instance(n, 0.7, 505 + case)
        U = rng.standard_normal((int(rng.integers(2, 5)), n))
        U /= np.linalg.norm(U, axis=0)
        coef = term_gram_coefficients(inst, U)
        spec = gen.box_for(inst, 0.4)
        _, primal = worst_case_weights(spec, coef)
        dual = dual_polyhedral_value(spec, coef)
        reform = dual_reformulated_value(inst, spec, U)
        worst_poly = max(worst_poly, abs(primal - dual), abs(primal - reform))
        espec = gen.ellipsoid_for(inst, 0.5, seed=case)
        wstar, ev = worst_case_weights(espec, coef)
        closed = float(coef @ espec.w0) - math.sqrt(espec.a) * float(
            np.linalg.norm(np.linalg.cholesky(espec.Q).T @ coef))
        worst_ell = max(worst_ell, abs(ev - closed),
                        abs(ev - ellipsoid_reformulated_value(inst, espec, U)))
        if np.linalg.norm(coef) > 1e-9:  # boundary-active whenever coef != 0
            d = wstar - espec.w0
            worst_bnd = max(worst_bnd,
                            abs(float(d @ np.linalg.solve(espec.Q, d)) - espec.a))
    passed = worst_poly <= 1e-8 and worst_ell <= 1e-8 and worst_bnd <= 1e-6
    report(capfd, "5 reformulation agreement", passed,
           f"100 factors: polyhedral gap {worst_poly:.1e}, ellipsoidal gap "
           f"{worst_ell:.1e}, boundary residual {worst_bnd:.1e}", 30.0,
           time.perf_counter() - t0)


def test_criterion_06_nominal_solver_accuracy(capfd):
    t0 = time.perf_counter()
    c5 = graph_instance(5, MAXCUT, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    _, rep5 = solve_elliptope_max(c5, c5.nominal_weights(), seed=0)
    k2 = graph_instance(2, MAXCUT, [(0, 1, 1.0)])
    _, rep2 = solve_elliptope_max(k2, k2.nominal_weights(), seed=0)
    err5 = abs(rep5.value - C5_OPT)
    err2 = abs(rep2.value - 1.0)
    passed = err5 <= 1e-3 and err2 <= 1e-6
    report(capfd, "6 nominal solver accuracy", passed,
           f"C5 error {err5:.2e} <= 1e-3, K2 error {err2:.2e} <= 1e-6",
           5.0, time.perf_counter() - t0)


def test_criterion_07_directed_cut_bounds(capfd):
    t0 = time.perf_counter()
    rng = streams.stream(7, streams.TAG_MC, 3)
    V = rng.standard_normal((1_000_000, 3, 3))
    V /= np.linalg.norm(V, axis=2, keepdims=True)
    a = np.clip(np.einsum("nd,nd->n", V[:, 0], V[:, 1]), -1.0, 1.0)
    b = np.clip(np.einsum("nd,nd->n", V[:, 0], V[:, 2]), -1.0, 1.0)
    c = np.clip(np.einsum("nd,nd->n", V[:, 1], V[:, 2]), -1.0, 1.0)
    lhs = 1.0 - (np.arccos(a) + np.arccos(b) + np.arccos(c)) / (2.0 * math.pi)
    rhs = 0.796 * (1.0 + a + b + c) / 4.0
    pointwise_viol = int(np.sum(lhs < rhs - 1e-9))
    u0, pairs = feasible_pair_grid(1000, seed=2027)
    res = dicut_biased_ratio_search(u0, pairs, seed=2028, trials=20000)
    floor = 0.796 - 3.0 * res.stderr
    passed = pointwise_viol == 0 and res.ratio >= floor
    report(capfd, "7 directed-cut bounds", passed,
           f"pointwise violations {pointwise_viol}/1e6; grid ratio "
           f"{res.ratio:.5f} >= 0.796 - 3 sigma = {floor:.5f}", 120.0,
           time.perf_counter() - t0)


def test_criterion_08_allequal_pipeline(capfd):
    t0 = time.perf_counter()
    rng = streams.stream(808, streams.TAG_GEN, 0)
    psd_viol = 0
    for case in range(1000):
        n = int(rng.integers(2, 8))
        B = rng.standard_normal((n, n))
        A = B @ B.T
        U = rng.standard_normal((int(rng.integers(2, 5)), n))
        U /= np.linalg.norm(U, axis=0)
        z = sign_round_psd(A, U, seed=case, trials=4)
        target = (2.0 / math.pi) * float(np.sum(A * (U.T @ U)))
        if float(z @ A @ z) < target - 1e-9 * (1.0 + abs(target)):
            psd_viol += 1
    pipeline_fail = 0
    for k in (2, 3, 4):
        for rep in range(4):
            seed = 900 + 10 * k + rep
            inst = gen.random_allequal_instance(8, k, 10, seed)
            spec = gen.box_for(inst, 0.25)
            sol = solve_robust(inst, spec, SolverConfig(seed=seed))
            bf = brute_force_robust(inst, spec)
            A = allequal_quadratic_matrix(inst, sol.worst)
            z = sign_round_psd(A, sol.factor, seed=seed, trials=32)
            mean, se = mc_allequal_value(inst, z, sol.worst, trials=20000,
                                         seed=seed)
            if mean < guarantee_ratio(inst) * bf.value - 3.0 * se:
                pipeline_fail += 1
    passed = psd_viol == 0 and pipeline_fail == 0
    report(capfd, "8 all-equal pipeline", passed,
           f"sign-rounding violations {psd_viol}/1000; pipeline failures "
           f"{pipeline_fail}/12 at k in (2,3,4)", 300.0,
           time.perf_counter() - t0)


def test_criterion_09_signed_weight_guarantees(capfd):
    t0 = time.perf_counter()
    crossover = large_cut_ratio(0.84458)
    bad = 0
    for case in range(20):
        rng = streams.stream(909 + case, streams.TAG_GEN, 0)
        n = int(rng.integers(3, 8))
        inst = gen.gnp_instance(n, 0.7, 909 + case, w_low=-1.0, w_high=1.5)
        w = inst.nominal_weights()
        factor, rep = solve_elliptope_max(inst, w, seed=case)
        expected = expected_rounded_value(inst, factor, None, w)
        w_minus = float(np.sum(np.minimum(w, 0.0)))
        if not negative_weight_bound(expected, w_minus, rep.value):
            bad += 1
    passed = 0.878 <= crossover <= 0.880 and bad == 0
    report(capfd, "9 signed-weight guarantees", passed,
           f"crossover ratio {crossover:.5f} in [0.878, 0.880]; shifted bound "
           f"failures {bad}/20", 10.0, time.perf_counter() - t0)


def test_criterion_10_report_determinism(capfd, tmp_path):
    t0 = time.perf_counter()
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--kind", "gnp", "--n", "7", "--p", "0.6",
                 "--seed", "5", "--out", str(inst_path)]) == EXIT_OK
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(inst_path), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    json.loads(outs[0])  # well-formed report
    report(capfd, "10 report determinism", identical,
           f"two solve runs, identical bytes = {identical}", 60.0,
           time.perf_counter() - t0)
