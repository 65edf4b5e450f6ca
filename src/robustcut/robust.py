"""Max-min saddle solvers: relaxed cut maximization against an adversarial
weight vector from an uncertainty set.

The solved game is  max_U min_{w in set}  sum_e w_e * coef_e(U)  with U on the
elliptope (unit-column Gram factor) and the inner minimum evaluated exactly by
the oracles in :mod:`robustcut.uncertainty`, on the signed coefficients (a
relaxed dicut coefficient goes down to -1/8), so the value is the paper's
robust relaxation.  The outer ascent is projected supergradient on the factor
with step sqrt(ncols) / (sqrt(t) ||G||) and fictitious play against the
running mean of the adversary's responses.  A restart stops on the first of
four rules, which the report names:

* ``saddle``: the inner best response stops changing, so the weights are
  frozen, the nominal coordinate-ascent solver polishes the factor, and the
  best response is re-checked -- if it is still the same vertex/point the
  pair is a saddle, with zero residual;
* ``certificate``: every 10 iterations the fictitious-play reply is polished
  at the averaged adversary wbar to :data:`CERT_POLISH_TOL`, and the
  Burer-Monteiro dual certificate at (wbar, reply) bounds the relaxation
  from above (:func:`upper_bound`); when the least bound so far is within
  ``gap_tol`` (relative) of the incumbent, the gap is certified closed;
* ``stall``: the incumbent gained less than ``gap_tol`` (relative) over the
  last 40 iterations, the fallback where no certificate closes (or the
  gradient vanished, so no ascent step moves the factor);
* ``max_iter``: none of these within ``max_iter`` iterations; not converged.

An exact saddle or a closed certificate also ends the restarts: the value is
the game value up to the polish tolerance or ``gap_tol``, so no later restart
can beat it by more.

The restarts run in lockstep.  Restart 0 runs alone up to its first
certificate check (t = 10), by which most solves have ended; only if it has
not do the other restarts join it, and every round one
:func:`sdp.stacked_ascent` call serves the next polish of every live restart,
frozen-adversary polishes and fictitious-play replies alike, each at its own
sweep tolerance.  The adversary's responses stay one oracle call per restart.
The outcome is that of the restarts run one after the other: a restart after
the first saddle or certificate does not count, and ties keep the earlier
restart.

For Wasserstein sets the same loop runs against the worst achievable *mean*
weights (the adversary's mixed strategy is summarized by its mean because the
objective is linear in w and rounding randomness is independent of the
adversary), which is the distributionally robust counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import streams
from .instances import DomainError, Instance
from .sdp import (ASCENT_TOL, SolveReport, default_rank, objective_gradient,
                  relaxed_value, solve_elliptope_max, stacked_ascent,
                  term_gram_coefficients, _random_unit_columns, _weight_matrix)
from .uncertainty import (ELLIPSOIDAL, POLYHEDRAL, SINGLETON, WASSERSTEIN,
                          UncertaintySpec, dual_polyhedral_value, ellipsoid_root_norm,
                          require_valid, worst_case_mean, worst_case_weights)


@dataclass
class SolverConfig:
    gap_tol: float = 1e-6
    max_iter: int = 300
    rank: int = 0          # 0 = ceil(sqrt(2 ncols)) + 1
    restarts: int = 3
    seed: int = 0


@dataclass
class SaddleSolution:
    factor: np.ndarray                      # unit-column factor U, (rank, ncols)
    worst: np.ndarray                       # worst-case weights (mean weights for DRO)
    value: float                            # exact inner value at `factor`
    report: SolveReport                     # also: restarts run, winning restart
    worst_dist: Optional[np.ndarray] = None  # DRO: worst distribution over the support


_STALL_WINDOW = 40
CERT_POLISH_TOL = 1e-12  # the sweep tolerance of the polishes a certificate reads

# stop rules of a restart, as the report names them
SADDLE, CERTIFICATE, STALL, MAX_ITER = "saddle", "certificate", "stall", "max_iter"


def _best_response(spec: UncertaintySpec, coef: np.ndarray,
                   ) -> tuple[np.ndarray, float, Optional[np.ndarray]]:
    """The adversary's exact best response to relaxed coefficients `coef`:
    (worst weights, value, worst distribution or None).  For a Wasserstein
    set the weights are the worst distribution's mean."""
    if spec.kind == WASSERSTEIN:
        p, mean_w, value = worst_case_mean(spec, coef)
        return mean_w, value, p
    w, value = worst_case_weights(spec, coef)
    return w, value, None


def _unchanged(w: np.ndarray, ref: np.ndarray) -> bool:
    """|w - ref| <= 1e-12 + 1e-9 |ref| entrywise: np.allclose's test at
    rtol 1e-9, atol 1e-12 for the finite weights the oracles return."""
    return bool(np.all(np.abs(w - ref) <= 1e-12 + 1e-9 * np.abs(ref)))


def upper_bound(inst: Instance, w: np.ndarray, V: np.ndarray) -> float:
    """An upper bound on the robust relaxation from any weights `w` in the
    set and any unit-column factor `V`: the Burer-Monteiro dual certificate
    of max_Y f(Y, w), which bounds max_Y min_w f(Y, w) from above.

    With M = C(w)/2, M~ = M with its diagonal zeroed and y_i =
    <u_i, (V M~)_i>, the diagonal matrix Diag(y) + lambda+ I with lambda+ =
    lambda_max(M~ - Diag y)+ dominates M~, so the dual of the elliptope gives
    c0 sum(w) + sum diag(M) + sum(y) + ncols lambda+.  It is tight when V is a
    global maximizer of f(., w) polished to a fixed point of the sweep."""
    M = _weight_matrix(inst, w) / 2.0
    fixed = inst.pair_table[0] * np.sum(w) + np.trace(M)
    np.fill_diagonal(M, 0.0)
    y = np.einsum("ri,ri->i", V, V @ M)
    np.fill_diagonal(M, -y)
    top = float(np.linalg.eigvalsh(M)[-1])
    return float(fixed + np.sum(y) + inst.ncols * max(top, 0.0))


def _restart(inst: Instance, cfg: SolverConfig, respond, U: np.ndarray):
    """One restart of the saddle loop from the factor U, as a generator: it
    yields each polish it needs as (weights, start factor, sweep tolerance),
    is sent the polished factor, and returns (best, report, final), where
    best is the restart's incumbent (value, factor, worst weights, worst
    distribution) and final says that it ended in an exact saddle or a
    closed certificate, which ends the restarts."""
    ncols = inst.ncols
    w, phi, extra = respond(U)
    # polish against the first response before any gradient work
    U = yield w, U, ASCENT_TOL
    w, phi, extra = respond(U)

    best = (phi, U.copy(), w, extra)
    hist = [phi]
    wbar = w.copy()  # running mean of adversary responses (fictitious play)
    nresp = 1
    w_prev = w
    converged = False
    stop = MAX_ITER
    residual = np.inf
    ub = np.inf  # the least upper bound so far: every wbar is in the set
    gap = None
    iters = 0
    for t in range(1, cfg.max_iter + 1):
        iters = t
        frozen = _unchanged(w, w_prev)
        w_prev = w
        if frozen:
            # frozen adversary: polish the factor at fixed weights, then
            # re-check the response
            V = yield w, U, ASCENT_TOL
            w2, phi2, extra2 = respond(V)
            if phi2 >= best[0]:
                best = (phi2, V.copy(), w2, extra2)
            if _unchanged(w2, w):
                converged, stop = True, SADDLE
                residual = 0.0
                break
            U = V
            w, phi, extra = w2, phi2, extra2
            hist.append(best[0])
            continue
        G = objective_gradient(inst, U, w)
        gn = float(np.linalg.norm(G))
        if gn == 0.0:  # no ascent step moves the factor: it stalls for good
            converged, stop = True, STALL
            residual = 0.0
            break
        eta = np.sqrt(ncols) / (np.sqrt(t) * gn)
        U = U + eta * G
        U /= np.maximum(np.linalg.norm(U, axis=0), 1e-300)
        w, phi, extra = respond(U)
        if phi > best[0]:
            best = (phi, U.copy(), w, extra)
        wbar = (nresp * wbar + w) / (nresp + 1.0)
        nresp += 1
        if t % 10 == 0:
            # fictitious play: best reply to the averaged adversary, polished
            # tight enough for its dual certificate to bound the game
            V = yield wbar, U, CERT_POLISH_TOL
            w_f, phi_f, extra_f = respond(V)
            if phi_f > best[0]:
                best = (phi_f, V.copy(), w_f, extra_f)
                U = V
                w, phi, extra = w_f, phi_f, extra_f
            ub = min(ub, upper_bound(inst, wbar, V))
            gap = (ub - best[0]) / max(1.0, abs(best[0]))
            if gap <= cfg.gap_tol:
                converged, stop = True, CERTIFICATE
                residual = gap
                break
        hist.append(best[0])
        if len(hist) > _STALL_WINDOW:
            gain = hist[-1] - hist[-1 - _STALL_WINDOW]
            residual = abs(gain) / max(1.0, abs(hist[-1]))
            if residual < cfg.gap_tol:
                converged, stop = True, STALL
                break
    if not np.isfinite(residual):  # the window never filled: the change so far
        residual = abs(hist[-1] - hist[0]) / max(1.0, abs(hist[-1]))
    report = SolveReport(value=best[0], iterations=iters, residual=float(residual),
                         converged=converged, stop=stop, gap=gap)
    return best, report, stop in (SADDLE, CERTIFICATE)


def _saddle_loop(inst: Instance, cfg: SolverConfig,
                 spec: UncertaintySpec) -> SaddleSolution:
    """The restarts of :func:`_restart` in lockstep: every round, one
    :func:`sdp.stacked_ascent` serves the next polish of every live restart.
    Restart 0 runs alone up to its first certificate check (t = 10), by
    which most solves have ended in an exact saddle or a closed
    certificate; the other restarts start only if it did not.  The first
    such end stops the restarts after it, as if they ran one after the
    other: they are dropped and do not count."""
    ncols = inst.ncols
    rank = cfg.rank if cfg.rank > 0 else default_rank(ncols)
    restarts = max(1, cfg.restarts)

    def respond(U: np.ndarray):
        return inner_worst(inst, spec, U)

    runs = {}      # restart -> its generator
    asks = {}      # restart -> the polish it waits for
    outcomes = {}  # restart -> (best, report, final)
    last = restarts - 1  # the last restart that counts: the first final one

    def begin(restart: int) -> None:
        rng = streams.stream(cfg.seed, streams.TAG_SOLVER_INIT, 100 + restart)
        runs[restart] = _restart(inst, cfg, respond, _random_unit_columns(rank, ncols, rng))
        asks[restart] = next(runs[restart])

    def polish() -> None:
        nonlocal last
        order = sorted(asks)
        U, _ = stacked_ascent(inst, np.stack([asks[r][0] for r in order]),
                              np.stack([asks[r][1] for r in order]),
                              tols=[asks[r][2] for r in order])
        for row, r in enumerate(order):
            if r > last:
                break
            try:
                asks[r] = runs[r].send(U[row])
            except StopIteration as stop:
                del asks[r]
                outcomes[r] = stop.value
                if stop.value[2]:
                    last = r
        for r in [r for r in asks if r > last]:
            del asks[r]

    begin(0)
    while asks:  # restart 0 up to its first certificate check, the first
        checked = asks[0][2] == CERT_POLISH_TOL  # polish at that tolerance
        polish()
        if checked:
            break
    if last > 0:
        for restart in range(1, restarts):
            begin(restart)
    while asks:
        polish()

    best_phi = -np.inf
    best = best_report = None
    for restart in range(last + 1):
        incumbent, report, _ = outcomes[restart]
        if incumbent[0] > best_phi:
            best_phi, best, best_report = incumbent[0], incumbent, report
            report.restart = restart
    assert best is not None and best_report is not None
    best_report.restarts = last + 1
    phi, U, w, extra = best
    return SaddleSolution(factor=U, worst=w, value=phi,
                          report=best_report, worst_dist=extra)


def solve_robust(inst: Instance, spec: UncertaintySpec,
                 cfg: SolverConfig | None = None) -> SaddleSolution:
    """Solve the relaxed robust problem  max_U min_{w in set} relaxed value.

    Singleton sets reduce to the nominal elliptope solve; every other kind
    runs the saddle loop.  A Wasserstein ball gives the distributionally
    robust counterpart: ``worst`` is the worst distribution's mean weight
    vector and ``worst_dist`` the distribution.  The returned ``value``
    always equals the exact inner minimum at the returned factor.
    """
    cfg = cfg or SolverConfig()
    require_valid(spec, inst.m)
    if spec.kind == SINGLETON:
        w = spec.weights
        factor, report = solve_elliptope_max(inst, w, rank=cfg.rank,
                                             max_iter=cfg.max_iter * 10,
                                             restarts=cfg.restarts, seed=cfg.seed)
        value = relaxed_value(inst, factor, w)
        stop = STALL if report.converged else MAX_ITER
        return SaddleSolution(factor=factor, worst=w.copy(), value=value,
                              report=replace(report, value=value, stop=stop))
    return _saddle_loop(inst, cfg, spec)


# ---------------------------------------------------------------------------
# reformulated values (independent evaluation routes at a fixed factor)
# ---------------------------------------------------------------------------

def dual_reformulated_value(inst: Instance, spec: UncertaintySpec,
                            U: np.ndarray) -> float:
    """Inner worst-case value at a fixed factor through the LP dual route."""
    if spec.kind != POLYHEDRAL:
        raise DomainError(f"dual_reformulated_value: set kind is {spec.kind}")
    return dual_polyhedral_value(spec, term_gram_coefficients(inst, U))


def ellipsoid_reformulated_value(inst: Instance, spec: UncertaintySpec,
                                 U: np.ndarray) -> float:
    """Inner worst-case value at a fixed factor for an ellipsoid, evaluated as
    coef.w0 - sqrt(a) ||Q^{1/2} coef|| (norm route, independent of the
    closed-form minimizer)."""
    if spec.kind != ELLIPSOIDAL:
        raise DomainError(f"ellipsoid_reformulated_value: set kind is {spec.kind}")
    coef = term_gram_coefficients(inst, U)
    return float(coef @ spec.w0 - np.sqrt(spec.a) * ellipsoid_root_norm(spec, coef))


def inner_worst(inst: Instance, spec: UncertaintySpec,
                U: np.ndarray) -> tuple[np.ndarray, float, Optional[np.ndarray]]:
    """Exact inner minimization at a fixed factor: (worst weights, value,
    worst distribution or None)."""
    return _best_response(spec, term_gram_coefficients(inst, U))
