"""Max-min saddle solvers: relaxed cut maximization against an adversarial
weight vector from an uncertainty set.

The solved game is  max_U min_{w in set}  sum_e w_e * coef_e(U)  with U on the
elliptope (unit-column Gram factor) and the inner minimum evaluated exactly by
the oracles in :mod:`robustcut.uncertainty`.  The outer ascent is projected
supergradient on the factor with step sqrt(ncols) / (sqrt(t) ||G||) and
fictitious play against the running mean of the adversary's responses, plus an
exact-saddle detector: whenever the inner best response stops changing, the
weights are frozen, the nominal coordinate-ascent solver polishes the factor,
and the best response is re-checked -- if it is still the same vertex/point
the pair is a saddle and the loop exits with zero residual.  An exact saddle
also ends the restarts: its value is the game value up to the polish
tolerance, so no later restart can beat it.

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
from .sdp import (GramFactor, SolveReport, default_rank, factor_columns,
                  objective_gradient, solve_elliptope_max,
                  term_gram_coefficients, _random_unit_columns)
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

    @staticmethod
    def from_dict(d: dict) -> "SolverConfig":
        cfg = SolverConfig()
        known = {f for f in cfg.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise DomainError(f"solver config: unknown keys {sorted(bad)}")
        return replace(cfg, **d)


@dataclass
class SaddleSolution:
    factor: GramFactor
    worst: np.ndarray                       # worst-case weights (mean weights for DRO)
    value: float                            # exact inner value at `factor`
    report: SolveReport                     # also: restarts run, winning restart
    worst_dist: Optional[np.ndarray] = None  # DRO: worst distribution over the support


_STALL_WINDOW = 40


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


def _saddle_loop(inst: Instance, cfg: SolverConfig,
                 spec: UncertaintySpec) -> SaddleSolution:
    ncols = factor_columns(inst)
    rank = cfg.rank if cfg.rank > 0 else default_rank(ncols)
    is_dicut = inst.kind == "dicut"

    def respond(U: np.ndarray):
        fac = GramFactor(U, reference=is_dicut)
        return _best_response(spec, np.clip(term_gram_coefficients(inst, fac), 0.0, None))

    best_phi = -np.inf
    best_U = None
    best_w = None
    best_extra = None
    best_report = None

    for restart in range(max(1, cfg.restarts)):
        rng = streams.stream(cfg.seed, streams.TAG_SOLVER_INIT, 100 + restart)
        U = _random_unit_columns(rank, ncols, rng)
        w, phi, extra = respond(U)
        # polish against the first response before any gradient work
        fac, _ = solve_elliptope_max(inst, w, rank=rank, restarts=0,
                                     seed=cfg.seed, start=GramFactor(U, reference=is_dicut))
        U = fac.U
        w, phi, extra = respond(U)

        r_best = (phi, U.copy(), w, extra)
        hist = [phi]
        wbar = w.copy()  # running mean of adversary responses (fictitious play)
        nresp = 1
        w_prev = w
        converged = False
        saddle = False
        residual = np.inf
        iters = 0
        for t in range(1, cfg.max_iter + 1):
            iters = t
            frozen = np.allclose(w, w_prev, rtol=1e-9, atol=1e-12)
            w_prev = w
            if frozen:
                # frozen adversary: polish the factor at fixed weights, then
                # re-check the response
                fac, _ = solve_elliptope_max(inst, w, rank=rank, restarts=0,
                                             seed=cfg.seed,
                                             start=GramFactor(U, reference=is_dicut))
                w2, phi2, extra2 = respond(fac.U)
                if phi2 >= r_best[0]:
                    r_best = (phi2, fac.U.copy(), w2, extra2)
                if np.allclose(w2, w, rtol=1e-9, atol=1e-12):
                    converged = saddle = True
                    residual = 0.0
                    break
                U = fac.U
                w, phi, extra = w2, phi2, extra2
                hist.append(r_best[0])
                continue
            G = objective_gradient(inst, GramFactor(U, reference=is_dicut), w)
            gn = float(np.linalg.norm(G))
            if gn == 0.0:
                converged = True
                residual = 0.0
                break
            eta = np.sqrt(ncols) / (np.sqrt(t) * gn)
            U = U + eta * G
            U /= np.maximum(np.linalg.norm(U, axis=0), 1e-300)
            w, phi, extra = respond(U)
            if phi > r_best[0]:
                r_best = (phi, U.copy(), w, extra)
            wbar = (nresp * wbar + w) / (nresp + 1.0)
            nresp += 1
            if t % 10 == 0:
                # fictitious play: best reply to the averaged adversary
                fac, _ = solve_elliptope_max(inst, wbar, rank=rank, restarts=0,
                                             seed=cfg.seed,
                                             start=GramFactor(U, reference=is_dicut))
                w_f, phi_f, extra_f = respond(fac.U)
                if phi_f > r_best[0]:
                    r_best = (phi_f, fac.U.copy(), w_f, extra_f)
                    U = fac.U
                    w, phi, extra = w_f, phi_f, extra_f
            hist.append(r_best[0])
            if len(hist) > _STALL_WINDOW:
                gain = hist[-1] - hist[-1 - _STALL_WINDOW]
                residual = abs(gain) / max(1.0, abs(hist[-1]))
                if residual < cfg.gap_tol:
                    converged = True
                    break
        phi_r, U_r, w_r, extra_r = r_best
        if phi_r > best_phi:
            best_phi, best_U, best_w, best_extra = phi_r, U_r, w_r, extra_r
            best_report = SolveReport(value=phi_r, iterations=iters,
                                      residual=float(residual if np.isfinite(residual) else 0.0),
                                      converged=converged, restart=restart)
        if saddle:
            break

    assert best_U is not None and best_report is not None
    best_report.restarts = restart + 1
    return SaddleSolution(factor=GramFactor(best_U, reference=is_dicut),
                          worst=best_w, value=best_phi, report=best_report,
                          worst_dist=best_extra)


def solve_robust(inst: Instance, spec: UncertaintySpec,
                 cfg: SolverConfig | None = None) -> SaddleSolution:
    """Solve the relaxed robust problem  max_U min_{w in set} relaxed value.

    Singleton sets reduce to the nominal elliptope solve; every other kind,
    Wasserstein balls included (the :func:`solve_dro` counterpart), runs the
    saddle loop.  The returned ``value`` always equals the exact inner
    minimum at the returned factor.
    """
    cfg = cfg or SolverConfig()
    require_valid(spec, inst)
    if spec.kind == SINGLETON:
        w = spec.weights
        factor, report = solve_elliptope_max(inst, w, rank=cfg.rank,
                                             max_iter=cfg.max_iter * 10,
                                             restarts=cfg.restarts, seed=cfg.seed)
        return SaddleSolution(factor=factor, worst=w.copy(), value=report.value,
                              report=report)
    return _saddle_loop(inst, cfg, spec)


def solve_dro(inst: Instance, spec: UncertaintySpec,
              cfg: SolverConfig | None = None) -> SaddleSolution:
    """Distributionally robust counterpart over a Wasserstein ball.

    The adversary picks a distribution on the finite support; independence of
    the rounding randomness makes only the mean weight vector matter, so the
    loop plays against :func:`uncertainty.worst_case_mean`.  ``worst`` is the
    worst mean weight vector, ``worst_dist`` the minimizing distribution.
    """
    cfg = cfg or SolverConfig()
    require_valid(spec, inst)
    if spec.kind != WASSERSTEIN:
        raise DomainError(f"solve_dro: expected a wasserstein spec, got {spec.kind}")
    return _saddle_loop(inst, cfg, spec)


# ---------------------------------------------------------------------------
# reformulated values (independent evaluation routes at a fixed factor)
# ---------------------------------------------------------------------------

def dual_reformulated_value(inst: Instance, spec: UncertaintySpec,
                            factor: GramFactor) -> float:
    """Inner worst-case value at a fixed factor through the LP dual route."""
    if spec.kind != POLYHEDRAL:
        raise DomainError(f"dual_reformulated_value: set kind is {spec.kind}")
    coef = np.clip(term_gram_coefficients(inst, factor), 0.0, None)
    return dual_polyhedral_value(spec, coef)


def ellipsoid_reformulated_value(inst: Instance, spec: UncertaintySpec,
                                 factor: GramFactor) -> float:
    """Inner worst-case value at a fixed factor for an ellipsoid, evaluated as
    coef.w0 - sqrt(a) ||Q^{1/2} coef|| (norm route, independent of the
    closed-form minimizer)."""
    if spec.kind != ELLIPSOIDAL:
        raise DomainError(f"ellipsoid_reformulated_value: set kind is {spec.kind}")
    coef = np.clip(term_gram_coefficients(inst, factor), 0.0, None)
    return float(coef @ spec.w0 - np.sqrt(spec.a) * ellipsoid_root_norm(spec, coef))


def inner_worst(inst: Instance, spec: UncertaintySpec,
                factor: GramFactor) -> tuple[np.ndarray, float, Optional[np.ndarray]]:
    """Exact inner minimization at a fixed factor: (worst weights, value,
    worst distribution or None)."""
    return _best_response(spec, np.clip(term_gram_coefficients(inst, factor), 0.0, None))
