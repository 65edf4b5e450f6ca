"""Randomized rounding schemes and the closed-form quantities that certify
them.

Facts used throughout (r uniform on the unit sphere, u, v, w unit vectors):

* P[sgn(u.r) != sgn(v.r)] = arccos(u.v) / pi, i.e. the signs x_u, x_v have
  E[x_u x_v] = (2/pi) arcsin(u.v); every graph-kind term is affine in such
  pair moments (:func:`expected_terms`)
* P[sgn(u.r) = sgn(v.r) = sgn(w.r)]
    = 1 - (arccos(u.v) + arccos(u.w) + arccos(v.w)) / (2 pi)
* arccos(t)/pi >= (alpha/2)(1 - t) on [-1, 1] with alpha ~ 0.87856 (the
  guaranteed cut ratio; certificates below use the round 0.878 bound)
* the directed-cut analogue holds with beta ~ 0.79607 (0.796 used below)
* sign rounding of a factor U against a PSD matrix A achieves
  z^T A z >= (2/pi) <A, U^T U> in expectation, hence best-of-draws
* biased assignment x_i = +1 with prob (1 + sqrt(2/k) z_i)/2 turns a sign
  vector into a k-ary all-equal assignment with guarantee factor 0.88 k / 2^k
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import streams
from .instances import ALLEQUAL, DomainError, Instance, term_coefficients
from .numerics import NumericError
from .sdp import pair_gram

APPROX_RATIO_MAXCUT = 0.878
APPROX_RATIO_DICUT = 0.796
ALLEQUAL_COEF = 0.88
CROSSOVER_GAMMA = 0.84458  # above this relative cut size the h-based bound wins


# ---------------------------------------------------------------------------
# hyperplane rounding
# ---------------------------------------------------------------------------

def hyperplane_round(U: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """One rounding draw: signs of the columns of the factor U against a
    uniform hyperplane.

    Trial t of a seed uses the dedicated stream (seed, ROUND, t); ties
    (u_i . r == 0) resolve to +1.
    """
    U = np.asarray(U, dtype=float)
    rng = streams.stream(seed, streams.TAG_ROUND, trial)
    r = rng.standard_normal(U.shape[0])
    nrm = np.linalg.norm(r)
    if nrm > 0.0:
        r = r / nrm
    return np.where(U.T @ r >= 0.0, 1, -1).astype(int)


def oriented_cut(inst: Instance, S: np.ndarray) -> np.ndarray:
    """The cut that the hyperplane signs S of the factor columns give, S of
    shape (ncols,) or one row per draw.  When column 0 is the reference
    (:attr:`instances.Instance.reference`) it fixes the orientation: the cut
    is s_0 * s_{i+1}, so the reference itself always lands on the +1 side."""
    return S[..., 1:] * S[..., :1] if inst.reference else S


def round_cut(inst: Instance, U: np.ndarray, seed: int, trial: int = 0) -> np.ndarray:
    """Round a factor to a +-1 vector for the instance's vertices, oriented
    by :func:`oriented_cut`."""
    if inst.kind == ALLEQUAL:
        raise DomainError("round_cut: allequal uses sign_round_psd + allequal_round")
    return oriented_cut(inst, hyperplane_round(U, seed, trial))


def rounding_draws(inst: Instance, U: np.ndarray, w, seed: int,
                   trials: int) -> tuple[list[np.ndarray], list[float], Optional[np.ndarray]]:
    """The first `trials` rounding draws of a seed: each draw's cut or
    assignment, its value ``term_coefficients(inst, x) @ w``, and the
    all-equal seed vector z (None for the graph kinds), sign-rounded against
    ``allequal_quadratic_matrix(inst, w)`` with at least max(8, trials) draws."""
    if inst.kind == ALLEQUAL:
        z = sign_round_psd(allequal_quadratic_matrix(inst, w), U, seed, max(8, trials))
        cuts = [allequal_round(z, inst.arity, seed, trial=t) for t in range(trials)]
    else:
        z = None
        cuts = [round_cut(inst, U, seed, trial=t) for t in range(trials)]
    return cuts, [float(term_coefficients(inst, x) @ w) for x in cuts], z


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------

def expected_terms(inst: Instance, U: np.ndarray, z: Optional[np.ndarray] = None,
                   ) -> np.ndarray:
    """Exact expectation of ``term_coefficients(inst, x)`` over the draws x
    that :func:`rounding_draws` makes, one entry per term.

    For the graph kinds it reads the pair table: hyperplane rounding gives
    E[x_a x_b] = (2/pi) arcsin <u_a, u_b>, so e_t = c0 + sum_p beta_p (2/pi)
    arcsin <u_a, u_b> -- arccos(u_i.u_j)/pi for an edge, and for an arc the
    probability that i sides with the reference and j does not.  For
    all-equal, given the seed vector z, the variables flip independently
    and a clause holds when all its literal values agree."""
    if inst.kind == ALLEQUAL:
        V, S = inst.clause_arrays
        p_plus = assignment_prob(z, inst.arity)
        q = np.where(S > 0, p_plus[V], 1.0 - p_plus[V])
        return np.prod(q, axis=1) + np.prod(1.0 - q, axis=1)
    c0, term, _, _, beta = inst.pair_table
    moments = np.arcsin(np.clip(pair_gram(inst, U), -1.0, 1.0)) * (2.0 / math.pi)
    return c0 + np.bincount(term, beta * moments, minlength=inst.m)


def expected_allequal_exact(inst: Instance, z: np.ndarray, w) -> float:
    """Exact expected satisfied weight at w of the biased assignment built
    from a sign vector z (:func:`expected_terms`)."""
    if inst.kind != ALLEQUAL:
        raise DomainError(f"expected_allequal_exact: instance kind is {inst.kind}")
    return float(np.asarray(w, dtype=float) @ expected_terms(inst, None, z))


def expected_rounded_value(inst: Instance, U: np.ndarray,
                           z: Optional[np.ndarray], w) -> float:
    """Exact expected value e . w at w of the draws :func:`rounding_draws`
    makes, given its seed vector z (used for all-equal only); e is
    :func:`expected_terms`, and signed weights are allowed."""
    return float(expected_terms(inst, U, z) @ np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# ratio functions
# ---------------------------------------------------------------------------

def alpha_ratio(t):
    """(arccos(t)/pi) / ((1-t)/2): the pointwise cut ratio of hyperplane
    rounding against the relaxation term.

    Minimum ~0.87856 near t ~ -0.689; equals 1 at t in {-1, 0}; diverges to
    +inf as t -> 1 (both sides vanish, the numerator slower).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0 - 1e-12) or np.any(t > 1.0 + 1e-12):
        raise DomainError("alpha_ratio: argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    num = np.arccos(t) / math.pi
    den = (1.0 - t) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    if out.ndim == 0:
        return float(out)
    return out


def large_cut_ratio(a_tilde: float) -> float:
    """h(A)/A with h(t) = arccos(1 - 2t)/pi: the sharper guarantee available
    when the relative relaxed cut A is large (above ~0.84458 it exceeds the
    flat 0.878... bound)."""
    a_tilde = float(a_tilde)
    if not 0.0 < a_tilde <= 1.0:
        raise DomainError(f"large_cut_ratio: relative cut size must be in (0, 1], got {a_tilde}")
    h = math.acos(1.0 - 2.0 * a_tilde) / math.pi
    return h / a_tilde


def negative_weight_bound(expected_cut: float, w_minus: float, val_rp: float) -> bool:
    """Shifted max-cut guarantee for signed weights: with W- the total
    negative weight, checks  (expected - W-) >= 0.878 (val - W-)."""
    if w_minus > 1e-12:
        raise DomainError(f"negative_weight_bound: W- must be <= 0, got {w_minus}")
    return bool(expected_cut - w_minus >= APPROX_RATIO_MAXCUT * (val_rp - w_minus) - 1e-9)


def dicut_triple_prob(ui, uj, uk) -> float:
    """Probability that three unit vectors land on the same side of a uniform
    hyperplane."""
    ui = np.asarray(ui, dtype=float)
    uj = np.asarray(uj, dtype=float)
    uk = np.asarray(uk, dtype=float)
    for name, u in (("ui", ui), ("uj", uj), ("uk", uk)):
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-6:
            raise DomainError(f"dicut_triple_prob: {name} is not a unit vector")
    s = sum(math.acos(min(1.0, max(-1.0, float(a @ b))))
            for a, b in ((ui, uj), (ui, uk), (uj, uk)))
    return 1.0 - s / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# dicut ratio search
# ---------------------------------------------------------------------------

@dataclass
class RatioSearchResult:
    ratio: float      # smallest estimated P / denom over the grid
    stderr: float     # standard error of the estimate at that pair
    index: int        # grid index attaining the minimum
    prob: float       # estimated arc probability there
    denom: float      # relaxation term (1 + u0.ui - u0.uj - ui.uj)/4 there


def feasible_pair_grid(count: int, seed: int,
                       min_denom: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample (u_i, u_j) pairs of 3-vectors against the reference
    direction u0 = e_1 satisfying the four sign-pattern inequalities of the
    directed relaxation (u0.ui + u0.uj + ui.uj >= -1 under all four sign
    flips of (ui, uj)) and a denominator bounded away from zero."""
    rng = streams.stream(seed, streams.TAG_SAMPLE, 0)
    u0 = np.array([1.0, 0.0, 0.0])
    pairs = np.empty((count, 2, 3))
    got = 0
    while got < count:
        block = rng.standard_normal((4 * (count - got), 2, 3))
        block /= np.linalg.norm(block, axis=2, keepdims=True)
        a = block[:, 0, 0]
        b = block[:, 1, 0]
        c = np.einsum("nd,nd->n", block[:, 0], block[:, 1])
        ok = ((a + b + c >= -1.0) & (a - b - c >= -1.0) &
              (-a + b - c >= -1.0) & (-a - b + c >= -1.0) &
              ((1.0 + a - b - c) / 4.0 >= min_denom))
        take = block[ok][:count - got]
        pairs[got:got + len(take)] = take
        got += len(take)
    return u0, pairs


def uniform_arc_indicator(u0: np.ndarray, ui: np.ndarray, uj: np.ndarray,
                          draws: np.ndarray) -> np.ndarray:
    """Per-draw indicator that the arc (i -> j) is cut under plain hyperplane
    rounding: i sides with the reference, j does not."""
    s0 = draws @ u0 >= 0.0
    si = draws @ ui >= 0.0
    sj = draws @ uj >= 0.0
    return ((s0 == si) & (sj != s0)).astype(float)


def dicut_biased_ratio_search(u0: np.ndarray, pairs: np.ndarray, seed: int,
                              trials: int,
                              prob: Optional[Callable[..., np.ndarray]] = None,
                              ) -> RatioSearchResult:
    """Monte-Carlo minimum of  P(arc cut) / relaxation term  over a pair grid.

    ``prob`` is a pluggable per-draw indicator (defaults to the uniform
    scheme); all pairs share one block of max(1, `trials`) common draws from
    stream (seed, MC, 0), so for the uniform
    scheme the minimum estimate sits within a few standard errors of the true
    directed-cut constant ~0.79607.
    """
    if prob is None:
        prob = uniform_arc_indicator
    u0 = np.asarray(u0, dtype=float)
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2 or pairs.shape[2] != u0.shape[0]:
        raise DomainError(f"pairs: expected shape (npairs, 2, {u0.shape[0]})")
    T = max(1, trials)
    rng = streams.stream(seed, streams.TAG_MC, 0)
    draws = rng.standard_normal((T, u0.shape[0]))
    best = RatioSearchResult(np.inf, 0.0, -1, 0.0, 0.0)
    for idx in range(pairs.shape[0]):
        ui, uj = pairs[idx, 0], pairs[idx, 1]
        denom = (1.0 + float(u0 @ ui) - float(u0 @ uj) - float(ui @ uj)) / 4.0
        if denom <= 1e-12:
            continue  # excluded: relaxation term vanishes
        ind = prob(u0, ui, uj, draws)
        p_hat = float(np.mean(ind))
        ratio = p_hat / denom
        if ratio < best.ratio:
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / T) / denom
            best = RatioSearchResult(ratio, se, idx, p_hat, denom)
    if best.index < 0:
        raise DomainError("ratio search: no pair with a positive relaxation term")
    return best


# ---------------------------------------------------------------------------
# allequal pipeline pieces
# ---------------------------------------------------------------------------

def sign_round_psd(A: np.ndarray, U: np.ndarray, seed: int, trials: int = 1) -> np.ndarray:
    """Sign vector z with  z^T A z >= (2/pi) <A, U^T U>  for PSD A.

    The bound holds in expectation over hyperplane draws of the seed, so
    best-of-draws reaches it quickly; draws continue past `trials` if needed,
    up to 100x, after which a NumericError is raised (practically unreachable
    for PSD A).
    """
    A = np.asarray(A, dtype=float)
    U = np.asarray(U, dtype=float)
    n = U.shape[1]
    if A.shape != (n, n):
        raise DomainError(f"A: expected shape ({n}, {n}), got {A.shape}")
    target = (2.0 / math.pi) * float(np.sum(A * (U.T @ U)))
    scale = 1.0 + abs(target)
    trials = max(1, trials)
    best_z = None
    best_v = -np.inf
    for t in range(100 * trials):
        z = hyperplane_round(U, seed, t).astype(float)
        v = float(z @ A @ z)
        if v > best_v:
            best_v, best_z = v, z
        if t + 1 >= trials and best_v >= target - 1e-9 * scale:
            return best_z.astype(int)
    raise NumericError(
        f"sign_round_psd: best value {best_v:.6g} below target {target:.6g} "
        f"after {100 * trials} draws")


def assignment_prob(z: np.ndarray, k: int) -> np.ndarray:
    """P(x_i = +1) = (1 + sqrt(2/k) z_i)/2 of the biased assignment built from
    the sign vector z for clauses of arity k."""
    return (1.0 + math.sqrt(2.0 / k) * np.asarray(z, dtype=float)) / 2.0


def allequal_round(z: np.ndarray, k: int, seed: int, trial: int = 0) -> np.ndarray:
    """Biased assignment from a sign vector: x_i = +1 with probability
    :func:`assignment_prob`, from stream (seed, ASSIGN, trial) so that it is
    independent of the hyperplane draws behind z.  Deterministic (x = z) at
    k = 2."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) == 1.0):
        raise DomainError("allequal_round: z must be a +-1 vector")
    if k < 2:
        raise DomainError(f"allequal_round: arity {k} < 2")
    p_plus = assignment_prob(z, k)
    rng = streams.stream(seed, streams.TAG_ASSIGN, trial)
    draws = rng.random(len(z))
    return np.where(draws < p_plus, 1, -1).astype(int)


def allequal_quadratic_matrix(inst: Instance, w) -> np.ndarray:
    """PSD matrix A = sum_C w_C a_C a_C^T whose quadratic form counts signed
    clause agreement: z^T A z = sum_C w_C (sum_{i in C} s_i z_i)^2."""
    if inst.kind != ALLEQUAL:
        raise DomainError(f"allequal_quadratic_matrix: instance kind is {inst.kind}")
    w = np.asarray(w, dtype=float)
    V, S = inst.clause_arrays
    A = np.zeros((inst.n, inst.n))
    # unbuffered, in clause order: each entry sums its clauses' terms in turn
    np.add.at(A, (V[:, :, None], V[:, None, :]),
              w[:, None, None] * (S[:, :, None] * S[:, None, :]))
    return A
