"""Monte-Carlo references for the exact rounding expectations: the mean and
standard error of the rounded value over seeded draws, on the stream
(seed, MC, 1), trial t = row t of the draw block."""

import math

import numpy as np

from robustcut import streams
from robustcut.instances import ALLEQUAL, DomainError, Instance, term_coefficients
from robustcut.rounding import assignment_prob, oriented_cut


def mc_expected_cut(inst: Instance, U: np.ndarray, w, trials: int,
                    seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the rounded cut value over
    `trials` hyperplane draws (trial t = row t of the seeded draw block)."""
    if inst.kind == ALLEQUAL:
        raise DomainError(f"mc_expected_cut: instance kind is {inst.kind}")
    U = np.asarray(U, dtype=float)
    w = np.asarray(w, dtype=float)
    rng = streams.stream(seed, streams.TAG_MC, 1)
    vals = np.empty(trials)
    done = 0
    chunk = max(1, min(trials, 1 << 14))
    while done < trials:
        b = min(chunk, trials - done)
        R = rng.standard_normal((b, U.shape[0]))
        S = np.where(R @ U >= 0.0, 1, -1)
        vals[done:done + b] = term_coefficients(inst, oriented_cut(inst, S)) @ w
        done += b
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def mc_allequal_value(inst: Instance, z: np.ndarray, w, trials: int,
                      seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean/stderr of the satisfied weight under the biased
    assignment scheme seeded from sign vector z."""
    if inst.kind != ALLEQUAL:
        raise DomainError(f"mc_allequal_value: instance kind is {inst.kind}")
    w = np.asarray(w, dtype=float)
    p_plus = assignment_prob(z, inst.arity)
    rng = streams.stream(seed, streams.TAG_MC, 1)
    draws = rng.random((trials, inst.n))
    vals = term_coefficients(inst, np.where(draws < p_plus, 1, -1)) @ w
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
