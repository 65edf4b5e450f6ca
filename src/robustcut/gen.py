"""Seeded generators for instances and uncertainty sets.

Everything here draws from the dedicated generation stream, so a (seed,
parameters) pair pins the output bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .instances import (DICUT, MAXCUT, DomainError, Instance,
                        allequal_instance, graph_instance)
from .uncertainty import (UncertaintySpec, box_spec, ellipsoidal_spec,
                          singleton_spec, wasserstein_spec)


def cycle_instance(n: int, kind: str = MAXCUT, weight: float = 1.0) -> Instance:
    """n-cycle with uniform weights (arcs i -> i+1 mod n for dicut)."""
    if kind == DICUT:
        edges = [(i, (i + 1) % n, weight) for i in range(n)]
    else:
        edges = [(i, i + 1, weight) for i in range(n - 1)] + [(0, n - 1, weight)]
    return graph_instance(n, kind, edges)


def complete_instance(n: int, weight: float = 1.0) -> Instance:
    return graph_instance(n, MAXCUT,
                          [(i, j, weight) for i in range(n) for j in range(i + 1, n)])


def gnp_instance(n: int, p: float, seed: int, kind: str = MAXCUT,
                 w_low: float = 0.5, w_high: float = 1.5) -> Instance:
    """G(n, p) with i.i.d. uniform weights in [w_low, w_high].  A negative
    w_low yields a signed instance.  Guaranteed non-empty (falls back to a
    single edge when the coin flips produce none)."""
    if kind not in (MAXCUT, DICUT):
        raise DomainError(f"gnp_instance: kind must be maxcut or dicut, got {kind}")
    rng = streams.stream(seed, streams.TAG_GEN, 1)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.uniform(w_low, w_high)
                if kind == DICUT and rng.random() < 0.5:
                    edges.append((j, i, w))
                else:
                    edges.append((i, j, w))
    if not edges:
        edges = [(0, 1, rng.uniform(w_low, w_high))]
    return graph_instance(n, kind, edges, signed=w_low < 0.0)


def random_allequal_instance(n: int, k: int, m: int, seed: int,
                             w_low: float = 0.5, w_high: float = 1.5) -> Instance:
    """m random all-equal clauses of arity k over n variables: distinct
    variables per clause, i.i.d. random negations, uniform weights."""
    if k > n:
        raise DomainError(f"random_allequal_instance: arity {k} > n = {n}")
    rng = streams.stream(seed, streams.TAG_GEN, 2)
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=k, replace=False)
        signs = np.where(rng.random(k) < 0.5, 1, -1)
        lits = [int(s * (v + 1)) for v, s in zip(vars_, signs)]
        clauses.append((lits, float(rng.uniform(w_low, w_high))))
    return allequal_instance(n, clauses, signed=w_low < 0.0)


# ---------------------------------------------------------------------------
# uncertainty sets anchored at an instance's nominal weights
# ---------------------------------------------------------------------------

def singleton_for(inst: Instance) -> UncertaintySpec:
    return singleton_spec(inst.nominal_weights())


def box_for(inst: Instance, width: float) -> UncertaintySpec:
    """Componentwise box [ (1-width) w, (1+width) w ] around the nominal
    weights, floored at zero."""
    w0 = inst.nominal_weights()
    lower = np.maximum(0.0, (1.0 - width) * w0)
    upper = (1.0 + width) * w0
    return box_spec(lower, upper)


def ellipsoid_for(inst: Instance, spread: float, seed: int = 0) -> UncertaintySpec:
    """Random diagonal ellipsoid centered at the nominal weights, with radius
    scaled so the whole set stays in the nonnegative orthant (each semi-axis
    at most `spread` times the coordinate of the center)."""
    if not 0.0 < spread <= 1.0:
        raise DomainError(f"ellipsoid_for: spread must lie in (0, 1], got {spread}")
    w0 = inst.nominal_weights()
    if np.any(w0 <= 0.0):
        raise DomainError("ellipsoid_for: nominal weights must be positive")
    rng = streams.stream(seed, streams.TAG_GEN, 3)
    q = rng.uniform(0.5, 1.5, size=inst.m)
    # sqrt(a * q_i) <= spread * w0_i for every coordinate
    a = float(np.min((spread * w0) ** 2 / q))
    return ellipsoidal_spec(w0, np.diag(q), a)


def wasserstein_for(inst: Instance, scenarios: int, radius: float,
                    seed: int = 0) -> UncertaintySpec:
    """Discrete transport ball: support points are copies of the nominal
    weights jittered by up to +-30% each (clipped at zero), empirical
    distribution uniform."""
    if scenarios < 1:
        raise DomainError(f"wasserstein_for: scenarios must be >= 1, got {scenarios}")
    w0 = inst.nominal_weights()
    rng = streams.stream(seed, streams.TAG_GEN, 4)
    pts = [w0]
    for _ in range(scenarios - 1):
        pts.append(np.maximum(0.0, w0 * (1.0 + rng.uniform(-0.3, 0.3, size=inst.m))))
    support = np.stack(pts)
    empirical = np.full(scenarios, 1.0 / scenarios)
    return wasserstein_spec(support, empirical, radius)
