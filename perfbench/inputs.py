"""Seeded input generator for the benchmark workloads.

It writes the instance and uncertainty-set JSON files that ``robustcut``
reads, using numpy only.  It deliberately does not import ``robustcut.gen``:
a change to the package's own generators must not change what a workload
runs.  The same ``(workload, seed)`` always gives the same bytes.

Each job is described by a dict with the CLI command, the file paths, and a
``check`` context the output checker needs (set bounds, kind).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Stream keys: one per workload and per purpose, so workloads never share draws.
_WORKLOAD_KEY = {"solve-box": 1, "solve-ellipsoid": 2, "verify-small": 3}
_GRAPH, _SET = 1, 2


def _rng(seed: int, workload: str, slot: int, purpose: int) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), _WORKLOAD_KEY[workload], slot, purpose])
    return np.random.default_rng(ss)


def _dump(obj: dict) -> str:
    # same layout as the package's own writers (sorted keys, indent 2)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def gnm_graph(rng: np.random.Generator, n: int, p: float, directed: bool = False,
              w_low: float = 0.5, w_high: float = 1.5) -> list[list]:
    """Random graph with exactly round(p * n(n-1)/2) edges (the G(n, m) model
    at the edge count G(n, p) expects), uniform weights in [w_low, w_high].
    Edges are 1-based ``[i, j, w]``; directed graphs get a random orientation.
    A fixed edge count keeps the problem size the same across seeds."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = int(round(p * len(pairs)))
    chosen = np.sort(rng.choice(len(pairs), size=m, replace=False))
    weights = rng.uniform(w_low, w_high, size=m)
    flips = rng.random(m) < 0.5
    edges = []
    for idx, w, flip in zip(chosen, weights, flips):
        i, j = pairs[idx]
        if directed and flip:
            i, j = j, i
        edges.append([i + 1, j + 1, float(w)])
    return edges


def allequal_clauses(rng: np.random.Generator, n: int, k: int, m: int,
                     w_low: float = 0.5, w_high: float = 1.5) -> list[dict]:
    """m clauses of arity k over distinct variables, random negations."""
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=k, replace=False)
        signs = np.where(rng.random(k) < 0.5, 1, -1)
        clauses.append({"literals": [int(s * (v + 1)) for v, s in zip(vars_, signs)],
                        "weight": float(rng.uniform(w_low, w_high))})
    return clauses


def box_set(w0: np.ndarray, width: float) -> dict:
    """{(1-width) w0 <= w <= (1+width) w0} as polyhedral rows (w >= l, -w >= -u)."""
    m = len(w0)
    eye = np.eye(m)
    lower = (1.0 - width) * w0
    upper = (1.0 + width) * w0
    return {"kind": "polyhedral", "A": np.vstack([eye, -eye]).tolist(),
            "b": np.concatenate([lower, -upper]).tolist()}


def ellipsoid_set(rng: np.random.Generator, w0: np.ndarray, spread: float) -> dict:
    """Diagonal ellipsoid around w0: Q = diag(q), q ~ U(0.5, 1.5), with the
    radius chosen so each semi-axis is at most ``spread`` times its center."""
    q = rng.uniform(0.5, 1.5, size=len(w0))
    a = float(np.min((spread * w0) ** 2 / q))
    return {"kind": "ellipsoidal", "w0": w0.tolist(), "Q": np.diag(q).tolist(), "a": a}


def wasserstein_set(rng: np.random.Generator, w0: np.ndarray, scenarios: int,
                    radius: float, jitter: float = 0.3) -> dict:
    """Transport ball around a uniform empirical distribution whose support
    is w0 plus jittered copies (l1 ground metric)."""
    pts = [w0]
    for _ in range(scenarios - 1):
        pts.append(np.maximum(0.0, w0 * (1.0 + rng.uniform(-jitter, jitter, size=len(w0)))))
    return {"kind": "wasserstein", "support": np.stack(pts).tolist(),
            "empirical": [1.0 / scenarios] * scenarios, "radius": radius,
            "metric": "l1"}


def _set_for(set_kind: str, rng: np.random.Generator, w0: np.ndarray) -> dict:
    if set_kind == "box":
        return box_set(w0, 0.2)
    if set_kind == "ellipsoid":
        return ellipsoid_set(rng, w0, 0.5)
    return wasserstein_set(rng, w0, scenarios=4, radius=0.3)


# Job templates per workload: (command, instance kind, size, tiny size, set
# kind).  Sizes are (n, p) for graphs and (n, k, m) for all-equal clauses;
# the tiny sizes serve warm-up jobs and the self-test.  Slots cycle through
# the template list; every slot gets fresh draws.
WORKLOADS = {
    "solve-box": [("solve", "maxcut", (40, 0.3), (8, 0.5), "box")],
    "solve-ellipsoid": [("solve", "maxcut", (60, 0.5), (8, 0.5), "ellipsoid"),
                        ("solve", "dicut", (50, 0.5), (8, 0.5), "ellipsoid"),
                        ("solve", "allequal", (30, 3, 60), (8, 3, 12), "ellipsoid")],
    "verify-small": [("verify", "maxcut", (12, 0.5), (6, 0.5), "box"),
                     ("verify", "maxcut", (12, 0.5), (6, 0.5), "wasserstein")],
}


# Slots below CORE[workload] are drawn from SUITE_SEED, the same on every
# run; the rest from the run's seed.  solve-ellipsoid needs the fixed suite:
# its job times vary about +-55% from instance to instance (the ascent's
# sweep count), so 21 fresh instances a run would spread a run's throughput
# by ~18% between seeds.
SUITE_SEED = 20240603
CORE = {"solve-box": 0, "solve-ellipsoid": 18, "verify-small": 0}


def make_job(workload: str, seed: int, slot: int, tiny: bool = False) -> tuple[dict, dict, dict]:
    """Command metadata, instance dict and spec dict for one job slot."""
    templates = WORKLOADS[workload]
    command, kind, size, tiny_size, set_kind = templates[slot % len(templates)]
    if tiny:
        size = tiny_size
    if slot < CORE[workload]:
        seed = SUITE_SEED
    g = _rng(seed, workload, slot, _GRAPH)
    s = _rng(seed, workload, slot, _SET)
    if kind == "allequal":
        n, k, m = size
        clauses = allequal_clauses(g, n, k, m)
        inst = {"kind": kind, "n": n, "clauses": clauses}
        w0 = np.array([c["weight"] for c in clauses])
    else:
        n, p = size
        edges = gnm_graph(g, n, p, directed=(kind == "dicut"))
        inst = {"kind": kind, "n": n, "edges": edges}
        w0 = np.array([e[2] for e in edges])
    return {"command": command, "kind": kind, "set": set_kind}, inst, _set_for(set_kind, s, w0)


def write_jobs(workload: str, seed: int, slots: int, outdir: str,
               tiny: bool = False, prefix: str = "job") -> tuple[list[dict], str]:
    """Write ``slots`` jobs' inputs under ``outdir``.  Returns the job list
    and the sha256 of all input bytes in slot order."""
    os.makedirs(outdir, exist_ok=True)
    digest = hashlib.sha256()
    jobs = []
    for slot in range(slots):
        meta, inst, spec = make_job(workload, seed, slot, tiny)
        paths = {}
        for name, obj in (("instance", inst), ("spec", spec)):
            path = os.path.join(outdir, f"{prefix}{slot:02d}.{name}.json")
            data = _dump(obj).encode()
            with open(path, "wb") as fh:
                fh.write(data)
            digest.update(data)
            paths[name] = path
        jobs.append({**meta, "slot": slot, **paths, "check": check_context(inst, spec)})
    return jobs, digest.hexdigest()


def check_context(inst: dict, spec: dict) -> dict:
    """What the output checker needs to know about a job's inputs."""
    ctx = {"kind": inst["kind"], "set": spec["kind"]}
    if spec["kind"] == "polyhedral":
        m = len(spec["A"][0])
        ctx["lower"] = spec["b"][:m]
        ctx["upper"] = [-v for v in spec["b"][m:]]
    elif spec["kind"] == "ellipsoidal":
        ctx["w0"] = spec["w0"]
        ctx["q"] = [spec["Q"][i][i] for i in range(len(spec["w0"]))]
        ctx["a"] = spec["a"]
    return ctx
