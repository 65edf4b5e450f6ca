"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces public functions of ``robustcut`` modules with wrappers,
in every ``robustcut`` namespace that binds them (so a call through
``from .uncertainty import worst_case_weights`` in ``robust`` is caught, as is
a module's call of its own function).  Each wrapper records a span in memory:
span id, parent span, layer bucket, job id, start, end, the time its child
spans covered, and a work count read from the public return value.  Nothing
in the package is edited; :meth:`Tracer.uninstall` restores every binding.

A span's self time is its duration minus its children's durations.  The job
itself is the root span (bucket ``cli``), so the self times of all buckets
add up to the traced job time.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function, bucket).  A bucket is one layer metric group.
TARGETS = [
    ("robustcut.numerics", "simplex_solve", "numerics.simplex"),
    ("robustcut.uncertainty", "worst_case_weights", "uncertainty.oracle"),
    ("robustcut.uncertainty", "worst_case_mean", "uncertainty.oracle"),
    ("robustcut.uncertainty", "validate_set", "uncertainty.validate"),
    ("robustcut.uncertainty", "load_spec", "uncertainty.load"),
    ("robustcut.uncertainty", "sample_feasible", "uncertainty.sample"),
    ("robustcut.sdp", "solve_elliptope_max", "sdp.ascent"),
    ("robustcut.sdp", "term_gram_coefficients", "sdp.coef"),
    ("robustcut.sdp", "objective_gradient", "sdp.gradient"),
    ("robustcut.robust", "solve_robust", "robust"),
    ("robustcut.robust", "inner_worst", "robust"),
    ("robustcut.rounding", "best_of_roundings", "rounding"),
    ("robustcut.rounding", "round_cut", "rounding"),
    ("robustcut.rounding", "hyperplane_round", "rounding"),
    ("robustcut.rounding", "expected_cut_exact", "rounding"),
    ("robustcut.rounding", "expected_dicut_exact", "rounding"),
    ("robustcut.rounding", "expected_allequal_exact", "rounding"),
    ("robustcut.rounding", "sign_round_psd", "rounding"),
    ("robustcut.rounding", "allequal_round", "rounding"),
    ("robustcut.oracle", "brute_force_robust", "oracle.brute"),
    ("robustcut.oracle", "certify_sandwich", "oracle.certify"),
    ("robustcut.instances", "load_instance", "instances.load"),
    ("robustcut.instances", "term_coefficients", "instances.term_coef"),
]
ROOT = "cli"

# bucket -> (self-time metric, calls metric or None)
BUCKET_METRICS = {
    "numerics.simplex": ("numerics.simplex_s", "numerics.simplex.calls"),
    "uncertainty.oracle": ("uncertainty.oracle_s", "uncertainty.oracle.calls"),
    "uncertainty.validate": ("uncertainty.validate_s", "uncertainty.validate.calls"),
    "uncertainty.load": ("uncertainty.load_s", None),
    "uncertainty.sample": ("uncertainty.sample_s", None),
    "sdp.ascent": ("sdp.ascent_s", "sdp.ascent.calls"),
    "sdp.coef": ("sdp.coef_s", "sdp.coef.calls"),
    "sdp.gradient": ("sdp.gradient_s", "sdp.gradient.calls"),
    "robust": ("robust.self_s", None),
    "rounding": ("rounding_s", "rounding.calls"),
    "oracle.brute": ("oracle.brute_s", None),
    "oracle.certify": ("oracle.certify.self_s", None),
    "instances.load": ("instances.load_s", None),
    "instances.term_coef": ("instances.term_coef_s", "instances.term_coef.calls"),
    ROOT: ("cli.self_s", None),
}


def _work_count(name: str, result) -> tuple[str, int] | None:
    """Work counter read from a public return value, or None."""
    if name == "simplex_solve":
        return "numerics.simplex.pivots", int(result.iterations)
    if name == "solve_elliptope_max":
        return "sdp.ascent.sweeps", int(result[1].iterations)
    if name == "solve_robust":
        return "robust.iterations", int(result.report.iterations)
    if name == "brute_force_robust":
        return "oracle.brute.enumerated", int(result.enumerated)
    return None


# span record fields
SID, PARENT, BUCKET, JOB, T0, T1, CHILD, COUNT_NAME, COUNT = range(9)


class Tracer:
    """Collects spans for the jobs run between :meth:`install` and
    :meth:`uninstall`.  One tracer per traced run; not thread-safe."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.job = -1

    def _wrap(self, fn, name: str, bucket: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), parent[SID] if parent else -1, bucket, self.job,
                   0.0, 0.0, 0.0, None, 0]
            spans.append(rec)
            stack.append(rec)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += rec[T1] - rec[T0]
            counted = _work_count(name, result)
            if counted is not None:
                rec[COUNT_NAME], rec[COUNT] = counted
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "robustcut" or key.startswith("robustcut."))]
        self.missing = []
        for modname, name, bucket in TARGETS:
            home = sys.modules.get(modname)
            orig = getattr(home, name, None) if home is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{name}")
                continue
            wrapped = self._wrap(orig, name, bucket)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def run_job(self, job: int, fn, *args):
        """Run ``fn(*args)`` as the root span of job ``job``; returns
        (result, wall seconds measured outside the root span)."""
        self.job = job
        root = self._wrap(fn, ROOT, ROOT)
        self.install()
        try:
            t0 = time.perf_counter()
            result = root(*args)
            wall = time.perf_counter() - t0
        finally:
            self.uninstall()
        return result, wall

    def summary(self) -> dict:
        """Totals over all spans: self seconds and entries per bucket (an
        entry is a span whose parent is in another bucket), plus work
        counters."""
        by_sid = {rec[SID]: rec for rec in self.spans}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for rec in self.spans:
            b = rec[BUCKET]
            self_s[b] = self_s.get(b, 0.0) + (rec[T1] - rec[T0] - rec[CHILD])
            parent = by_sid.get(rec[PARENT])
            if parent is None or parent[BUCKET] != b:
                calls[b] = calls.get(b, 0) + 1
            if rec[COUNT_NAME] is not None:
                counts[rec[COUNT_NAME]] = counts.get(rec[COUNT_NAME], 0) + rec[COUNT]
        return {"self_s": self_s, "calls": calls, "counts": counts}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,bucket,job,start_s,end_s,child_s,count_name,count\n")
            for r in self.spans:
                fh.write(f"{r[SID]},{r[PARENT]},{r[BUCKET]},{r[JOB]},{r[T0]!r},"
                         f"{r[T1]!r},{r[CHILD]!r},{r[COUNT_NAME] or ''},{r[COUNT]}\n")
