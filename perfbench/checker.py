"""Output checker for benchmark jobs.

A job passes when it exited 0 and its JSON report satisfies the guarantees
the CLI claims:

* every number in the report is finite;
* max-cut: expected rounded value >= 0.878 * solver.value (up to
  1e-9 * max(1, |value|));
* solve: ``worst_weights`` lies in the input set (box bounds, or the
  ellipsoid form (w-w0)^T Q^{-1} (w-w0) <= a * (1 + 1e-9));
* verify: ``certification.ok`` is true.

The checker reads only the report and the job's check context written by
:mod:`inputs`; it imports nothing from ``robustcut``.
"""

from __future__ import annotations

import json
import math

MAXCUT_RATIO = 0.878
REL_TOL = 1e-9


def _non_finite(obj, path: str = "$") -> list[str]:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    return [path]


def _expected_value(report: dict):
    """Exact expected rounded value at the worst weights, or None."""
    if report.get("command") == "verify":
        for c in report.get("certification", {}).get("checks", []):
            if c.get("name") == "lower_sandwich[worst]":
                return c.get("lhs")
        return None
    return report.get("rounding", {}).get("expected_exact")


def _in_set(w: list, ctx: dict) -> str | None:
    """Why ``w`` is outside the job's uncertainty set, or None."""
    if ctx["set"] == "polyhedral":
        lower, upper = ctx["lower"], ctx["upper"]
        if len(w) != len(lower):
            return f"worst_weights: length {len(w)} != {len(lower)}"
        for i, (x, lo, hi) in enumerate(zip(w, lower, upper)):
            tol = REL_TOL * max(1.0, abs(lo), abs(hi))
            if x < lo - tol or x > hi + tol:
                return f"worst_weights[{i}] = {x!r} outside [{lo!r}, {hi!r}]"
        return None
    if ctx["set"] == "ellipsoidal":
        w0, q, a = ctx["w0"], ctx["q"], ctx["a"]
        if len(w) != len(w0):
            return f"worst_weights: length {len(w)} != {len(w0)}"
        form = sum((x - c) ** 2 / qi for x, c, qi in zip(w, w0, q))
        if form > a * (1.0 + REL_TOL):
            return f"worst_weights: ellipsoid form {form!r} > a = {a!r}"
        return None
    return None


def check_report(ctx: dict, rc: int, text: bytes | str | None) -> tuple[list[str], float | None, float | None]:
    """Check one job.  Returns (failures, solver value, expected rounded
    value); an empty failure list means the job passed."""
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    if not text:
        return failures + ["no report"], None, None
    try:
        report = json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        return failures + [f"report is not JSON: {exc}"], None, None
    bad = _non_finite(report)
    if bad:
        failures.append(f"non-finite numbers at {', '.join(bad[:3])}")
    value = report.get("solver", {}).get("value")
    expected = _expected_value(report)
    if not isinstance(value, (int, float)) or not isinstance(expected, (int, float)):
        return failures + ["missing solver.value or expected rounded value"], None, None
    if ctx["kind"] == "maxcut":
        floor = MAXCUT_RATIO * value - REL_TOL * max(1.0, abs(value))
        if not expected >= floor:
            failures.append(f"expected rounded value {expected!r} < 0.878 * {value!r}")
    if report.get("command") == "verify":
        if report.get("certification", {}).get("ok") is not True:
            failures.append("certification.ok is not true")
    else:
        w = report.get("worst_weights")
        why = _in_set(w, ctx) if isinstance(w, list) else "worst_weights missing"
        if why:
            failures.append(why)
    return failures, float(value), float(expected)
