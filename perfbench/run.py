"""robustcut benchmark: one workload, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``rationale.json`` beside this file):
``solve-box``, ``solve-ellipsoid`` and ``verify-small``.  Each run

1. times ``SETUP_PROBES`` fresh processes from spawn until ``robustcut`` is
   imported from the checkout's ``src`` and a first LAPACK call returned
   (``setup_s`` is their median);
2. writes the workload's inputs from ``--seed`` with the benchmark's own
   generator (:mod:`inputs`);
3. starts :mod:`worker`, which runs the jobs through ``robustcut.cli.main``
   in one process as a closed loop with one client, for whole cycles over
   the job list, about ``--seconds`` long; BLAS is capped at one thread via
   ``ROBUSTCUT_THREADS=1``;
4. checks every job's exit code and report (:mod:`checker`);
5. prints every metric by name and unit, then, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.  With
   ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
   the worker runs every job once untraced and once traced
   (:mod:`tracer`) and the metrics are the per-layer ones.

The full record (machine, input and report digests, per-job times and
failures) goes to ``.perfbench_work/<workload>/result.json``.  The run exits
non-zero without a result when the package sources are missing or the
worker does not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import inputs  # noqa: E402
from tracer import BUCKET_METRICS  # noqa: E402

# Distinct jobs per run: one cycle over them takes about 30 s on a 2-core
# Xeon.  job_s.tail needs at least 11.
SLOTS = {"solve-box": 40, "solve-ellipsoid": 21, "verify-small": 14}
TINY_SLOTS = 11
SETUP_PROBES = 5
DEADLINE_S = 170.0   # the whole run must end within 180 s
TAIL_BEYOND = 10     # job_s.tail: highest percentile with this many jobs beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COUNTERS = ("numerics.simplex.pivots", "sdp.ascent.sweeps", "robust.iterations",
            "oracle.brute.enumerated")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)  # let the package's documented cap decide
    env["ROBUSTCUT_THREADS"] = "1"
    return env


def measure_setup(src: Path, env: dict, probes: int) -> list[float]:
    """Seconds from spawning a probe until it reports ``ready``."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(src)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def _argv(job: dict, report_dir: Path) -> list[str]:
    out = report_dir / f"job{job['slot']:02d}.report.json"
    return [job["command"], "--instance", job["instance"], "--spec", job["spec"],
            "--out", str(out)]


def run_worker(plan: dict, work: Path, env: dict, timeout: float) -> dict:
    plan_path, result_path = work / "plan.json", work / "worker_result.json"
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                                   str(plan_path), str(result_path)],
                                  stdout=subprocess.DEVNULL, stderr=log, env=env,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = (work / "worker.log").read_text()[-1500:]
        raise BenchError(f"worker exited {proc.returncode}: {tail}")
    with open(result_path) as fh:
        return json.load(fh)


def evaluate(jobs: list[dict], records: list, reports: dict) -> tuple[list[dict], dict]:
    """Check every job record.  Returns (failures, {slot: (value, expected)}).

    The check is a function of (slot, exit code, report bytes), so records
    that repeat all three share one check.  A slot whose report bytes change
    between cycles fails: reports are deterministic for fixed inputs.
    """
    ctx = {j["slot"]: j["check"] for j in jobs}
    cache: dict = {}
    first: dict = {}
    values: dict = {}
    failures = []
    for idx, (slot, _cycle, rc, _wall, digest, _traced) in enumerate(records):
        key = (slot, rc, digest)
        if key not in cache:
            cache[key] = checker.check_report(ctx[slot], rc, reports.get(digest))
        why, value, expected = cache[key]
        why = list(why)
        if first.setdefault(slot, digest) != digest:
            why.append("report bytes differ from this slot's first report")
        if why:
            failures.append({"job": idx, "slot": slot, "why": why})
        if value is not None:
            values.setdefault(slot, (value, expected))
    return failures, values


def end_to_end(records: list, values: dict, setup: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics and the notes printed beside them."""
    per_slot: dict = {}
    for slot, _c, _rc, wall, _d, _t in records:
        per_slot.setdefault(slot, []).append(wall)
    med = sorted(statistics.median(v) for v in per_slot.values())
    n = len(med)
    tail_idx = max(0, n - TAIL_BEYOND - 1)
    value_sum = sum(v for v, _ in values.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": n / sum(med),
        "job_s.p50": statistics.median(med),
        "job_s.tail": med[tail_idx],
        "relaxed_value": value_sum,
        "round_ratio": (sum(e for _, e in values.values()) / value_sum) if value_sum else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    notes = {
        "job_s.tail": f"p{100.0 * (tail_idx + 1) / n:.1f} of {n} per-job medians "
                      f"({len(records)} jobs run)",
        "setup_s": f"median of {len(setup)} probes: "
                   + ", ".join(f"{t:.4f}" for t in setup),
        "jobs_per_s": f"{n} distinct jobs / sum of their median times",
    }
    return metrics, notes


def per_layer(records: list, trace: dict) -> tuple[dict, dict, bool]:
    """Per-layer metrics (per traced job), the notes printed beside them, and
    whether the layer self times add up to the traced job time."""
    n = len(records)
    metrics = {}
    for bucket, (time_name, calls_name) in BUCKET_METRICS.items():
        metrics[time_name] = trace["self_s"].get(bucket, 0.0) / n
        if calls_name:
            metrics[calls_name] = trace["calls"].get(bucket, 0) / n
    for name in COUNTERS:
        metrics[name] = trace["counts"].get(name, 0) / n
    lp_calls = trace["calls"].get("numerics.simplex", 0)
    metrics["numerics.simplex.pivots_per_call"] = (
        trace["counts"].get("numerics.simplex.pivots", 0) / lp_calls if lp_calls else 0.0)
    untraced = sum(r[3] for r in records)
    traced = sum(r[5] for r in records)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    self_total = sum(trace["self_s"].values())
    notes = {"trace.sum": f"layer self times {self_total:.6f} s vs traced job time "
                          f"{traced:.6f} s over {n} jobs"}
    sums_ok = abs(self_total - traced) <= 0.01 * traced + 1e-4 * n
    return metrics, notes, sums_ok


def machine_record(worker: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": worker.get("numpy"), "blas": worker.get("blas"),
            "blas_thread_cap": worker.get("threads_env"),
            "loop": "closed, 1 client"}


def declared_metrics() -> dict:
    """Metric name -> unit, per mode, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    t_begin = time.perf_counter()
    src = ROOT / "src"
    if not (src / "robustcut" / "__init__.py").is_file():
        raise BenchError(f"no robustcut sources under {src}")
    units = declared_metrics()[1 if trace else 0]
    env = _child_env()
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "reports").mkdir(parents=True)

    setup = measure_setup(src, env, SETUP_PROBES)
    slots = TINY_SLOTS if tiny else SLOTS[workload]
    jobs, inputs_sha = inputs.write_jobs(workload, seed, slots, str(work / "inputs"), tiny)
    warm, _ = inputs.write_jobs(workload, seed, len(inputs.WORKLOADS[workload]),
                                str(work / "inputs"), tiny=True, prefix="warmup")
    plan = {"src": str(src), "seconds": seconds, "trace": trace,
            "jobs": [{"slot": j["slot"], "argv": _argv(j, work / "reports")} for j in jobs],
            "warmup": [{"slot": j["slot"], "argv": _argv(j, work / "reports")} for j in warm]}
    remaining = DEADLINE_S - (time.perf_counter() - t_begin)
    result = run_worker(plan, work, env, remaining)
    shutil.rmtree(work / "inputs", ignore_errors=True)

    records, reports = result["records"], result["reports"]
    failures, values = evaluate(jobs, records, reports)
    slot_digests = {}
    for slot, _c, _rc, _w, digest, _t in records:
        slot_digests.setdefault(slot, digest)
    reports_sha = hashlib.sha256("".join(slot_digests[s] for s in sorted(slot_digests))
                                 .encode()).hexdigest()
    correct = not failures
    if trace:
        metrics, notes, sums_ok = per_layer(records, result["trace"])
        correct = correct and sums_ok
        if not sums_ok:
            failures.append({"job": None, "slot": None,
                             "why": ["layer self times do not add up to the traced job time"]})
    else:
        metrics, notes = end_to_end(records, values, setup, result["peak_rss_kb"])
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                         "but not declared in BENCHMARK.json, or the reverse")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "correct": correct, "attempted": len(records),
        "failed": len({f["job"] for f in failures if f["job"] is not None}),
        "failures": failures[:50], "cycles": result["cycles"], "loop_s": result["loop_s"],
        "inputs_sha256": inputs_sha, "reports_sha256": reports_sha,
        "report_sha256_by_slot": [slot_digests[s] for s in sorted(slot_digests)],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "notes": notes, "machine": machine_record(result),
        "job_records": [{"slot": r[0], "cycle": r[1], "rc": r[2], "s": r[3],
                         "traced_s": r[5]} for r in records],
        "trace_missing": result.get("trace_missing", []),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances and 11 jobs (self-test only)")
    args = ap.parse_args(argv)
    try:
        rec = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    with open(ROOT / ".perfbench_work" / args.workload / "result.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    m = rec["machine"]
    print(f"# workload {rec['workload']} seed {rec['seed']} trace {int(rec['trace'])}: "
          f"{rec['attempted']} jobs in {rec['cycles']} cycle(s), {rec['loop_s']:.2f} s; "
          f"closed loop, 1 client")
    print(f"# machine: {m['nproc']} cpu {m['cpu']}; python {m['python']}, numpy "
          f"{m['numpy']}, {m['blas']}; threads {m['blas_thread_cap']}")
    for name, v in rec["metrics"].items():
        note = rec["notes"].get(name)
        print(f"{name} = {v['value']!r} {v['unit']}" + (f"  ({note})" if note else ""))
    failed_frac = rec["failed"] / rec["attempted"]
    print(f"failed_frac = {failed_frac!r} ratio  ({rec['failed']} of {rec['attempted']} jobs)")
    if "trace.sum" in rec["notes"]:
        print(f"# {rec['notes']['trace.sum']}")
    print(f"# inputs_sha256 {rec['inputs_sha256']}")
    print(f"# reports_sha256 {rec['reports_sha256']}")
    for f in rec["failures"][:5]:
        print(f"# FAILED job {f['job']} slot {f['slot']}: {'; '.join(f['why'])}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
