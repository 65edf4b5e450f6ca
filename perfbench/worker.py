"""Benchmark worker: runs one workload's jobs through ``robustcut.cli.main``
in this process, as a closed loop with one client (the next job starts when
the previous one returns).

Usage: ``python3 worker.py PLAN.json RESULT.json`` (started by ``run.py``).

The plan names the checkout's ``src`` directory, the jobs' CLI arguments,
a warm-up job, the measuring time, and whether this is the traced run.  The
worker imports ``robustcut`` before numpy so the package's documented
``ROBUSTCUT_THREADS`` cap reaches BLAS, makes one LAPACK call, runs the
warm-up job untimed, then runs whole cycles over the job list for about the
requested time.  It records each job's exit code, wall time and report
digest; in the traced run every job runs once untraced and once traced.
Checking the reports is left to ``run.py`` so that this process's peak RSS
is the program's own.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _import_package(src: str):
    sys.path.insert(0, src)
    import robustcut
    from robustcut import cli

    where = os.path.realpath(robustcut.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"robustcut imported from {where}, not from {src}")
    return cli


def _call(fn, argv: list[str]) -> int:
    """Run one CLI job; an escaping exception is a failed job, not a crash."""
    try:
        return int(fn(argv))
    except Exception:  # a traceback is a job failure the checker must count
        traceback.print_exc()
        return -1


def _read_report(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _run_once(run, job: dict) -> tuple[int, float, bytes]:
    out = job["argv"][job["argv"].index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    rc, wall = run(job["argv"])
    return rc, wall, _read_report(out)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli = _import_package(plan["src"])
    import numpy as np

    np.linalg.eigvalsh(np.eye(4) + 0.5)  # first LAPACK call, outside timing

    def plain(argv):
        t0 = time.perf_counter()
        rc = _call(cli.main, argv)
        return rc, time.perf_counter() - t0

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()

    def traced(argv):
        rc, wall = tracer.run_job(len(records), _call, cli.main, argv)
        return rc, wall

    for job in plan["warmup"]:
        _run_once(plain, job)

    jobs = plan["jobs"]
    records = []   # [slot, cycle, rc, seconds, report sha256, traced seconds or None]
    reports = {}   # sha256 -> report text (one copy per distinct report)
    t_start = time.perf_counter()
    cycles = 1
    cycle = 0
    while cycle < cycles:
        for job in jobs:
            rc, wall, text = _run_once(plain, job)
            digest = hashlib.sha256(text).hexdigest()
            reports.setdefault(digest, text.decode("utf-8", "replace"))
            rec = [job["slot"], cycle, rc, wall, digest, None]
            if tracer is not None:
                rc_t, wall_t, text_t = _run_once(traced, job)
                rec[5] = wall_t
                if rc_t != rc or hashlib.sha256(text_t).hexdigest() != digest:
                    rec[2] = rc if rc != 0 else -2  # traced run changed the output
            records.append(rec)
        cycle += 1
        if cycle == 1:
            # whole cycles only, as many as fit the requested time (at least one)
            first = time.perf_counter() - t_start
            cycles = max(1, round(plan["seconds"] / max(first, 1e-9)))
    loop_s = time.perf_counter() - t_start

    result = {
        "records": records,
        "reports": reports,
        "cycles": cycles,
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads_env": {k: os.environ.get(k) for k in
                        ("ROBUSTCUT_THREADS", "OPENBLAS_NUM_THREADS",
                         "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": _blas_info(np),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace_missing"] = tracer.missing
        tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.csv"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _blas_info(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
