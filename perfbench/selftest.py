"""Self-test of the benchmark: negative controls and the output contract.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

* a verify job run with the hidden ``--corrupt-value 1.0`` flag exits 3 and
  is counted as failed;
* a report with an injected NaN, or with worst-case weights outside the
  box, is rejected by the checker;
* a tiny-size run of every workload, untraced and traced, prints every
  metric declared in ``BENCHMARK.json`` with its unit and ends with the
  result line, and the traced run shows the expected structure (no LPs on
  solve-ellipsoid, 2^(n-1) brute-force candidates per verify job);
* the benchmark exits non-zero without a result when the package sources
  are missing.

Temporary files go to ``.perfbench_work/selftest``.  Exit status 0 means every
test passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

TMP_DIR = ROOT / ".perfbench_work" / "selftest"


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _cli():
    os.environ["ROBUSTCUT_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from robustcut import cli

    return cli


def _run_cli(job: dict, *extra: str) -> tuple[int, bytes]:
    out = TMP_DIR / f"job{job['slot']}.report.json"
    if out.exists():
        out.unlink()
    with contextlib.redirect_stderr(io.StringIO()):
        rc = _cli().main([job["command"], "--instance", job["instance"],
                          "--spec", job["spec"], "--out", str(out), *extra])
    return rc, out.read_bytes() if out.exists() else b""


def test_corrupt_value_counts_as_failed():
    jobs, _ = inputs.write_jobs("verify-small", 1, 1, str(TMP_DIR / "in"), tiny=True)
    rc, text = _run_cli(jobs[0], "--corrupt-value", "1.0")
    expect(rc == 3, f"corrupted verify exited {rc}, expected 3")
    digest = hashlib.sha256(text).hexdigest()
    failures, _ = run.evaluate(jobs, [[0, 0, rc, 0.1, digest, None]],
                               {digest: text.decode()})
    expect(len(failures) == 1, f"corrupted verify not counted as failed: {failures}")
    rc, text = _run_cli(jobs[0])
    expect(rc == 0, f"clean verify exited {rc}")
    expect(not checker.check_report(jobs[0]["check"], rc, text)[0], "clean verify rejected")


def test_checker_rejects_nan_and_outside_set():
    jobs, _ = inputs.write_jobs("solve-box", 1, 1, str(TMP_DIR / "in"), tiny=True)
    rc, text = _run_cli(jobs[0])
    ctx = jobs[0]["check"]
    why, value, _ = checker.check_report(ctx, rc, text)
    expect(rc == 0 and not why and value is not None, f"clean solve rejected: {why}")
    report = json.loads(text)
    report["solver"]["value"] = float("nan")
    why, _, _ = checker.check_report(ctx, 0, json.dumps(report))
    expect(any("non-finite" in w for w in why), f"NaN report accepted: {why}")
    report = json.loads(text)
    report["worst_weights"][0] = ctx["upper"][0] * 1.01
    why, _, _ = checker.check_report(ctx, 0, json.dumps(report))
    expect(any("outside" in w for w in why), f"weights outside the box accepted: {why}")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tiny_runs_print_every_metric():
    declared = run.declared_metrics()
    for workload in sorted(run.SLOTS):
        for trace in (0, 1):
            proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--tiny")
            expect(proc.returncode == 0, f"{workload} trace {trace}: exit "
                   f"{proc.returncode}: {proc.stderr[-800:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            units = declared[trace]
            expect(set(result["metrics"]) == set(units), f"{workload}: metric names differ")
            for name, unit in units.items():
                expect(result["metrics"][name]["unit"] == unit, f"{name}: unit")
                expect(any(line.startswith(f"{name} = ") and f" {unit}" in line
                           for line in lines[:-1]), f"{workload}: {name} not printed")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if workload == "solve-ellipsoid":
                    expect(m["numerics.simplex.calls"] == 0, "LPs on solve-ellipsoid")
                if workload == "verify-small":
                    n = inputs.WORKLOADS[workload][0][3][0]
                    expect(m["oracle.brute.enumerated"] == 2 ** (n - 1),
                           f"brute force enumerated {m['oracle.brute.enumerated']}")
                else:
                    expect(m["oracle.brute.enumerated"] == 0, "brute force on a solve job")


def test_missing_sources_exit_nonzero():
    bare = TMP_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve-box", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    expect(proc.returncode != 0, "run without sources exited 0")
    expect('"correct"' not in proc.stdout, "run without sources printed a result")


def main() -> int:
    shutil.rmtree(TMP_DIR, ignore_errors=True)
    TMP_DIR.mkdir(parents=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    shutil.rmtree(TMP_DIR, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
