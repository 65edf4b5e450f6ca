"""Command-line front end.

Subcommands mirror the pipeline stages: ``solve`` (relaxation -> factor ->
rounding -> report), ``verify`` (solve + certification against the
brute-force oracle), ``round`` (rounding statistics for a solved factor),
and ``gen`` (reproducible random instances and uncertainty sets); wall-clock
timings go to stderr only.

Reports are JSON with sorted keys and no wall-clock content, so identical
inputs + seed reproduce them byte-for-byte.  Exit codes: 0 success, 1 parse
or validation error or out of memory, 2 solver non-convergence, 3
certification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import gen as genmod
from .instances import (ALLEQUAL, DICUT, MAXCUT, DomainError, Instance,
                        ParseError, instance_to_json, load_instance,
                        term_coefficients)
from .numerics import InfeasibleError, NumericError, UnboundedError
from .oracle import certify_sandwich
from .robust import SaddleSolution, SolverConfig, solve_robust
from .rounding import (APPROX_RATIO_MAXCUT, CROSSOVER_GAMMA, expected_rounded_value,
                       large_cut_ratio, negative_weight_bound, rounding_draws)
from .sdp import term_gram_coefficients
from .uncertainty import (SINGLETON, UncertaintySpec, load_spec,
                          singleton_spec, spec_to_json)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_CONVERGE = 2
EXIT_CERT_FAIL = 3


class _CliError(Exception):
    """Raised for anything that should terminate with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; contract says 1
        raise _CliError(message)


def _read(path: str) -> tuple[bytes, str]:
    """A file's bytes and their sha256, read once for parsing and hashing."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def _solve(args) -> tuple[Instance, UncertaintySpec, SaddleSolution, dict]:
    """Read the instance and the set (default: the singleton at the nominal
    weights), solve under the solver flags with the time on stderr, and
    return them with the report's head: command, file digests and seed."""
    data, digest = _read(args.instance)
    inst = load_instance(args.instance, data)
    head = {"command": args.cmd, "instance_digest": digest, "spec_digest": None,
            "seed": args.seed}
    if args.spec:
        data, head["spec_digest"] = _read(args.spec)
        spec = load_spec(args.spec, data)
    else:
        spec = singleton_spec(inst.nominal_weights())
    cfg = SolverConfig(gap_tol=args.gap_tol, max_iter=args.max_iter,
                       rank=args.rank, restarts=args.restarts, seed=args.seed)
    t0 = time.perf_counter()
    sol = solve_robust(inst, spec, cfg)
    _stderr_time("solve", time.perf_counter() - t0)
    return inst, spec, sol, head


def _solver_block(sol: SaddleSolution) -> dict:
    rep = sol.report
    return {"value": sol.value, "iterations": rep.iterations,
            "residual": rep.residual, "converged": rep.converged,
            "restarts": rep.restarts, "restart": rep.restart,
            "stop": rep.stop, "gap": rep.gap, "trace": _trace(sol)}


def _trace(sol: SaddleSolution) -> dict:
    """The solve's deterministic work counters."""
    return {"sweeps": sol.report.sweeps}


def _non_finite(obj, path: str = "") -> Optional[str]:
    """Path of the first non-finite number in a report, or None."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, v in items:
        bad = _non_finite(v, sub)
        if bad is not None:
            return bad
    return None


def _emit(report: dict, out: Optional[str]) -> None:
    bad = _non_finite(report)
    if bad is not None:
        raise NumericError(f"{bad}: non-finite number in the report")
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stderr_time(label: str, seconds: float) -> None:
    print(f"[time] {label}: {seconds:.3f}s", file=sys.stderr)


def _write_csv(path: str, inst: Instance, sol: SaddleSolution, cut) -> None:
    """Per-term table: endpoints/literals (1-based, as in instance files),
    worst weight, relaxed coefficient, rounded contribution."""
    coef = term_gram_coefficients(inst, sol.factor)
    contrib = term_coefficients(inst, np.asarray(cut))
    with open(path, "w") as fh:
        fh.write("term,spec,worst_weight,relaxed_coef,rounded_coef\n")
        if inst.kind == ALLEQUAL:
            labels = ["|".join(str(s * (v + 1)) for v, s in lits)
                      for lits, _ in inst.clauses]
        else:
            labels = [f"{i + 1}->{j + 1}" if inst.kind == DICUT else f"{i + 1}-{j + 1}"
                      for i, j, _ in inst.edges]
        for t, label in enumerate(labels):
            fh.write(f"{t},{label},{float(sol.worst[t])!r},"
                     f"{float(coef[t])!r},{float(contrib[t])!r}\n")


def cmd_solve(args) -> int:
    inst, _, sol, head = _solve(args)
    report = {
        **head,
        "kind": inst.kind,
        "n": inst.n,
        "m": inst.m,
        "solver": _solver_block(sol),
        "worst_weights": [float(w) for w in sol.worst],
    }
    if not sol.report.converged:
        _emit(report, args.out)
        return EXIT_NO_CONVERGE
    t0 = time.perf_counter()
    cuts, values, z = rounding_draws(inst, sol.factor, sol.worst, args.seed, args.trials)
    best = max(range(args.trials), key=values.__getitem__)  # the first best draw
    report["rounding"] = {
        "cut": [int(s) for s in cuts[best]], "value": values[best], "trial": best,
        "expected_exact": expected_rounded_value(inst, sol.factor, z, sol.worst)}
    if z is not None:
        report["rounding"]["seed_vector"] = [int(s) for s in z]
    _stderr_time("round", time.perf_counter() - t0)
    if args.csv:
        _write_csv(args.csv, inst, sol, cuts[best])
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, spec, sol, head = _solve(args)
    if args.corrupt_value:
        sol.value += args.corrupt_value  # negative-control hook for tests
    report = {
        **head,
        "kind": inst.kind,
        "n": inst.n,
        "solver": _solver_block(sol),
    }
    if not sol.report.converged:
        _emit(report, args.out)
        return EXIT_NO_CONVERGE
    t0 = time.perf_counter()
    cert = certify_sandwich(inst, spec, sol, seed=args.seed)
    _stderr_time("certify", time.perf_counter() - t0)
    report["certification"] = {
        "ok": cert.ok,
        "ratio": cert.ratio,
        "oracle_value": cert.oracle_value,
        "solver_value": cert.solver_value,
        "checks": [{"name": c.name, "passed": c.passed, "lhs": c.lhs, "rhs": c.rhs}
                   for c in cert.checks],
    }
    failures = not cert.ok
    if inst.kind == MAXCUT:
        report["appendix"] = _appendix_checks(inst, spec, sol)
        gates = [c for c in report["appendix"]["checks"] if c["gating"]]
        failures = failures or any(not c["passed"] for c in gates)
    _emit(report, args.out)
    return EXIT_CERT_FAIL if failures else EXIT_OK


def _appendix_checks(inst: Instance, spec: UncertaintySpec,
                     sol: SaddleSolution) -> dict:
    """Large-cut ratio diagnostics (informational) and the shifted guarantee
    for signed weights (gating, exact)."""
    coef = term_gram_coefficients(inst, sol.factor)
    total = float(np.sum(sol.worst))
    relaxed = float(coef @ sol.worst)
    checks = []
    info = {"relative_cut": None, "large_cut_ratio": None}
    if total > 0.0 and not inst.signed:
        a_tilde = relaxed / total
        info["relative_cut"] = a_tilde
        if a_tilde >= CROSSOVER_GAMMA:
            info["large_cut_ratio"] = large_cut_ratio(a_tilde)
    if inst.signed and spec.kind == SINGLETON:
        expected = expected_rounded_value(inst, sol.factor, None, sol.worst)
        w_minus = float(np.sum(np.minimum(sol.worst, 0.0)))
        ok = negative_weight_bound(expected, w_minus, sol.value)
        checks.append({"name": "shifted_signed_bound", "passed": bool(ok),
                       "lhs": expected - w_minus,
                       "rhs": APPROX_RATIO_MAXCUT * (sol.value - w_minus),
                       "gating": True})
    return {"checks": checks, **info}


def cmd_round(args) -> int:
    inst, _, sol, head = _solve(args)
    if not sol.report.converged:
        _emit({**head, "solver": _solver_block(sol)}, args.out)
        return EXIT_NO_CONVERGE
    _, per_trial, _ = rounding_draws(inst, sol.factor, sol.worst, args.seed,
                                     args.trials)
    report = {
        **head,
        "trials": args.trials,
        "solver": {"trace": _trace(sol)},
        "solver_value": sol.value,
        "per_trial": per_trial,
        "best": max(per_trial),
        "mean": float(np.mean(per_trial)),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.spec_kind:
        if not args.instance:
            raise _CliError("gen --spec requires --instance to anchor the set")
        inst = load_instance(args.instance)
        if args.spec_kind == "singleton":
            spec = genmod.singleton_for(inst)
        elif args.spec_kind == "box":
            spec = genmod.box_for(inst, args.width)
        elif args.spec_kind == "ellipsoid":
            spec = genmod.ellipsoid_for(inst, args.spread, seed=args.seed)
        else:
            spec = genmod.wasserstein_for(inst, args.scenarios, args.radius,
                                          seed=args.seed)
        text = spec_to_json(spec)
    else:
        if args.w_low > args.w_high:
            raise _CliError(f"argument --w-low: {args.w_low} exceeds --w-high {args.w_high}")
        if args.kind == "cycle":
            inst = genmod.cycle_instance(args.n, kind=args.graph, weight=args.weight)
        elif args.kind == "complete":
            inst = genmod.complete_instance(args.n, weight=args.weight)
        elif args.kind == "gnp":
            inst = genmod.gnp_instance(args.n, args.p, args.seed, kind=args.graph,
                                       w_low=args.w_low, w_high=args.w_high)
        elif args.kind == ALLEQUAL:
            inst = genmod.random_allequal_instance(args.n, args.k, args.m, args.seed,
                                                   w_low=args.w_low,
                                                   w_high=args.w_high)
        else:
            raise _CliError("gen: pass --kind or --spec")
        text = instance_to_json(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def _int_at_least(low: int):
    """Argument type: a decimal integer >= low."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


_at_least_zero = _int_at_least(0)
_at_least_one = _int_at_least(1)


def _finite(want: str = "", ok=lambda v: True):
    """Argument type: a finite number for which ok(value) holds; `want`
    ends the message, saying which numbers are expected."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"expected a finite number{want}, got {text!r}")
        return value
    return parse


_positive_finite = _finite(" > 0", lambda v: v > 0.0)


def _add_solver_flags(p: argparse.ArgumentParser, trials: bool = True) -> None:
    p.add_argument("--instance", required=True, help="instance file (JSON or edge list)")
    p.add_argument("--spec", help="uncertainty-set file (default: singleton at nominal)")
    p.add_argument("--seed", type=_at_least_zero, default=0)
    if trials:  # verify makes no rounding draws of its own choosing
        p.add_argument("--trials", type=_at_least_one, default=16, help="rounding draws (>= 1)")
    p.add_argument("--rank", type=_at_least_zero, default=0, help="factor rank (0 = auto)")
    p.add_argument("--gap-tol", type=_positive_finite, default=1e-6, dest="gap_tol",
                   help="certified relative gap that ends the solve; the stall "
                        "window's relative gain when no certificate closes")
    p.add_argument("--max-iter", type=_at_least_one, default=300, dest="max_iter")
    p.add_argument("--restarts", type=_at_least_one, default=3)
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustcut",
                     description="Robust max-cut via semidefinite relaxation "
                                 "and hyperplane rounding.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve + round, emit a JSON report")
    _add_solver_flags(p)
    p.add_argument("--csv", help="also write a per-term contribution table")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="solve and certify against brute force")
    _add_solver_flags(p, trials=False)
    p.add_argument("--corrupt-value", type=float, default=0.0,
                   dest="corrupt_value", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("round", help="rounding statistics for a solved factor")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_round)

    p = sub.add_parser("gen", help="generate instances / uncertainty sets")
    non_negative = _finite(" >= 0", lambda v: v >= 0.0)
    p.add_argument("--kind", choices=["cycle", "complete", "gnp", ALLEQUAL])
    p.add_argument("--spec", dest="spec_kind",
                   choices=["singleton", "box", "ellipsoid", "wasserstein"])
    p.add_argument("--instance", help="anchor instance for --spec")
    p.add_argument("--graph", choices=[MAXCUT, DICUT], default=MAXCUT)
    p.add_argument("--n", type=_at_least_one, default=5)
    p.add_argument("--p", type=_finite(" in [0, 1]", lambda v: 0.0 <= v <= 1.0), default=0.5)
    p.add_argument("--k", type=_int_at_least(2), default=3, help="clause arity (allequal)")
    p.add_argument("--m", type=_at_least_one, default=8, help="clause count (allequal)")
    p.add_argument("--weight", type=_finite(), default=1.0)
    p.add_argument("--w-low", type=_finite(), default=0.5, dest="w_low")
    p.add_argument("--w-high", type=_finite(), default=1.5, dest="w_high")
    p.add_argument("--width", type=non_negative, default=0.2, help="box half-width factor")
    p.add_argument("--spread", type=_finite(" in (0, 1]", lambda v: 0.0 < v <= 1.0),
                   default=0.5, help="ellipsoid semi-axis factor")
    p.add_argument("--scenarios", type=_at_least_one, default=3)
    p.add_argument("--radius", type=non_negative, default=0.5)
    p.add_argument("--seed", type=_at_least_zero, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves
    no state on it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (_CliError, ParseError, DomainError, NumericError, InfeasibleError,
            UnboundedError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
