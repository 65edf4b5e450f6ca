"""End-to-end command-line contract: exit codes, report determinism, formats."""

import builtins
import hashlib
import json

import numpy as np
import pytest

from robustcut import cli, uncertainty
from robustcut.cli import (EXIT_CERT_FAIL, EXIT_NO_CONVERGE, EXIT_OK,
                           EXIT_PARSE, main)
from robustcut.instances import load_instance
from robustcut.uncertainty import (ellipsoidal_spec, load_spec, parse_spec, spec_to_json,
                                   worst_case_weights)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def cycle5(tmp_path):
    path = tmp_path / "c5.json"
    assert run("gen", "--kind", "cycle", "--n", "5", "--out", str(path)) == EXIT_OK
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "k3.json"
    assert run("gen", "--kind", "complete", "--n", "3", "--out", str(path)) == EXIT_OK
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run("gen", "--kind", "gnp", "--n", "6", "--p", "0.6",
                   "--seed", "3", "--out", str(path)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(str(a))
    assert inst.n == 6 and inst.m >= 1


def test_gen_needs_kind_or_spec(capsys):
    assert run("gen") == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_gen_box_spec_bounds(tmp_path, cycle5):
    spec_path = tmp_path / "box.json"
    assert run("gen", "--spec", "box", "--width", "0.2",
               "--instance", cycle5, "--out", str(spec_path)) == EXIT_OK
    spec = load_spec(str(spec_path))
    inst = load_instance(cycle5)
    coef = np.ones(inst.m)
    w, v = worst_case_weights(spec, coef)
    assert np.allclose(w, 0.8 * inst.nominal_weights(), atol=1e-9)
    assert v == pytest.approx(0.8 * float(np.sum(inst.nominal_weights())))
    # polyhedron rows encode the stated corners: w >= 0.8 w0 and -w >= -1.2 w0
    m = inst.m
    assert np.allclose(spec.A[:m], np.eye(m)) and np.allclose(spec.A[m:], -np.eye(m))
    assert np.allclose(spec.b[:m], 0.8 * inst.nominal_weights(), atol=1e-9)
    assert np.allclose(spec.b[m:], -1.2 * inst.nominal_weights(), atol=1e-9)


def test_gen_spec_requires_instance(capsys):
    assert run("gen", "--spec", "box") == EXIT_PARSE
    assert "requires --instance" in capsys.readouterr().err


def test_gen_all_spec_kinds_load(tmp_path, cycle5):
    for kind, extra in (("singleton", []),
                        ("ellipsoid", ["--spread", "0.4"]),
                        ("wasserstein", ["--scenarios", "3", "--radius", "0.3"])):
        path = tmp_path / f"{kind}.json"
        assert run("gen", "--spec", kind, "--instance", cycle5,
                   "--out", str(path), "--seed", "4", *extra) == EXIT_OK
        assert load_spec(str(path)).kind  # parses and validates


@pytest.mark.parametrize("args, flag", [
    (["--spec", "wasserstein", "--radius", "nan"], "--radius"),
    (["--spec", "wasserstein", "--radius", "-1"], "--radius"),
    (["--spec", "box", "--width", "-2"], "--width"),
    (["--kind", "cycle", "--weight", "inf"], "--weight"),
    (["--kind", "gnp", "--p", "-1"], "--p"),
    (["--kind", "gnp", "--p", "2"], "--p"),
    (["--kind", "gnp", "--w-low", "nan"], "--w-low"),
    (["--kind", "gnp", "--w-low", "2", "--w-high", "1"], "--w-low"),
    (["--kind", "gnp", "--seed", "-1"], "--seed"),
    (["--spec", "ellipsoid", "--seed", "-1"], "--seed"),
    (["--kind", "allequal", "--k", "-1"], "--k"),
    (["--kind", "allequal", "--k", "1"], "--k"),
    (["--kind", "allequal", "--m", "-2"], "--m"),
    (["--kind", "allequal", "--m", "0"], "--m"),
    (["--kind", "gnp", "--n", "-4"], "--n"),
    (["--kind", "cycle", "--n", "0"], "--n"),
    (["--spec", "wasserstein", "--scenarios", "-1"], "--scenarios"),
    (["--spec", "wasserstein", "--scenarios", "0"], "--scenarios"),
    (["--spec", "ellipsoid", "--spread", "0"], "--spread"),
    (["--spec", "ellipsoid", "--spread", "-1"], "--spread"),
    (["--spec", "ellipsoid", "--spread", "nan"], "--spread"),
    (["--spec", "ellipsoid", "--spread", "inf"], "--spread"),
    (["--spec", "ellipsoid", "--spread", "2"], "--spread"),
])
def test_gen_rejects_out_of_range_flags(tmp_path, capsys, cycle5, args, flag):
    # each of these used to write a file the loader rejects, or end in a
    # numpy error
    out = tmp_path / "g.json"
    anchor = ["--instance", cycle5] if "--spec" in args else []
    assert run("gen", *args, *anchor, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_deterministic_report(tmp_path, cycle5):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for out in (r1, r2):
        assert run("solve", "--instance", cycle5, "--seed", "1",
                   "--out", str(out)) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["command"] == "solve"
    assert rep["solver"]["converged"] is True
    assert rep["solver"]["value"] == pytest.approx(4.522542485937369, abs=1e-3)
    assert len(rep["rounding"]["cut"]) == 5
    assert set(rep["rounding"]["cut"]) <= {-1, 1}
    assert rep["instance_digest"] and rep["spec_digest"] is None


def test_solve_report_to_stdout(capsys, cycle5):
    assert run("solve", "--instance", cycle5, "--seed", "2") == EXIT_OK
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["command"] == "solve"
    assert "[time]" in err and "[time]" not in out


def test_solve_missing_instance(capsys, tmp_path):
    assert run("solve", "--instance", str(tmp_path / "nope.json")) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_unknown_flag(capsys, cycle5):
    assert run("solve", "--instance", cycle5, "--bogus") == EXIT_PARSE
    assert run("nonsense") == EXIT_PARSE


def test_solve_non_convergence(tmp_path, cycle5):
    spec_path = tmp_path / "ell.json"
    assert run("gen", "--spec", "ellipsoid", "--instance", cycle5,
               "--out", str(spec_path), "--seed", "1") == EXIT_OK
    out = tmp_path / "partial.json"
    code = run("solve", "--instance", cycle5, "--spec", str(spec_path),
               "--max-iter", "1", "--restarts", "1", "--out", str(out))
    assert code == EXIT_NO_CONVERGE
    rep = json.loads(out.read_text())
    assert rep["solver"]["converged"] is False
    assert "rounding" not in rep  # partial report stops at the solver stage


def test_solve_csv(tmp_path, cycle5):
    csv_path = tmp_path / "terms.csv"
    assert run("solve", "--instance", cycle5, "--csv", str(csv_path),
               "--out", str(tmp_path / "r.json")) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "term,spec,worst_weight,relaxed_coef,rounded_coef"
    assert len(lines) == 6  # header + one row per edge
    first = lines[1].split(",")
    assert first[:2] == ["0", "1-2"]  # 1-based, as the instance file stores [1, 2, w]
    float(first[2]); float(first[3]); float(first[4])


def test_solve_edge_list_input(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("# triangle\n1 2 1.0\n1 3 1.0\n2 3 1.0\n")
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(path), "--out", str(out)) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["n"] == 3 and rep["m"] == 3


def test_solve_with_wasserstein_spec(tmp_path, triangle_file):
    spec_path = tmp_path / "w.json"
    assert run("gen", "--spec", "wasserstein", "--instance", triangle_file,
               "--scenarios", "2", "--radius", "0.2", "--seed", "5",
               "--out", str(spec_path)) == EXIT_OK
    out = tmp_path / "r.json"
    assert run("solve", "--instance", triangle_file, "--spec", str(spec_path),
               "--out", str(out)) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["spec_digest"]
    assert rep["solver"]["converged"] is True


def test_solve_allequal_end_to_end(tmp_path):
    inst_path = tmp_path / "ae.json"
    assert run("gen", "--kind", "allequal", "--n", "5", "--k", "3", "--m", "6",
               "--seed", "2", "--out", str(inst_path)) == EXIT_OK
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst_path), "--out", str(out)) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["kind"] == "allequal"
    assert set(rep["rounding"]["seed_vector"]) <= {-1, 1}
    assert set(rep["rounding"]["cut"]) <= {-1, 1}


def write_json(path, obj):
    path.write_text(json.dumps(obj))  # json writes NaN as NaN, read back as nan
    return str(path)


def test_solve_rejects_nan_in_spec(tmp_path, capsys):
    inst = write_json(tmp_path / "p3.json", {"kind": "maxcut", "n": 3,
                                             "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
    spec = write_json(tmp_path / "box.json", {
        "kind": "polyhedral", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "b": [0.5, float("nan"), -1, -1]})
    assert run("solve", "--instance", inst, "--spec", spec) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert "b[1]" in err and "Traceback" not in err
    assert out == ""


def test_solve_rejects_nan_edge_weight(tmp_path, capsys):
    inst = write_json(tmp_path / "p3.json", {"kind": "maxcut", "n": 3,
                                             "edges": [[1, 2, float("nan")], [2, 3, 1.0]]})
    spec = write_json(tmp_path / "one.json", {"kind": "singleton", "weights": [1.0, 1.0]})
    assert run("solve", "--instance", inst, "--spec", spec) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert "edges[0]" in err and "Traceback" not in err
    assert out == ""


HUGE = 10 ** 400  # a JSON integer too large for a float


@pytest.mark.parametrize("instance, spec, field", [
    ({"kind": "maxcut", "n": 3, "edges": [[1, 2, HUGE], [2, 3, 1.0]]}, None, "edges[0]"),
    ({"kind": "allequal", "n": 3, "clauses": [{"literals": [1, 2], "weight": HUGE}]}, None,
     "clauses[0].weight"),
    (None, {"kind": "ellipsoidal", "w0": [1.0, 1.0], "Q": [[0.1, 0], [0, 0.1]], "a": HUGE},
     "a"),
    (None, {"kind": "singleton", "weights": [1.0, HUGE]}, "weights"),
])
def test_integers_too_large_for_a_float_are_named(tmp_path, capsys, instance, spec, field):
    inst = write_json(tmp_path / "inst.json", instance or {
        "kind": "maxcut", "n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
    args = ["--spec", write_json(tmp_path / "spec.json", spec)] if spec else []
    out = tmp_path / "r.json"
    assert run("solve", "--instance", inst, *args, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["maxcut", "dicut", "allequal"])
@pytest.mark.parametrize("n", [HUGE, 10 ** 11])
def test_n_beyond_the_dense_weight_matrix_is_named(tmp_path, capsys, kind, n):
    terms = ({"clauses": [{"literals": [1, 2], "weight": 1.0}]} if kind == "allequal"
             else {"edges": [[1, 2, 1.0]]})
    inst = write_json(tmp_path / "inst.json", {"kind": kind, "n": n, **terms})
    out = tmp_path / "r.json"
    assert run("solve", "--instance", inst, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: n: ") and "Traceback" not in err
    assert not out.exists()


LONG = "1" + "0" * 5000  # beyond json's 4,300-digit limit for integer strings


@pytest.mark.parametrize("which", ["instance", "spec"])
def test_integers_beyond_the_digit_limit_exit_1(tmp_path, capsys, which):
    inst = tmp_path / "inst.json"
    n = LONG if which == "instance" else "3"
    inst.write_text(f'{{"kind": "maxcut", "n": {n}, "edges": [[1, 2, 1.0], [2, 3, 1.0]]}}')
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"kind": "singleton", "weights": [1.0, {LONG}]}}')
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst), "--spec", str(spec),
               "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {which} JSON: ") and "4300" in err
    assert "Traceback" not in err and not out.exists()


def test_out_of_memory_exits_1(tmp_path, capsys, triangle_file, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(cli, "solve_robust", no_memory)
    out = tmp_path / "r.json"
    assert run("solve", "--instance", triangle_file, "--out", str(out)) == EXIT_PARSE
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 16.0 GiB\n"
    assert not out.exists()


@pytest.fixture()
def allequal_file(tmp_path):
    path = tmp_path / "ae.json"
    assert run("gen", "--kind", "allequal", "--n", "5", "--k", "3", "--m", "6",
               "--seed", "2", "--out", str(path)) == EXIT_OK
    return str(path)


@pytest.mark.parametrize("cmd,trials", [("round", "0"), ("solve", "0"), ("solve", "-3")])
def test_trials_below_one_rejected(tmp_path, capsys, cycle5, allequal_file, cmd, trials):
    for inst in (cycle5, allequal_file):
        out = tmp_path / "r.json"
        assert run(cmd, "--instance", inst, "--trials", trials, "--out", str(out)) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--trials" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("cmd,flag,value", [
    ("verify", "--gap-tol", "nan"), ("verify", "--gap-tol", "-1"),
    ("solve", "--gap-tol", "0"), ("solve", "--gap-tol", "inf"),
    ("verify", "--restarts", "-2"), ("solve", "--restarts", "0"),
    ("round", "--max-iter", "0"), ("verify", "--rank", "-1"),
    ("solve", "--seed", "-3"), ("verify", "--seed", "-1"), ("round", "--seed", "x")])
def test_out_of_range_solver_flags_rejected(tmp_path, capsys, triangle_file, cmd, flag, value):
    out = tmp_path / "r.json"
    assert run(cmd, "--instance", triangle_file, flag, value, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and "Traceback" not in err
    assert not out.exists()


def test_verify_rejects_trials(capsys, triangle_file):
    # verify certifies a fixed set of draws; --trials would be ignored there
    assert run("verify", "--instance", triangle_file, "--trials", "8") == EXIT_PARSE
    err = capsys.readouterr().err
    assert "--trials" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("spec, field", [
    ({"kind": "ellipsoidal", "w0": [1.0, 1.0], "Q": [[0.1, 0], [0, 0.1]], "a": [0.01]}, "a"),
    ({"kind": "wasserstein", "support": [[1.0, 1.0]], "empirical": [1.0],
      "radius": [0.1]}, "radius"),
    ({"kind": "singleton", "weights": 1}, "weights"),
    ({"kind": "polyhedral", "A": [[[1, 0]], [[0, 1]]], "b": [0.5, 0.5]}, "A"),
    ({"kind": "polyhedral", "A": [[-1, 0], [0, -1]], "b": [[-1], [-1]]}, "b"),
    ({"kind": "ellipsoidal", "w0": [[1.0, 1.0]], "Q": [[0.1, 0], [0, 0.1]], "a": 0.01}, "w0"),
])
def test_spec_field_dimensions_checked_at_parse(tmp_path, capsys, command, spec, field):
    inst = write_json(tmp_path / "p3.json", {"kind": "maxcut", "n": 3,
                                             "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
    path = write_json(tmp_path / "spec.json", spec)
    out = tmp_path / "r.json"
    assert run(command, "--instance", inst, "--spec", path, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {field}: expected" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("instance, field", [
    ({"kind": "maxcut", "n": 3.5, "edges": [[1, 2, 1.0]]}, "n"),
    ({"kind": "maxcut", "n": "3", "edges": [[1, 2, 1.0]]}, "n"),
    ({"kind": "maxcut", "n": True, "edges": [[1, 2, 1.0]]}, "n"),
    ({"kind": "maxcut", "n": 3, "edges": [[1.5, 2, 1.0]]}, "edges[0]"),
    ({"kind": "dicut", "n": 3, "edges": [[1, 2, 1.0], [2, False, 1.0]]}, "edges[1]"),
    ({"kind": "allequal", "n": 3, "clauses": [{"literals": [1.5, 2], "weight": 1.0}]},
     "clauses[0]"),
    ({"kind": "allequal", "n": 3, "clauses": [{"literals": [1, True], "weight": 1.0}]},
     "clauses[0]"),
])
def test_integer_fields_not_truncated(tmp_path, capsys, instance, field):
    inst = write_json(tmp_path / "inst.json", instance)
    out = tmp_path / "r.json"
    assert run("solve", "--instance", inst, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {field}: not an integer" in err and "Traceback" not in err
    assert not out.exists()


def test_integral_floats_accepted_as_integers(tmp_path):
    inst = write_json(tmp_path / "inst.json", {"kind": "maxcut", "n": 3.0,
                                               "edges": [[1.0, 2, 1.0], [2, 3.0, 1.0]]})
    assert run("solve", "--instance", inst, "--out", str(tmp_path / "r.json")) == EXIT_OK


def test_validation_message_has_plain_numbers(tmp_path, capsys):
    inst = write_json(tmp_path / "p3.json", {"kind": "maxcut", "n": 3,
                                             "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
    spec = write_json(tmp_path / "box.json", {
        "kind": "polyhedral", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "b": [-1.0, 0.5, -2, -2]})
    assert run("solve", "--instance", inst, "--spec", spec) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "negative declared lower bound -1.0 for weight 0" in err
    assert "np.float64" not in err


def test_solve_reports_restarts(tmp_path, cycle5):
    # a box solve ends in an exact saddle on its first restart; the
    # ellipsoid's closed-form reply never freezes, so every restart runs
    seen = {}
    for kind in ("box", "ellipsoid"):
        spec_path = tmp_path / f"{kind}.json"
        assert run("gen", "--spec", kind, "--instance", cycle5, "--seed", "1",
                   "--out", str(spec_path)) == EXIT_OK
        out = tmp_path / f"{kind}.report.json"
        assert run("solve", "--instance", cycle5, "--spec", str(spec_path),
                   "--seed", "4", "--out", str(out)) == EXIT_OK
        solver = json.loads(out.read_text())["solver"]
        assert 0 <= solver["restart"] < solver["restarts"]
        seen[kind] = solver["restarts"]
    assert seen == {"box": 1, "ellipsoid": 3}


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_finite_report_rejected(tmp_path, capsys, command):
    # finite inputs whose cut values overflow
    inst = write_json(tmp_path / "k3.json", {
        "kind": "maxcut", "n": 3,
        "edges": [[1, 2, 1e308], [2, 3, 1e308], [1, 3, 1e308]]})
    out = tmp_path / "r.json"
    with np.errstate(over="ignore"):
        code = run(command, "--instance", inst, "--out", str(out))
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    field = "rounding.value" if command == "solve" else "certification.checks[0].rhs"
    assert f"error: {field}: non-finite" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ok(tmp_path, triangle_file):
    out = tmp_path / "v.json"
    assert run("verify", "--instance", triangle_file, "--seed", "3",
               "--out", str(out)) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["certification"]["ok"] is True
    names = [c["name"] for c in rep["certification"]["checks"]]
    assert "relaxation_bound" in names and "saddle_consistency" in names
    assert all(c["passed"] for c in rep["certification"]["checks"])
    assert "appendix" in rep  # plain max-cut gets the ratio diagnostics


def test_verify_corrupted_value_fails(tmp_path, triangle_file):
    out = tmp_path / "v.json"
    code = run("verify", "--instance", triangle_file, "--seed", "3",
               "--corrupt-value", "0.5", "--out", str(out))
    assert code == EXIT_CERT_FAIL
    rep = json.loads(out.read_text())
    assert rep["certification"]["ok"] is False


def test_verify_with_box_spec(tmp_path, triangle_file):
    spec_path = tmp_path / "box.json"
    assert run("gen", "--spec", "box", "--width", "0.1",
               "--instance", triangle_file, "--out", str(spec_path)) == EXIT_OK
    assert run("verify", "--instance", triangle_file, "--spec", str(spec_path),
               "--seed", "1", "--out", str(tmp_path / "v.json")) == EXIT_OK


@pytest.mark.parametrize("kind, n", [("maxcut", 3), ("dicut", 2)])
def test_verify_with_box_spec_over_no_edges(tmp_path, kind, n):
    # gen writes "A": [], which reads back as the (0, 0) matrix of a box in
    # no weights, not as one empty row; brute force then scores m = 0
    inst_path, spec_path = tmp_path / "empty.json", tmp_path / "box.json"
    inst_path.write_text(json.dumps({"kind": kind, "n": n, "edges": []}))
    assert run("gen", "--spec", "box", "--instance", str(inst_path),
               "--out", str(spec_path)) == EXIT_OK
    assert json.loads(spec_path.read_text())["A"] == []
    spec = load_spec(str(spec_path))
    assert spec.A.shape == (0, 0) and spec.b.shape == (0,) and spec._box is not None
    out = tmp_path / "v.json"
    assert run("verify", "--instance", str(inst_path), "--spec", str(spec_path),
               "--out", str(out)) == EXIT_OK
    cert = json.loads(out.read_text())["certification"]
    assert cert["ok"] is True and cert["oracle_value"] == 0.0


def test_verify_validates_the_set_once(tmp_path, triangle_file, monkeypatch):
    spec_path = tmp_path / "box.json"
    assert run("gen", "--spec", "box", "--width", "0.1",
               "--instance", triangle_file, "--out", str(spec_path)) == EXIT_OK
    calls = []
    validate = uncertainty.validate_set
    monkeypatch.setattr(uncertainty, "validate_set",
                        lambda *a, **k: calls.append(a) or validate(*a, **k))
    assert run("verify", "--instance", triangle_file, "--spec", str(spec_path),
               "--seed", "1", "--out", str(tmp_path / "v.json")) == EXIT_OK
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# input files, the parser
# ---------------------------------------------------------------------------

def test_each_input_file_is_read_once(tmp_path, triangle_file, monkeypatch):
    spec_path = tmp_path / "box.json"
    assert run("gen", "--spec", "box", "--width", "0.1",
               "--instance", triangle_file, "--out", str(spec_path)) == EXIT_OK
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open",
                        lambda path, *a, **k: opened.append(str(path)) or real_open(path, *a, **k))
    out = tmp_path / "r.json"
    assert run("solve", "--instance", triangle_file, "--spec", str(spec_path),
               "--out", str(out)) == EXIT_OK
    assert sorted(opened) == sorted([triangle_file, str(spec_path), str(out)])
    rep = json.loads(out.read_text())
    for key, path in (("instance_digest", triangle_file), ("spec_digest", spec_path)):
        with real_open(path, "rb") as fh:
            assert rep[key] == hashlib.sha256(fh.read()).hexdigest()


def test_crlf_files_parse_and_fail_as_text_mode_reads_them(tmp_path, capsys, triangle_file):
    spec_path = tmp_path / "box.json"
    assert run("gen", "--spec", "box", "--width", "0.1",
               "--instance", triangle_file, "--out", str(spec_path)) == EXIT_OK
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(spec_path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_spec(str(crlf)) == load_spec(str(spec_path))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "box",\r\n "A": [1,\r\r ]}\r\n')
    with open(bad, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(Exception) as want:
        parse_spec(text)
    assert run("solve", "--instance", triangle_file, "--spec", str(bad)) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {want.value}\n"
    edges = tmp_path / "k3.txt"
    edges.write_bytes(b"1 2 1.0\r\n1 3 1.0\r2 3 1.0\r\n")
    assert load_instance(str(edges)) == load_instance(triangle_file)


@pytest.mark.parametrize("flag", ["--instance", "--spec"])
def test_non_utf8_file_exits_1_naming_it(tmp_path, capsys, triangle_file, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"kind": "maxcut"}')
    files = {"--instance": triangle_file, "--spec": None, flag: str(bad)}
    argv = [arg for f, path in files.items() if path for arg in (f, path)]
    assert run("solve", *argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text") and "Traceback" not in err


def test_parser_reused_across_calls(tmp_path, capsys, triangle_file):
    calls = [("solve", "--instance", triangle_file, "--trials", "0"),
             ("solve", "--instance", triangle_file, "--seed", "2",
              "--out", str(tmp_path / "r.json")),
             ("verify", "--instance", triangle_file, "--bogus"),
             ("round", "--instance", triangle_file, "--trials", "3", "--seed", "1",
              "--out", str(tmp_path / "q.json"))]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = run(*argv)
            err = capsys.readouterr().err
            got.append((code, [line for line in err.splitlines()
                               if not line.startswith("[time]")]))
        return got

    fresh = outcomes(True)
    assert [code for code, _ in fresh] == [EXIT_PARSE, EXIT_OK, EXIT_PARSE, EXIT_OK]
    assert "--trials" in fresh[0][1][0] and "--bogus" in fresh[2][1][0]
    first = cli._parser()
    assert outcomes(False) == fresh
    assert cli._parser() is first
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# round
# ---------------------------------------------------------------------------

def test_round_command(tmp_path, cycle5):
    out = tmp_path / "r.json"
    assert run("round", "--instance", cycle5, "--trials", "5", "--seed", "2",
               "--out", str(out)) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["command"] == "round"
    assert len(rep["per_trial"]) == 5
    assert rep["best"] == max(rep["per_trial"])
    assert rep["mean"] == pytest.approx(float(np.mean(rep["per_trial"])))


def test_round_non_convergence_emits_a_partial_report(tmp_path, triangle_file):
    spec_path = tmp_path / "ell.json"
    spec_path.write_text(spec_to_json(ellipsoidal_spec(np.ones(3), np.diag(0.05 * np.ones(3)),
                                                       1.0)))
    out = tmp_path / "partial.json"
    code = run("round", "--instance", triangle_file, "--spec", str(spec_path),
               "--max-iter", "2", "--restarts", "1", "--seed", "4", "--out", str(out))
    assert code == EXIT_NO_CONVERGE
    rep = json.loads(out.read_text())
    assert set(rep) == {"command", "instance_digest", "spec_digest", "seed", "solver"}
    assert rep["command"] == "round" and rep["seed"] == 4
    for key, path in (("instance_digest", triangle_file), ("spec_digest", spec_path)):
        with open(path, "rb") as fh:
            assert rep[key] == hashlib.sha256(fh.read()).hexdigest()
    assert rep["solver"]["converged"] is False and rep["solver"]["iterations"] == 2


def test_solve_reports_first_best_draw(tmp_path, triangle_file):
    # on a triangle every nontrivial cut scores 2, so the draws tie
    solved, rounded = tmp_path / "s.json", tmp_path / "r.json"
    assert run("solve", "--instance", triangle_file, "--out", str(solved)) == EXIT_OK
    assert run("round", "--instance", triangle_file, "--out", str(rounded)) == EXIT_OK
    per_trial = json.loads(rounded.read_text())["per_trial"]
    best = max(per_trial)
    assert per_trial.count(best) > 1
    assert json.loads(solved.read_text())["rounding"]["trial"] == per_trial.index(best)


def test_round_allequal_best_matches_solve(tmp_path):
    # round and solve seed their biased assignments from the same sign
    # vector, so round's best trial is solve's rounded value
    inst_path = tmp_path / "ae.json"
    assert run("gen", "--kind", "allequal", "--n", "20", "--k", "3", "--m", "40",
               "--seed", "5", "--out", str(inst_path)) == EXIT_OK
    solved, rounded = tmp_path / "s.json", tmp_path / "r.json"
    assert run("solve", "--instance", str(inst_path), "--out", str(solved)) == EXIT_OK
    assert run("round", "--instance", str(inst_path), "--out", str(rounded)) == EXIT_OK
    rep = json.loads(rounded.read_text())
    assert len(rep["per_trial"]) == 16
    assert rep["best"] == json.loads(solved.read_text())["rounding"]["value"]


@pytest.mark.parametrize("argv, named", [
    (("verify", "--samples", "3"), "--samples"), (("bench",), "bench"),
    (("bench", "--sizes", "5,6"), "bench")])
def test_removed_sampling_flag_and_bench_command_exit_1(tmp_path, capsys, triangle_file,
                                                        argv, named):
    # the lower sandwich reads the set's exact minimum, so verify takes no
    # samples; perfbench/ is the benchmark, so there is no bench command
    out = tmp_path / "r.json"
    args = ["--instance", triangle_file] if argv[0] == "verify" else []
    assert run(*argv, *args, "--out", str(out)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not out.exists()
