"""The package's public name list and its import hygiene."""

import ast
import importlib
import inspect
import pathlib

import pytest

import robustcut
from robustcut.instances import KINDS
from robustcut.sdp import solve_elliptope_max

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from robustcut import *", namespace)  # raises on a name that is gone
    assert len(set(robustcut.__all__)) == len(robustcut.__all__)
    assert all(name in namespace for name in robustcut.__all__)


@pytest.mark.parametrize("module, name", [
    ("sdp", "GramFactor"), ("rounding", "RoundConfig"), ("numerics", "LpProblem"),
    ("uncertainty", "ValidationReport"), ("robust", "solve_dro")])
def test_removed_wrappers_stay_gone(module, name):
    # a factor is a plain array, a seed an int, an LP its arrays, a
    # validation its list of violations, and a Wasserstein ball goes
    # through solve_robust
    assert name not in robustcut.__all__ and not hasattr(robustcut, name)
    assert not hasattr(importlib.import_module(f"robustcut.{module}"), name)


def test_solve_elliptope_max_takes_no_warm_start():
    # an ascent from a given factor is stacked_ascent with a stack of one
    assert "start" not in inspect.signature(solve_elliptope_max).parameters


def test_traced_functions_exist():
    """Every function the benchmark's layer tracer wraps still exists, so a
    rename cannot silently blank a layer metric.  The tracer file is read,
    not imported.  The known stale targets were deleted on purpose:
    best_of_roundings for rounding_draws, the feasible sampler for the exact
    lower sandwich, and the two graph-kind expectations for
    rounding.expected_terms."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    assert len(targets) > 20
    missing = [f"{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    stale = {"robustcut.rounding.best_of_roundings", "robustcut.uncertainty.sample_feasible",
             "robustcut.rounding.expected_cut_exact", "robustcut.rounding.expected_dicut_exact"}
    assert [m for m in missing if m not in stale] == []


def unused_imports(path):
    """Names a module imports and never uses (``__future__`` imports and
    names listed in ``__all__`` excepted)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "robustcut").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_only_instances_spells_an_instance_kind():
    """Other modules name a kind through instances.MAXCUT, DICUT or ALLEQUAL
    (and ask an Instance for its column layout), never by a string literal."""
    files = sorted((ROOT / "src" / "robustcut").glob("*.py"))
    assert len(files) > 5
    hits = [f"{path.name}:{node.lineno}: {node.value!r}"
            for path in files if path.name != "instances.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in KINDS]
    assert hits == []
