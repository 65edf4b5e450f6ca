"""The package's public name list and its import hygiene."""

import ast
import pathlib

import robustcut
from robustcut.instances import KINDS


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from robustcut import *", namespace)  # raises on a name that is gone
    assert len(set(robustcut.__all__)) == len(robustcut.__all__)
    assert all(name in namespace for name in robustcut.__all__)


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
    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "robustcut").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_only_instances_spells_an_instance_kind():
    """Other modules name a kind through instances.MAXCUT, DICUT or ALLEQUAL
    (and ask an Instance for its column layout), never by a string literal."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "robustcut"
    files = sorted(src.glob("*.py"))
    assert len(files) > 5
    hits = [f"{path.name}:{node.lineno}: {node.value!r}"
            for path in files if path.name != "instances.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in KINDS]
    assert hits == []
