"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conicmirror"


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        # annotations count as uses: they are Name nodes in the tree
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_benchmark_tracer_names_exist():
    # the benchmark's tracer wraps these by name; it is read, not imported
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    lists = {
        node.target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id in ("WRAPPED", "COUNTED")
    }
    assert set(lists) == {"WRAPPED", "COUNTED"}
    missing = [
        f"{module}.{name}"
        for module, name in lists["WRAPPED"] + lists["COUNTED"]
        if not callable(getattr(importlib.import_module(f"conicmirror.{module}"), name, None))
    ]
    assert missing == []
