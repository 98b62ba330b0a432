"""Static checks on the package source."""

import ast
import importlib
from collections import Counter
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


def _tracer_lists() -> dict:
    """WRAPPED and COUNTED of the benchmark's tracer, which wraps package
    functions by name; the file is read, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return {
        node.target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id in ("WRAPPED", "COUNTED")
    }


def test_benchmark_tracer_names_exist():
    lists = _tracer_lists()
    assert set(lists) == {"WRAPPED", "COUNTED"}
    missing = [
        f"{module}.{name}"
        for module, name in lists["WRAPPED"] + lists["COUNTED"]
        if not callable(getattr(importlib.import_module(f"conicmirror.{module}"), name, None))
    ]
    assert missing == []


def _loaded_names(tree: ast.AST) -> Counter:
    """Every name read in tree, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_name_has_a_caller():
    # perturb_heights has no caller in the package, but the NonTriangularCell
    # message sends users to it
    exempt = {"lattice_geometry.perturb_heights"}
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    callers = [*modules.values()] + [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("perfbench", "scripts")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    loaded = sum((_loaded_names(tree) for tree in callers), Counter())
    lists = _tracer_lists()
    loaded.update(name for _, name in lists["WRAPPED"] + lists["COUNTED"])
    defined = []  # (qualified name, bare name, defining node)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{module}.{t.id}", t.id, node)
                            for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name, m)
                            for m in node.body if isinstance(m, ast.FunctionDef)]
    uncalled = [
        qualified
        for qualified, name, node in defined
        if not name.startswith("_") and qualified not in exempt
        and loaded[name] == _loaded_names(node)[name]
    ]
    assert uncalled == []
