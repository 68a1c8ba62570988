"""Source hygiene checks over src/semistream, read as Python syntax trees."""
from __future__ import annotations

import ast
from collections import Counter
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semistream"


def _top_level_names(tree: ast.Module):
    """(name, node) for every top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _top_level_private_names(tree: ast.Module):
    """(name, node) for every top-level private def, class or assignment."""
    for name, node in _top_level_names(tree):
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            yield name, node


def _references(tree: ast.AST):
    """Every name a tree reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unused_private_helper():
    """Every top-level private name in src/semistream is read somewhere in
    src/ beyond its own definition; a helper nothing calls is dead code."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    unused = [f"{module}: {name}"
              for module, tree in trees.items()
              for name, node in _top_level_private_names(tree)
              if reads[name] == Counter(_references(node))[name]]
    assert not unused, f"private names nothing reads: {unused}"


def test_every_public_quantcore_name_is_used():
    """Every public function and class quantcore.py defines is read by
    another module of src/semistream, re-exports in __init__.py aside,
    or by the benchmark's own modules, perfbench/*.py (which keep
    requantize_array): an arithmetic wrapper nothing calls is dead code."""
    tree = ast.parse((SRC / "quantcore.py").read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    users = [path for path in sorted(SRC.glob("*.py"))
             if path.name not in ("quantcore.py", "__init__.py")]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    reads = {name for path in users
             for name in _references(ast.parse(path.read_text(), str(path)))}
    unused = [name for name in public if name not in reads]
    assert public and not unused, f"public quantcore names nothing reads: {unused}"


def _package_imports() -> dict[str, set[str]]:
    """module -> the sibling modules its `from .x import` lines name."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        graph[path.stem] = {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1}
    return graph


def test_the_cycle_model_imports_no_runtime():
    """The intra-package imports form no cycle; perfmodel, which owns the
    cycle model, reads only errors and modelkit, and engines defines none
    of the cycle model's names."""
    graph = _package_imports()
    list(TopologicalSorter(graph).static_order())  # CycleError on an import cycle
    assert graph["perfmodel"] <= {"errors", "modelkit"}
    assert "perfmodel" in graph["engines"]
    engines = ast.parse((SRC / "engines.py").read_text())
    moved = {"MADDS_PER_CYCLE", "ADD_OPS_PER_CYCLE", "WEIGHT_GEOMETRY", "ADD_STREAM_BITS",
             "EngineStats", "layer_cost", "engine_cycles", "weight_bytes", "nominal_stats",
             "_layer_stats"}
    assert not {name for name, _ in _top_level_names(engines)} & moved


def test_the_layer_order_is_checked_in_one_place():
    """schedule_rounds raises nothing of its own, and PlanError is raised
    only inside validate_graph: the layer order has one checker."""
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            raises = [n for n in ast.walk(fn) if isinstance(n, ast.Raise)]
            if fn.name == "schedule_rounds":
                assert not raises, f"{path.name}: schedule_rounds raises"
            if any("PlanError" in _references(n) for n in raises):
                raisers.append(f"{path.name}: {fn.name}")
    assert raisers == ["modelkit.py: validate_graph"]


def test_rescale_constants_are_built_by_the_whole_model_compiler_only():
    """In engines.py, rescale_constants is called only by compile_records
    and by the bulk table builder that only compile_records calls, and
    layer_record compiles through compile_records: no per-layer rescale
    path exists."""
    tree = ast.parse((SRC / "engines.py").read_text())
    callers: dict[str, set[str]] = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add(fn.name)
    assert callers["rescale_constants"] == {"compile_records", "_add_tables"}
    assert callers["_add_tables"] == {"compile_records"}
    assert "layer_record" in callers["compile_records"]
