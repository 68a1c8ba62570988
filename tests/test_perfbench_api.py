"""The benchmark scripts still find every semistream name they use.

perfbench/ drives the package through its public names: imports from
semistream and its modules, and attributes of the module it passes
around as ``api``. Deleting one of those names breaks the benchmark;
this check reads the scripts (it never runs them) so that shows up here.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _names_used(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs a script imports from semistream or reads off ``api``."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semistream":
            used.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("api", "semistream")):
            used.add(("semistream", node.attr))
    return used


@pytest.mark.parametrize("script", ["measure.py", "workloads.py"])
def test_benchmark_scripts_find_their_semistream_names(script):
    used = _names_used((PERFBENCH / script).read_text())
    assert used, f"{script} uses no semistream name; has the benchmark moved?"
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert not missing

