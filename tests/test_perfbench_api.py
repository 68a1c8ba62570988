"""The benchmark scripts still find every semistream name they use.

perfbench/ drives the package through its public names: imports from
semistream and its modules, and attributes of the module it passes
around as ``api``. Deleting one of those names breaks the benchmark;
this check reads the scripts (it never runs them) so that shows up here.
Likewise every execution mode the benchmark times must still run and
agree with the others, and the traced run's own reads off prepared
layers must still work, which a name check cannot see.
"""
import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from semistream.dataflow import run_inference

from conftest import toy_pair

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


def _benchmark_modes() -> tuple[str, ...]:
    """measure.MODES, the execution modes the benchmark times, read without importing it."""
    for node in ast.walk(ast.parse((PERFBENCH / "measure.py").read_text())):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "MODES"):
            return ast.literal_eval(node.value)
    pytest.fail("perfbench/measure.py defines no MODES; has the benchmark moved?")


def test_every_benchmarked_mode_runs_and_agrees():
    modes = _benchmark_modes()
    assert modes
    model, image, _ = toy_pair(1)
    want = run_inference(model, image, mode="sequential").logits.data
    for mode in modes:
        got = run_inference(model, image, mode=mode)
        assert got.mode == mode
        np.testing.assert_array_equal(got.logits.data, want)


@pytest.fixture
def measure(monkeypatch):
    """perfbench/measure.py, imported the way run.py imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("measure", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("measure")
    for name in ("measure", "tracing", "workloads"):
        sys.modules.pop(name, None)


def test_traced_run_reads_every_layers_multipliers(measure):
    model, _, _ = toy_pair(1)
    accs = measure._accumulators(model, np.random.default_rng(0))
    rescaled = [i for i, layer in enumerate(model.layers) if layer.mults is not None]
    assert [idx for idx, *_ in accs] == rescaled
    for idx, acc, mults, shifts, zero in accs:
        layer = model.layers[idx]
        assert acc.shape == (layer.out_h * layer.out_w, layer.out_ch)
        np.testing.assert_array_equal(mults, layer.mults.mult)
        np.testing.assert_array_equal(shifts, layer.mults.shift)
        assert zero == layer.out_zero
