import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD = PERFBENCH / "workload.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_rholab_callable():
    # the benchmark's tracer looks each target up with getattr, so a renamed
    # or deleted function would crash its traced run
    tracer = _load("perfbench_tracer", TRACER)
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module("rholab." + mod), fn, None))
    ]
    assert tracer.TARGETS and not missing, missing


def test_every_workload_call_resolves_in_rholab():
    # the benchmark's workloads call rholab modules through import aliases
    # (`ml.det_bareiss`); a rename would fail every benchmark op but no test
    tree = ast.parse(WORKLOAD.read_text())
    aliases = {
        alias.asname or alias.name: importlib.import_module(f"rholab.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rholab"
        for alias in node.names
    }
    calls = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    missing = [f"{mod}.{fn}" for mod, fn in sorted(calls) if not hasattr(aliases[mod], fn)]
    assert {"ml", "ac"} <= {mod for mod, _ in calls} and not missing, missing


@pytest.mark.parametrize("name", ["matrices", "laws"])
def test_each_workload_op_calls_every_name_it_exercises(name, tmp_path, monkeypatch):
    # a traced benchmark run fails when a name in `exercises` records no call,
    # so a change that routes a call around a traced function fails here first
    tracer = _load("perfbench_tracer", TRACER)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # workload.py imports it by name
    workload_module = _load("perfbench_workload", WORKLOAD)
    workload = workload_module.WORKLOADS[name](
        np.random.default_rng(0), True, workload_module._Cli(tmp_path))
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.run_op(0, lambda: workload.op(0))
    finally:
        traced.uninstall()
    assert workload.exercises and traced.zero_call_targets(workload.exercises) == []


def test_the_benchmarks_planted_fault_finds_its_line():
    # perfbench's fault test makes the singular count wrong by rewriting this
    # one line of matrix_lab.py; a refactor that rewords it would leave that
    # test unable to plant its fault
    lab = Path(__file__).resolve().parents[1] / "src" / "rholab" / "matrix_lab.py"
    assert lab.read_text().count("        return int(flagged.size)\n") == 1
