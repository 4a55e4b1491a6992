import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD = PERFBENCH / "workload.py"


def test_every_traced_name_is_a_rholab_callable():
    # the benchmark's tracer looks each target up with getattr, so a renamed
    # or deleted function would crash its traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
