import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
