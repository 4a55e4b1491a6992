"""The benchmark's own tests: ``python -m pytest perfbench -q``.

Each test runs ``perfbench/run.py`` as a separate command on tiny inputs, the
way the benchmark is run for real, and reads its last stdout line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(root: Path, workload: str, trace: int, seconds: float = 1.0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def assert_metrics(result, specs):
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc, result = run_bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, BENCH["end_to_end"])
    assert result["metrics"]["ok_op_ratio"]["value"] == 1.0
    assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_outputs(workload):
    proc, result = run_bench(ROOT, workload, trace=1, seconds=2.0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert_metrics(result, BENCH["per_layer"])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed7-trace1.json").read_text())
    untraced, traced = record["untraced"]["digests"], record["traced"]["digests"]
    common = min(len(untraced), len(traced))
    assert common >= 1 and untraced[:common] == traced[:common]
    ops = {span[4] for span in record["spans"]}
    assert ops == set(range(len(traced)))


def _copy_checkout(dest: Path, with_src: bool):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_singular_count_fails_the_run(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    lab = tmp_path / "src" / "rholab" / "matrix_lab.py"
    text = lab.read_text()
    exact = "        return int(flagged.size)\n"
    assert text.count(exact) == 1
    lab.write_text(text.replace(exact, "        return int(flagged.size) + 1\n"))
    proc, result = run_bench(tmp_path, "matrices", trace=0)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_op_ratio"]["value"] < 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc, result = run_bench(tmp_path, "laws", trace=0)
    assert proc.returncode != 0
    assert result is None
