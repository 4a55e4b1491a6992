"""Run the benchmark on several seeds and summarise it per workload.

    python3 perfbench/baseline.py --seeds 101 102 103 --out perfbench/baseline.json

For each workload this runs ``run.py --trace 0`` once per seed, one after
the other, and ``run.py --trace 1`` once on the first seed, at the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound; a spread of a third of
the bound or more is marked ``WIDE``.  With ``--out`` it also writes the
summary, including the traced run's per-layer metrics, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    env = next(line[len("# env "):] for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, env = run(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for spec in bench["end_to_end"]:
            v = values[spec["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            rows[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": spec["bound"], "values": v}
            flag = "WIDE" if spread >= spec["bound"] / 3 else "ok"
            print(f"  {spec['name']:14s} median {med:10.4f} {spec['unit']:6s} spread {spread:.4f}"
                  f" bound {spec['bound']} {flag}", flush=True)
        traced, _ = run(workload, args.seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "env": json.loads(env), "end_to_end": rows,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
