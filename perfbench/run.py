"""The rholab benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload matrices --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it imports ``rholab`` from
``src/``.  Metric names, units and workloads are defined in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one measures.

With ``--trace 0`` it prints the end-to-end metrics.  Set-up (imports, input
generation, one untimed warm-up op) is measured in ``SETUP_SAMPLES`` fresh
processes and reported as their median; the last of them goes on to the timed
phase, a closed loop with one client.  With ``--trace 1`` one process runs
the ops untraced for half the time and traced for the other half, and prints
the per-layer metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every op and output check
passed, 1 when one failed, and 2 when the benchmark could not run at all (for
example when ``src/rholab`` is missing); then no result line is printed.
A full record of the run is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole command, set-up samples included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(nproc: int) -> dict[str, str]:
    """Environment for workload processes: src/ importable, BLAS and OpenMP
    pools capped at the cores this process may run on."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def source_id() -> dict[str, str]:
    """Git commit of the checkout if it is a repository, and a digest of the
    package sources either way."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rholab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def tmp_dir() -> Path:
    """Scratch files of this command's workload processes."""
    return OUT / f"tmp-{os.getpid()}"


def spawn(args, env, deadline, setup_only=False, record=None) -> dict:
    """Run one workload process to completion; return its result object."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp_dir()),
        "--t0", repr(time.monotonic()),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    cmd += ["--record", str(record)] if record else []
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError("workload process ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    nproc = _nproc()
    env = child_env(nproc)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        setups = [] if args.trace else [
            spawn(args, env, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)
        ]
        main_run = spawn(args, env, deadline, record=record)
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_dir(), ignore_errors=True)

    runs = setups + [main_run]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        values = main_run["layer"]
        specs = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ok_op_ratio": (attempted - failed) / attempted,
            **{k: main_run[k] for k in
               ("ops_per_s", "op_s_p50", "op_s_tail", "cpu_s_per_op", "peak_rss_mb")},
        }
        specs = bench["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {
        "correct": failed == 0 and not main_run["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": nproc,
        "python": main_run["python"], "numpy": main_run["numpy"], "blas": main_run["blas"],
        "machine": platform.machine(), **{v: env[v] for v in THREAD_VARS}, **source_id(),
    }
    full = json.loads(record.read_text())
    full.update(env=env_record, output=result,
                setup_samples_s=[r["setup_s"] for r in runs])
    record.write_text(json.dumps(full))

    print(f"# env {json.dumps(env_record, sort_keys=True)}")
    if not args.trace:
        print(f"# setup_s is the median of {len(runs)} fresh processes: "
              + ", ".join(f"{r['setup_s']:.3f}" for r in runs))
        slower = "10 ops slower" if main_run["ops"] > 10 else "the slowest op"
        print(f"# op_s_tail is the p{main_run['tail_percentile']:.1f} op time over "
              f"{main_run['ops']} timed ops ({slower})")
    messages = [m for r in runs for m in r["failures"]] + main_run["problems"]
    print(f"# failed_op_ratio {failed}/{attempted} = {failed / attempted:.4f}"
          + "".join(f"\n# failure: {m}" for m in messages))
    print(f"# record {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
