"""One process of the rholab benchmark: set up one workload, time its ops.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
on its last stdout line and writes its full record (per-op times and output
digests, spans of a traced run) to the path given by ``--record``.

Inputs are drawn here from ``numpy.random.default_rng(seed)``, never from
``rholab.rng``, so a change to the program's random streams cannot change
what the benchmark feeds it.  Every op is a fixed bundle of user-level calls
(``rholab.cli.cli_dispatch`` in-process, or ``matrix_lab`` directly where
no subcommand exists), so op times within a workload are alike.  Each op is
small enough that more than 100 fit in the ``run_seconds`` of
``BENCHMARK.json``, so the tail (ten ops above it) is about p90 or higher.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import rholab  # noqa: F401  (imports every module the tracer patches)
import rholab.cli
from rholab import anticoncentration as ac
from rholab import matrix_lab as ml
from rholab.zp_core import PrimeModulus, ZpVector

from tracer import Tracer

OP_SEEDS = 1024     # distinct CLI seeds per run; op i uses seed i mod OP_SEEDS
POOL = 16           # distinct input bundles for file- and argument-driven ops


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class _Cli:
    """Runs subcommands in-process with their stdout and stderr captured."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def __call__(self, *argv) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = rholab.cli.cli_dispatch([str(a) for a in argv])
        return rc, err.getvalue()


class OpFailed(Exception):
    """An op ran but its exit code or output check was wrong."""


def _expect(cond: bool, what: str):
    if not cond:
        raise OpFailed(what)


def _sym_from_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """Packed row-major upper triangle in {0,1} -> symmetric +-1 matrix."""
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n)] = 2 * bits - 1
    return np.triu(m) + np.triu(m, 1).T


def _rank_mod(mat, p: int) -> int:
    """Rank over F_p; the benchmark's own, used only to draw valid inputs."""
    a = [[int(x) % p for x in row] for row in mat]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


class Workload:
    """One workload: inputs drawn in ``__init__``, op ``i`` in ``op(i)``.

    ``exercises`` names the ``module.function`` pairs a traced run must see
    called.
    """

    exercises: tuple[str, ...] = ()

    def op(self, i: int) -> str:
        """Run op ``i``; return a digest of its outputs or raise."""
        raise NotImplementedError

    def checks(self):
        """Untimed output checks, as (name, ok, detail) triples."""
        return ()


class McSingularity(Workload):
    """``singularity --mc --workers 1`` at n=12, then at n=20 (Bareiss path)."""

    exercises = (
        "matrix_lab.batch_rank_mod_p", "matrix_lab.singular_count_block",
        "matrix_lab.singularity_mc_sharded", "matrix_lab.det_bareiss",
        "rng.substream", "cli.cli_dispatch",
    )

    def __init__(self, rng, tiny, cli):
        self.cli = cli
        self.sizes = ((10, 500), (16, 500)) if tiny else ((12, 500), (20, 500))
        self.seeds = rng.integers(0, 2**31 - 1, size=OP_SEEDS).tolist()
        self.planted = {n: self._planted_batch(rng, n) for n in (12, 20)}

    @staticmethod
    def _planted_batch(rng, n, size=48):
        """Packed bits of random matrices, every other one with a row and
        column copied onto another (so certainly singular)."""
        iu = np.triu_indices(n)
        bits = rng.integers(0, 2, size=(size, len(iu[0])), dtype=np.int64)
        for b in range(0, size, 2):
            m = _sym_from_bits(bits[b], n)
            j, k = rng.choice(n, size=2, replace=False)
            m[k, :] = m[j, :]
            m[:, k] = m[:, j]
            m[k, k] = m[j, j]
            bits[b] = (m[iu] + 1) // 2
        return bits

    def op(self, i):
        digests = []
        for n, trials in self.sizes:
            out = self.cli.tmp / f"mc{n}.json"
            rc, err = self.cli("singularity", "--mc", "--workers", 1, "--n", n,
                               "--trials", trials, "--seed", self.seeds[i % OP_SEEDS],
                               "--format", "json", "--out", out)
            _expect(rc == 0, f"singularity --n {n} exited {rc}: {err[:200]}")
            data = out.read_bytes()
            doc = json.loads(data)
            count = int(doc["singularCount"])
            _expect(int(doc["trials"]) == trials and 0 <= count <= trials,
                    f"singular count {count} outside [0, {trials}]")
            digests.append(data)
        return _digest(*digests)

    def checks(self):
        """singular_count_block on planted batches == per-matrix Bareiss count."""
        for n, bits in self.planted.items():
            want = sum(ml.det_bareiss(_sym_from_bits(row, n)) == 0 for row in bits)
            got = ml.singular_count_block(n, bits)
            yield f"planted singular count n={n}", got == want, f"{got} != {want}"


class FibreCertify(Workload):
    """``fibre --count 1`` on a constant vector at p=101, n=512 and n=1024."""

    exercises = (
        "anticoncentration.distribution_zp", "zp_core.weight_table",
        "containers.level_set", "containers.frequency_set", "containers.container",
        "inverse_lo.sample_Y_with_attempts", "inverse_lo.sample_U_with_attempts",
        "inverse_lo.build_container", "inverse_lo.verify_certificate",
        "inverse_lo.canonical_json", "fibres.run_fibre", "fibres.audit_trace",
        "harness.write_json", "rng.substream", "cli.cli_dispatch",
    )

    def __init__(self, rng, tiny, cli):
        self.cli = cli
        self.sizes = (256,) if tiny else (512, 1024)
        self.seeds = rng.integers(0, 2**31 - 1, size=OP_SEEDS).tolist()

    def op(self, i):
        digests = []
        for n in self.sizes:
            out = self.cli.tmp / f"fibre{n}.json"
            rc, err = self.cli("fibre", "--count", 1, "--format", "json", "--out", out,
                               "--n", n, "--p", 101, "--seed", self.seeds[i % OP_SEEDS])
            _expect(rc == 0, f"fibre --n {n} exited {rc}: {err[:200]}")
            data = out.read_bytes()
            (trace,) = json.loads(data)["traces"]
            _expect(all(v is True for v in trace["audit"].values()),
                    f"fibre --n {n} audit failed: {trace['audit']}")
            digests.append(data)
        return _digest(*digests)


class RhoHalasz(Workload):
    """``rho`` then ``halasz`` on a file of dense vectors mod 1009."""

    exercises = (
        "anticoncentration.distribution_zp", "anticoncentration.distribution_half",
        "anticoncentration.level_counts", "anticoncentration.halasz_first_bound",
        "anticoncentration.halasz_second_bound", "anticoncentration.halasz_bound",
        "zp_core.weight_table", "harness.load_vectors", "harness.write_json",
        "harness.write_csv", "inverse_lo.canonical_json", "cli.cli_dispatch",
    )
    P = 1009

    def __init__(self, rng, tiny, cli):
        self.cli = cli
        sizes = (32, 64) if tiny else (64, 128)
        self.files = []
        for k in range(POOL):
            path = cli.tmp / f"vectors{k}.txt"
            lines = [f"p={self.P}; " + " ".join(map(str, rng.integers(1, self.P, size=n)))
                     for n in sizes]
            path.write_text("\n".join(lines) + "\n")
            self.files.append(path)
        self.rows = len(sizes)
        self.small = []
        for _ in range(4):
            p = int(rng.choice([5, 7, 11, 13, 101, self.P]))
            n = int(rng.integers(8, 15))
            self.small.append((PrimeModulus(p), ZpVector(tuple(rng.integers(0, p, size=n).tolist()))))

    def op(self, i):
        vectors = self.files[i % POOL]
        rho_out, halasz_out = self.cli.tmp / "rho.csv", self.cli.tmp / "halasz.json"
        rc, err = self.cli("rho", "--vectors", vectors, "--format", "csv", "--out", rho_out)
        _expect(rc == 0, f"rho exited {rc}: {err[:200]}")
        rho_data = rho_out.read_bytes()
        _expect(len(rho_data.splitlines()) == 1 + self.rows, "rho wrote a wrong row count")
        rc, err = self.cli("halasz", "--vectors", vectors, "--format", "json", "--out", halasz_out)
        _expect(rc == 0, f"halasz exited {rc}: {err[:200]}")
        return _digest(rho_data, halasz_out.read_bytes())

    def checks(self):
        """Convolution law == brute-force enumeration on small vectors."""
        for p, v in self.small:
            fast = ac.distribution_zp(v, p)
            brute = ac.distribution_zp_bruteforce(v, p)
            ok = fast.counts == brute.counts and fast.log2_denominator == brute.log2_denominator
            yield f"distribution_zp oracle p={p.p} n={len(v)}", ok, "laws differ"


class ExactEnum(Workload):
    """Exhaustive matrix_lab calls, one matrix at a time, plus identity cases."""

    exercises = (
        "matrix_lab.singularity_exact", "matrix_lab.match_probability_exact",
        "matrix_lab.block_probability_exact", "matrix_lab.batch_rank_mod_p",
        "matrix_lab.rank_mod_p", "matrix_lab.rref_mod_p", "matrix_lab.inverse_mod_p",
        "matrix_lab.adjugate_mod_p", "matrix_lab.det_exact", "matrix_lab.det_bareiss",
        "matrix_lab.odlyzko_check", "matrix_lab.decoupling_identity_check",
    )
    # frozen exact values of Pr(det M_n = 0)
    SINGULAR = {4: Fraction(1, 2), 5: Fraction(31, 64)}
    n_match = 3  # match and block probabilities enumerate 2^(n(n+1)/2) matrices

    def __init__(self, rng, tiny, cli):
        self.n_sing = 4 if tiny else 5
        self.bundles = [self._bundle(rng) for _ in range(POOL)]

    @staticmethod
    def _sym_mod(rng, p, d, rank):
        while True:
            m = rng.integers(0, p, size=(d, d))
            m = (m + m.T) % p
            if _rank_mod(m, p) == rank:
                return m

    def _bundle(self, rng):
        p5 = PrimeModulus(5)
        n = self.n_match
        v = rng.integers(0, 5, size=n)
        v[rng.integers(0, n)] = rng.integers(1, 5)  # v != 0
        w = rng.integers(0, 5, size=n)
        perm = rng.permutation(n)
        cut = n // 2
        match = (ZpVector(tuple(v.tolist())), ZpVector(tuple(w.tolist())), p5)
        block = match[:2] + (perm[:cut].tolist(), perm[cut:].tolist(), p5)

        p = int(rng.choice([5, 7, 13]))
        d = 6
        mask = rng.random(d) < 0.5
        decouple = (
            self._sym_mod(rng, p, d, d),
            rng.integers(0, 2, size=d) * 2 - 1, rng.integers(0, 2, size=d) * 2 - 1,
            np.flatnonzero(mask).tolist(), np.flatnonzero(~mask).tolist(), PrimeModulus(p),
        )
        p = int(rng.choice([5, 7, 11, 13, 101]))
        n_od, k = 10, 4
        while True:
            rows = rng.integers(0, p, size=(k, n_od))
            if _rank_mod(rows, p) == k:
                break
        odlyzko = ([tuple(r) for r in rows.tolist()], n_od, PrimeModulus(p))
        adjugate = (self._sym_mod(rng, 7, 4, 3), PrimeModulus(7))
        n_det = 10
        det = _sym_from_bits(rng.integers(0, 2, size=n_det * (n_det + 1) // 2), n_det)
        return match, block, decouple, odlyzko, adjugate, det

    def op(self, i):
        match, block, decouple, odlyzko, adjugate, det = self.bundles[i % POOL]
        sing = ml.singularity_exact(self.n_sing)
        _expect(sing == self.SINGULAR[self.n_sing], f"singularity_exact = {sing}")
        prob = ml.match_probability_exact(*match)
        _expect(prob <= Fraction(1, 2 ** self.n_match), f"match probability {prob}")
        blk = ml.block_probability_exact(*block)
        _expect(blk.holds, f"block probability {blk.probability} > {blk.bound}")
        _expect(ml.decoupling_identity_check(*decouple), "decoupling identity failed")
        count, holds = ml.odlyzko_check(*odlyzko)
        _expect(holds, f"odlyzko count {count}")
        adj = ml.adjugate_rank1_check(*adjugate)
        _expect(adj.ok, f"adjugate checks {adj.checks}")
        d_exact, d_bareiss = ml.det_exact(det), ml.det_bareiss(det)
        _expect(d_exact == d_bareiss, f"det_exact {d_exact} != det_bareiss {d_bareiss}")
        return _digest(sing, prob, blk, count, adj, d_exact)


class Pair(Workload):
    """Two part workloads run as one: op ``i`` is op ``i`` of each part.

    Pairing doubles the op length, so host-speed swings of a few seconds on a
    shared machine are averaged inside each op rather than split across ops.
    """

    parts: tuple[type[Workload], type[Workload]]

    def __init__(self, rng, tiny, cli):
        self.members = [part(rng, tiny, cli) for part in self.parts]

    def op(self, i):
        return _digest(*(member.op(i) for member in self.members))

    def checks(self):
        for member in self.members:
            yield from member.checks()


class Matrices(Pair):
    """``mc_singularity`` then ``exact_enum``: matrix_lab batched and one
    matrix at a time."""

    parts = (McSingularity, ExactEnum)
    exercises = tuple(dict.fromkeys(McSingularity.exercises + ExactEnum.exercises))


class Laws(Pair):
    """``fibre_certify`` then ``rho_halasz``: sparse structured laws with
    certificates, then dense laws and the Halasz chain."""

    parts = (FibreCertify, RhoHalasz)
    exercises = tuple(dict.fromkeys(FibreCertify.exercises + RhoHalasz.exercises))


WORKLOADS = {"matrices": Matrices, "laws": Laws}


class Runner:
    """Times ops of one workload and keeps their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []   # one entry per failed op or check
        self.problems: list[str] = []   # failures of the run as a whole

    def one(self, i, call=None):
        """Run op ``i`` (through ``call`` if given); return (seconds, digest)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            op = lambda: self.workload.op(i)  # noqa: E731
            digest = call(i, op) if call else op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            digest = None
            self._fail(f"op {i}: {type(exc).__name__}: {exc}",
                       None if isinstance(exc, OpFailed) else traceback.format_exc())
        return time.perf_counter() - start, digest

    def timed(self, seconds, call=None):
        """Closed loop, one client: ops 0, 1, ... until ``seconds`` have passed
        (at least one op)."""
        phase = {"times": [], "cpu": [], "digests": []}
        start = time.perf_counter()
        while not phase["times"] or time.perf_counter() - start < seconds:
            cpu0 = _cpu_s()
            dt, digest = self.one(len(phase["times"]), call)
            phase["cpu"].append(_cpu_s() - cpu0)
            phase["times"].append(dt)
            phase["digests"].append(digest)
        return phase

    def run_checks(self):
        for name, ok, detail in self.workload.checks():
            self.attempted += 1
            if not ok:
                self._fail(f"check {name}: {detail}")

    def _fail(self, message, tb=None):
        if not self.failures:
            print(f"perfbench: {message}", file=sys.stderr)
            if tb:
                print(tb, file=sys.stderr)
        self.failures.append(message)


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _ops_per_s(phase) -> float:
    return len(phase["times"]) / sum(phase["times"])


def _tail(times):
    """Highest order statistic with at least ten ops above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--record", default=None)
    args = ap.parse_args(argv)

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    runner = Runner(WORKLOADS[args.workload](rng, args.tiny, _Cli(tmp)))
    runner.one(0)  # untimed warm-up
    result = {"setup_s": time.monotonic() - args.t0,
              "numpy": np.__version__, "blas": _blas(), "python": sys.version.split()[0]}
    record = {}
    if not args.setup_only:
        phase = runner.timed(args.seconds / 2 if args.trace else args.seconds)
        record["untraced"] = phase
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.timed(args.seconds / 2, tracer.run_op)
            finally:
                tracer.uninstall()
            record["traced"] = traced
            record["spans"] = tracer.spans
            ops = len(traced["times"])
            layer = tracer.layer_metrics(ops)
            layer["bench.traced_ops"] = ops
            layer["bench.traced_ops_per_s"] = _ops_per_s(traced)
            layer["bench.untraced_ops_per_s"] = _ops_per_s(phase)
            layer["bench.trace_overhead_ops_per_s"] = (
                layer["bench.untraced_ops_per_s"] - layer["bench.traced_ops_per_s"])
            result["layer"] = layer
            for name in tracer.zero_call_targets(runner.workload.exercises):
                runner.problems.append(f"traced run recorded no call of {name}")
            for k, (a, b) in enumerate(zip(phase["digests"], traced["digests"])):
                if a and b and a != b:
                    runner._fail(f"op {k}: traced output {b} differs from untraced {a}")
        else:
            times = phase["times"]
            tail, pct = _tail(times)
            result.update(
                ops=len(times),
                ops_per_s=_ops_per_s(phase),
                op_s_p50=statistics.median(times),
                op_s_tail=tail,
                tail_percentile=pct,
                cpu_s_per_op=sum(phase["cpu"]) / len(times),
            )
        runner.run_checks()
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:20]
    result["problems"] = runner.problems
    for message in runner.problems:
        print(f"perfbench: {message}", file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps({"result": result, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
