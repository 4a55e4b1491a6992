"""Command-line interface.

Subcommands: rho, halasz, container, fibre, singularity, identities,
verify-all.  Exit codes: 0 all invoked checks pass, 1 an invariant failed
(machine-readable JSON report on stderr), 2 usage error (argparse, an
unreadable input or profile file, or a --beta that is not a fraction).
Identical configs (seed included) produce byte-identical artifacts,
regardless of --workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import acceptance
from . import anticoncentration as ac
from . import matrix_lab as ml
from .errors import (
    GuardExceeded,
    PreconditionViolated,
    RetryExhausted,
    VectorParseError,
)
from .fibres import fibre_cases, trace_to_doc
from .harness import failure_report, load_vectors, write_csv, write_json, write_record
from .inverse_lo import (
    DESK_PROFILE,
    PROFILES,
    certificate_cases,
    certificate_to_doc,
    profile_from_dict,
)
from .zp_core import PrimeModulus


class _UsageError(Exception):
    pass


def _profile(spec: str):
    if spec in PROFILES:
        return PROFILES[spec]
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            d = json.loads(Path(path).read_text())
            if not isinstance(d, dict):
                raise ValueError("not a JSON object")
            return profile_from_dict(d)
        except KeyError as exc:
            raise _UsageError(f"profile file {path} lacks field {exc}") from exc
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise _UsageError(f"profile file {path}: {exc}") from exc
    raise _UsageError(f"unknown profile {spec!r} (use paper, desk, or file:<path>)")


_COMMON = {
    "seed": dict(type=int, default=0),
    "profile": dict(default="desk", help="paper | desk | file:<path>"),
    "out": dict(default=None, help="artifact path (or directory for verify-all)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "workers": dict(type=int, default=1),
}


_MC_HEADER = ["n", "trials", "singular_count", "p_hat", "wilson_lo", "wilson_hi",
              "conjecture", "seed"]


def _add_common(sp, *names):
    """Add the shared options a subcommand actually reads."""
    for name in names:
        sp.add_argument(f"--{name}", **_COMMON[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call starts a fresh
    namespace from the defaults."""
    ap = argparse.ArgumentParser(prog="rholab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rho", help="exact rho / rho-half for a vector file")
    _add_common(sp, "out", "format")
    sp.add_argument("--vectors", required=True)

    sp = sub.add_parser("halasz", help="bound-chain audit for a vector file")
    _add_common(sp, "out", "format")
    sp.add_argument("--vectors", required=True)

    sp = sub.add_parser("container", help="build and verify container certificates")
    _add_common(sp, "seed", "profile", "out", "format")
    sp.add_argument("--n", type=int, default=512)
    sp.add_argument("--p", type=int, default=101)
    sp.add_argument("--count", type=int, default=10)

    sp = sub.add_parser("fibre", help="run and audit fibre traces")
    _add_common(sp, "seed", "profile", "out", "format")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--p", type=int, default=101)
    sp.add_argument("--count", type=int, default=10)

    sp = sub.add_parser("singularity", help="exact or Monte Carlo singularity")
    _add_common(sp, "seed", "out", "format", "workers")
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--mc", action="store_true")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100000)

    sp = sub.add_parser("identities", help="algebraic identity property suites")
    _add_common(sp, "seed", "out", "format")
    sp.add_argument("--cases", type=int, default=50)
    sp.add_argument("--beta", default=None,
                    help="also probe exhaustive q_n(beta), e.g. --beta 4/5 --n 2 --p 5")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--p", type=int, default=5)

    sp = sub.add_parser("verify-all", help="full acceptance suite")
    _add_common(sp, "seed", "out", "workers")
    sp.add_argument("--quick", action="store_true", help="reduced case counts")
    return ap


def _emit(args, header, rows, doc, failures=None) -> int:
    """Write the artifact; report `failures` on stderr and return the exit code."""
    if args.format == "csv":
        text = write_csv(args.out, header, rows)
    else:
        text = write_json(args.out, doc)
    if args.out is None:
        sys.stdout.write(text)
    if failures:
        print(failure_report(failures), file=sys.stderr)
        return 1
    return 0


def cmd_rho(args) -> int:
    vectors = load_vectors(args.vectors)
    header = [
        "idx", "p", "n", "support",
        "rho_atom", "rho_count", "rho_log2_den",
        "rho_half_atom", "rho_half_count", "rho_half_log2_den",
    ]
    rows = []
    docs = []
    for idx, (p, v) in enumerate(vectors):
        r = ac.rho(v, p)
        h = ac.rho_half(v, p)
        rows.append([idx, p.p, len(v), v.support_size, r.atom, r.count,
                     r.log2_denominator, h.atom, h.count, h.log2_denominator])
        docs.append({
            "idx": idx, "p": p.p, "n": len(v), "support": v.support_size,
            "rho": {"atom": r.atom, "count": r.count, "log2Denominator": r.log2_denominator},
            "rhoHalf": {"atom": h.atom, "count": h.count, "log2Denominator": h.log2_denominator},
        })
    return _emit(args, header, rows, {"vectors": docs})


def cmd_halasz(args) -> int:
    vectors = load_vectors(args.vectors)
    header = ["idx", "p", "support", "ell", "rho", "first", "second", "final", "ok"]
    rows = []
    bad = 0
    for idx, (p, v) in enumerate(vectors):
        if v.support_size == 0:
            continue
        chain = ac.halasz_chain(v, p)
        r, first = repr(chain.rho), repr(chain.first)
        ok1 = chain.holds(chain.first)
        bad += 0 if ok1 else 1
        for ell, second, final in chain.levels:
            ok = chain.holds(second) and chain.holds(final)
            bad += 0 if ok else 1
            rows.append([idx, p.p, v.support_size, ell,
                         r, first, repr(second), repr(final), ok1 and ok])
        if not chain.levels:
            rows.append([idx, p.p, v.support_size, "", r, first, "", "", ok1])
    return _emit(args, header, rows, {"rows": [dict(zip(header, row)) for row in rows]},
                 {"halasz_violations": bad} if bad else None)


def cmd_container(args) -> int:
    profile = _profile(args.profile)
    p = PrimeModulus(args.p)
    header = ["idx", "p", "n", "support", "size_y", "support_vy", "outside_count",
              "size_b", "rho_vy", "ok"]
    rows = []
    docs = []
    bad = 0
    for case in certificate_cases(args.seed, "cli-container", args.count, args.n, p, profile):
        bad += 0 if case.ok else 1
        if case.error is not None:
            rows.append([case.idx, p.p, args.n, case.v.support_size, "", "", "", "", "", False])
            docs.append({"idx": case.idx, "error": case.error})
            continue
        m = case.result.measured
        rows.append([case.idx, p.p, args.n, m["supportV"], m["sizeY"], m["supportVY"],
                     m["outsideCount"], m["sizeB"],
                     f"{m['rhoVY'].numerator}/{m['rhoVY'].denominator}", case.ok])
        docs.append({"idx": case.idx, "certificate": certificate_to_doc(case.result),
                     "verified": case.ok})
    return _emit(args, header, rows, {"certificates": docs},
                 {"container_failures": bad} if bad else None)


def cmd_fibre(args) -> int:
    profile = _profile(args.profile)
    p = PrimeModulus(args.p)
    header = ["idx", "p", "n", "k_star", "terminal_support", "audit_ok"]
    rows = []
    traces = []
    bad = 0
    for case in fibre_cases(args.seed, "cli-fibre", args.count, args.n, p, profile):
        bad += 0 if case.ok else 1
        if case.error is not None:
            rows.append([case.idx, p.p, args.n, "", "", False])
            traces.append({"idx": case.idx, "error": case.error})
            continue
        trace = case.result
        rows.append([case.idx, p.p, args.n, trace.k_star, trace.terminal_support, case.ok])
        traces.append({"idx": case.idx, "trace": trace_to_doc(trace), "audit": case.audit.checks})
    return _emit(args, header, rows, {"traces": traces},
                 {"fibre_failures": bad} if bad else None)


def cmd_singularity(args) -> int:
    if args.exact == args.mc:
        print("choose exactly one of --exact / --mc", file=sys.stderr)
        return 2
    if args.exact:
        value = ml.singularity_exact(args.n)
        if args.out is not None:
            _emit(args, ["n", "exact"],
                  [[args.n, f"{value.numerator}/{value.denominator}"]],
                  {"n": args.n, "exact": value})
        print(f"{value.numerator}/{value.denominator}")
        return 0
    est = ml.singularity_mc_sharded(args.n, args.trials, args.seed, workers=args.workers)
    row = [est.n, est.trials, est.singular_count, repr(est.point_estimate),
           repr(est.wilson95[0]), repr(est.wilson95[1]),
           repr(est.conjecture_value), args.seed]
    doc = {
        "n": est.n, "trials": est.trials, "singularCount": est.singular_count,
        "pointEstimate": est.point_estimate, "wilson95": list(est.wilson95),
        "conjecture": est.conjecture_value,
        "contextBoundShape": est.context_bound_shape, "seed": args.seed,
    }
    return _emit(args, _MC_HEADER, [row], doc)


def cmd_identities(args) -> int:
    try:
        beta = None if args.beta is None else Fraction(args.beta)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"--beta {args.beta!r} is not a fraction") from exc
    k = args.cases
    res = acceptance.check_identities(
        args.seed, decouple_cases=k, prob_cases=k, odlyzko_cases=k,
        adjugate_cases=max(1, k // 2),
    )
    lemmas = acceptance.check_deterministic_lemmas(
        args.seed, container_cases=k, contain_cases=k,
        sumset_cases=k, cd_cases=k,
    )
    doc = {"identities": res, "deterministic_lemmas": lemmas}
    rows = [["identities", res["ok"], res["violations"], res["cases"]],
            ["deterministic_lemmas", lemmas["ok"], lemmas["violations"], lemmas["cases"]]]
    if beta is not None:
        p = PrimeModulus(args.p)
        q_max, w_max = ml.q_exact_max(args.n, p, beta, strict=False)
        doc["q_probe"] = {
            "n": args.n, "p": args.p, "beta": beta,
            "max_q": q_max, "argmax_w": list(w_max),
        }
        rows.append(["q_probe", True, 0, p.p**args.n])
    return _emit(args, ["suite", "ok", "violations", "cases"], rows, doc,
                 None if res["ok"] and lemmas["ok"] else {"identities": res, "lemmas": lemmas})


def cmd_verify_all(args) -> int:
    doc = acceptance.run_suite(args.seed, quick=args.quick, workers=args.workers)
    for label, res in doc["criteria"].items():
        status = "PASS" if res["ok"] else "FAIL"
        print(f"criterion {label}: {status} ({res['name']})")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "verify_all.json", doc)
        # worker count stays out of the logical config: artifacts must be
        # byte-identical for any parallelism (it is logged to stderr instead)
        print(f"[verify-all] workers={args.workers}", file=sys.stderr)
        write_record(
            out_dir / "record.json", "verify-all", args.seed, DESK_PROFILE.name,
            {"quick": args.quick},
            outputs={k: v["name"] for k, v in doc["criteria"].items()},
            invariants={k: v["ok"] for k, v in doc["criteria"].items()},
        )
        mc = doc["criteria"]["9"]
        rows = []
        for rec in mc["intervals"]:
            rows.append([rec["n"], "", "", repr(rec["estimate"]),
                         repr(rec["wilson"][0]), repr(rec["wilson"][1]), "", args.seed])
        for rec in mc["trend"]:
            rows.append([rec["n"], "", "", repr(rec["estimate"]), "", "",
                         repr(rec["conjecture"]), args.seed])
        write_csv(out_dir / "singularity.csv", _MC_HEADER, rows)
    if not doc["all_ok"]:
        failing = {k: v["name"] for k, v in doc["criteria"].items() if not v["ok"]}
        print(failure_report(failing), file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "rho": cmd_rho,
    "halasz": cmd_halasz,
    "container": cmd_container,
    "fibre": cmd_fibre,
    "singularity": cmd_singularity,
    "identities": cmd_identities,
    "verify-all": cmd_verify_all,
}


def cli_dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (PreconditionViolated, RetryExhausted, GuardExceeded) as exc:
        print(failure_report({"error": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, VectorParseError, _UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
