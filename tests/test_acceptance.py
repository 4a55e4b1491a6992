"""Acceptance suite: one test per criterion, at the stated scales and
tolerances, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or `rholab verify-all --seed 42` for the CLI rendering of the same checks.
"""

import time

from rholab import acceptance as acc
from rholab.cli import cli_dispatch

SEED = 42
FULL = {label: scales["full"] for label, scales in acc.SCALES.items()}


def _report(label, res, elapsed, budget=None):
    status = "PASS" if res["ok"] else "FAIL"
    extra = f" ({elapsed:.1f}s)" if budget is None else f" ({elapsed:.1f}s / budget {budget}s)"
    print(f"criterion {label}: {status} - {res['name']}{extra}")
    assert res["ok"], res
    if budget is not None:
        assert elapsed < budget, f"criterion {label} exceeded runtime budget"


def test_criterion_1_rho_oracle_equivalence():
    t0 = time.time()
    res = acc.check_rho_oracle(SEED, **FULL["1"])
    _report("1", res, time.time() - t0, budget=60)


def test_criterion_2_deterministic_lemmas():
    t0 = time.time()
    res = acc.check_deterministic_lemmas(SEED, **FULL["2"])
    _report("2", res, time.time() - t0, budget=120)


def test_criterion_3_halasz_chain():
    t0 = time.time()
    res = acc.check_halasz_chain(SEED, **FULL["3"])
    _report("3", res, time.time() - t0)


def test_criterion_4_container_construction():
    t0 = time.time()
    res = acc.check_container_construction(SEED, **FULL["4"], n=512, p_val=101)
    _report("4", res, time.time() - t0)
    assert res["successes"] >= 99
    assert res["reverified"] == res["successes"]


def test_criterion_5_fibre_algorithm():
    t0 = time.time()
    res = acc.check_fibre_algorithm(SEED, **FULL["5"], n=1024, p_val=101)
    _report("5", res, time.time() - t0)
    assert res["mutation_caught"]
    assert res["k_star_max"] <= 26  # ceil(log_{4/3} 1024) + 1


def test_failing_cases_count_as_violations():
    # n = 64 is below the desk support floor 32 ln 101 = 147.7, so every
    # construction stops with PreconditionViolated; the criteria report the
    # case as failed instead of raising
    res = acc.check_fibre_algorithm(SEED, 1, n=64)
    assert res["violations"] == 1 and not res["ok"]
    assert res["k_star_max"] == 0 and res["k_star_cap"] == 16
    res = acc.check_container_construction(SEED, 1, n=64)
    assert res["failures"] == ["case 0: support 64 below floor 147.7"] and not res["ok"]


def test_criterion_6_exhaustive_matrix_checks():
    t0 = time.time()
    res = acc.check_exhaustive_matrix(SEED, **FULL["6"])
    _report("6", res, time.time() - t0, budget=300)


def test_criterion_7_identity_suite():
    t0 = time.time()
    res = acc.check_identities(SEED, **FULL["7"])
    _report("7", res, time.time() - t0)


def test_criterion_8_rho_inequalities():
    t0 = time.time()
    res = acc.check_rho_inequalities(SEED, **FULL["8"])
    _report("8", res, time.time() - t0)


def test_criterion_9_monte_carlo_consistency():
    t0 = time.time()
    res = acc.check_monte_carlo(SEED, **FULL["9"])
    _report("9", res, time.time() - t0, budget=600)
    assert res["interval_misses"] <= 1
    assert res["monotone_decay"]


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.time()
    dirs = [tmp_path / f"run{i}" for i in range(3)]
    base = ["verify-all", "--seed", "42", "--quick"]
    assert cli_dispatch(base + ["--out", str(dirs[0])]) == 0
    assert cli_dispatch(base + ["--out", str(dirs[1])]) == 0
    assert cli_dispatch(base + ["--workers", "2", "--out", str(dirs[2])]) == 0
    artifacts = ["verify_all.json", "singularity.csv", "record.json"]
    refs = {a: (dirs[0] / a).read_bytes() for a in artifacts}
    ok = all((d / a).read_bytes() == refs[a] for d in dirs[1:] for a in artifacts)
    _report("10", {"ok": ok, "name": "reproducibility"}, time.time() - t0)
