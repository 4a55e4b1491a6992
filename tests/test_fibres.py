import math
from dataclasses import replace

from rholab.fibres import (
    audit_trace,
    fibre_count_bound,
    run_fibre,
    support_threshold,
    trace_fingerprint,
    trace_to_doc,
)
from rholab.harness import canonical_json
from rholab.inverse_lo import DESK_PROFILE
from rholab.rng import substream
from rholab.zp_core import PrimeModulus, ZpVector

P101 = PrimeModulus(101)


def test_small_support_gives_empty_trace():
    v = ZpVector((3,) * 100 + (0,) * 924)  # support 100 < 8 * 32 = 256
    g = substream(41, "empty", 0)
    trace = run_fibre(v, P101, DESK_PROFILE, g)
    assert trace.k_star == 0 and trace.steps == ()
    assert trace.terminal_support == 100
    assert audit_trace(v, trace, DESK_PROFILE).ok


def test_run_fibre_rejects_unstructured_vector():
    import pytest

    from rholab.errors import PreconditionViolated

    g = substream(41, "lowrho", 0)
    v = ZpVector(tuple(int(x) for x in g.integers(1, 101, size=1024)))
    with pytest.raises(PreconditionViolated):
        run_fibre(v, P101, DESK_PROFILE, g)


def test_constant_vector_run_and_audit():
    n = 1024
    v = ZpVector((17,) * n)
    g = substream(41, "run", 0)
    trace = run_fibre(v, P101, DESK_PROFILE, g)
    assert trace.k_star >= 1
    report = audit_trace(v, trace, DESK_PROFILE)
    assert report.ok, report.failures()
    threshold = support_threshold(n, DESK_PROFILE)
    for k, step in enumerate(trace.steps, start=1):
        assert 4 * len(step.x) >= len(step.z)
        assert 4 ** (k - 1) * len(step.z) <= 3 ** (k - 1) * n
        assert len(step.z) >= threshold
    assert trace.terminal_support < threshold
    cap = math.ceil(math.log(n) / math.log(4 / 3)) + 1
    assert trace.k_star <= cap == 26


def test_trace_determinism_byte_for_byte():
    v = ZpVector((9,) * 1024)
    t1 = run_fibre(v, P101, DESK_PROFILE, substream(42, "det", 7))
    t2 = run_fibre(v, P101, DESK_PROFILE, substream(42, "det", 7))
    assert canonical_json(trace_to_doc(t1)) == canonical_json(trace_to_doc(t2))


def test_audit_catches_tampering():
    v = ZpVector((23,) * 1024)
    trace = run_fibre(v, P101, DESK_PROFILE, substream(43, "tamper", 0))
    assert trace.steps
    s0 = trace.steps[0]
    moved = next(iter(s0.x))
    tampered = replace(
        trace, steps=(replace(s0, x=s0.x - {moved}, y=s0.y | {moved}),) + trace.steps[1:]
    )
    report = audit_trace(v, tampered, DESK_PROFILE)
    assert not report.ok
    assert report.failures()  # the moved index breaks the Z-chain relation


def test_disjointness_across_steps():
    v = ZpVector((5,) * 1024)
    trace = run_fibre(v, P101, DESK_PROFILE, substream(44, "disjoint", 0))
    xs = [s.x for s in trace.steps]
    ys = [s.y for s in trace.steps]
    for i in range(len(xs)):
        assert not (xs[i] & ys[i])
        for j in range(i + 1, len(xs)):
            assert not (xs[i] & xs[j])
            assert not (xs[i] & ys[j])


def test_fibre_count_bound_components():
    b = fibre_count_bound(1024, P101, DESK_PROFILE)
    # finite geometric sum stays below the closed-form limit 4n
    assert b["geometric_sum"] <= b["geometric_sum_limit"] == 4096.0
    assert b["geometric_sum"] >= 0.99 * 4096.0
    assert b["log_bound"] == b["log_choices_xy"] + b["log_choices_b"]


def test_fibre_count_bound_large_n_comparison():
    # Direct evaluation at n = 2^20: the X/Y term alone exceeds the
    # n^{n/64} reference, so the asymptotic comparison fails at this scale
    # (it needs log n >= 2^10); both sides are reported, not asserted.
    n = 2**20
    p = PrimeModulus(5)
    from rholab.inverse_lo import PAPER_PROFILE

    b = fibre_count_bound(n, p, PAPER_PROFILE)
    assert b["log_choices_xy"] > b["log_reference_n_pow_n64"]
    assert b["log_bound"] > b["log_reference_n_pow_n64"]
    # the crossover condition: bound <= reference requires
    # 2 ln2 * 4n <= (n/128) ln n, i.e. ln n >= 1024 ln 2
    assert 8 * math.log(2) > math.log(n) / 128


def test_distinct_fibres_below_bound():
    p31 = PrimeModulus(31)
    prints = set()
    for i in range(60):
        g = substream(45, "count", i)
        c = int(g.integers(1, 31))
        v = ZpVector((c,) * 128)
        prints.add(trace_fingerprint(run_fibre(v, p31, DESK_PROFILE, g)))
    bound = fibre_count_bound(128, p31, DESK_PROFILE)
    assert math.log(len(prints)) <= bound["log_bound"]


def test_run_fibre_hands_each_step_the_rho_it_has(monkeypatch):
    # step 1 gets rho(v); a later step gets rho(v_{Y_k}) from the previous
    # certificate exactly when Z_{k+1} = Y_k, and computes its own otherwise
    import rholab.fibres as fibres
    from rholab.anticoncentration import rho

    handed, build = [], fibres.build_container

    def recording_build(vz, p, profile, rng, *, rho_v=None):
        handed.append(rho_v is not None)
        assert rho_v is None or rho_v == rho(vz, p)
        return build(vz, p, profile, rng, rho_v=rho_v)

    monkeypatch.setattr(fibres, "build_container", recording_build)
    for v in (ZpVector((17,) * 1024), ZpVector((17,) * 1000 + (50,) * 24)):
        del handed[:]
        trace = run_fibre(v, P101, DESK_PROFILE, substream(43, "handed", 0))
        assert audit_trace(v, trace, DESK_PROFILE).ok
        assert handed[0] and len(handed) == trace.k_star
        for k, step in enumerate(trace.steps[:-1]):
            assert handed[k + 1] == (trace.steps[k + 1].z == step.y)
    assert not all(handed)  # the second vector keeps entries outside Y_k


def test_run_fibre_exhaustion_says_how_many_attempts_were_dropped():
    # step 1 certifies with every entry 34 outside B; at step 2 those 128
    # entries are more than a quarter of the live ones, so no B that leaves
    # them out can pass, and every attempt is dropped before rho(v_Y) is walked
    import pytest

    from rholab.errors import RetryExhausted

    v = ZpVector((17,) * 384 + (34,) * 128)
    profile = replace(DESK_PROFILE, max_attempts=10)
    for i in range(3):
        with pytest.raises(RetryExhausted) as exc:
            run_fibre(v, P101, profile, substream(36, "quarter", i))
        assert str(exc.value) == (
            "step 2: certificate invariants kept failing after 10 attempts "
            "(10 dropped on outsideCount before rho(v_Y) was walked); "
            "last failures: ['outsideCount exceeds n/4']"
        )
