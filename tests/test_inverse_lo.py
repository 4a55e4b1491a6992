import json
from dataclasses import replace
from fractions import Fraction

import pytest

from rholab.anticoncentration import RhoResult, rho
from rholab.containers import container, frequency_set
from rholab.errors import PreconditionViolated, RetryExhausted
from rholab.fibres import FibreStep, FibreTrace, run_fibre, support_threshold
from rholab.inverse_lo import (
    DESK_PROFILE,
    PAPER_PROFILE,
    _certificate,
    _levels,
    build_container,
    canonical_json,
    certificate_json,
    profile_from_dict,
    sample_U_with_attempts,
    sample_Y_with_attempts,
    verify_certificate,
)
from rholab.rng import substream
from rholab.zp_core import PrimeModulus, ZpVector

P101 = PrimeModulus(101)


def constant_vector(c, n):
    return ZpVector((c,) * n)


def test_paper_profile_reproduces_published_constants():
    pr = PAPER_PROFILE
    assert pr.support_floor_coeff == 2**18
    assert pr.m_coeff == 2**12
    assert pr.ell_coeff == Fraction(1, 2**16)
    assert pr.t_coeff == Fraction(1, 2**7)
    assert pr.size_const == 2**16
    assert pr.y_density == Fraction(3, 8)
    assert pr.u_density_coeff == Fraction(1, 2)
    assert pr.rho_floor_coeff == 4
    assert pr.support_threshold_coeff == 2**8


def test_profile_roundtrip_from_dict():
    d = {
        "support_floor_coeff": 32,
        "m_coeff": 13,
        "ell_coeff": "1/65536",
        "t_coeff": "1/8",
        "size_const": 65536,
        "y_density": "3/8",
        "u_density_coeff": "7/8",
        "rho_floor_coeff": 2,
        "support_threshold_coeff": 8,
    }
    pr = profile_from_dict(d)
    assert pr.t_coeff == Fraction(1, 8)
    assert pr.u_density(512, P101) == pytest.approx(7 / 8 * pr.m(P101) / 512)


def test_sample_y_satisfies_acceptance_conditions():
    v = constant_vector(17, 256)
    g = substream(31, "sampley", 0)
    y, _ = sample_Y_with_attempts(v, P101, DESK_PROFILE, _levels(v, P101, DESK_PROFILE), g)
    n = len(v)
    assert n <= 4 * len(y) <= 2 * n
    assert 4 * v.restrict(y).support_size >= v.support_size


def test_sample_u_satisfies_acceptance_conditions():
    v = constant_vector(3, 256)
    g = substream(31, "sampleu", 0)
    u, _ = sample_U_with_attempts(v, P101, DESK_PROFILE, _levels(v, P101, DESK_PROFILE), g)
    assert len(u) <= DESK_PROFILE.m(P101)
    f = frequency_set(v.restrict(u), P101)
    from rholab.containers import level_set

    assert f <= level_set(v, DESK_PROFILE.t(len(v)), P101)


def test_paper_profile_samplers_accept_quickly_at_tiny_p():
    # At p = 5 the level-set conditions are automatic, so the per-property
    # failure rate stays below 1/4 and acceptance averages <= 4 attempts.
    p5 = PrimeModulus(5)
    v = constant_vector(2, 512)
    levels = _levels(v, p5, PAPER_PROFILE)
    runs = 100
    y_attempts = 0
    u_attempts = 0
    for i in range(runs):
        g = substream(32, "papery", i)
        y, a = sample_Y_with_attempts(v, p5, PAPER_PROFILE, levels, g)
        y_attempts += a
        u, b = sample_U_with_attempts(v, p5, PAPER_PROFILE, levels, g)
        u_attempts += b
        assert len(u) <= PAPER_PROFILE.m(p5)
    assert y_attempts / runs <= 4
    assert u_attempts / runs <= 4


def test_paper_profile_proof_chain_on_accepted_samples():
    # On acceptance the proof's step-by-step size chain holds:
    # |T_ell(v_Y)| <= |T_8ell(v)| <= 2 |F(v_U)| and |B| <= 4p / |F(v_U)|.
    from rholab.containers import level_set

    p5 = PrimeModulus(5)
    v = constant_vector(2, 512)
    levels = _levels(v, p5, PAPER_PROFILE)
    for i in range(10):
        g = substream(36, "chain", i)
        y, _ = sample_Y_with_attempts(v, p5, PAPER_PROFILE, levels, g)
        u, _ = sample_U_with_attempts(v, p5, PAPER_PROFILE, levels, g)
        ell = PAPER_PROFILE.ell(v.support_size)
        t_ell_y = len(level_set(v.restrict(y), ell, p5))
        t8 = len(level_set(v, 8 * ell, p5))
        f = frequency_set(v.restrict(u), p5)
        assert t_ell_y <= t8 <= 2 * len(f)
        b = container(f, p5)
        assert b.size * len(f) <= 4 * p5.p


def test_build_container_certificate_on_constant_vector():
    v = constant_vector(17, 512)
    g = substream(33, "build", 0)
    cert = build_container(v, P101, DESK_PROFILE, g)
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, cert)
    assert ok, errs
    m = cert.measured
    assert 4 * m["outsideCount"] <= 512
    assert m["supportV"] == 512
    # B is the container of the frequency set, recomputed from scratch
    assert cert.b.members == container(frequency_set(v.restrict(cert.u), P101), P101).members
    # the family index pads v_U with zeros up to m; zero entries add no
    # weight, so the padded tuple indexes the same container in the p^m family
    vu = [v.entries[i] for i in sorted(cert.u)]
    fam = tuple(vu + [0] * (DESK_PROFILE.m(P101) - len(vu)))
    assert len(fam) == DESK_PROFILE.m(P101)
    assert set(fam) <= {0, 17}
    assert frequency_set(ZpVector(fam), P101) == frequency_set(v.restrict(cert.u), P101)


def test_build_container_decides_levels_of_v_once(monkeypatch):
    # one weight table of v for the construction, and one more in each
    # independent re-verification
    import rholab.inverse_lo as ilo

    v = constant_vector(17, 512)
    on_v, verified = [], []
    weight_table, verify = ilo.weight_table, ilo.verify_certificate

    def counting_table(w, p):
        on_v.append(w == v)
        return weight_table(w, p)

    def counting_verify(*args):
        verified.append(args)
        return verify(*args)

    monkeypatch.setattr(ilo, "weight_table", counting_table)
    monkeypatch.setattr(ilo, "verify_certificate", counting_verify)
    build_container(v, P101, DESK_PROFILE, substream(33, "build", 0))
    assert verified
    assert sum(on_v) == 1 + len(verified)


def test_certificate_cases_verify_only_inside_build_container(monkeypatch):
    # build_container returns only verified certificates, so the case runner
    # adds no second verification of its own
    import rholab.inverse_lo as ilo

    depth, outside, inside = [0], [], []
    build, verify = ilo.build_container, ilo.verify_certificate

    def tracked_build(*args):
        depth[0] += 1
        try:
            return build(*args)
        finally:
            depth[0] -= 1

    def tracked_verify(*args):
        (inside if depth[0] else outside).append(args)
        return verify(*args)

    monkeypatch.setattr(ilo, "build_container", tracked_build)
    monkeypatch.setattr(ilo, "verify_certificate", tracked_verify)
    cases = list(ilo.certificate_cases(1, "x", 5, 512, P101, DESK_PROFILE))
    assert all(case.ok for case in cases)
    assert inside and not outside


def test_build_container_rejects_low_rho():
    # a generic full-support vector at n = 256 mixes mod 101 and sits at
    # rho ~ 1/p, below the desk floor 2/p
    g = substream(33, "lowrho", 0)
    v = ZpVector(tuple(int(x) for x in g.integers(1, 101, size=256)))
    with pytest.raises(PreconditionViolated):
        build_container(v, P101, DESK_PROFILE, g)


def test_build_container_rejects_small_support():
    v = constant_vector(5, 64)  # support 64 < 32 log 101 ~ 147.7
    g = substream(33, "smallsupp", 0)
    with pytest.raises(PreconditionViolated):
        build_container(v, P101, DESK_PROFILE, g)


def test_verify_certificate_catches_tampering():
    v = constant_vector(9, 512)
    g = substream(34, "tamper", 0)
    cert = build_container(v, P101, DESK_PROFILE, g)
    # inflate B
    tampered = replace(cert, b=replace(cert.b, members=cert.b.members | {50}))
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok and errs
    # shrink Y below the window
    tampered = replace(cert, y=frozenset(sorted(cert.y)[: len(v) // 8]))
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok and any("sizeY" in e for e in errs)
    # misreport a measured quantity
    bad_measured = dict(cert.measured)
    bad_measured["outsideCount"] = bad_measured["outsideCount"] + 1
    tampered = replace(cert, measured=bad_measured)
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok
    # misreport rhoVY
    tampered = replace(cert, rho_vy=replace(cert.rho_vy, count=cert.rho_vy.count + 1))
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok and any("rhoVY" in e for e in errs)
    # shift Y and U below 0: negative indices still read entries of v
    n = len(v)
    tampered = replace(
        cert, y=frozenset(i - n for i in cert.y), u=frozenset(i - n for i in cert.u)
    )
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok and any("[0, n)" in e for e in errs)
    # an index past the end is a failure, not an IndexError
    tampered = replace(cert, y=cert.y | {n})
    ok, errs = verify_certificate(v, P101, DESK_PROFILE, tampered)
    assert not ok and any("[0, n)" in e for e in errs)


def test_build_container_paper_profile_rejects_desk_support():
    # the published support floor is 2^18 log p, far above n = 512
    v = constant_vector(3, 512)
    g = substream(34, "paperfloor", 0)
    with pytest.raises(PreconditionViolated):
        build_container(v, P101, PAPER_PROFILE, g)


def test_sampler_retry_exhausted_on_impossible_profile():
    from dataclasses import replace as dc_replace

    from rholab.errors import RetryExhausted

    v = constant_vector(4, 256)
    g = substream(34, "hostile", 0)
    # Y density 1/1000 makes |Y| >= n/4 essentially impossible
    hostile = dc_replace(
        DESK_PROFILE, name="hostile", y_density=Fraction(1, 1000), max_attempts=5
    )
    with pytest.raises(RetryExhausted, match=r"Y sampler exhausted 5 attempts \(profile hostile\)"):
        sample_Y_with_attempts(v, P101, hostile, _levels(v, P101, hostile), g)
    # U density near 0 leaves U empty, and F(v_U) = Z_p escapes T_t(v)
    hostile = dc_replace(
        DESK_PROFILE, name="hostile-u", u_density_coeff=Fraction(1, 10**6), max_attempts=5
    )
    with pytest.raises(RetryExhausted, match=r"U sampler exhausted 5 attempts \(profile hostile-u\)"):
        sample_U_with_attempts(v, P101, hostile, _levels(v, P101, hostile), g)


def test_certificate_serialization_deterministic():
    v = constant_vector(4, 512)
    a = certificate_json(build_container(v, P101, DESK_PROFILE, substream(35, "ser", 0)))
    b = certificate_json(build_container(v, P101, DESK_PROFILE, substream(35, "ser", 0)))
    assert a == b
    assert '"p":"101"' in a  # integers serialize as decimal strings


def test_canonical_json_sorts_and_stringifies():
    doc = {"b": 2, "a": {"z": [3, 1], "frac": Fraction(1, 3)}}
    assert canonical_json(doc) == '{"a":{"frac":"1/3","z":["3","1"]},"b":"2"}'


# Reference copies of the certificate loop and the fibre loop as they were
# before attempts were discarded on their container: every attempt walks
# rho(v_Y) and goes through the verifier, and every step checks rho of its
# live vector afresh.  The reference error counts the attempts whose
# outsideCount exceeds n/4, the ones build_container drops unwalked.


def _reference_build_container(v, p, profile, rng):
    v.validate(p)
    if v.support_size < profile.support_floor(p):
        raise PreconditionViolated(
            f"support {v.support_size} below floor {profile.support_floor(p):.1f}"
        )
    rv = rho(v, p)
    if rv.value < profile.rho_floor(p):
        raise PreconditionViolated(f"rho(v) = {rv.value} below floor {profile.rho_floor(p)}")
    levels = _levels(v, p, profile)
    last, outside = None, 0
    for _ in range(profile.max_attempts):
        y = sample_Y_with_attempts(v, p, profile, levels, rng)[0]
        u = sample_U_with_attempts(v, p, profile, levels, rng)[0]
        cert = _certificate(v, p, y, u)
        ok, failures = verify_certificate(v, p, profile, cert)
        if ok:
            return cert
        last = failures
        outside += 4 * cert.measured["outsideCount"] > len(v)
    raise RetryExhausted(
        f"certificate invariants kept failing after {profile.max_attempts} attempts "
        f"({outside} dropped on outsideCount before rho(v_Y) was walked); last failures: {last}"
    )


def _reference_run_fibre(v, p, profile, rng):
    v.validate(p)
    if rho(v, p).value < profile.rho_floor(p):
        raise PreconditionViolated(f"rho(v) below the profile floor {profile.rho_floor(p)}")
    n = len(v)
    threshold = support_threshold(n, profile)
    steps = []
    live = frozenset(range(n))
    while True:
        order = sorted(live)
        vz = v.restrict(live)
        if vz.support_size < threshold:
            return FibreTrace(n=n, p=p.p, steps=tuple(steps), k_star=len(steps),
                              terminal_support=vz.support_size)
        try:
            cert = _reference_build_container(vz, p, profile, rng)
        except RetryExhausted as exc:
            raise RetryExhausted(f"step {len(steps) + 1}: {exc}") from exc
        y = frozenset(order[j] for j in cert.y)
        x = frozenset(i for i in live - y if v.entries[i] in cert.b.members)
        steps.append(FibreStep(x=x, y=y, b=cert.b, z=live))
        live = live - x


def _state(g):
    """The bit generator's full state, arrays included, as comparable text."""
    return json.dumps(g.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def _outcome(fn, *args):
    """fn's result, or the message of the RetryExhausted it raised."""
    try:
        return fn(*args)
    except RetryExhausted as exc:
        return str(exc)


_PAIRS = ((build_container, _reference_build_container), (run_fibre, _reference_run_fibre))


def _assert_matches_reference(v, label, i, pairs=_PAIRS):
    """Each function gives what its reference loop gives, and leaves the
    generator where the reference leaves it."""
    for ours, reference in pairs:
        g, g_ref = substream(36, label, i), substream(36, label, i)
        assert _outcome(ours, v, P101, DESK_PROFILE, g) == _outcome(
            reference, v, P101, DESK_PROFILE, g_ref)
        assert _state(g) == _state(g_ref)


@pytest.mark.parametrize("n", [512, 1024])
def test_build_container_and_run_fibre_match_the_reference_loop(n, monkeypatch):
    rejected, verify = [], verify_certificate

    def counting_verify(*args):
        ok, failures = verify(*args)
        rejected.append(not ok)
        return ok, failures

    monkeypatch.setitem(globals(), "verify_certificate", counting_verify)  # the reference's
    for i in range(50):
        c = int(substream(36, "reference", i).integers(1, 101))
        _assert_matches_reference(constant_vector(c, n), "reference", i)
    assert any(rejected)  # some attempts failed, and ours discarded them


@pytest.mark.parametrize("x", [34, 67])
def test_an_attempt_with_exactly_a_quarter_outside_is_kept(x):
    # the x entries fall outside B, n/4 of them, which the verifier accepts
    v = ZpVector((17,) * 384 + (x,) * 128)
    for i in range(8):
        _assert_matches_reference(v, "quarter", i, _PAIRS[:1])
    cert = build_container(v, P101, DESK_PROFILE, substream(36, "quarter", 0))
    assert 4 * cert.measured["outsideCount"] == len(v)


@pytest.mark.parametrize("max_attempts", [1, 2, 3])
def test_retry_exhausted_reports_the_reference_failures(max_attempts):
    # at the desk constants every failed attempt fails on outsideCount alone, so
    # the last one was discarded before the verifier saw it; with size_const 1
    # every attempt fails the size bound, and only some are discarded first
    discarded = verified = 0
    for size_const in (DESK_PROFILE.size_const, 1):
        profile = replace(DESK_PROFILE, size_const=size_const, max_attempts=max_attempts)
        for i in range(12):
            v = constant_vector(17, 512)
            got = _outcome(build_container, v, P101, profile, substream(37, "exhaust", i))
            want = _outcome(_reference_build_container, v, P101, profile,
                            substream(37, "exhaust", i))
            assert got == want
            if isinstance(got, str):
                if "outsideCount exceeds n/4" in got:
                    discarded += 1
                else:
                    verified += 1
    assert discarded and verified


def test_build_container_rejects_a_handed_rho_below_the_floor():
    v = constant_vector(17, 512)
    low = RhoResult(atom=0, count=1, log2_denominator=10)
    with pytest.raises(PreconditionViolated, match=r"rho\(v\) = 1/1024 below floor 2/101"):
        build_container(v, P101, DESK_PROFILE, substream(33, "build", 0), rho_v=low)
