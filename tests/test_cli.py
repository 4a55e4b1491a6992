import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from rholab.cli import build_parser, cli_dispatch
from rholab.inverse_lo import DESK_PROFILE

# sha256 of the `verify-all --seed 42 --quick` artifacts.  Refactors must
# reproduce them byte for byte.  Floats are written with repr, so a libm that
# rounds exp differently would change verify_all.json too.
QUICK_DIGESTS = {
    "verify_all.json": "f137828634e7fa38b4bbf4f09d91381d23fbba28b6800c92cd39b1bb2585ac80",
    "singularity.csv": "fffb7daba9ddabc47d174d946b60ac06d645972b3ba09018c3fec1a0c080b4f6",
    "record.json": "d95ef411fdf6ccdf6a0afd6942e27b1d2b54daabc86d88e2fc69ea05b41b637f",
}

# sha256 of certificate-layer JSON artifacts: every Y, U, B, rho(v_Y) and
# fibre step they record must survive refactors byte for byte.
CERTIFICATE_DIGESTS = {
    ("container", "--n", "512", "--count", "3", "--seed", "1"):
        "7dfbae9b0ac79457d9fc950ba14d22308c3549a0d4eef7af3fdda2830c0af063",
    ("fibre", "--n", "512", "--count", "2", "--seed", "1"):
        "8db257c8cae1df1a86fef70bea9945f5cd5a4dc137de831b50ba14922f0a2423",
}

# sha256 of the `rho` and `halasz` artifacts for CHAIN_VECTORS: ell runs
# through 1..3, a support below 64 gives a row with empty bound columns, and
# the zero vector is skipped by `halasz`.
CHAIN_VECTORS = [
    "p=1009; " + " ".join(str(1 + (7 * i * i + 3 * i) % 1008) for i in range(128)),
    "p=101; " + " ".join(str(1 + (i * i + 37 * i) % 100) for i in range(200)),
    "p=13; " + " ".join(["1"] * 64),
    "p=7; " + " ".join(str(1 + i % 6) for i in range(10)),
    "p=61; 0 0 0 0 0",
]
CHAIN_DIGESTS = {
    ("rho", "csv"): "91d680ac179fa39bd264dab0c34de435e9ef7a7ef323f8d59131fbd4f9620239",
    ("rho", "json"): "faf4b6e034962c83d96e0cf28caac5533259b3c0800080ccc9350b62f5e223aa",
    ("halasz", "csv"): "57df8bea5b28e065a077fa057a0cf399e65c8a9d29f6a6c7a659ae39d49207e8",
    ("halasz", "json"): "44a086d023ad5e0114af1be51a851471a67abcd755c501734f30e5f53dec0e97",
}


def run(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 2


def test_missing_args_exit_2(capsys):
    code, _, _ = run(capsys, ["singularity"])  # missing --n
    assert code == 2


def test_unread_options_are_rejected(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=5; 1 1\n")
    # every option a subcommand would ignore (rho --seed 1, ...) is a usage
    # error; the base arguments alone run cleanly, so the 2 comes from it
    unread = {
        ("rho", "--vectors", str(vf)): ["--seed", "--profile", "--workers"],
        ("halasz", "--vectors", str(vf)): ["--seed", "--profile", "--workers"],
        ("container", "--count", "0"): ["--workers"],
        ("fibre", "--count", "0"): ["--workers", "--trace-out"],
        ("singularity", "--exact", "--n", "2"): ["--profile"],
        ("identities", "--cases", "1"): ["--profile", "--workers"],
        ("verify-all", "--quick"): ["--format", "--profile"],
    }
    for base, options in unread.items():
        if base[0] != "verify-all":
            assert run(capsys, list(base))[0] == 0, base
        for option in options:
            value = "json" if option == "--format" else "1"
            assert run(capsys, list(base) + [option, value])[0] == 2, (base, option)


def test_singularity_exact_prints_fraction(capsys):
    code, out, _ = run(capsys, ["singularity", "--exact", "--n", "2"])
    assert code == 0
    assert out.strip() == "1/2"


def test_singularity_exact_n6_by_switching_classes(capsys):
    code, out, _ = run(capsys, ["singularity", "--exact", "--n", "6"])
    assert code == 0
    assert out.strip() == "3543/8192"


def test_singularity_exact_requires_mode_choice(capsys):
    code, _, err = run(capsys, ["singularity", "--n", "2"])
    assert code == 2


def test_singularity_mc_reproducible_across_workers(tmp_path, capsys):
    args = ["singularity", "--mc", "--n", "3", "--trials", "24000", "--seed", "9"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(out1)])[0] == 0
    assert run(capsys, args + ["--workers", "3", "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_singularity_mc_reproducible_across_workers_past_the_bareiss_cutoff(tmp_path, capsys):
    # n = 20 runs the LAPACK screen and Bareiss inside forked workers; 20500
    # trials make two blocks, one per worker
    args = ["singularity", "--mc", "--n", "20", "--trials", "20500", "--seed", "3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, args + ["--workers", "1", "--out", str(out1)])[0] == 0
    assert run(capsys, args + ["--workers", "2", "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parser_is_shared_and_defaults_do_not_leak(tmp_path, capsys):
    assert build_parser() is build_parser()
    base = ["singularity", "--mc", "--n", "4", "--trials", "300"]
    runs = [base + ["--seed", "7", "--format", "json"], base]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert run(capsys, argv + ["--out", str(here)])[0] == 0
        proc = subprocess.run([sys.executable, "-m", "rholab.cli", *argv, "--out", str(fresh)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert here.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "here1").read_text().startswith("n,trials,")


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=5; 1 1\n")
    code, _, _ = run(capsys, ["rho", "--vectors", str(vf), "--out", str(tmp_path)])
    assert code == 2


def test_out_to_devnull_or_a_pipe_exits_0(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=5; 1 1\n")
    argv = ["rho", "--vectors", str(vf), "--out"]
    code, _, err = run(capsys, argv + [os.devnull])
    assert code == 0, err
    r, w = os.pipe()
    try:
        code, _, err = run(capsys, argv + [f"/dev/fd/{w}"])
        assert code == 0, err
        assert os.read(r, 1 << 16).startswith(b"idx,p,")
    finally:
        os.close(r)
        os.close(w)


def test_rewritten_out_equals_a_fresh_write(tmp_path, capsys):
    # the first write of each pair is the longer one, so a stale tail would show
    mc = ["singularity", "--mc", "--n", "3", "--trials", "2000", "--seed"]
    fibre = ["fibre", "--count", "1", "--seed", "1", "--format", "json", "--n"]
    for argv, first, second in [(mc, "2", "1"), (fibre, "512", "256")]:
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for value, path in [(first, out), (second, out), (second, fresh)]:
            code, _, err = run(capsys, argv + [value, "--out", str(path)])
            assert code == 0, err
        assert out.read_bytes() == fresh.read_bytes()
        out.unlink()
        fresh.unlink()


def test_verify_all_quick_artifact_digests(tmp_path, capsys):
    code, _, _ = run(capsys, ["verify-all", "--seed", "42", "--quick", "--out", str(tmp_path)])
    assert code == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in QUICK_DIGESTS}
    assert got == QUICK_DIGESTS


def test_certificate_artifact_digests(tmp_path, capsys):
    for argv, digest in CERTIFICATE_DIGESTS.items():
        out = tmp_path / f"{argv[0]}.json"
        code, _, err = run(capsys, list(argv) + ["--format", "json", "--out", str(out)])
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv[0]


def test_rho_and_halasz_artifact_digests(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("\n".join(CHAIN_VECTORS) + "\n")
    for (command, fmt), digest in CHAIN_DIGESTS.items():
        out = tmp_path / f"{command}.{fmt}"
        argv = [command, "--vectors", str(vf), "--format", fmt, "--out", str(out)]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (command, fmt)


def test_rho_subcommand_csv(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=5; 1 1\np=7; 1 2 3\n")
    code, out, _ = run(capsys, ["rho", "--vectors", str(vf)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("idx,p,n,support")
    assert lines[1].split(",")[:7] == ["0", "5", "2", "2", "0", "2", "2"]


def test_rho_subcommand_json(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=5; 1 1\n")
    code, out, _ = run(capsys, ["rho", "--vectors", str(vf), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vectors"][0]["rho"]["count"] == "2"


def test_halasz_subcommand(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=13; " + " ".join(["1"] * 64) + "\n")
    code, out, _ = run(capsys, ["halasz", "--vectors", str(vf)])
    assert code == 0
    assert "1" in out


def test_halasz_past_table_guard_exits_1(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("p=1000000007; 1 2 3\n")
    code, _, err = run(capsys, ["halasz", "--vectors", str(vf)])
    assert code == 1
    assert "failures" in err and "table guard" in err


def test_container_subcommand(tmp_path, capsys):
    out_file = tmp_path / "certs.json"
    code, _, err = run(
        capsys,
        ["container", "--n", "512", "--p", "101", "--count", "2", "--seed", "5",
         "--format", "json", "--out", str(out_file)],
    )
    assert code == 0, err
    doc = json.loads(out_file.read_text())
    assert len(doc["certificates"]) == 2
    assert all(c["verified"] for c in doc["certificates"])


def test_fibre_subcommand_with_traces(tmp_path, capsys):
    traces = tmp_path / "traces.json"
    code, _, err = run(
        capsys,
        ["fibre", "--n", "512", "--p", "101", "--count", "1", "--seed", "3",
         "--format", "json", "--out", str(traces)],
    )
    assert code == 0, err
    doc = json.loads(traces.read_text())
    assert doc["traces"][0]["audit"]
    assert all(doc["traces"][0]["audit"].values())


def test_identities_subcommand_small(capsys):
    code, out, err = run(capsys, ["identities", "--cases", "3", "--seed", "1"])
    assert code == 0, err


def test_identities_beta_probe(capsys):
    code, out, err = run(
        capsys,
        ["identities", "--cases", "2", "--seed", "1", "--beta", "1/2",
         "--n", "2", "--p", "5", "--format", "json"],
    )
    assert code == 0, err
    doc = json.loads(out)
    # frozen exhaustive value: max_w q_2(1/2) = 3/4 at w = (1, 1) over Z_5
    assert doc["q_probe"]["max_q"] == "3/4"
    assert doc["q_probe"]["argmax_w"] == ["1", "1"]


def test_vectors_file_missing_exits_2(capsys):
    code, _, _ = run(capsys, ["rho", "--vectors", "/does/not/exist.txt"])
    assert code == 2


def test_malformed_vector_file_exits_2(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    for text in ("p=7; 1 oops\n", "p=318665857834031151167461; 1 2\n"):
        vf.write_text(text)
        code, _, err = run(capsys, ["rho", "--vectors", str(vf)])
        assert code == 2
        assert "line 1" in err


def test_unknown_profile_exits_2(capsys):
    code, _, err = run(capsys, ["container", "--profile", "nope", "--count", "1"])
    assert code == 2


def _usage_error(capsys, argv):
    """Run argv, expect exit 2 with a one-line message on stderr, return it."""
    code, out, err = run(capsys, argv)
    assert code == 2, (argv, err)
    assert out == "" and len(err.strip().splitlines()) == 1, (argv, err)
    return err


def test_bad_profile_file_exits_2(tmp_path, capsys):
    _usage_error(capsys, ["container", "--profile", f"file:{tmp_path}", "--count", "1"])
    pf = tmp_path / "profile.json"
    pf.write_text("{not json")
    _usage_error(capsys, ["container", "--profile", f"file:{pf}", "--count", "1"])
    pf.write_text(json.dumps({"m_coeff": 13}))
    err = _usage_error(capsys, ["container", "--profile", f"file:{pf}", "--count", "1"])
    assert "support_floor_coeff" in err
    desk = {k: str(v) for k, v in dataclasses.asdict(DESK_PROFILE).items()}
    pf.write_text(json.dumps({**desk, "max_attempts": 0}))
    err = _usage_error(capsys, ["container", "--profile", f"file:{pf}", "--count", "1"])
    assert "max_attempts must be >= 1" in err


def test_bad_beta_exits_2(capsys):
    for beta in ("abc", "1/0"):
        err = _usage_error(capsys, ["identities", "--cases", "1", "--beta", beta])
        assert "--beta" in err


def test_guard_exceeded_exits_1(capsys):
    code, _, err = run(capsys, ["singularity", "--exact", "--n", "9"])
    assert code == 1
    assert "failures" in err


def test_profile_from_file(tmp_path, capsys):
    prof = {
        "name": "custom",
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
    pf = tmp_path / "profile.json"
    pf.write_text(json.dumps(prof))
    code, _, err = run(
        capsys,
        ["container", "--profile", f"file:{pf}", "--count", "1", "--seed", "2",
         "--n", "512", "--p", "101", "--out", str(tmp_path / "c.csv")],
    )
    assert code == 0, err
