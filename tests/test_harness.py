import os
import stat
from fractions import Fraction

import pytest

from rholab.errors import EntryRangeError, VectorParseError
from rholab.harness import (
    canonical_json,
    load_vectors,
    parse_vector_line,
    write_csv,
    write_json,
    write_record,
)


def test_load_vectors_empty_file(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("")
    assert load_vectors(f) == []


def test_load_vectors_basic(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("# comment\np=7; 1 2 3\n\np=5; 0 4\n")
    got = load_vectors(f)
    assert len(got) == 2
    p, v = got[0]
    assert p.p == 7 and v.entries == (1, 2, 3)
    assert got[1][1].entries == (0, 4)


def test_load_vectors_parse_error_carries_line(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("p=7; 1 2 3\nnot a vector\n")
    with pytest.raises(VectorParseError) as exc:
        load_vectors(f)
    assert exc.value.line_no == 2


def test_load_vectors_range_error(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("p=7; 1 9\n")
    with pytest.raises(EntryRangeError):
        load_vectors(f)


def test_parse_rejects_composite_modulus():
    with pytest.raises(VectorParseError):
        parse_vector_line("p=9; 1 2", 1)


def test_write_csv_and_json_deterministic(tmp_path):
    rows = [[1, "a", 2.5], [2, "b", 3.5]]
    t1 = write_csv(tmp_path / "x.csv", ["i", "s", "v"], rows)
    t2 = write_csv(None, ["i", "s", "v"], rows)
    assert t1 == t2 == "i,s,v\n1,a,2.5\n2,b,3.5\n"
    j1 = write_json(tmp_path / "x.json", {"b": 1, "a": [2, 3]})
    j2 = write_json(None, {"b": 1, "a": [2, 3]})
    assert j1 == j2 == '{"a":["2","3"],"b":"1"}\n'


def test_experiment_record_digest_stable(tmp_path):
    args = ("rho", 42, "desk", {"n": 8}, {"x": 1}, {"ok": True})
    # the logged timestamps may differ; the written records do not
    text = write_record(tmp_path / "record.json", *args)
    assert text == write_record(None, *args) == (tmp_path / "record.json").read_text()


WRITERS = {
    "csv": lambda path: write_csv(path, ["i", "s"], [[1, "a"], [2, "b"]]),
    "json": lambda path: write_json(path, {"b": 1, "a": [2, 3]}),
}


@pytest.mark.parametrize("kind", WRITERS)
@pytest.mark.parametrize("old", [None, b"", b"x", b"#" * 4096],
                         ids=["new-file", "old-empty", "old-shorter", "old-longer"])
def test_writers_leave_exactly_the_new_bytes(tmp_path, kind, old):
    # a longer old file must not leave a stale tail past the new bytes
    f = tmp_path / "artifact"
    if old is not None:
        f.write_bytes(old)
    text = WRITERS[kind](f)
    assert f.read_bytes() == text.encode()


@pytest.mark.parametrize("kind", WRITERS)
def test_writers_overwrite_in_place(tmp_path, kind):
    target = tmp_path / "artifact"
    target.write_bytes(b"#" * 100)
    target.chmod(0o600)
    ino = target.stat().st_ino
    link = tmp_path / "link"
    link.symlink_to(target)
    text = WRITERS[kind](link)
    assert link.is_symlink()
    assert target.read_bytes() == text.encode()
    assert target.stat().st_ino == ino
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("kind", WRITERS)
def test_writers_give_a_new_file_the_open_w_mode(tmp_path, kind):
    ref = tmp_path / "ref"
    with open(ref, "w"):
        pass
    WRITERS[kind](tmp_path / "new")
    assert os.stat(tmp_path / "new").st_mode == os.stat(ref).st_mode


@pytest.mark.parametrize("kind", WRITERS)
def test_writers_reject_a_directory_or_missing_parent(tmp_path, kind):
    with pytest.raises(IsADirectoryError):
        WRITERS[kind](tmp_path)
    with pytest.raises(FileNotFoundError):
        WRITERS[kind](tmp_path / "missing" / "artifact")


def _pipe_target(tmp_path):
    r, w = os.pipe()
    return f"/dev/fd/{w}", r, [r, w]


def _fifo_target(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    # a reader must be open, or opening the FIFO for writing blocks
    r = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    return path, r, [r]


@pytest.mark.parametrize("kind", WRITERS)
@pytest.mark.parametrize("target", [_pipe_target, _fifo_target], ids=["pipe", "fifo"])
def test_writers_stream_to_a_pipe_or_fifo(tmp_path, kind, target):
    # a pipe has no length to cut and no offset to cut at
    path, r, fds = target(tmp_path)
    try:
        text = WRITERS[kind](path)
        assert os.read(r, 1 << 16) == text.encode()
    finally:
        for fd in fds:
            os.close(fd)


@pytest.mark.parametrize("kind", WRITERS)
def test_writers_accept_devnull(kind):
    assert WRITERS[kind](os.devnull)


def test_canonical_json_bytes_of_mixed_lists():
    # a list of plain ints is stringified in one pass; bools, tuples, nested
    # lists and Fractions keep their element-by-element bytes
    doc = {
        "bools": [True, 1, False, 0],
        "tuple": (3, -4, 2**70),
        "nested": [[1, 2], [3, [True, 4]], []],
        "fractions": [Fraction(1, 3), 2, Fraction(-5, 2)],
        "mixed": [1, "a", None, 2.5],
        "set": frozenset({3, 1}),
    }
    assert canonical_json(doc) == (
        '{"bools":[true,"1",false,"0"],"fractions":["1/3","2","-5/2"],'
        '"mixed":["1","a",null,"2.5"],"nested":[["1","2"],["3",[true,"4"]],[]],'
        '"set":["1","3"],"tuple":["3","-4","1180591620717411303424"]}'
    )
    assert canonical_json([True, 1]) == '[true,"1"]'
