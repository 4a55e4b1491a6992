import pytest

from rholab.errors import EntryRangeError, VectorParseError
from rholab.harness import (
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
