"""Experiment plumbing: vector files, canonical artifacts, run records.

Vector file format, one vector per line:

    p=<prime>; r_1 r_2 ... r_n

whitespace-separated canonical residues.  Blank lines and lines starting
with '#' are skipped.  Artifacts (CSV/JSON) are canonical: sorted keys,
integers as decimal strings in JSON, fixed column order in CSV, no
timestamps, so identical configs produce identical bytes.

Artifacts are overwritten in place: the file is opened without O_TRUNC,
written, then cut at the end of the new bytes.  Opening with O_TRUNC (as
`Path.write_text` does) marks the inode for ext4's replace-via-truncate
flush, so every rewrite of an existing artifact waited 35-70 ms inside
open() on an ext4 virtual disk, against 0.005 ms without O_TRUNC.  The inode, its
mode, symlinks and hard links of an existing file are kept; a new file gets
mode 0o666 & ~umask.  Only a regular file is cut: /dev/null, a FIFO, a pipe
or a tty is written as `open("w")` would, with no truncate.  The write is
not atomic, as before, but a crash leaves something different: the old
bytes now survive until the cut, so a crash between the write and the cut
(or before the cut reaches disk) can leave the new bytes followed by the
stale tail of the old artifact -- for a CSV, a file that still parses but
ends with rows of the previous run.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import EntryRangeError, VectorParseError
from .zp_core import PrimeModulus, ZpVector, is_prime_u64


def parse_vector_line(line: str, line_no: int) -> tuple[PrimeModulus, ZpVector]:
    head, sep, tail = line.partition(";")
    if not sep:
        raise VectorParseError(line_no, "missing 'p=<prime>;' prefix")
    head = head.strip()
    if not head.startswith("p="):
        raise VectorParseError(line_no, f"expected 'p=<prime>', got {head!r}")
    try:
        p_val = int(head[2:])
    except ValueError:
        raise VectorParseError(line_no, f"modulus {head[2:]!r} is not an integer")
    if p_val <= 3 or not is_prime_u64(p_val):
        raise VectorParseError(line_no, f"modulus {p_val} is not a prime > 3")
    p = PrimeModulus(p_val)
    entries = []
    for tok in tail.split():
        try:
            e = int(tok)
        except ValueError:
            raise VectorParseError(line_no, f"entry {tok!r} is not an integer")
        if not 0 <= e < p.p:
            raise EntryRangeError(line_no, f"entry {e} outside [0, {p.p - 1}]")
        entries.append(e)
    return p, ZpVector(tuple(entries))


def load_vectors(path) -> list[tuple[PrimeModulus, ZpVector]]:
    """Parse a vector file; raises VectorParseError with the line number."""
    out = []
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_vector_line(stripped, line_no))
    return out


def _write_text(path, text: str) -> None:
    """Overwrite `path` with `text` in place (see the module docstring)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode())
        # a device, FIFO or pipe has no length to cut (and no offset to cut at)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """Deterministic CSV (no quoting needed for our numeric/word fields)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        _write_text(path, text)
    return text


def _canonize(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {int}:  # plain ints only; bool is its own type
            return list(map(str, obj))
        return [_canonize(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return [_canonize(x) for x in sorted(obj)]
    if isinstance(obj, dict):
        return {str(k): _canonize(v) for k, v in obj.items()}
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, ints as decimal strings, no spaces."""
    return json.dumps(_canonize(obj), sort_keys=True, separators=(",", ":"))


def write_json(path, doc) -> str:
    text = canonical_json(doc) + "\n"
    if path is not None:
        _write_text(path, text)
    return text


def write_record(path, command: str, seed: int, profile: str, params: dict,
                 outputs: dict, invariants: dict) -> str:
    """Write the self-describing run record of one experiment.

    The record names its config by digest.  The wall-clock time is logged to
    stderr, not written: it would break byte-identical reruns.
    """
    config = {"command": command, "seed": seed, "profile": profile, "params": params}
    digest = hashlib.sha256(canonical_json(config).encode()).hexdigest()
    print(f"[{command}] config {digest[:12]} at unix {time.time():.0f}", file=sys.stderr)
    return write_json(path, {"configDigest": digest, **config,
                             "outputs": outputs, "invariants": invariants})


def failure_report(failures: dict) -> str:
    """Machine-readable invariant-failure report for stderr."""
    return json.dumps({"failures": failures}, sort_keys=True)
