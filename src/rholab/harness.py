"""Experiment plumbing: vector files, canonical artifacts, experiment records.

Vector file format, one vector per line:

    p=<prime>; r_1 r_2 ... r_n

whitespace-separated canonical residues.  Blank lines and lines starting
with '#' are skipped.  Artifacts (CSV/JSON) are canonical: sorted keys,
integers as decimal strings in JSON, fixed column order in CSV, no
timestamps, so identical configs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
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


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """Deterministic CSV (no quoting needed for our numeric/word fields)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
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
        Path(path).write_text(text)
    return text


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int
    profile: str
    params: dict

    def digest(self) -> str:
        return hashlib.sha256(
            canonical_json(
                {
                    "command": self.command,
                    "seed": self.seed,
                    "profile": self.profile,
                    "params": self.params,
                }
            ).encode()
        ).hexdigest()


@dataclass
class ExperimentRecord:
    """Self-describing run record.

    The timestamp is deliberately not part of the canonical artifact (it
    would break byte-identical reruns); emit() logs it to stderr instead.
    """

    config: ExperimentConfig
    outputs: dict
    invariant_flags: dict = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)

    def to_doc(self) -> dict:
        return {
            "configDigest": self.config.digest(),
            "command": self.config.command,
            "seed": self.config.seed,
            "profile": self.config.profile,
            "params": self.config.params,
            "outputs": self.outputs,
            "invariants": self.invariant_flags,
        }

    def emit(self, path=None) -> str:
        print(
            f"[{self.config.command}] config {self.config.digest()[:12]} "
            f"at unix {self.timestamp:.0f}",
            file=sys.stderr,
        )
        return write_json(path, self.to_doc())

    @property
    def ok(self) -> bool:
        return all(self.invariant_flags.values())


def failure_report(failures: dict) -> str:
    """Machine-readable invariant-failure report for stderr."""
    return json.dumps({"failures": failures}, sort_keys=True)
