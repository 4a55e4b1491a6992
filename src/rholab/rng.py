"""Counter-based splittable random streams.

Every consumer of randomness receives an explicit numpy Generator derived
from (master_seed, stream_label, counter) through SeedSequence + Philox.
Philox is counter-based, so substreams are independent regardless of which
worker draws them; keying by logical counter (e.g. trial-block index) rather
than by worker makes results invariant under the worker count, which is an
acceptance requirement for the Monte Carlo commands.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


def substream(master_seed: int, label: str, counter: int = 0) -> np.random.Generator:
    """Deterministic, independent Generator for (seed, label, counter)."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & (2**64 - 1),
        spawn_key=(_label_key(label), int(counter)),
    )
    return np.random.Generator(np.random.Philox(ss))
