"""Span tracer that wraps rholab's public functions from outside the package.

Each wrapped call records one span ``[name, start, end, parent, op]`` in
memory; the benchmark wraps every timed op in a ``bench.op`` span, so the
wrapped calls of one op share its op id.  A function is replaced in its
defining module and in every ``rholab`` module that bound the same object
through ``from .x import``, so calls made through either name are seen.

Self time of a span is its duration minus the durations of its direct
children.  Per-layer metrics are sums over the traced ops divided by the
number of ops, except rates and ratios.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _n_times_p(args, result):
    return len(args[0]) * args[1].p


# (module, function, counter name, increment per successful return) -- the
# counter is kept under "<module>.<function>.<counter name>"
TARGETS = (
    ("matrix_lab", "batch_rank_mod_p", "matrices", lambda args, result: len(args[0])),
    ("matrix_lab", "singular_count_block", None, None),
    ("matrix_lab", "singularity_mc_sharded", None, None),
    ("matrix_lab", "det_bareiss", "zeros", lambda args, result: result == 0),
    ("matrix_lab", "singularity_exact", None, None),
    ("matrix_lab", "match_probability_exact", None, None),
    ("matrix_lab", "block_probability_exact", None, None),
    ("matrix_lab", "rank_mod_p", None, None),
    ("matrix_lab", "rref_mod_p", None, None),
    ("matrix_lab", "inverse_mod_p", None, None),
    ("matrix_lab", "adjugate_mod_p", None, None),
    ("matrix_lab", "det_exact", None, None),
    ("matrix_lab", "odlyzko_check", None, None),
    ("matrix_lab", "decoupling_identity_check", None, None),
    ("anticoncentration", "distribution_zp", "steps", _n_times_p),
    ("anticoncentration", "distribution_half", None, None),
    ("anticoncentration", "level_counts", None, None),
    ("anticoncentration", "halasz_first_bound", None, None),
    ("anticoncentration", "halasz_second_bound", None, None),
    ("anticoncentration", "halasz_bound", None, None),
    ("zp_core", "weight_table", "cells", _n_times_p),
    ("containers", "level_set", None, None),
    ("containers", "frequency_set", None, None),
    ("containers", "container", None, None),
    ("inverse_lo", "sample_Y_with_attempts", "attempts", lambda args, result: result[1]),
    ("inverse_lo", "sample_U_with_attempts", "attempts", lambda args, result: result[1]),
    ("inverse_lo", "build_container", "returned", lambda args, result: 1),
    ("inverse_lo", "verify_certificate", None, None),
    ("inverse_lo", "canonical_json", None, None),
    ("fibres", "run_fibre", "steps", lambda args, result: result.k_star),
    ("fibres", "audit_trace", None, None),
    ("rng", "substream", None, None),
    ("harness", "load_vectors", None, None),
    ("harness", "write_json", None, None),
    ("harness", "write_csv", None, None),
    ("cli", "cli_dispatch", None, None),
)

OP_SPAN = "bench.op"


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {
            f"{mod}.{fn}.{stat}": 0 for mod, fn, stat, _ in TARGETS if stat
        }
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter=None, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                counters[counter] += count(args, result)
            return result

        return traced

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rholab" or key.startswith("rholab."))
        ]
        for mod_name, fn_name, stat, count in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(importlib.import_module("rholab." + mod_name), fn_name)
            wrapped = self._wrap(name, original, stat and f"{name}.{stat}", count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def run_op(self, op_id, fn):
        """Run ``fn()`` inside a ``bench.op`` span tagged with ``op_id``."""
        self._op = op_id
        wrapped = self._wrap(OP_SPAN, fn)
        try:
            return wrapped()
        finally:
            self._op = -1

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _parent, _op), inner in zip(self.spans, child_time):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - inner
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer value this tracer can derive, by metric name.

        Counts and times are per traced op; ratios whose base is zero read 0.
        """
        stats = self.stats()  # a defaultdict: functions never called read 0
        c = self.counters
        m: dict[str, float] = {}
        for mod_name, fn_name, _, _ in TARGETS:
            name = f"{mod_name}.{fn_name}"
            for stat, value in stats[name].items():
                m[f"{name}.{stat}"] = value / ops
        for key, value in c.items():
            m[key] = value / ops

        def ratio(num, den):
            return num / den if den else 0.0

        m["matrix_lab.batch_rank_mod_p.matrices_per_s"] = ratio(
            c["matrix_lab.batch_rank_mod_p.matrices"], stats["matrix_lab.batch_rank_mod_p"]["total_s"]
        )
        m["matrix_lab.det_bareiss.zero_ratio"] = ratio(
            c["matrix_lab.det_bareiss.zeros"], stats["matrix_lab.det_bareiss"]["calls"]
        )
        for which in ("Y", "U"):
            fn = f"inverse_lo.sample_{which}_with_attempts"
            m[f"inverse_lo.{which.lower()}_accept_ratio"] = ratio(
                stats[fn]["calls"], c[fn + ".attempts"]
            )
        m["inverse_lo.certificate_accept_ratio"] = ratio(
            c["inverse_lo.build_container.returned"], stats["inverse_lo.verify_certificate"]["calls"]
        )
        m["bench.unattributed_s"] = stats[OP_SPAN]["self_s"] / ops
        return m

    def zero_call_targets(self, names) -> list[str]:
        """The names among ``names`` (``module.function``) with no recorded call."""
        stats = self.stats()
        return [n for n in names if n not in stats]
