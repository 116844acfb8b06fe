"""Per-layer tracing installed from outside the package.

``Tracer.installed()`` swaps the functions the harness calls for wrappers
that record one span per call: (id, name, start, end, parent, run, count).
The harness imports with ``from .rng import ...``, so the names bound in
``stochmem.harness`` are patched, not only their home modules.  Spans stay
in memory; ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from stochmem import circuits, harness
from stochmem.lfsr import LfsrCycle

# derive_state_grid stream ids from 64 up are memory write/read noise
_NOISE_STREAM_ID = 64

_CIRCUITS = {"robert_batch": "robert", "median_batch": "median", "frame_batch": "frame",
             "gamma_batch_counts": "gamma", "kde_batch": "kde"}


def _size(out, *args, **kwargs):
    return out.size


def _first_size(out, *args, **kwargs):
    return args[0].size


def _in_bytes(out, *args, **kwargs):
    total = 0
    for a in args:
        if isinstance(a, (list, tuple)):
            total += sum(x.nbytes for x in a)
        elif hasattr(a, "nbytes"):
            total += a.nbytes
    return total


def _state_grid_name(args, kwargs) -> str:
    stream_id = kwargs["stream_id"] if "stream_id" in kwargs else args[3]
    return "memory.noise_states" if stream_id >= _NOISE_STREAM_ID else "rng.seed_states"


# (owner, attribute, span name or name function, count function)
_TARGETS = [
    (harness, "sweep", "harness.sweep", None),
    (harness, "run_experiment", "harness.run", None),
    (harness, "uniform_block_from_states", "rng.uniforms", _size),
    (LfsrCycle, "sequence_block", "lfsr.sequence", _size),
    (harness, "derive_state_grid", _state_grid_name, None),
    (harness, "bernoulli_threshold_u64", "rng.threshold", None),
    (harness, "mem_write_block", "memory.write", lambda out, mem, addrs, *a, **k: addrs.size),
    (harness, "mem_read_block", "memory.read", None),
    (harness, "pack_bool_matrix", "bitstream.pack", _first_size),
    (harness, "popcount_rows", "bitstream.popcount", None),
    (harness, "golden_eval", "circuits.golden", None),
    (harness, "error_metric", "images.score", None),
    (harness, "area_report", "costs", None),
    (harness, "energy_report", "costs", None),
] + [(circuits, fn, f"circuits.{app}", _in_bytes) for fn, app in _CIRCUITS.items()]

RUN_SPAN = "harness.run"
GENERATOR_SPANS = ("rng.uniforms", "lfsr.sequence")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [id, name, start, end, parent, run, count]
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        run = parent[5] if parent is not None else None
        rec = [len(self.spans), name, self.clock(), None,
               parent[0] if parent is not None else None, run, 0]
        if name == RUN_SPAN:
            rec[5] = rec[0]
        self.spans.append(rec)
        return rec

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            tracer._stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                rec[3] = tracer.clock()
            if count is not None:
                rec[6] = count(out, *args, **kwargs)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _TARGETS]
        try:
            for owner, attr, name, count in _TARGETS:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself (one repetition); it parents
        every call made inside it."""
        rec = self._open(name)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = self.clock()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    self_s = {rec[0]: rec[3] - rec[2] for rec in spans}
    for rec in spans:
        if rec[4] is not None and rec[4] in self_s:
            self_s[rec[4]] -= rec[3] - rec[2]
    return self_s


def layer_metrics(spans, root_id: int) -> dict[str, float]:
    """Per-layer totals for the spans under one repetition root span."""
    inside = {root_id}
    mine = []
    for rec in spans:  # spans are recorded in start order, so parents come first
        if rec[4] in inside:
            inside.add(rec[0])
            mine.append(rec)
    self_s = self_times(mine)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    max_cells = 0
    blocks = 0
    for rec in mine:
        name = rec[1]
        sums[name] = sums.get(name, 0.0) + self_s[rec[0]]
        counts[name] = counts.get(name, 0) + rec[6]
        if name in GENERATOR_SPANS:
            max_cells = max(max_cells, rec[6])
        if name.startswith("circuits.") and name != "circuits.golden":
            blocks += 1

    def s(name):
        return sums.get(name, 0.0)

    def per(name, n):
        return s(name) / n * 1e9 if n else 0.0

    logic = [f"circuits.{app}" for app in _CIRCUITS.values()]
    m = {
        "rng.uniforms.s": s("rng.uniforms"),
        "rng.uniforms.draws": counts.get("rng.uniforms", 0),
        "rng.uniforms.ns_per_draw": per("rng.uniforms", counts.get("rng.uniforms", 0)),
        "lfsr.sequence.s": s("lfsr.sequence"),
        "lfsr.sequence.values": counts.get("lfsr.sequence", 0),
        "lfsr.sequence.ns_per_value": per("lfsr.sequence", counts.get("lfsr.sequence", 0)),
        "rng.seed_states.s": s("rng.seed_states"),
        "rng.threshold.s": s("rng.threshold"),
        "harness.self_s": s(RUN_SPAN) + s("harness.sweep"),
        "harness.blocks": blocks,
        "harness.max_block_cells": max_cells,
        "memory.write.s": s("memory.write"),
        "memory.read.s": s("memory.read"),
        "memory.noise_states.s": s("memory.noise_states"),
        "memory.cells": counts.get("memory.write", 0),
        "bitstream.pack.s": s("bitstream.pack"),
        "bitstream.pack.bits": counts.get("bitstream.pack", 0),
        "bitstream.popcount.s": s("bitstream.popcount"),
        "circuits.logic.s": sum(s(n) for n in logic),
        "circuits.logic.in_MB": sum(counts.get(n, 0) for n in logic) / 1e6,
    }
    m.update({f"{n}.s": s(n) for n in logic})
    m.update({
        "circuits.golden.s": s("circuits.golden"),
        "images.score.s": s("images.score"),
        "costs.s": s("costs"),
    })
    return m
