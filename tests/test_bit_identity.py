"""Run outputs are bit-identical to a recorded fixture.

``bit_identity.json`` holds, for every app x design pair plus free-run DSC
and a degree-9 gamma, at 7x5 pixels and seed 4, the SHA-256 of the output
image bytes and the repr of ``inaccuracy_percent``; also gamma on both ASC
designs at 2x1 pixels and a length whose stream tiles split the length axis.
The same outputs must come back for any worker count, stream tile size and
pixel block size.
Regenerate the fixture only when outputs are meant to change:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from stochmem import harness
from stochmem.circuits import AppKind, AppParams
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig

FIXTURE = Path(__file__).with_name("bit_identity.json")
LENGTHS = (1, 63, 65, 300, 1024)
LONG_LENGTH = 70_001   # more than harness._TILE_CELLS draws per stream
SEED = 4


def _cases(length: int) -> dict[str, ExperimentConfig]:
    base = ExperimentConfig(length=length, dims=(7, 5), global_seed=SEED, input_seed=SEED)
    cases = {f"{a.value}/{d.value}/{length}": replace(base, app=a, design=d)
             for a in AppKind for d in SystemDesign}
    for a in AppKind:
        cases[f"{a.value}/conv-lfsr-free-run/{length}"] = replace(
            base, app=a, design=SystemDesign.CONV_LFSR, dsc_free_run=True)
    for d in SystemDesign:
        cases[f"gamma-degree9/{d.value}/{length}"] = replace(
            base, app=AppKind.GAMMA, design=d, params=AppParams(bernstein_degree=9))
    return cases


def _long_cases() -> dict[str, ExperimentConfig]:
    base = ExperimentConfig(app=AppKind.GAMMA, length=LONG_LENGTH, dims=(2, 1),
                            global_seed=SEED, input_seed=SEED)
    return {f"gamma/{d.value}/{LONG_LENGTH}": replace(base, design=d)
            for d in (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM)}


def _outcome(cfg: ExperimentConfig) -> list[str]:
    r = harness.run_experiment(cfg)
    return [hashlib.sha256(r.output.data.tobytes()).hexdigest(), repr(r.inaccuracy_percent)]


def _check(cases: dict[str, ExperimentConfig], **overrides) -> None:
    expected = json.loads(FIXTURE.read_text())
    got = {key: _outcome(replace(cfg, **overrides)) for key, cfg in cases.items()}
    assert got == {key: expected[key] for key in cases}


@pytest.mark.parametrize("length", LENGTHS)
def test_outputs_match_fixture(length):
    _check(_cases(length))


def test_long_outputs_match_fixture():
    _check(_long_cases())


def test_outputs_do_not_depend_on_worker_count():
    _check(_cases(65), jobs=2)


@pytest.mark.parametrize("length", (63, 300))
def test_outputs_do_not_depend_on_tile_or_block_size(monkeypatch, length):
    # blocks of 8-9 (L=63) or 1-2 (L=300) pixels that split the 7-pixel rows, and
    # one-pixel tiles that split the length axis into 64-bit chunks at L=300
    monkeypatch.setattr(harness, "_TILE_CELLS", 100)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 600)
    blocks = harness._block_slices(35, length, 1)
    assert {hi - lo for lo, hi in blocks} == ({8, 9} if length == 63 else {1, 2})
    assert any(lo // 7 != (hi - 1) // 7 for lo, hi in blocks)
    widths = set()
    draw = harness.uniform_block_from_states

    def recording_draw(states, count, **buffers):
        widths.add(count)
        return draw(states, count, **buffers)

    monkeypatch.setattr(harness, "uniform_block_from_states", recording_draw)
    _check(_cases(length))
    assert widths == ({63} if length == 63 else {64, 300 - 4 * 64})


if __name__ == "__main__":
    record = {}
    for length in LENGTHS:
        record.update({key: _outcome(cfg) for key, cfg in _cases(length).items()})
    record.update({key: _outcome(cfg) for key, cfg in _long_cases().items()})
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
