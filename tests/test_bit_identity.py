"""Run outputs are bit-identical to a recorded fixture.

``bit_identity.json`` holds, for every app x design pair plus free-run DSC
and a degree-9 gamma, at 7x5 pixels and seed 4, the SHA-256 of the output
image bytes and the repr of ``inaccuracy_percent``.  The same outputs must
come back for any worker count, stream tile size and pixel block size.
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
LENGTHS = (1, 63, 65, 300)
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


def test_outputs_do_not_depend_on_worker_count():
    _check(_cases(65), jobs=2)


@pytest.mark.parametrize("length", (63, 300))
def test_outputs_do_not_depend_on_tile_or_block_size(monkeypatch, length):
    # one-pixel tiles and one-row blocks at L=300
    monkeypatch.setattr(harness, "_TILE_CELLS", 100)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 600)
    assert list(harness._block_slices(5, 7, 300)) == [(i, i + 1) for i in range(5)]
    _check(_cases(length))


if __name__ == "__main__":
    record = {}
    for length in LENGTHS:
        record.update({key: _outcome(cfg) for key, cfg in _cases(length).items()})
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
