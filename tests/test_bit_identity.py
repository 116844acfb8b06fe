"""Run outputs are bit-identical to a recorded fixture.

``bit_identity.json`` holds, for every app x design pair plus a degree-9
gamma, at 7x5 pixels and seed 4, the SHA-256 of the output
image bytes and the repr of ``inaccuracy_percent``; also gamma, robert and
median on every design at 2x1 pixels and a length whose stream tiles split
the length axis, so the last tile of a stream is a short one.
The synthetic video is still at 7x5, so frame and kde give all-zero images
there; their ``-crop`` cases read a 6x5 crop of the 128x128 video
(video_crop.py), and each of those holds both 0 and 1.
The same outputs must come back for any worker count, stream tile size,
pixel block size and stream window size.
Regenerate the fixture only when outputs are meant to change:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochmem import harness
from stochmem.bitstream import words_for
from stochmem.circuits import AppKind, AppParams
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig
from video_crop import write_video_crop

FIXTURE = Path(__file__).with_name("bit_identity.json")
LENGTHS = (1, 63, 65, 300, 1024)
LONG_LENGTH = 70_001   # more than harness._TILE_CELLS draws per stream
SEED = 4


def _cases(length: int, crop: Path) -> dict[str, ExperimentConfig]:
    base = ExperimentConfig(length=length, dims=(7, 5), global_seed=SEED, input_seed=SEED)
    cases = {f"{a.value}/{d.value}/{length}": replace(base, app=a, design=d)
             for a in AppKind for d in SystemDesign}
    for d in SystemDesign:
        cases[f"gamma-degree9/{d.value}/{length}"] = replace(
            base, app=AppKind.GAMMA, design=d, params=AppParams(bernstein_degree=9))
        for a in (AppKind.FRAME, AppKind.KDE):
            cases[f"{a.value}-crop/{d.value}/{length}"] = ExperimentConfig(
                app=a, design=d, length=length, global_seed=SEED, input_path=str(crop))
    return cases


def _long_cases() -> dict[str, ExperimentConfig]:
    # gamma, an XOR circuit (robert) and the compare-exchange network (median)
    base = ExperimentConfig(length=LONG_LENGTH, dims=(2, 1), global_seed=SEED, input_seed=SEED)
    return {f"{a.value}/{d.value}/{LONG_LENGTH}": replace(base, app=a, design=d)
            for a in (AppKind.GAMMA, AppKind.ROBERT, AppKind.MEDIAN) for d in SystemDesign}


def _outcome(r: harness.ExperimentReport) -> list[str]:
    return [hashlib.sha256(r.output.data.tobytes()).hexdigest(), repr(r.inaccuracy_percent)]


def _check(cases: dict[str, ExperimentConfig], **overrides) -> None:
    expected = json.loads(FIXTURE.read_text())
    reports = {key: harness.run_experiment(replace(cfg, **overrides))
               for key, cfg in cases.items()}
    got = {key: _outcome(r) for key, r in reports.items()}
    assert got == {key: expected[key] for key in cases}
    # a constant flag image would not show a change to its app's engine
    for key, r in reports.items():
        if "-crop/" in key:
            assert set(np.unique(r.output.data)) == {0.0, 1.0}, key


@pytest.mark.parametrize("length", LENGTHS)
def test_outputs_match_fixture(length, video_crop):
    _check(_cases(length, video_crop))


def test_long_outputs_match_fixture():
    _check(_long_cases())


def test_outputs_do_not_depend_on_worker_count(video_crop):
    _check(_cases(65, video_crop), jobs=2)


# window budgets of one source: one pixel's streams, or one and a half rows of
# the ASC tiles, which round down to one tile row
_WINDOWS = ("pixel", "tile-row")


@pytest.mark.parametrize("length,window", [pytest.param(63, None, id="63"),
                                           pytest.param(300, None, id="300")] + [
    pytest.param(length, window, id=f"{length}-{window}")
    for window in _WINDOWS for length in (1, 63, 65, 300)])
def test_outputs_do_not_depend_on_tile_or_block_size(monkeypatch, length, window, video_crop):
    # blocks of 8-9 pixels at every length, which split the 7-pixel rows (and
    # the crop's 6-pixel rows), and one-pixel tiles that split the length axis
    # into 64-bit chunks at L=300.  The blocks and windows are sized as for
    # one source, so that every app, whatever its source count, runs in them.
    # With a window budget every block is cut into windows of one pixel, or of
    # one row of two-pixel tiles
    monkeypatch.setattr(harness, "_TILE_CELLS", 2 * length if window == "tile-row" else 100)
    monkeypatch.setattr(harness, "_BLOCK_PAIRS", 9)
    size = {None: None, "pixel": 1, "tile-row": harness._tile_shape(length)[0]}[window]
    if window is not None:
        budget = size if window == "pixel" else 3 * size // 2
        monkeypatch.setattr(harness, "_WINDOW_CELLS", budget * 64 * words_for(length))
    slices = harness._block_slices
    blocks = slices(35, 1, 1)
    assert {hi - lo for lo, hi in blocks} == {8, 9}
    assert any(lo // 7 != (hi - 1) // 7 for lo, hi in blocks)
    counts, cuts = [], []
    windows = harness._window_slices

    def one_source_slices(n_pixels, sources, jobs):
        got = slices(n_pixels, 1, jobs)
        counts.append(len(got))
        return got

    def one_source_windows(n_pixels, stream_length, sources):
        got = windows(n_pixels, stream_length, 1)
        cuts.append(got)
        return got

    monkeypatch.setattr(harness, "_block_slices", one_source_slices)
    monkeypatch.setattr(harness, "_window_slices", one_source_windows)
    widths = set()
    draw = harness.uniform_block_from_states

    def recording_draw(states, count, **buffers):
        widths.add(count)
        return draw(states, count, **buffers)

    monkeypatch.setattr(harness, "uniform_block_from_states", recording_draw)
    _check(_cases(length, video_crop))
    assert counts and min(counts) > 1
    if window is None:
        assert widths == ({63} if length == 63 else {64, 300 - 4 * 64})
        return
    # every block of every run is cut into more than one window, each of one
    # pixel or one tile row but the last
    assert cuts and min(len(cut) for cut in cuts) > 1
    assert all(hi - lo == size for cut in cuts for lo, hi in cut[:-1])
    assert all(0 < hi - lo <= size for cut in cuts for lo, hi in cut[-1:])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        crop = write_video_crop(Path(tmp))
        cases = _long_cases()
        for length in LENGTHS:
            cases.update(_cases(length, crop))
        record = {key: _outcome(harness.run_experiment(cfg)) for key, cfg in cases.items()}
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
