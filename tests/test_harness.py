import contextlib
import io
import re
import shutil
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bit_reference import frame_flags, kde_flags, median_bits, robert_bits
from lfsr_oracle import PERIOD, lfsr_output
from stochmem import harness, rng
from stochmem.bitstream import MAX_LENGTH, words_for
from stochmem.circuits import (KDE_HISTORY, WIRING, AppKind, AppParams, fit_bernstein,
                               gamma_eval, golden_eval, stream_plan)
from stochmem.converters import (adc_quantize, asc_generate, dac_dequantize, dsc_generate,
                                 requantize)
from stochmem.cli import main
from stochmem.costs import SystemDesign
from stochmem.config import read_values, resolve_config
from stochmem.harness import ExperimentConfig, resolve_inputs, run_experiment, sweep
from stochmem.images import ImageGray, load_pgm, save_pgm
from stochmem.memory import mem_read, mem_write
from stochmem.rng import derive_state
from stochmem.synth import INPUT_SEED, gen_test_inputs


@pytest.mark.parametrize("length", (0, MAX_LENGTH + 1))
def test_config_rejects_length_outside_bitstream_range(length):
    with pytest.raises(ValueError, match="length"):
        ExperimentConfig(length=length)
    assert ExperimentConfig(length=MAX_LENGTH).length == MAX_LENGTH


def test_config_rejects_nonpositive_jobs():
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=0)


@pytest.mark.parametrize("jobs", (0, -1))
def test_sweep_rejects_nonpositive_jobs(jobs):
    # the other entry points take their workers from a config, which checks
    # them (test_config_rejects_nonpositive_jobs); a run means the bad value
    # was taken as a serial run
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            sweep(ExperimentConfig(dims=(3, 2), length=8), lengths=(8,), n_seeds=1, jobs=jobs)


@pytest.mark.parametrize("dims", ((0, 5), (6, 0), (-1, 4)))
def test_config_rejects_nonpositive_dims(dims):
    with pytest.raises(ValueError, match="dims"):
        ExperimentConfig(dims=dims)


def test_config_file_dims_fail_loudly(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dims = 7x5\n")
    assert resolve_config(read_values(path)).dims == (7, 5)
    path.write_text("dims = 32\n")
    with pytest.raises(ValueError, match="dims must be WxH"):
        resolve_config(read_values(path))


@pytest.mark.parametrize("kwargs,name", [
    (dict(n_seeds=0), "n_seeds"), (dict(apps=[]), "apps"), (dict(designs=[]), "designs"),
    (dict(lengths=()), "lengths"),
    (dict(apps=[AppKind.KDE, AppKind.ROBERT, AppKind.KDE]), "apps lists kde twice"),
    (dict(designs=[SystemDesign.STOCHMEM] * 2), "designs lists stochmem twice"),
    (dict(lengths=(8, 16, 8)), "lengths lists 8 twice")])
def test_sweep_rejects_empty_grids(tmp_path, kwargs, name):
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match=name):
        sweep(ExperimentConfig(dims=(3, 2)), **{"lengths": (8,), **kwargs}, out_csv=out)
    assert not out.exists()


def test_sweep_checks_the_output_directory_before_the_first_run(tmp_path):
    out = tmp_path / "missing" / "sweep.csv"
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match=re.escape(f"directory {out.parent} does not")):
            sweep(ExperimentConfig(dims=(3, 2)), lengths=(8,), n_seeds=1, out_csv=out)


def test_run_grids_give_the_same_results_on_two_workers():
    tiny = ExperimentConfig(dims=(3, 2), global_seed=5)
    serial = sweep(tiny, lengths=(8, 65), n_seeds=2)
    assert sweep(replace(tiny, jobs=2), lengths=(8, 65), n_seeds=2) == serial


def test_sweep_rejects_workers_other_than_the_template_jobs():
    template = ExperimentConfig(dims=(3, 2), jobs=2)
    # with no jobs given, the grid runs on the template's workers
    with mock.patch.object(harness, "_map", side_effect=lambda fn, items, jobs:
                           [fn(item) for item in items]) as spy:
        lines = sweep(template, lengths=(8,), n_seeds=2)
    grids = [c.args[2] for c in spy.call_args_list if c.args[0] is harness._sweep_one]
    assert grids == [2] and len(lines) == 1 + 5 * 3 * 2
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match="jobs=1 workers, but template.jobs is 2"):
            sweep(template, lengths=(8,), n_seeds=2, jobs=1)


# ---------------------------------------------------------------------------
# inputs: operand planes from an input image, an input frame directory and the
# synthetic set


@pytest.fixture(scope="module")
def written_inputs(tmp_path_factory):
    """The synthetic input set at 7x5, written as PGM files by gen-inputs."""
    out = tmp_path_factory.mktemp("inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-inputs", "--out", str(out), "--dims", "7x5"]) == 0
    return out


def _video(path):
    return [load_pgm(p).data for p in sorted(path.glob("*.pgm"))]


@pytest.mark.parametrize("app", (AppKind.ROBERT, AppKind.MEDIAN, AppKind.GAMMA),
                         ids=lambda a: a.value)
def test_input_image_is_the_pixel_operand_plane(written_inputs, app):
    path = written_inputs / "scene.pgm"
    cfg = ExperimentConfig(app=app, design=SystemDesign.CONV_MTJ, length=16,
                           input_path=str(path))
    planes = resolve_inputs(cfg)
    own = {AppKind.ROBERT: 0, AppKind.MEDIAN: 4, AppKind.GAMMA: 0}[app]
    assert planes.shape == (WIRING[app].slots, 5, 7)
    assert np.array_equal(planes[own], load_pgm(path).data)
    assert run_experiment(cfg).output.data.shape == (5, 7)


# an image app given a frame directory reads its last frame
@pytest.mark.parametrize("app", (AppKind.FRAME, AppKind.KDE, AppKind.GAMMA),
                         ids=lambda a: a.value)
def test_frames_are_the_current_frame_then_the_ones_before_it(written_inputs, app):
    frames = _video(written_inputs / "video")
    cfg = ExperimentConfig(app=app, design=SystemDesign.STOCHMEM, length=16,
                           input_path=str(written_inputs / "video"))
    planes = resolve_inputs(cfg)
    before = {AppKind.FRAME: frames[-2:-1], AppKind.KDE: frames[:-1], AppKind.GAMMA: []}[app]
    assert np.array_equal(planes, np.stack([frames[-1]] + before))
    assert run_experiment(cfg).output.data.shape == (5, 7)


def test_kde_takes_the_last_frame_and_the_32_before_it(written_inputs, tmp_path):
    video = tmp_path / "video"
    shutil.copytree(written_inputs / "video", video)
    shutil.copy(written_inputs / "scene.pgm", video / "frame_33.pgm")
    frames = _video(video)
    assert len(frames) == 34
    planes = resolve_inputs(ExperimentConfig(app=AppKind.KDE, input_path=str(video)))
    assert np.array_equal(planes[0], load_pgm(written_inputs / "scene.pgm").data)
    assert np.array_equal(planes, np.stack(frames[-1:] + frames[1:-1]))


@pytest.mark.parametrize("app,kept", ((AppKind.FRAME, 1), (AppKind.KDE, KDE_HISTORY)),
                         ids=("frame", "kde"))
def test_too_few_frames_fail_loudly(written_inputs, tmp_path, app, kept):
    for src in sorted((written_inputs / "video").glob("*.pgm"))[:kept]:
        shutil.copy(src, tmp_path)
    with pytest.raises(ValueError, match=f"{tmp_path}: {app.value} needs at least {kept + 1} "
                                         f"frames, found {kept}"):
        resolve_inputs(ExperimentConfig(app=app, input_path=str(tmp_path)))


@pytest.mark.parametrize("app,odd", ((AppKind.FRAME, "frame_31.pgm"),
                                     (AppKind.KDE, "frame_00.pgm")), ids=("frame", "kde"))
def test_frames_of_another_size_fail_loudly(written_inputs, tmp_path, app, odd):
    video = tmp_path / "video"
    shutil.copytree(written_inputs / "video", video)
    save_pgm(ImageGray(np.full((5, 6), 0.5)), video / odd)
    with pytest.raises(ValueError, match=f"{video}: frame {odd} is 6x5, the current frame "
                                         f"frame_32.pgm is 7x5"):
        resolve_inputs(ExperimentConfig(app=app, input_path=str(video)))


@pytest.mark.parametrize("app", (AppKind.FRAME, AppKind.KDE), ids=lambda a: a.value)
def test_a_single_image_for_a_video_app_fails_loudly(written_inputs, app):
    path = written_inputs / "scene.pgm"
    with pytest.raises(ValueError, match=f"{path}: {app.value} needs at least "
                                         f"{WIRING[app].slots} frames, found 1"):
        resolve_inputs(ExperimentConfig(app=app, input_path=str(path)))


@pytest.mark.parametrize("app,degree", [(a, 6) for a in AppKind if a is not AppKind.GAMMA]
                         + [(AppKind.GAMMA, d) for d in (1, 6, 9)])
def test_stream_plan_reads_every_operand_plane(app, degree):
    cfg = ExperimentConfig(app=app, dims=(4, 3), params=AppParams(bernstein_degree=degree))
    plan = stream_plan(app, cfg.params)
    assert sorted(set(plan.slots)) == list(range(len(resolve_inputs(cfg))))


def test_each_stored_value_is_converted_once(monkeypatch):
    # gamma at degree 6 streams its one operand slot 6 times beside 7 coefficient
    # constants, so a conv-mtj block requantizes 1 + 7 values, not one per
    # source (13)
    calls = []
    convert = harness.requantize

    def counting(codes):
        calls.append(codes)
        return convert(codes)

    monkeypatch.setattr(harness, "requantize", counting)
    cfg = ExperimentConfig(app=AppKind.GAMMA, design=SystemDesign.CONV_MTJ, length=64,
                           dims=(3, 2), params=AppParams(bernstein_degree=6))
    assert harness._block_slices(6, cfg.length, 1) == [(0, 6)]
    run_experiment(cfg)
    assert len(calls) == 8


def test_gamma_degree_is_bounded_by_the_coefficient_stream_group():
    # replica k reads stream group k; the coefficient streams read group 16
    cfg = ExperimentConfig(app=AppKind.GAMMA, design=SystemDesign.CONV_MTJ, length=64,
                           dims=(3, 2), params=AppParams(bernstein_degree=16))
    assert run_experiment(cfg).output.data.shape == (2, 3)
    with pytest.raises(ValueError, match="bernstein_degree must be at most 16.*got 17"):
        ExperimentConfig(params=AppParams(bernstein_degree=17))


# kde on stochmem takes write-noise ids 64..96 and read-noise ids 96..128 for its
# 33 operand slots, so slot 32's write noise and slot 0's read noise share id 96
_SHARED_NOISE_ID = pytest.mark.xfail(
    strict=True, reason="kde stochmem derives noise id 96 twice per block; renumbering the "
                        "noise ids changes bench/reference.json (ROADMAP item 2)")


@pytest.mark.parametrize("app,degree", [(a, 6) for a in AppKind if a is not AppKind.GAMMA]
                         + [(AppKind.GAMMA, d) for d in (1, 6, 16)])
@pytest.mark.parametrize("design", list(SystemDesign), ids=lambda d: d.value)
def test_generator_identities_of_a_block_are_disjoint(app, degree, design, request):
    if (app, design) == (AppKind.KDE, SystemDesign.STOCHMEM):
        request.applymarker(_SHARED_NOISE_ID)
    ids = []
    states = harness.stream_states

    def recording_states(pixels, stream_id):
        # an id column names one stream per row
        ids.extend(np.ravel(stream_id).tolist())
        return states(pixels, stream_id)

    cfg = ExperimentConfig(app=app, design=design, length=64, dims=(3, 2),
                           params=AppParams(bernstein_degree=degree))
    assert harness._block_slices(6, cfg.length, 1) == [(0, 6)]
    with mock.patch.object(harness, "stream_states", recording_states):
        run_experiment(cfg)
    assert ids and len(ids) == len(set(ids))


def test_a_stochmem_block_derives_its_pixel_prefixes_and_passes_the_memory_once(monkeypatch):
    # kde's 33 operand slots at 3x2 pixels fit one chunk of the memory path
    calls = []
    for name in ("pixel_states", "mem_write_block", "mem_read_block"):
        fn = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a))
    cfg = ExperimentConfig(app=AppKind.KDE, design=SystemDesign.STOCHMEM, length=64, dims=(3, 2))
    assert harness._block_slices(6, cfg.length, 1) == [(0, 6)]
    run_experiment(cfg)
    assert calls == ["pixel_states", "mem_write_block", "mem_read_block"]


@pytest.mark.parametrize("key,value,verb", (("dims", (64, 64), "sizes"), ("input_seed", 5, "seeds")),
                         ids=("dims", "input_seed"))
def test_synthetic_input_settings_with_an_input_fail_loudly(written_inputs, key, value, verb):
    # the API path, not only the config file and flags, rejects the pair
    with pytest.raises(ValueError, match=f"{key} {verb} only the synthetic inputs; it cannot "
                                         f"be set with input"):
        run_experiment(ExperimentConfig(app=AppKind.ROBERT, length=16,
                                        input_path=str(written_inputs / "scene.pgm"),
                                        **{key: value}))


def test_default_synthetic_input_is_128x128_at_the_input_seed():
    planes = resolve_inputs(ExperimentConfig(app=AppKind.GAMMA))
    [scene] = gen_test_inputs("scene", (128, 128), INPUT_SEED)
    assert np.array_equal(planes[0], scene.data)


def test_synthetic_frames_are_made_once_per_input_kind():
    # robert and gamma read the scene, frame and kde the video
    harness._synthetic.cache_clear()
    for app in AppKind:
        resolve_inputs(ExperimentConfig(app=app, dims=(5, 4), input_seed=9))
    info = harness._synthetic.cache_info()
    assert (info.misses, info.hits) == (3, 2)


# ---------------------------------------------------------------------------
# pixel blocks


@given(n_pixels=st.integers(1, 5000), length=st.integers(1, MAX_LENGTH),
       budget=st.integers(1, 4_000_000), jobs=st.integers(1, 8))
def test_block_slices_cover_the_pixels_within_the_budget(n_pixels, length, budget, jobs):
    # a pixel costs its stream bits in whole words plus the values held beside them
    pixel_cells = 64 * words_for(length) + harness._VALUE_CELLS
    with mock.patch.object(harness, "_BLOCK_CELLS", budget):
        blocks = harness._block_slices(n_pixels, length, jobs)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_pixels
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert all(size * pixel_cells <= budget for size in sizes if size > 1)
    # every worker gets a block, and the workers get equal shares of them
    assert len(blocks) >= min(jobs, n_pixels)
    assert len(blocks) % jobs == 0 or len(blocks) == n_pixels
    if jobs == 1:
        # the fewest blocks the budget allows
        assert len(blocks) == -(-n_pixels // max(1, budget // pixel_cells))


@pytest.mark.parametrize("n_pixels,length,sizes", [
    (160 * 160, 32, [5120] * 5),        # short streams: 320 cells a pixel
    (160 * 160, 1, [5120] * 5),         # a length of 1 still fills a whole word
    (512, 8192, [170, 171, 171]),       # long streams: 8448 cells a pixel
    (32 * 32, 1024, [1024]),
    (1, MAX_LENGTH, [1]),               # one pixel over the budget
])
def test_block_sizes_at_the_default_budget(n_pixels, length, sizes):
    assert [hi - lo for lo, hi in harness._block_slices(n_pixels, length, 1)] == sizes


def test_one_job_asks_for_no_cpu_count(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", mock.Mock(side_effect=AssertionError("asked")))
    assert harness._workers(1) == 1


def test_a_run_on_two_workers_starts_one_pool_and_gives_the_serial_bytes():
    # 3x2 pixels fit one block at jobs=1; at jobs=2 they split in two
    cfg = ExperimentConfig(app=AppKind.ROBERT, design=SystemDesign.STOCHMEM, length=65,
                           dims=(3, 2))
    serial = run_experiment(cfg).output.data
    with mock.patch.object(harness.os, "cpu_count", return_value=2), \
            mock.patch.object(harness, "ProcessPoolExecutor",
                           wraps=harness.ProcessPoolExecutor) as pools:
        parallel = run_experiment(replace(cfg, jobs=2)).output.data
    assert pools.call_count == 1 and pools.call_args.kwargs == {"max_workers": 2}
    assert parallel.tobytes() == serial.tobytes()


def test_each_block_task_carries_only_its_operand_columns(monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 600)
    # three CPUs, so jobs=3 runs on three workers
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(app=AppKind.MEDIAN, design=SystemDesign.CONV_LFSR, length=300,
                           dims=(7, 5), jobs=3)
    serial = run_experiment(replace(cfg, jobs=1)).output.data
    calls = []
    map_ = harness._map

    def recording_map(fn, items, jobs):
        calls.append((fn, items, jobs))
        return map_(fn, items, 1)

    monkeypatch.setattr(harness, "_map", recording_map)
    assert run_experiment(cfg).output.data.tobytes() == serial.tobytes()
    [(fn, tasks, jobs)] = calls
    assert fn is harness._evaluate_block and jobs == 3
    # a task is (cfg, width, lo, hi, operands): the run's config and its pixels
    assert all(task[:2] == (cfg, 7) for task in tasks)
    assert [(lo, hi) for _, _, lo, hi, _ in tasks] == harness._block_slices(35, 300, 3)
    operands = resolve_inputs(cfg).reshape(9, 35)
    for _, _, lo, hi, block in tasks:
        assert block.shape == (9, hi - lo)
        assert np.array_equal(block, operands[:, lo:hi])


@pytest.mark.parametrize("entry", ("run_experiment", "sweep"))
def test_no_pool_asks_for_more_workers_than_cpus(monkeypatch, entry):
    # jobs=10**6 asked the parent for one worker per block (64 here) or run;
    # the pool is a stand-in that records its size and maps in this process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(app=AppKind.ROBERT, design=SystemDesign.CONV_MTJ, length=16,
                           dims=(8, 8), jobs=10**6)
    if entry == "run_experiment":
        got = run_experiment(cfg).output.data.tobytes()
        assert got == run_experiment(replace(cfg, jobs=1)).output.data.tobytes()
    else:
        grid = ([AppKind.ROBERT], [SystemDesign.CONV_MTJ], (16,))
        got = sweep(cfg, *grid, n_seeds=4, jobs=cfg.jobs)
        assert got == sweep(replace(cfg, jobs=1), *grid, n_seeds=4, jobs=1)
    assert asked == [3]


def _peak_bytes(cfg: ExperimentConfig) -> int:
    """tracemalloc peak of one run whose synthetic inputs are already made."""
    resolve_inputs(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_streams_keep_block_memory_bounded():
    # 64 pixels at L=262144 hold 8.4x the block budget; as one block (the whole
    # row) the run allocated 77.7 MB
    cfg = ExperimentConfig(app=AppKind.KDE, design=SystemDesign.CONV_MTJ, length=1 << 18,
                           dims=(64, 1))
    assert _peak_bytes(cfg) < 25e6


@pytest.mark.parametrize("length", (1, 32))
@pytest.mark.parametrize("design", (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM),
                         ids=lambda d: d.value)
def test_short_streams_keep_block_memory_bounded(design, length):
    # kde's 33 operand planes at 200x200 take 10.6 MB.  A block of at most 6,250
    # pixels (2M cells at 64 + 256 a pixel) holds 33 sources x 320 bits = 1.3 kB
    # a pixel, 8.3 MB, and the stream tile buffers 1.1 MB: 20 MB in all.
    # Counting only L cells a pixel put all 40,000 pixels in one block, which
    # peaked at 44.9-45.3 MB
    cfg = ExperimentConfig(app=AppKind.KDE, design=design, length=length, dims=(200, 200))
    assert _peak_bytes(cfg) < 25e6


@pytest.mark.parametrize("length", (1, 32))
def test_the_memory_path_keeps_a_stochmem_block_as_small_as_a_conv_mtj_block(length):
    # the memory path runs over slot chunks of at most _TILE_CELLS cells; over
    # all 33 slots of a block at once, kde stochmem peaked at 18.6 MB against
    # conv-mtj's 16.1 MB at L=1
    cfg = ExperimentConfig(app=AppKind.KDE, length=length, dims=(200, 200))
    stochmem = _peak_bytes(replace(cfg, design=SystemDesign.STOCHMEM))
    assert stochmem <= 1.05 * _peak_bytes(replace(cfg, design=SystemDesign.CONV_MTJ))


# ---------------------------------------------------------------------------
# ufunc buffer of the ASC tile loop

DEFAULT_BUFSIZE = 8192


def _record_bufsizes(monkeypatch, fail_at=None) -> list[int]:
    """Record np.getbufsize() at every tile draw; raise at draw ``fail_at``."""
    sizes = []
    draw = harness.uniform_block_from_states

    def recording_draw(states, count, **buffers):
        sizes.append(np.getbufsize())
        if len(sizes) == fail_at:
            raise RuntimeError("draw failed")
        return draw(states, count, **buffers)

    monkeypatch.setattr(harness, "uniform_block_from_states", recording_draw)
    return sizes


@pytest.mark.parametrize("length,tile_cells,bufsize", [
    (300, None, 288),            # row-sized, rounded down to a multiple of 16
    (1024, None, 1024),
    (70_001, None, 65_536),      # tiles split the length into 65,536-draw rows
    (32, None, DEFAULT_BUFSIZE),  # rows below _UNBUFFERED_MIN_ROW keep the default
    (300, 100, DEFAULT_BUFSIZE),  # 64-draw rows of a tile split along the length
])
@pytest.mark.parametrize("design", (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM))
def test_tile_loop_runs_with_a_row_sized_ufunc_buffer(monkeypatch, design, length,
                                                      tile_cells, bufsize):
    assert np.getbufsize() == DEFAULT_BUFSIZE
    if tile_cells is not None:
        monkeypatch.setattr(harness, "_TILE_CELLS", tile_cells)
    sizes = _record_bufsizes(monkeypatch)
    dims = (1, 1) if length > harness._TILE_CELLS else (3, 2)
    run_experiment(ExperimentConfig(app=AppKind.ROBERT, design=design, length=length, dims=dims))
    assert sizes and set(sizes) == {bufsize}
    assert np.getbufsize() == DEFAULT_BUFSIZE


def test_tile_loop_restores_the_ufunc_buffer_when_a_draw_raises(monkeypatch):
    sizes = _record_bufsizes(monkeypatch, fail_at=2)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_experiment(ExperimentConfig(app=AppKind.ROBERT, design=SystemDesign.CONV_MTJ,
                                        length=1024, dims=(3, 2)))
    assert sizes == [1024, 1024]
    assert np.getbufsize() == DEFAULT_BUFSIZE


# ---------------------------------------------------------------------------
# differential test: the vectorized pipeline against a per-pixel composition
# of the scalar converters and memory, with each circuit evaluated bit by bit

SEED = 7
LENGTH = 97
WIDTH, HEIGHT = 6, 5
WRITE_NOISE_ID, READ_NOISE_ID = 64, 96


def _differential_input(app, crop):
    """(input config fields, frames oldest first) of an app: the video apps read
    the crop of the 128x128 synthetic video (video_crop.py), on which their
    outputs hold both 0 and 1, the others their WIDTH x HEIGHT synthetic frames."""
    if app in (AppKind.FRAME, AppKind.KDE):
        return {"input_path": str(crop)}, [load_pgm(p) for p in sorted(crop.glob("*.pgm"))]
    kind = "salt-pepper" if app is AppKind.MEDIAN else "scene"
    return ({"dims": (WIDTH, HEIGHT), "input_seed": SEED},
            gen_test_inputs(kind, (WIDTH, HEIGHT), SEED))


def _operands(app, frames, x, y):
    """Per-pixel operand values, neighbors clamped to the image edge; the last
    frame is the current one."""
    img = frames[-1].data
    height, width = img.shape

    def at(dy, dx):
        return float(img[min(max(y + dy, 0), height - 1), min(max(x + dx, 0), width - 1)])

    if app is AppKind.ROBERT:
        return [at(0, 0), at(0, 1), at(1, 0), at(1, 1)]
    if app is AppKind.MEDIAN:
        return [at(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    if app is AppKind.FRAME:
        return [at(0, 0), float(frames[-2].data[y, x])]
    if app is AppKind.GAMMA:
        return [at(0, 0)]
    return [at(0, 0)] + [float(h.data[y, x]) for h in frames[-1 - KDE_HISTORY:-1]]


def _golden_pixel(app, params, ops):
    """Exact output of one pixel from its operand values."""
    if app is AppKind.ROBERT:
        a, b, c, d = ops
        return 0.5 * (abs(a - d) + abs(b - c))
    if app is AppKind.MEDIAN:
        return sorted(ops)[4]
    if app is AppKind.FRAME:
        return float(abs(ops[0] - ops[1]) > params.theta)
    if app is AppKind.GAMMA:
        return ops[0] ** params.gamma_exponent
    matches = sum(abs(ops[0] - h) <= params.delta for h in ops[1:])
    return float(matches / KDE_HISTORY < params.theta)


@pytest.mark.parametrize("params", (AppParams(),
                                    AppParams(theta=0.3, delta=0.02, gamma_exponent=2.2)),
                         ids=("default", "other"))
@pytest.mark.parametrize("app", list(AppKind), ids=lambda a: a.value)
def test_golden_matches_a_per_pixel_oracle(app, params, video_crop):
    fields, frames = _differential_input(app, video_crop)
    cfg = ExperimentConfig(app=app, params=params, **fields)
    expected = np.array([[_golden_pixel(app, params, _operands(app, frames, x, y))
                          for x in range(WIDTH)] for y in range(HEIGHT)])
    got = golden_eval(app, resolve_inputs(cfg), params).data
    if app is AppKind.GAMMA:
        # numpy's vectorized pow may round one ulp away from the scalar libm pow
        np.testing.assert_allclose(got, expected, rtol=2 * np.finfo(float).eps, atol=0)
    else:
        assert np.array_equal(got, expected)


def _wiring(app, params):
    """(sources, groups): a source is ("op", slot) or ("const", value);
    streams that must be correlated share a group."""
    if app is AppKind.ROBERT:
        return [("op", 0), ("op", 1), ("op", 2), ("op", 3), ("const", 0.5)], [0, 1, 1, 0, 8]
    if app is AppKind.MEDIAN:
        return [("op", j) for j in range(9)], [0] * 9
    if app is AppKind.FRAME:
        return [("op", 0), ("op", 1)], [0, 0]
    if app is AppKind.GAMMA:
        deg = params.bernstein_degree
        poly, _ = fit_bernstein(lambda v: v ** params.gamma_exponent, deg)
        return ([("op", 0)] * deg + [("const", c) for c in poly.coeffs],
                list(range(deg)) + [16] * (deg + 1))
    return [("op", j) for j in range(1 + KDE_HISTORY)], [0] * (1 + KDE_HISTORY)


def _state(x, y, stream_id):
    return derive_state(SEED, x, y, stream_id)


def _generator_input(design, value, x, y, slot):
    """Comparator code (conv-lfsr) or probability; slot None is a constant,
    which skips the memory.  The conv designs' SRAM is ideal, so a stored
    code reads back unchanged."""
    if design is SystemDesign.STOCHMEM:
        if slot is None:
            return value
        noise = ExperimentConfig().noise
        stored = mem_write(noise, value, _state(x, y, WRITE_NOISE_ID + slot))
        return mem_read(noise, stored, _state(x, y, READ_NOISE_ID + slot))
    code = adc_quantize(value)
    if design is SystemDesign.CONV_MTJ:
        return dac_dequantize(requantize(code))
    return code


def _reference_pixel(cfg, frames, x, y):
    ops = _operands(cfg.app, frames, x, y)
    sources, groups = _wiring(cfg.app, cfg.params)
    streams = []
    for (kind, val), group in zip(sources, groups):
        level = (_generator_input(cfg.design, ops[val], x, y, val) if kind == "op"
                 else _generator_input(cfg.design, val, x, y, None))
        state = _state(x, y, group)
        if cfg.design is SystemDesign.CONV_LFSR:
            streams.append(dsc_generate(level, LENGTH, state))
        else:
            streams.append(asc_generate(level, LENGTH, state))
    p = cfg.params
    if cfg.app is AppKind.ROBERT:
        return robert_bits(*streams).sum() / LENGTH
    if cfg.app is AppKind.MEDIAN:
        return median_bits(streams).sum() / LENGTH
    if cfg.app is AppKind.FRAME:
        return frame_flags(streams[0], streams[1], p.theta)
    if cfg.app is AppKind.GAMMA:
        deg = p.bernstein_degree
        return gamma_eval(streams[:deg], streams[deg:]).sum() / LENGTH
    return kde_flags(streams[0], streams[1:], p.delta, p.theta)


@pytest.mark.parametrize("design", list(SystemDesign), ids=lambda d: d.value)
@pytest.mark.parametrize("app", list(AppKind), ids=lambda a: a.value)
def test_harness_matches_scalar_composition(app, design, video_crop):
    fields, frames = _differential_input(app, video_crop)
    cfg = ExperimentConfig(app=app, design=design, length=LENGTH, global_seed=SEED, **fields)
    got = run_experiment(cfg).output.data
    assert np.array_equal(got, _scalar_composition(cfg, frames))
    if app in (AppKind.FRAME, AppKind.KDE):
        # a constant flag image would match a wrong engine as well
        assert set(np.unique(got)) == {0.0, 1.0}


def _scalar_composition(cfg, frames):
    return np.array([[_reference_pixel(cfg, frames, x, y) for x in range(WIDTH)]
                     for y in range(HEIGHT)])


def test_scalar_composition_does_not_share_the_engine_threshold(video_crop):
    # the ASC oracle states its own threshold, int(p * 2^64), so an engine
    # threshold scaled by 1 - 2^-12 must break the differential test
    fields, frames = _differential_input(AppKind.ROBERT, video_crop)
    cfg = ExperimentConfig(app=AppKind.ROBERT, design=SystemDesign.CONV_MTJ, length=LENGTH,
                           global_seed=SEED, **fields)
    exact = rng.bernoulli_threshold_u64

    def scaled(p):
        return (exact(p) * (1.0 - 2.0 ** -12)).astype(np.uint64)

    with mock.patch.object(rng, "bernoulli_threshold_u64", scaled), \
            mock.patch.object(harness, "bernoulli_threshold_u64", scaled):
        got = run_experiment(cfg).output.data
        expected = _scalar_composition(cfg, frames)
    assert not np.array_equal(got, expected)
    assert np.array_equal(run_experiment(cfg).output.data, expected)



SHARED_GROUP_APPS = (AppKind.MEDIAN, AppKind.FRAME, AppKind.KDE)


@pytest.mark.parametrize("length", (1, 63, 64, 65, 300, 1022, 1023, 1024, 2047, 3000))
@pytest.mark.parametrize("seed", (1, 9))
@pytest.mark.parametrize("app", SHARED_GROUP_APPS, ids=lambda a: a.value)
def test_conv_lfsr_outputs_equal_window_counts(app, seed, length):
    cfg = ExperimentConfig(app=app, design=SystemDesign.CONV_LFSR, length=length, dims=(48, 48),
                           global_seed=seed)
    got = run_experiment(cfg).output.data
    assert np.array_equal(got, lfsr_output(app, resolve_inputs(cfg), seed, length, cfg.params))
    if app is not AppKind.MEDIAN:
        # a constant flag image would match a wrong count as well
        assert set(np.unique(got)) == {0.0, 1.0}


@pytest.mark.parametrize("periods", (1, 2, 3))
@pytest.mark.parametrize("seed", (1, 5))
@pytest.mark.parametrize("app", SHARED_GROUP_APPS, ids=lambda a: a.value)
def test_whole_lfsr_periods_give_the_golden_form_of_the_adc_levels(app, seed, periods):
    # a whole period carries exactly each code's ones, so the ADC is the only error
    cfg = ExperimentConfig(app=app, design=SystemDesign.CONV_LFSR, length=periods * PERIOD,
                           dims=(48, 48), global_seed=seed)
    levels = adc_quantize(resolve_inputs(cfg)) / PERIOD
    assert np.array_equal(run_experiment(cfg).output.data,
                          golden_eval(app, levels, cfg.params).data)
