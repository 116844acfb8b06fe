import numpy as np
import pytest

from stochmem.circuits import AppKind, AppParams, golden_eval
from stochmem.harness import ExperimentConfig, operand_columns, resolve_inputs
from stochmem.images import ImageGray, save_pgm
from stochmem.synth import gen_test_inputs, make_scene, make_video


def test_deterministic_generation():
    a = make_scene(64, 64)
    b = make_scene(64, 64)
    assert np.array_equal(a.data, b.data)


def test_seed_changes_scene():
    assert not np.array_equal(make_scene(64, 64, seed=1).data,
                              make_scene(64, 64, seed=2).data)


def test_checkerboard_edges_only_on_boundaries(tmp_path):
    ys, xs = np.mgrid[0:64, 0:64]
    board = 0.25 + 0.5 * ((xs // 16 + ys // 16) % 2)
    path = tmp_path / "board.pgm"
    save_pgm(ImageGray(board), path)
    frames = resolve_inputs(ExperimentConfig(app=AppKind.ROBERT, input_path=str(path)))
    planes = operand_columns(AppKind.ROBERT, frames, 0, 64 * 64).reshape(4, 64, 64)
    edges = golden_eval(AppKind.ROBERT, planes)
    interior_mask = np.ones_like(edges, dtype=bool)
    for b in range(16, 64, 16):
        interior_mask[b - 1:b + 1, :] = False
        interior_mask[:, b - 1:b + 1] = False
    assert edges[interior_mask].max() == 0.0
    assert edges.max() > 0.0


def test_static_video_kde_all_background():
    frames = [make_scene(32, 32)] * 33
    planes = np.stack([f.data for f in frames[-1:] + frames[:-1]])
    out = golden_eval(AppKind.KDE, planes, AppParams())
    assert out.max() == 0.0


def test_moving_square_frame_diff_covers_motion():
    frames = make_video(64, 64)
    planes = np.stack([frames[-1].data, frames[-2].data])
    out = golden_eval(AppKind.FRAME, planes, AppParams())
    # foreground exists and sits inside the band swept by the objects
    assert out.sum() > 0


def test_video_frames_all_valid():
    frames = make_video(48, 40)
    assert len(frames) == 33
    for f in frames:
        assert f.width == 48 and f.height == 40
        assert f.data.min() >= 0.0 and f.data.max() <= 1.0


def test_gen_test_inputs_dispatch():
    # every kind is a frame list; a still image is one frame
    [scene] = gen_test_inputs("scene", (16, 8))
    assert (scene.width, scene.height) == (16, 8)
    assert len(gen_test_inputs("salt-pepper", (16, 8))) == 1
    assert len(gen_test_inputs("video", (16, 16))) == 33
    for kind in ("nope", "gradient", "checkerboard"):
        with pytest.raises(ValueError, match=f"unknown input kind '{kind}'"):
            gen_test_inputs(kind, (8, 8))


def test_salt_pepper_density():
    [img] = gen_test_inputs("salt-pepper", (128, 128))
    extremes = ((img.data == 0.0) | (img.data == 1.0)).mean()
    assert 0.03 <= extremes <= 0.07
