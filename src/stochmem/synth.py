"""Deterministic synthetic test inputs.

Stand-ins for camera data: smooth structured scenes, gradients,
checkerboards, impulse-noised scenes, and a 33-frame video of a soft-edged
square moving over a static background.  Everything derives from a fixed
input seed so repeated generation is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .images import ImageGray
from .rng import RandomSource, SeedSpec, derive_state

INPUT_SEED = 0xA11CE
VIDEO_FRAMES = 33
_STREAM_SCENE = 1
_STREAM_NOISE = 2


def _source(kind_id: int, seed: int) -> RandomSource:
    return RandomSource(derive_state(SeedSpec(seed, 0, 0, kind_id)))


def _grid(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.mgrid[0:height, 0:width]
    return xs.astype(np.float64), ys.astype(np.float64)


def make_gradient(width: int, height: int) -> ImageGray:
    xs, ys = _grid(width, height)
    span = max(width + height - 2, 1)
    return ImageGray.from_array((xs + ys) / span)


def make_checkerboard(width: int, height: int, cell: int = 16,
                      lo: float = 0.25, hi: float = 0.75) -> ImageGray:
    xs, ys = _grid(width, height)
    board = ((xs // cell + ys // cell) % 2).astype(np.float64)
    return ImageGray.from_array(lo + (hi - lo) * board)


def make_scene(width: int, height: int, seed: int = INPUT_SEED) -> ImageGray:
    """Smooth composite of a ramp, sinusoidal texture, Gaussian blobs, and
    soft-edged rectangles; a stand-in with natural-image-like edge content."""
    rng = _source(_STREAM_SCENE, seed)
    xs, ys = _grid(width, height)
    img = 0.15 + 0.55 * (xs + ys) / max(width + height - 2, 1)
    for amp, fx, fy in ((0.07, 3.1, 2.3), (0.06, 5.3, 4.1), (0.07, 11.2, 8.7),
                        (0.05, 17.3, 14.1)):
        phase_x = 2.0 * np.pi * rng.next_f64()
        phase_y = 2.0 * np.pi * rng.next_f64()
        img = img + amp * np.sin(2.0 * np.pi * fx * xs / width + phase_x) \
                        * np.sin(2.0 * np.pi * fy * ys / height + phase_y)
    for _ in range(6):
        cx = rng.next_f64() * width
        cy = rng.next_f64() * height
        sx = (0.08 + 0.17 * rng.next_f64()) * width
        sy = (0.08 + 0.17 * rng.next_f64()) * height
        amp = (0.15 + 0.2 * rng.next_f64()) * (1 if rng.next_f64() < 0.5 else -1)
        img = img + amp * np.exp(-0.5 * (((xs - cx) / sx) ** 2 + ((ys - cy) / sy) ** 2))
    for _ in range(2):
        cx = rng.next_f64() * width
        cy = rng.next_f64() * height
        hw = (0.06 + 0.12 * rng.next_f64()) * width
        hh = (0.06 + 0.12 * rng.next_f64()) * height
        amp = (0.15 + 0.15 * rng.next_f64()) * (1 if rng.next_f64() < 0.5 else -1)
        img = img + amp * _soft_rect(xs, ys, cx, cy, hw, hh, edge=2.0)
    return ImageGray.from_array(np.clip(img, 0.02, 0.98))


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Cubic edge profile; its smooth derivative makes frame-to-frame
    differences of a moving border sweep the whole (0, peak) range."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _soft_rect(xs, ys, cx, cy, half_w, half_h, edge: float) -> np.ndarray:
    """Coverage in [0, 1] with a smooth ramp of `edge` pixels at the border."""
    dx = half_w - np.abs(xs - cx)
    dy = half_h - np.abs(ys - cy)
    return _smoothstep(dx / edge + 0.5) * _smoothstep(dy / edge + 0.5)


def salt_pepper(img: ImageGray, density: float = 0.05, seed: int = INPUT_SEED) -> ImageGray:
    rng = _source(_STREAM_NOISE, seed)
    u = rng.uniforms(img.width * img.height).reshape(img.height, img.width)
    out = img.data.copy()
    out[u < density / 2] = 0.0
    out[(u >= density / 2) & (u < density)] = 1.0
    return ImageGray.from_array(out)


def _soft_disc(xs, ys, cx, cy, radius, edge: float) -> np.ndarray:
    r = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
    return _smoothstep((radius - r) / edge + 0.5)


def _bilinear_shift(data: np.ndarray, shift: float, max_shift: float) -> np.ndarray:
    """Sample data at (x + shift, y + shift) with edge clamping."""
    pad = int(np.ceil(max_shift)) + 1
    padded = np.pad(data, ((0, pad), (0, pad)), mode="edge")
    h, w = data.shape
    i = int(np.floor(shift))
    f = shift - i
    d00 = padded[i:i + h, i:i + w]
    d01 = padded[i:i + h, i + 1:i + 1 + w]
    d10 = padded[i + 1:i + 1 + h, i:i + w]
    d11 = padded[i + 1:i + 1 + h, i + 1:i + 1 + w]
    return ((1 - f) * (1 - f) * d00 + (1 - f) * f * d01
            + f * (1 - f) * d10 + f * f * d11)


def make_video(width: int, height: int, frames: int = VIDEO_FRAMES,
               seed: int = INPUT_SEED) -> list[ImageGray]:
    """Moving-object video: a bright soft-edged square and two faint discs
    drift over a background that itself creeps a quarter pixel per frame
    (camera-drift stand-in).

    The faint contrasts and the creep keep a sizable pixel population near
    the segmentation thresholds: frame-to-frame differences are dominated
    by object borders, while distances across the history window grow with
    the local slope and straddle the density match radius.
    """
    bg = make_scene(width, height, seed)
    background = 0.08 + 0.42 * bg.data  # keep contrast against the 0.88 square
    xs, ys = _grid(width, height)
    half = max(6.0, 0.115 * min(width, height))
    sq_x, sq_y = 0.22 * width, 0.3 * height
    r1 = max(8.0, 0.2 * min(width, height))
    r2 = max(6.0, 0.14 * min(width, height))
    drift = 0.6  # px/frame
    out = []
    for t in range(frames):
        base = _bilinear_shift(background, drift * t, drift * (frames - 1))
        cover = _soft_rect(xs, ys, sq_x + 1.25 * t, sq_y + 0.75 * t, half, half,
                           edge=4.0)
        frame = base * (1.0 - cover) + 0.88 * cover
        faint = _soft_disc(xs, ys, 0.68 * width - 0.9 * t, 0.45 * height + 1.1 * t,
                           r1, edge=0.6 * r1)
        shade = _soft_disc(xs, ys, 0.7 * width - 1.2 * t, 0.75 * height - 0.5 * t,
                           r2, edge=3.5)
        frame = frame + (0.22 * faint - 0.22 * shade) * (1.0 - cover)
        out.append(ImageGray.from_array(np.clip(frame, 0.0, 1.0)))
    return out


def make_static_video(width: int, height: int, frames: int = VIDEO_FRAMES,
                      seed: int = INPUT_SEED) -> list[ImageGray]:
    frame = make_scene(width, height, seed)
    return [frame] * frames


def gen_test_inputs(kind: str, dims: tuple[int, int] = (128, 128),
                    seed: int = INPUT_SEED):
    """Dispatch on input kind; returns an ImageGray or a frame list."""
    width, height = dims
    if kind == "gradient":
        return make_gradient(width, height)
    if kind == "checkerboard":
        return make_checkerboard(width, height)
    if kind == "scene":
        return make_scene(width, height, seed)
    if kind == "salt-pepper":
        return salt_pepper(make_scene(width, height, seed), seed=seed)
    if kind == "video":
        return make_video(width, height, seed=seed)
    if kind == "static-video":
        return make_static_video(width, height, seed=seed)
    raise ValueError(f"unknown input kind {kind!r}")
