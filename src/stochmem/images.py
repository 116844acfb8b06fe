"""Grayscale images and netpbm I/O.

An image is its pixel array, read-only float64 in [0, 1] of shape (height,
width).  PGM input accepts the binary (P5) and ASCII (P2) variants with maxval
255; output is always P5.  Byte k loads as k/255 and saving rounds half-up, so
an 8-bit round trip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PgmFormatError(ValueError):
    """Raised for malformed netpbm input; message names the defect."""


@dataclass(frozen=True, eq=False)
class ImageGray:
    data: np.ndarray  # (height, width) float64 in [0, 1]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.size == 0:
            raise ValueError(f"image must be a nonempty 2-D array, got shape {data.shape}")
        lo, hi = data.min(), data.max()
        if not (lo >= 0.0 and hi <= 1.0):  # also rejects NaN
            raise ValueError(f"pixel values must lie in [0, 1], got values in [{lo}, {hi}]")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _tokenize_header(blob: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integers after the magic, skipping
    '#' comments; returns the values and the payload offset."""
    values: list[int] = []
    i = 2  # past the magic
    n = len(blob)
    while len(values) < count:
        while i < n and blob[i:i + 1].isspace():
            i += 1
        if i < n and blob[i:i + 1] == b"#":
            while i < n and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not blob[i:i + 1].isspace():
            i += 1
        token = blob[start:i]
        if not token:
            raise PgmFormatError("malformed header: missing dimension or maxval")
        try:
            values.append(int(token))
        except ValueError:
            raise PgmFormatError(f"malformed header: bad integer {token!r}") from None
    if i >= n or not blob[i:i + 1].isspace():
        raise PgmFormatError("malformed header: missing separator before payload")
    return values, i + 1


def load_pgm(path) -> ImageGray:
    blob = Path(path).read_bytes()
    magic = blob[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"malformed header: not a PGM file (magic {magic!r})")
    (width, height, maxval), offset = _tokenize_header(blob, 3)
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval}; only 255 is accepted")
    if width < 1 or height < 1:
        raise PgmFormatError(f"malformed header: bad dimensions {width}x{height}")
    npix = width * height
    if magic == b"P5":
        payload = blob[offset:offset + npix]
        if len(payload) < npix:
            raise PgmFormatError(f"truncated payload: expected {npix} bytes, "
                                 f"got {len(payload)}")
        raw = np.frombuffer(payload, dtype=np.uint8)
    else:
        tokens = blob[offset - 1:].split()
        if len(tokens) < npix:
            raise PgmFormatError(f"truncated payload: expected {npix} samples, "
                                 f"got {len(tokens)}")
        try:
            raw = np.array([int(t) for t in tokens[:npix]], dtype=np.int64)
        except ValueError:
            raise PgmFormatError("malformed payload: non-numeric sample") from None
        if raw.min() < 0 or raw.max() > 255:
            raise PgmFormatError("malformed payload: sample out of range")
        raw = raw.astype(np.uint8)
    return ImageGray(raw.reshape(height, width) / 255.0)


def save_pgm(img: ImageGray, path) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.floor(img.data * 255.0 + 0.5).astype(np.uint8).tobytes())


def error_metric(out: ImageGray, expected: ImageGray) -> float:
    """Average per-pixel absolute difference, as a percentage of full scale."""
    if out.data.shape != expected.data.shape:
        raise ValueError(f"dimension mismatch: {out.width}x{out.height} vs "
                         f"{expected.width}x{expected.height}")
    return float(100.0 * np.abs(out.data - expected.data).mean())
