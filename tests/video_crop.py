"""A 6x5 crop of the 128x128 synthetic video, for the frame and kde tests.

synth.make_video moves its square a fixed number of pixels a frame and shifts
the background over an edge padding sized for the whole video, so below
about 32 px the square has left the image and the last frames are still: at
the sizes the tests run, every frame and kde output is zero.  The crop keeps
the full-size motion.  On it frame and kde give both 0 and 1 on every design
at the test lengths, kde at L=1 included.
"""

from __future__ import annotations

from pathlib import Path

from stochmem.images import ImageGray, save_pgm
from stochmem.synth import INPUT_DIMS, gen_test_inputs

CROP_SEED = 7
ROWS, COLS = slice(62, 67), slice(48, 54)


def write_video_crop(out: Path) -> Path:
    """Write the cropped frames into the directory out as PGM files, in frame
    order (an input_path for frame and kde); return out."""
    for k, frame in enumerate(gen_test_inputs("video", INPUT_DIMS, CROP_SEED)):
        save_pgm(ImageGray(frame.data[ROWS, COLS]), out / f"frame_{k:02d}.pgm")
    return out
