import re

import numpy as np
import pytest

from stochmem.images import (ImageGray, PgmFormatError, error_metric,
                             load_pgm, save_pgm)


class TestPgm:
    def test_p5_two_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5 2 1 255\n" + bytes([0, 255]))
        img = load_pgm(path)
        assert (img.width, img.height) == (2, 1)
        assert img.data.tolist() == [[0.0, 1.0]]

    def test_p2_ascii(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_text("P2\n# comment\n3 1\n255\n0 128 255\n")
        img = load_pgm(path)
        assert img.data[0, 1] == pytest.approx(128 / 255)

    def test_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        src = tmp_path / "src.pgm"
        src.write_bytes(b"P5\n7 9\n255\n" + raw.tobytes())
        img = load_pgm(src)
        dst = tmp_path / "dst.pgm"
        save_pgm(img, dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_byte_128_rounds_back(self, tmp_path):
        img = ImageGray(np.array([[128 / 255]]))
        path = tmp_path / "x.pgm"
        save_pgm(img, path)
        assert load_pgm(path).data[0, 0] == pytest.approx(128 / 255)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6 1 1 255\n\x00")
        with pytest.raises(PgmFormatError, match="magic"):
            load_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 4 4 255\n\x00\x00")
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 abc 1 255\n\x00")
        with pytest.raises(PgmFormatError, match="header"):
            load_pgm(path)

    @pytest.mark.parametrize("blob,message", [
        (b"P5 2 1", "malformed header: missing dimension or maxval"),
        (b"P5 1 1 255", "malformed header: missing separator before payload"),
        (b"P5 0 5 255\n", "malformed header: bad dimensions 0x5"),
        (b"P2 3 1 255\n0 1\n", "truncated payload: expected 3 samples, got 2"),
        (b"P2 2 1 255\n0 x\n", "malformed payload: non-numeric sample"),
        (b"P2 2 1 255\n0 256\n", "malformed payload: sample out of range"),
    ], ids=("no-maxval", "no-separator", "zero-width", "p2-short", "p2-non-numeric",
            "p2-above-255"))
    def test_malformed_file_names_its_defect(self, tmp_path, blob, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(PgmFormatError, match=f"^{message}$"):
            load_pgm(path)


class TestErrorMetric:
    def test_identical_images(self):
        img = ImageGray(np.random.default_rng(1).random((8, 8)))
        assert error_metric(img, img) == 0.0

    def test_black_vs_white(self):
        a = ImageGray(np.zeros((4, 4)))
        b = ImageGray(np.ones((4, 4)))
        assert error_metric(a, b) == 100.0

    def test_half_off_by_half(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, :] = 0.5
        assert error_metric(ImageGray(a), ImageGray(b)) == 25.0

    def test_dimension_mismatch(self):
        a = ImageGray(np.zeros((2, 2)))
        b = ImageGray(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            error_metric(a, b)


class TestImageGray:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ImageGray(np.array([[1.5]]))

    def test_nan_pixels_are_rejected(self):
        # NaN compares false both ways, so a test of data < 0 or data > 1 let it
        # through and error_metric then returned nan
        for data in ([[np.nan, 0.5]], [[0.25], [np.nan]]):
            with pytest.raises(ValueError, match=re.escape("pixel values must lie in [0, 1], "
                                                           "got values in [nan, nan]")):
                ImageGray(np.array(data))

    def test_shape_validation(self):
        for shape in ((3,), (2, 2, 1), (0, 4), (4, 0)):
            with pytest.raises(ValueError, match=re.escape(f"image must be a nonempty 2-D "
                                                           f"array, got shape {shape}")):
                ImageGray(np.zeros(shape))

    def test_width_and_height_are_the_data_shape(self):
        img = ImageGray(np.zeros((2, 3)))
        assert (img.width, img.height) == (3, 2)
        assert not img.data.flags.writeable
