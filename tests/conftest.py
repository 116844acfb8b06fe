import pytest

from video_crop import write_video_crop


@pytest.fixture(scope="session")
def video_crop(tmp_path_factory):
    """Directory of the cropped synthetic video's PGM frames (video_crop.py)."""
    return write_video_crop(tmp_path_factory.mktemp("video-crop"))
