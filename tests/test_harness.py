import pytest

from stochmem.bitstream import MAX_LENGTH
from stochmem.harness import ExperimentConfig


@pytest.mark.parametrize("length", (0, MAX_LENGTH + 1))
def test_config_rejects_length_outside_bitstream_range(length):
    with pytest.raises(ValueError, match="length"):
        ExperimentConfig(length=length)
    assert ExperimentConfig(length=MAX_LENGTH).length == MAX_LENGTH


def test_config_rejects_nonpositive_jobs():
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=0)
