import pytest

from simembed import toydata
from simembed.errors import ConfigError


def test_seventeen_is_the_smallest_size():
    with pytest.raises(ConfigError, match=r"^size must be >= 17, got 16$"):
        toydata.make_shape_dataset(20, 0, size=16)
    assert toydata.make_shape_dataset(20, 0, size=17).image_shape == \
        (1, 17, 17)
