import numpy as np
import pytest

from simembed import toydata
from simembed.errors import ConfigError


def test_seventeen_is_the_smallest_size():
    with pytest.raises(ConfigError, match=r"^size must be >= 17, got 16$"):
        toydata.make_shape_dataset(20, 0, size=16)
    assert toydata.make_shape_dataset(20, 0, size=17).image_shape == \
        (1, 17, 17)


# Per-image pixel sums and sums of squares of make_shape_dataset(20,
# seed=0).  Every image is standardized to mean 0.5, so most sums read
# size * size / 2 whatever was drawn; the sums of squares carry each
# image's random contrast, so a change in the order of the draws moves
# them.  rtol 1e-6 forgives libm's last bits.
PINNED = {
    28: ([392, 392, 392, 392.020532, 395.995571, 391.130319, 392, 392,
          391.999999, 392, 392.01567, 392, 392, 392, 389.9174, 400.015212,
          392, 391.980096, 392.000001, 392],
         [222.165004, 235.527667, 242.951097, 227.041113, 227.36261,
          232.959299, 223.806492, 223.914481, 217.410252, 232.699507,
          240.673963, 220.793869, 239.33283, 219.196931, 223.610336,
          225.011796, 230.859292, 223.828471, 221.179195, 232.231765]),
    17: ([144.5, 144.5, 144.5, 144.5, 144.510584, 144.5, 144.5, 144.5,
          144.5, 144.5, 144.5, 144.5, 144.5, 144.5, 144.5, 144.5, 144.5,
          144.592671, 144.5, 144.5],
         [89.368138, 86.5080387, 89.4696853, 81.0627286, 86.5618755,
          81.3999651, 82.0669601, 82.0690963, 80.0470109, 80.1016099,
          82.9835156, 89.2695493, 86.0110528, 83.6826339, 82.817631,
          89.8200426, 79.1617525, 87.3231502, 79.6277232, 82.639765]),
}


@pytest.mark.parametrize("size", sorted(PINNED))
def test_images_keep_their_pixels(size):
    data = toydata.make_shape_dataset(20, seed=0, size=size)
    assert data.ids == tuple(f"shape-{i:05d}" for i in range(20))
    assert data.labels.tolist() == [i % 10 for i in range(20)]
    pixels = data.images().astype(np.float64)
    sums, squares = PINNED[size]
    np.testing.assert_allclose(pixels.sum(axis=(1, 2, 3)), sums, rtol=1e-6)
    np.testing.assert_allclose((pixels * pixels).sum(axis=(1, 2, 3)),
                               squares, rtol=1e-6)
