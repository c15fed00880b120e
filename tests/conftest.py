import numpy as np
import pytest

from simembed.dataset import Dataset, make_dataset


def tiny_image(rng: np.random.Generator, channels: int = 1,
               size: int = 8) -> np.ndarray:
    return rng.uniform(0.0, 1.0, (channels, size, size)).astype(np.float32)


def grid_dataset(n_classes: int = 3, per_class: int = 4, size: int = 8,
                 seed: int = 0) -> Dataset:
    """Small labeled dataset with deterministic pseudo-random images."""
    rng = np.random.default_rng(seed)
    return make_dataset((f"c{c}i{j}", tiny_image(rng, size=size), c)
                        for c in range(n_classes) for j in range(per_class))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset() -> Dataset:
    return grid_dataset()


class _FillingFile:
    """A file that takes ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, fh, budget: int) -> None:
        self._fh, self._left = fh, budget

    def write(self, data) -> int:
        size = memoryview(data).nbytes
        if size > self._left:
            raise OSError("no space left on device")
        self._left -= size
        return self._fh.write(data)

    def __enter__(self) -> "_FillingFile":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


@pytest.fixture
def disk_fills(monkeypatch):
    """``disk_fills(n)`` makes every file that ``simembed.container``
    opens from then on accept ``n`` bytes and fail on the write past
    them; ``monkeypatch.undo()`` frees the disk again."""
    from simembed import container

    def arm(budget: int) -> None:
        monkeypatch.setattr(
            container, "open",
            lambda path, mode="r": _FillingFile(open(path, mode), budget),
            raising=False)
    return arm
