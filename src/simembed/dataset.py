"""In-memory labeled image dataset: the columns of the dataset file's
records, an id tuple, int32 labels and one float32 (N, C, H, W) image
array, both arrays read-only so that ``images()`` need not copy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .container import record_columns
from .errors import DataError, DimensionError

Array = np.ndarray


@dataclass(frozen=True)
class DatasetItem:
    id: str
    image: Array  # (C, H, W) float32 in [0, 1]
    class_label: int


class Dataset:
    """Items with unique ids, in order, indexed by class.  A C-ordered
    float32 ``images`` is kept, not copied, behind a read-only view."""

    def __init__(self, ids: Sequence[str], labels, images) -> None:
        images = np.ascontiguousarray(images, dtype=np.float32).view()
        self.ids, labels = record_columns(ids, labels, len(images), "item")
        if images.ndim != 4 or 0 in images.shape[1:]:
            raise DimensionError(f"dataset images must be (N, C, H, W) with "
                                 f"C, H, W >= 1, got {images.shape}")
        labels.flags.writeable = images.flags.writeable = False
        self.labels: Array = labels
        self._images = images
        self.image_shape: tuple[int, int, int] = images.shape[1:]
        self._row = {item_id: row for row, item_id in enumerate(self.ids)}
        classes: dict[int, list[str]] = {}
        for item_id, label in zip(self.ids, labels.tolist()):
            classes.setdefault(label, []).append(item_id)
        self.class_index = {label: tuple(members)
                            for label, members in classes.items()}

    def __len__(self) -> int:
        return len(self.ids)

    def _rows(self, ids: Iterable[str]) -> list[int]:
        try:
            return [self._row[item_id] for item_id in ids]
        except KeyError as exc:
            raise DataError(f"no item with id {exc.args[0]!r}") from None

    def get(self, item_id: str) -> DatasetItem:
        (row,) = self._rows([item_id])
        return DatasetItem(item_id, self._images[row], int(self.labels[row]))

    def images(self, ids: Sequence[str] | None = None) -> Array:
        """All images (the stored array, not a copy), or a new (N,C,H,W)
        stack of those of ``ids``."""
        if ids is None:
            return self._images
        return self._images[self._rows(ids)]

    def subset(self, ids: Iterable[str]) -> "Dataset":
        ids = tuple(ids)
        rows = self._rows(ids)
        return Dataset(ids, self.labels[rows], self._images[rows])


def make_dataset(entries: Iterable[tuple[str, Array, int]]) -> Dataset:
    """Build a dataset from ``(id, image, class_label)`` tuples, coercing
    images to float32."""
    entries = list(entries)
    if not entries:
        raise DataError("dataset must contain at least one item")
    shape = np.shape(entries[0][1])
    for item_id, image, _ in entries:
        if np.shape(image) != shape:
            raise DimensionError(f"item {item_id!r} has shape "
                                 f"{np.shape(image)}, expected {shape}")
    ids, images, labels = zip(*entries)
    return Dataset(ids, labels, np.stack(images))
