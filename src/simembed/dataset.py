"""In-memory labeled image dataset: read-only id, label and image columns
of the dataset file's records, and the one grouping of its rows by class."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
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
    """Items with unique ids, in order; C-ordered float32 ``images`` are kept,
    not copied.  ``class_rows`` maps each label to its ascending rows, and
    ``paired_rows`` are those in a class of two or more; all read-only."""

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
        classes, inverse, counts = np.unique(labels, return_inverse=True,
                                             return_counts=True)
        by_class = np.argsort(inverse, kind="stable")
        self.paired_rows: Array = np.flatnonzero(counts[inverse] >= 2)
        by_class.flags.writeable = self.paired_rows.flags.writeable = False
        self.class_rows = MappingProxyType(dict(zip(
            classes.tolist(), np.split(by_class, np.cumsum(counts)[:-1]))))

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> list[int]:
        try:
            return [self._row[item_id] for item_id in ids]
        except KeyError as exc:
            raise DataError(f"no item with id {exc.args[0]!r}") from None

    def get(self, item_id: str) -> DatasetItem:
        (row,) = self.rows([item_id])
        return DatasetItem(item_id, self._images[row], int(self.labels[row]))

    def images(self, ids: Sequence[str] | None = None) -> Array:
        """All images (the stored array, not a copy), or a new (N,C,H,W)
        stack of those of ``ids``."""
        if ids is None:
            return self._images
        return self._images[self.rows(ids)]

    def subset(self, ids: Iterable[str]) -> "Dataset":
        ids = tuple(ids)
        rows = self.rows(ids)
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
