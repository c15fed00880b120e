"""Embedding index: store (id, label, vector) records, answer top-k queries.

The index holds the columns of the index file's records (``container``):
an id tuple, int32 labels and one float32 (N, D) vector matrix.  Queries
are an exact linear scan over that matrix: ``distance.knn`` (one query)
and ``distance.knn_many`` (a batch) scan it in float32 to pick the rows
that may be in a query's top k, a proven superset, and take those rows'
distances from the blocked float64 kernel; a query that is not a float32
value, or a float32 overflow, makes every row a candidate.  Neither
step copies the matrix whole.  The scan uses every CPU the process may
run on, and its results do not depend on that count.  The k smallest
float64 distances are selected with ``np.argpartition`` and only the
survivors re-sorted by ``(distance, id)``, so every ranked result is
usable as an oracle.  The metric (including its exponent) is a property
of the index and travels with the file, so an index built under one
exponent cannot be silently queried under another.

The package's one evaluation path is here too: ``rows_of``,
``triplet_accuracy`` and ``topk_recall``, under the index's metric.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .container import (atomic_write, pack_header, read_header, read_struct,
                        read_records, record_columns, write_records)
from .distance import DistanceMetric, knn, knn_many, triplet_correct
from .errors import ConfigError, DataError, DimensionError, FormatError
from .losses import TripletSample

Array = np.ndarray

EMBED_MAGIC = b"EMBIDX01"
EMBED_VERSION = 1
EMBED_HEADER = "<dIQ"  # after the version: metric exponent, dim, count


@dataclass(frozen=True, eq=False)
class EmbeddingIndex:
    """Records of an id, an int32 label and a float32 vector row, queried
    under ``metric``; ``size`` and ``dim`` are derived, never stored, and
    the id -> row map is built at its first use."""

    metric: DistanceMetric
    ids: tuple[str, ...]
    labels: Array = field(repr=False)
    vectors: Array = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def _row(self) -> dict[str, int]:
        return {item_id: i for i, item_id in enumerate(self.ids)}


def build_index(ids: Sequence[str], labels, vectors,
                metric: DistanceMetric) -> EmbeddingIndex:
    """An index of one finite float32 row per id, kept in order (queries
    break ties by id), ids unique and labels within int32.  A float32
    ``vectors`` matrix is kept, not copied."""
    vectors = np.asarray(vectors, dtype=np.float32)
    ids, labels = record_columns(ids, labels, len(vectors), "record")
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        raise DimensionError(
            f"vectors must be an (N, D) matrix with D >= 1, got shape "
            f"{vectors.shape}")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise DataError(f"record {ids[bad[0]]!r}: non-finite vector entries")
    return EmbeddingIndex(metric, ids, labels, vectors)


def query_topk(index: EmbeddingIndex, query_vector: Array,
               k: int) -> list[tuple[str, float]]:
    """Exact top-k of the index under its own metric, ascending by
    (distance, id).  A query of the wrong shape raises ``DimensionError``
    and a non-finite one ``DataError``."""
    return knn(query_vector, index, k)


def write_embeddings(path: str, index: EmbeddingIndex) -> None:
    """Write via ``<path>.tmp``, renamed into place or removed on error."""
    if index.size == 0:
        raise DataError("refusing to write an empty index")
    with atomic_write(path) as fh:
        fh.write(pack_header(EMBED_MAGIC, EMBED_VERSION) + struct.pack(
            EMBED_HEADER, index.metric.exponent, index.dim, index.size))
        write_records(fh, index.ids, index.labels, index.vectors)


def read_embeddings(path: str) -> EmbeddingIndex:
    """Read a ``write_embeddings`` index, rejecting truncated, padded or
    foreign files, a bad metric, non-finite vectors and duplicate ids."""
    with open(path, "rb") as fh:
        read_header(fh, EMBED_MAGIC, EMBED_VERSION, "embedding file")
        exponent, dim, count = read_struct(fh, EMBED_HEADER, "header")
        try:
            metric = DistanceMetric(exponent)
        except ConfigError as exc:
            raise FormatError(f"{fh.name}: bad header: {exc}") from None
        ids, labels, vectors = read_records(fh, count, (dim,), "record")
    return build_index(ids, labels, vectors, metric)


def rows_of(index: EmbeddingIndex, ids: Sequence[str],
            what: str = "id") -> Array:
    """The index row of each of ``ids``, in order; the first id not in the
    index raises ``DataError``, naming it as a ``what``."""
    try:
        return np.array([index._row[item_id] for item_id in ids],
                        dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"{what} {exc.args[0]!r} not in embeddings") from None


def triplet_accuracy(index: EmbeddingIndex,
                     triplets: Sequence[TripletSample]) -> float:
    """Share of id triplets whose positive is strictly nearer the anchor
    than the negative, under the index's metric; ties count as wrong."""
    if not triplets:
        raise DataError("triplet accuracy needs at least one triplet")
    rows = rows_of(index, [i for t in triplets for i in (
        t.anchor_id, t.positive_id, t.negative_id)], "triplet id")
    correct = triplet_correct(index.vectors, *rows.reshape(-1, 3).T,
                              index.metric)
    return int(correct.sum()) / len(triplets)


def topk_recall(index: EmbeddingIndex, query_vectors: Array,
                truth_ids: Sequence[Sequence[str]], k: int) -> float:
    """Share of the rows of ``query_vectors (Q, D)`` whose top k hold any
    of that query's ``truth_ids``, a non-empty list of indexed ids."""
    if not truth_ids or not all(truth_ids):
        raise DataError("top-k recall needs at least one query, and each "
                        "query at least one ground-truth id")
    rows_of(index, [i for t in truth_ids for i in t], "ground-truth id")
    ranked = knn_many(query_vectors, index, k)
    hits = sum(not {i for i, _ in top}.isdisjoint(truth)
               for top, truth in zip(ranked, truth_ids, strict=True))
    return hits / len(truth_ids)
