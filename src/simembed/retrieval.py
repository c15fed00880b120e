"""Embedding index: store (id, label, vector) records, answer top-k queries.

The index holds an id tuple, an int32 label array and one float32 (N, D)
vector matrix.  Queries are an exact linear scan over that matrix:
``distance.knn`` selects the k smallest distances with ``np.argpartition``
and re-sorts only the survivors by ``(distance, id)``, so every ranked
result is usable as an oracle.  The metric (including its exponent) is a
property of the index and travels with the file, so an index built under
one exponent cannot be silently queried under another.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .container import (atomic_write, pack_header, pack_name, read_exact,
                        read_header)
from .distance import DistanceMetric, knn
from .errors import DataError, DimensionError, FormatError

Array = np.ndarray

EMBED_MAGIC = b"EMBIDX01"
EMBED_VERSION = 1
EMBED_HEADER = "<dIQ"  # after the version: metric exponent, dim, count


@dataclass(frozen=True)
class EmbeddingRecord:
    """One stored item.  Vectors coming out of the network are unit norm
    (within 1e-4); the index itself only requires a consistent dimension."""

    id: str
    class_label: int
    vector: Array

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=np.float32)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError(
                f"record {self.id!r}: vector must be 1-D and non-empty, "
                f"got shape {np.asarray(self.vector).shape}")
        if not np.all(np.isfinite(v)):
            raise DataError(f"record {self.id!r}: non-finite vector entries")
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True, eq=False)
class EmbeddingIndex:
    dim: int
    metric: DistanceMetric
    ids: tuple[str, ...]
    labels: Array = field(repr=False)
    vectors: Array = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.ids)


def _check_unique(ids: Sequence[str]) -> None:
    seen: set[str] = set()
    for item_id in ids:
        if item_id in seen:
            raise DataError(f"duplicate record id {item_id!r}")
        seen.add(item_id)


def build_index(records: Sequence[EmbeddingRecord],
                metric: DistanceMetric) -> EmbeddingIndex:
    """Validate and freeze records into a queryable index.

    Insertion order is preserved; ties in later queries break by id, so
    order only matters for reproducibility of the stored file.
    """
    if not records:
        raise DataError("an index needs at least one record")
    dim = records[0].vector.shape[0]
    for r in records:
        if r.vector.shape[0] != dim:
            raise DimensionError(
                f"record {r.id!r} has dim {r.vector.shape[0]}, "
                f"index dim is {dim}")
    ids = tuple(r.id for r in records)
    _check_unique(ids)
    return EmbeddingIndex(
        dim=dim, metric=metric, ids=ids,
        labels=np.array([r.class_label for r in records], dtype=np.int32),
        vectors=np.stack([r.vector for r in records]))


def query_topk(index: EmbeddingIndex, query_vector: Array,
               k: int) -> list[tuple[str, float]]:
    """Exact top-k of the index under its own metric, ascending by
    (distance, id)."""
    q = np.asarray(query_vector, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise DimensionError(
            f"query vector must have shape ({index.dim},), got {q.shape}")
    return knn(q, index, k)


def write_embeddings(path: str, index: EmbeddingIndex) -> None:
    """Write via ``<path>.tmp``, renamed into place or removed on error."""
    if index.size == 0:
        raise DataError("refusing to write an empty index")
    with atomic_write(path) as fh:
        fh.write(pack_header(EMBED_MAGIC, EMBED_VERSION) + struct.pack(
            EMBED_HEADER, index.metric.exponent, index.dim, index.size))
        for item_id, label, vector in zip(index.ids, index.labels,
                                          index.vectors):
            fh.write(pack_name(item_id) + struct.pack("<i", label)
                     + vector.astype("<f4", copy=False).tobytes())


def read_embeddings(path: str) -> EmbeddingIndex:
    """Read an index written by ``write_embeddings``, rejecting truncated,
    padded or foreign files, non-finite vectors and duplicate ids."""
    with open(path, "rb") as fh:
        read_header(fh, EMBED_MAGIC, EMBED_VERSION, "embedding file")
        exponent, dim, count = struct.unpack(
            EMBED_HEADER, read_exact(fh, struct.calcsize(EMBED_HEADER),
                                     "header"))
        if count == 0:
            raise FormatError("embedding file declares zero records")
        if dim == 0:
            raise DimensionError("embedding file declares dimension 0")
        room = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * (6 + 4 * dim) > room:  # id length, label, vector
            raise FormatError(f"truncated embedding file: {count} records "
                              f"need more than its {room} bytes")
        ids = []
        labels = np.empty(count, dtype=np.int32)
        vectors = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            (id_len,) = struct.unpack(
                "<H", read_exact(fh, 2, f"id length of record {i}"))
            body = read_exact(fh, id_len + 4 + 4 * dim, f"record {i}")
            ids.append(body[:id_len].decode("utf-8"))
            (labels[i],) = struct.unpack_from("<i", body, id_len)
            vectors[i] = np.frombuffer(body, "<f4", dim, id_len + 4)
        if fh.read(1):
            raise FormatError("trailing bytes after the last record")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise DataError(f"record {ids[bad[0]]!r}: non-finite vector entries")
    _check_unique(ids)
    return EmbeddingIndex(dim=dim, metric=DistanceMetric(exponent),
                          ids=tuple(ids), labels=labels, vectors=vectors)


def recall_at_k(index: EmbeddingIndex, query_vector: Array,
                ground_truth_ids: Sequence[str], k: int) -> float:
    """1.0 if any ground-truth id lands in the top-k, else 0.0."""
    if not ground_truth_ids:
        raise DataError("recall needs at least one ground-truth id")
    top = {item_id for item_id, _ in query_topk(index, query_vector, k)}
    return 1.0 if any(t in top for t in ground_truth_ids) else 0.0
