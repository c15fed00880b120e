"""Minkowski-family distances, including fractional exponents.

The ``L_k`` "distance" ``(sum_i |a_i - b_i|^k)^(1/k)`` is a true metric only
for ``k >= 1``; for fractional exponents ``k in (0, 1)`` the triangle
inequality fails, but rankings under it remain well defined and are what
retrieval uses.  Every ``|a - b|^k`` comes from one blocked kernel,
``_lk_sums``, in float64 whatever the input precision, because fractional
powers amplify rounding.  ``knn_many`` is the exact top-k scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, DimensionError

if TYPE_CHECKING:  # pragma: no cover
    from .retrieval import EmbeddingIndex

Array = np.ndarray


@dataclass(frozen=True)
class DistanceMetric:
    """Selector for an ``L_k`` metric; ``exponent=2`` is Euclidean,
    ``exponent=1`` Manhattan, and exponents in (0, 1) are fractional."""

    exponent: float = 0.25

    def __post_init__(self) -> None:
        if not (np.isfinite(self.exponent) and self.exponent > 0):
            raise ValueError(
                f"metric exponent must be finite and > 0, "
                f"got {self.exponent}")


EUCLIDEAN = DistanceMetric(2.0)
MANHATTAN = DistanceMetric(1.0)


_BLOCK = 4096  # rows per block: the float64 buffer stays in cache


def _lk_sums(points: Array, refs: Array, k: float) -> Array:
    """``sum_i |p_i - r_i|^k`` for each row of ``points (N, D)``, in float64;
    ``refs`` is one ``(D,)`` vector or one row per point.

    Each block of rows is copied into one reused float64 buffer, then
    subtracted, ``abs``-ed and raised in place, so the points are never
    copied whole.  Square roots and squares stand in for k = 0.25, 0.5 and
    2; the sums equal ``np.abs(p - r) ** k`` bit for bit at k = 0.5, 1 and
    2, and within 1e-15 at k = 0.25."""
    sums = np.empty(len(points))
    buf = np.empty((min(len(points), _BLOCK), points.shape[1]))
    for start in range(0, len(points), _BLOCK):
        block = buf[:len(points) - start]
        block[...] = points[start:start + _BLOCK]
        np.subtract(block, refs if refs.ndim == 1
                    else refs[start:start + _BLOCK], out=block)
        np.abs(block, out=block)
        if k == 0.25:
            np.sqrt(np.sqrt(block, out=block), out=block)
        elif k == 0.5:
            np.sqrt(block, out=block)
        elif k == 2:
            np.square(block, out=block)
        elif k != 1:
            np.power(block, k, out=block)
        block.sum(axis=1, out=sums[start:start + _BLOCK])
    return sums


def lk_distance(a: Array, b: Array, metric: DistanceMetric) -> float:
    """Distance between two equal-length vectors under ``metric``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(
            f"lk_distance needs equal-length vectors, got {a.shape} "
            f"and {b.shape}")
    k = metric.exponent
    return float(_lk_sums(a[None], b, k)[0] ** (1.0 / k))


def distances_to(points: Array, reference: Array,
                 metric: DistanceMetric) -> Array:
    """Distances from ``reference (D,)`` to every row of ``points (N,D)``."""
    points, reference = np.asarray(points), np.asarray(reference)
    if points.ndim != 2 or reference.shape != (points.shape[1],):
        raise DimensionError(
            f"shape mismatch: points {points.shape} vs reference "
            f"{reference.shape}")
    k = metric.exponent
    return _lk_sums(points, reference, k) ** (1.0 / k)


def pairwise_distances(points: Array, metric: DistanceMetric) -> Array:
    """Full ``(N, N)`` distance matrix: symmetric with a zero diagonal."""
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DimensionError(
            f"pairwise_distances needs a non-empty (N, D) array, "
            f"got shape {points.shape}")
    k = metric.exponent
    return np.stack([_lk_sums(points, p, k) for p in points]) ** (1.0 / k)


def relative_contrast(points: Array, reference: Array,
                      metric: DistanceMetric) -> float:
    """``(Dmax - Dmin) / Dmin`` over distances from ``reference`` to
    ``points``, with exact-zero distances excluded from the minimum.

    Small values mean the nearest and farthest neighbor are nearly
    indistinguishable, i.e. the metric has lost its contrast.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] < 2:
        raise DimensionError(
            f"relative_contrast needs at least 2 points, got shape "
            f"{points.shape}")
    dists = distances_to(points, reference, metric)
    nonzero = dists[dists > 0]
    if nonzero.size == 0:
        raise DataError("all points coincide with the reference")
    dmin = float(nonzero.min())
    dmax = float(dists.max())
    return (dmax - dmin) / dmin


def knn_many(queries: Array, index: "EmbeddingIndex", k: int,
             metric: DistanceMetric | None = None,
             ) -> list[list[tuple[str, float]]]:
    """Exact brute-force top-k of ``index`` for each row of ``queries
    (Q, D)``, each ascending by ``(distance, id)`` and clamped to the index
    size; a non-finite query raises ``DataError``.

    ``np.argpartition`` finds the k-th smallest distance; only the rows at
    or below it are sorted, so ties at the k boundary break on the id as a
    full sort would.  ``metric`` defaults to the index's own.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise DimensionError(f"queries must have shape (Q, {index.dim}), "
                             f"got {queries.shape}")
    if not np.isfinite(queries).all():
        raise DataError("query vector has non-finite entries")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if index.size == 0:
        raise DataError("knn on an empty index")
    metric = metric if metric is not None else index.metric
    k = min(k, index.size)
    ranked = []
    for query in queries:
        dists = distances_to(index.vectors, query, metric)
        kth = dists[np.argpartition(dists, k - 1)[k - 1]]
        survivors = np.flatnonzero(~(dists > kth))  # keeps NaN, unlike <=
        order = sorted(survivors, key=lambda i: (dists[i], index.ids[i]))
        ranked.append([(index.ids[i], float(dists[i])) for i in order[:k]])
    return ranked


def knn(query: Array, index: "EmbeddingIndex", k: int,
        metric: DistanceMetric | None = None) -> list[tuple[str, float]]:
    """``knn_many`` of one ``query (D,)``."""
    return knn_many(np.asarray(query)[None], index, k, metric)[0]


def triplet_correct(vectors: Array, anchors: Array, positives: Array,
                    negatives: Array, metric: DistanceMetric) -> Array:
    """Whether each row-index triplet puts the positive strictly nearer
    the anchor than the negative (ties count as wrong), comparing sums of
    ``|a - x|^k`` in float64: the k-th root keeps their order."""
    vectors = np.asarray(vectors)
    k = metric.exponent
    a = vectors[anchors]
    return (_lk_sums(vectors[positives], a, k)
            < _lk_sums(vectors[negatives], a, k))
