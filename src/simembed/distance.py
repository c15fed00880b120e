"""Minkowski-family distances, including fractional exponents.

The ``L_k`` "distance" ``(sum_i |a_i - b_i|^k)^(1/k)`` is a true metric only
for ``k >= 1``; for fractional exponents ``k in (0, 1)`` the triangle
inequality fails, but rankings under it remain well defined and are what
retrieval uses.  All distances are computed in float64 regardless of input
precision, because fractional powers amplify rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DimensionError

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


def lk_distance(a: Array, b: Array, metric: DistanceMetric) -> float:
    """Distance between two equal-length vectors under ``metric``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(
            f"lk_distance needs equal-length vectors, got {a.shape} "
            f"and {b.shape}")
    k = metric.exponent
    return float((np.abs(a - b) ** k).sum() ** (1.0 / k))


def distances_to(points: Array, reference: Array,
                 metric: DistanceMetric) -> Array:
    """Distances from ``reference (D,)`` to every row of ``points (N,D)``."""
    points = np.asarray(points, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if points.ndim != 2 or reference.shape != (points.shape[1],):
        raise DimensionError(
            f"shape mismatch: points {points.shape} vs reference "
            f"{reference.shape}")
    k = metric.exponent
    return (np.abs(points - reference) ** k).sum(axis=1) ** (1.0 / k)


def pairwise_distances(points: Array, metric: DistanceMetric) -> Array:
    """Full ``(N, N)`` distance matrix: symmetric with a zero diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DimensionError(
            f"pairwise_distances needs a non-empty (N, D) array, "
            f"got shape {points.shape}")
    k = metric.exponent
    diffs = np.abs(points[:, None, :] - points[None, :, :]) ** k
    return diffs.sum(axis=2) ** (1.0 / k)


def relative_contrast(points: Array, reference: Array,
                      metric: DistanceMetric) -> float:
    """``(Dmax - Dmin) / Dmin`` over distances from ``reference`` to
    ``points``, with exact-zero distances excluded from the minimum.

    Small values mean the nearest and farthest neighbor are nearly
    indistinguishable, i.e. the metric has lost its contrast.
    """
    points = np.asarray(points, dtype=np.float64)
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


def knn(query: Array, index: "EmbeddingIndex", k: int,
        metric: DistanceMetric | None = None) -> list[tuple[str, float]]:
    """Exact brute-force top-k of ``index`` for ``query``, ascending by
    ``(distance, id)`` and clamped to the index size.

    ``np.argpartition`` finds the k-th smallest distance; only the rows at
    or below it are sorted, so ties at the k boundary break on the id as a
    full sort would.  ``metric`` defaults to the index's own.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if index.size == 0:
        raise DataError("knn on an empty index")
    metric = metric if metric is not None else index.metric
    dists = distances_to(index.vectors, query, metric)
    k = min(k, index.size)
    kth = dists[np.argpartition(dists, k - 1)[k - 1]]
    survivors = np.flatnonzero(~(dists > kth))  # keeps NaN, unlike <=
    order = sorted(survivors, key=lambda i: (dists[i], index.ids[i]))
    return [(index.ids[i], float(dists[i])) for i in order[:k]]


def triplet_correct(vectors: Array, anchors: Array, positives: Array,
                    negatives: Array, metric: DistanceMetric) -> Array:
    """Whether each row-index triplet puts the positive strictly nearer
    the anchor than the negative (ties count as wrong), comparing sums of
    ``|a - x|^k`` in float64: the k-th root keeps their order."""
    vectors = np.asarray(vectors, dtype=np.float64)
    k = metric.exponent
    a = vectors[anchors]
    d_pos = (np.abs(a - vectors[positives]) ** k).sum(axis=1)
    d_neg = (np.abs(a - vectors[negatives]) ** k).sum(axis=1)
    return d_pos < d_neg
