"""Minkowski-family distances, including fractional exponents.

The ``L_k`` "distance" ``(sum_i |a_i - b_i|^k)^(1/k)`` is a true metric only
for ``k >= 1``; for fractional exponents ``k in (0, 1)`` the triangle
inequality fails, but rankings under it remain well defined and are what
retrieval uses.  Every ``|a - b|^k`` outside the training loss comes from
one blocked kernel, ``_lk_sums``; ``losses._squared_distances`` raises its
own, as its gradient needs them per coordinate.  Every distance this
module returns, and every triplet it scores, is a float64 sum whatever the
input precision, because fractional powers amplify rounding.  The kernel
splits its row blocks over one thread per CPU the process may run on,
through the helper that ``net.embed`` shares (``workers``), and its sums
do not depend on that count.  It reduces a float64 row with
``sum`` and a float32 row with a BLAS dot against a vector of ones.

``knn_many`` is the exact top-k scan.  It runs the kernel over the whole
index once in float32, which may only pick candidates: every row whose
float32 sum is within a proven error bound of the k-th smallest.  The
distances, their order and the ties between them all come from the
float64 kernel, run on those candidates only.  Where the bound does not
hold (a query that is not a float32 value, a float32 value that
overflowed, or a width plus exponent near 2**20) every row is a
candidate, which is the float64 scan of the whole index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated

import numpy as np

from . import workers
from .errors import DataError, DimensionError, Range, check_ranges

if TYPE_CHECKING:  # pragma: no cover
    from .retrieval import EmbeddingIndex

Array = np.ndarray


@dataclass(frozen=True)
class DistanceMetric:
    """Selector for an ``L_k`` metric; ``exponent=2`` is Euclidean,
    ``exponent=1`` Manhattan, and exponents in (0, 1) are fractional."""

    exponent: Annotated[float, Range(0, ends="()")] = 0.25

    def __post_init__(self) -> None:
        check_ranges(self)


EUCLIDEAN = DistanceMetric(2.0)
MANHATTAN = DistanceMetric(1.0)


_BLOCK = 2048  # rows per block: each worker's buffer stays in its cache


def _lk_sums(points: Array, refs: Array, k: float,
             dtype: type = np.float64) -> Array:
    """``sum_i |p_i - r_i|^k`` for each row of ``points (N, D)``, computed
    and returned in ``dtype``; ``refs`` is one ``(D,)`` vector or one row
    per point.

    The rows go in blocks of ``_BLOCK``, and the blocks in contiguous runs,
    one run per usable CPU, each run on its own thread (``workers``).  A
    row goes through the same ops at the same offset of a block of the
    same size whatever the number of runs, so the sums do not depend on
    it, bit for bit.  One block starts no thread.

    Each block of rows is subtracted in ``dtype`` into its run's reused
    buffer (rows of another dtype are cast inside the subtraction), then
    ``abs``-ed and raised in place, so the points are never copied whole.
    Square roots and squares stand in for k = 0.25, 0.5 and 2.  A float64
    row is reduced by ``sum``, so the sums equal ``np.abs(p - r) ** k``
    bit for bit at k = 0.5, 1 and 2, and within 1e-15 at k = 0.25.  A
    float32 row is reduced by a BLAS dot with a vector of ones.  Only
    ``knn_many``'s candidate scan asks for float32, with float32 points
    and refs."""
    sums = np.empty(len(points), dtype)
    blocks = range(0, len(points), _BLOCK)
    runs = workers.split(blocks)
    # one buffer per run, allocated here: a thread's own malloc arena would
    # keep its buffer resident after the thread ends
    bufs = np.empty((max(len(runs), 1), min(len(points), _BLOCK),
                     points.shape[1]), dtype)
    workers.run(lambda i, starts: _sum_blocks(points, refs, k, sums, starts,
                                              bufs[i]), runs)
    return sums


def _sum_blocks(points: Array, refs: Array, k: float, sums: Array,
                starts: range, buf: Array) -> None:
    """``_lk_sums`` of the blocks of rows from each of ``starts``, written
    into ``sums``, each block worked in ``buf``."""
    dtype = sums.dtype
    ones = np.ones(points.shape[1], dtype)
    for start in starts:
        block = buf[:len(points) - start]
        rows = points[start:start + _BLOCK]
        ref = refs if refs.ndim == 1 else refs[start:start + _BLOCK]
        np.subtract(rows, ref, out=block, dtype=dtype)
        np.abs(block, out=block)
        if k == 0.25:
            np.sqrt(np.sqrt(block, out=block), out=block)
        elif k == 0.5:
            np.sqrt(block, out=block)
        elif k == 2:
            np.square(block, out=block)
        elif k != 1:
            np.power(block, k, out=block)
        if dtype == np.float32:
            np.dot(block, ones, out=sums[start:start + _BLOCK])
        else:
            block.sum(axis=1, out=sums[start:start + _BLOCK])


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


_U32 = 2.0 ** -24  # float32's unit roundoff
_SUBNORMAL32 = 2.0 ** -149  # float32's smallest subnormal
_MAX32 = (2 - 2.0 ** -23) * 2.0 ** 127  # float32's largest finite value


def _float32_candidates(vectors: Array, query: Array, exponent: float,
                        k: int) -> Array | None:
    """Rows of ``vectors`` that may hold the exact top k of ``query``,
    picked by the float32 kernel, or ``None`` where its bound does not
    hold and every row is a candidate.

    The bound.  Let ``u = 2**-24``, S a row's exact sum and s its float32
    sum, for float32 rows and query.  While no float32 value overflows,
    each term ``|x - q|^k`` is off by at most u relative from the
    subtraction (``abs`` is exact), k·u once raised to k, and 8u (4 ulps)
    from the roots, the square or ``np.power``; summing D non-negative
    terms in any order adds (D - 1)u relative to S.  ``_lk_sums`` sums
    them with a BLAS dot against a vector of ones, which is such an order:
    a product by 1.0 is exact, so each add, fused or not, rounds like a
    plain one.  Twice that first-order total covers the higher-order
    terms, so ``|s - S| <= eps*S + a`` with ``eps = (2D + 2k + 16)u``,
    while ``eps < 1/8``.  The absolute slack ``a = 8D·2**-149`` is for
    terms that underflow below float32's normal range (squares and powers
    with k > 1; a difference that underflows is exact, a root of it is
    normal), each losing at most 4 subnormal ulps.

    With t the k-th smallest s, k rows have ``S <= (t + a)/(1 - eps)``,
    so the exact k-th smallest sum is no larger.  The float64 sums and
    roots add an error far below eps·S.  A row in the float64 top k, ties
    included, therefore has ``s <= (1 + eps)(t + a)/(1 - eps) + a``, which
    is below ``t(1 + 3eps) + 3a`` for ``eps < 1/8``, with room left for
    rounding that threshold to float32.  Rows above it are dropped; the
    scan decides nothing else.

    The bound fails, and ``None`` is returned, for a query that is not
    exactly a float32 value, for a float32 sum that is not finite (a
    difference, a term or a sum overflowed: an overflowed difference can
    hide a near row at k < 1), and for ``eps >= 1/8`` (D + k of about
    2**20 or more)."""
    eps = (2 * vectors.shape[1] + 2 * exponent + 16) * _U32
    with np.errstate(over="ignore"):
        q32 = query.astype(np.float32)
        if (vectors.dtype != np.float32 or eps >= 0.125
                or not np.array_equal(q32, query)):
            return None
        sums = _lk_sums(vectors, q32, exponent, np.float32)
    if not np.isfinite(sums.max()):
        return None
    t = float(np.partition(sums, k - 1)[k - 1])
    limit = t * (1 + 3 * eps) + 24 * vectors.shape[1] * _SUBNORMAL32
    return np.flatnonzero(sums <= np.float32(min(limit, _MAX32)))


def knn_many(queries: Array, index: "EmbeddingIndex",
             k: int) -> list[list[tuple[str, float]]]:
    """Exact brute-force top-k of ``index`` under its metric for each row
    of ``queries (Q, D)``, each ascending by ``(distance, id)`` and clamped
    to the index size; a non-finite query raises ``DataError``.

    A float32 scan of the index picks the candidate rows (see
    ``_float32_candidates``), and ``distances_to`` gives their float64
    distances, the ones returned.  ``np.argpartition`` finds the k-th
    smallest of those; only the rows at or below it are sorted, so ties at
    the k boundary break on the id as a full sort would.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise DimensionError(f"queries must have shape (Q, {index.dim}), "
                             f"got {queries.shape}")
    if not np.isfinite(queries).all():
        raise DataError("query vector has non-finite entries")
    Range(1).check("k", k)
    if index.size == 0:
        raise DataError("knn on an empty index")
    k = min(k, index.size)
    ranked = []
    for query in queries:
        rows = _float32_candidates(index.vectors, query,
                                   index.metric.exponent, k)
        if rows is None:  # the whole matrix, not a copy of it
            points, ids = index.vectors, index.ids
        else:
            points, ids = index.vectors[rows], [index.ids[i] for i in rows]
        dists = distances_to(points, query, index.metric)
        kth = dists[np.argpartition(dists, k - 1)[k - 1]]
        survivors = np.flatnonzero(~(dists > kth))  # keeps NaN, unlike <=
        order = sorted(survivors, key=lambda i: (dists[i], ids[i]))
        ranked.append([(ids[i], float(dists[i])) for i in order[:k]])
    return ranked


def knn(query: Array, index: "EmbeddingIndex",
        k: int) -> list[tuple[str, float]]:
    """``knn_many`` of one ``query (D,)``."""
    return knn_many(np.asarray(query)[None], index, k)[0]


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
