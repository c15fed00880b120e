"""Training-pair and triplet generation.

Positive candidates for a query are its same-class nearest neighbors under
a cheap similarity scorer: L1 distance between normalized intensity (or
per-channel color) histograms.  :func:`candidate_table` ranks every item's
candidates once, within the dataset's own grouping (``Dataset.class_rows``);
batches are row indices (positions in ``dataset.ids``) drawn from it, and
other-class rows are read off the labels per negative, so a table of N
rows is O(N) at any class count.  A ``random_baseline`` strategy replaces
the scorer with uniform same-class / cross-class draws for ablation runs.

The negative rule: :func:`sample_negatives` draws ``round(count *
in_class_fraction)`` negatives from the query's class outside the
excluded ids and the rest from other classes, 3:7 by default.  A batch
draws one negative per query, with the query's candidates excluded, so
under ``biss`` it is in-class only when the fraction rounds to 1 (above
1/2); at the default 0.3 every batch negative comes from another class.
:func:`candidate_table` refuses a ``biss`` table with a fraction above
1/2 when a class has ``len(class) - 1 <= n_candidates``: its rows would
have no classmate outside their candidates.  Under ``random_baseline`` a
batch negative is a uniform other-class row.

All sampling is driven by an explicit ``numpy.random.Generator``; batches
are a deterministic function of (dataset, config, seed); the scorer is
part of the config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated, Sequence

import numpy as np

from .dataset import Dataset
from .errors import (ConfigError, DataError, DimensionError, Range,
                     check_ranges)

Array = np.ndarray

SCORER_INTENSITY = "intensity_histogram"
SCORER_COLOR = "color_histogram"

STRATEGY_BISS = "biss"
STRATEGY_RANDOM = "random_baseline"

# Scores held at once while ranking one class: queries x classmates x bins.
_SCORE_BLOCK = 1 << 16
# Pixels binned at once by ``_histograms``, as ``np.histogram`` blocks them.
_HIST_BLOCK = 1 << 16
_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class BissScorer:
    """A basic image similarity scorer: lower score = more similar.

    Both kinds compare L1 distance between normalized histograms
    (intensity pools all channels; color histograms are per-channel and
    concatenated).
    """

    kind: str = SCORER_INTENSITY
    bins: Annotated[int, Range(2)] = 16

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.kind not in (SCORER_INTENSITY, SCORER_COLOR):
            raise ConfigError(f"unknown scorer kind {self.kind!r}")


@dataclass(frozen=True)
class SamplerConfig:
    n_candidates: Annotated[int, Range(1)] = 100
    in_class_fraction: Annotated[float, Range(0, 1)] = 0.3
    rng_seed: Annotated[int, Range(0)] = 0
    strategy: str = STRATEGY_BISS
    # share of positives taken as augmented views of the query itself
    self_pair_fraction: Annotated[float, Range(0, 1)] = 0.0
    scorer: BissScorer = BissScorer()

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.strategy not in (STRATEGY_BISS, STRATEGY_RANDOM):
            raise ConfigError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class CandidateTable:
    """``dataset``, which holds the class grouping, ready for sampling under
    ``cfg``: ``candidates[row]`` lists a row's positive candidates, nearest
    first, or is ``None`` under ``random_baseline``, where a row's
    candidates are its classmates (negatives: see the module docstring)."""

    cfg: SamplerConfig
    dataset: Dataset
    candidates: tuple[Array, ...] | None


def _histograms(scorer: BissScorer, images: Array) -> Array:
    """Normalized histogram features of (N, C, H, W) images in [0, 1], one
    row per image.  A plane's counts are ``np.histogram``'s over the range
    (0, 1), count for count: its uniform-bin rule, run on a block of images
    at a time instead of one call per plane."""
    bins = scorer.bins
    n, c, h, w = images.shape
    if scorer.kind == SCORER_INTENSITY:
        c = 1
    counts = np.empty((n, c, bins), np.intp)
    step = max(1, _HIST_BLOCK // (c * h * w))
    for start in range(0, n, step):
        block = images[start:start + step]
        if scorer.kind == SCORER_INTENSITY:
            block = block.mean(axis=1)
        block = block.reshape(-1, h * w)  # one row per plane
        if block.dtype.kind != "f":
            block = block.astype(np.float64)
        edges = np.linspace(0.0, 1.0, bins + 1, dtype=block.dtype)
        keep = (block >= 0.0) & (block <= 1.0)
        block = np.where(keep, block, 0)
        # numpy's bin (a - 0) / np.float64(1 - 0) * bins, moved by one where
        # it disagrees with the edges; 1.0 falls in the last bin, and a pixel
        # outside the range in an extra bin that is cut off
        index = (block / np.float64(1.0) * bins).astype(np.intp)
        index[index == bins] -= 1
        index -= block < edges[index]
        index += (block >= edges[index + 1]) & (index != bins - 1)
        index[~keep] = bins
        index += np.arange(len(block))[:, None] * (bins + 1)
        found = np.bincount(index.ravel(),
                            minlength=len(block) * (bins + 1))
        counts[start:start + step] = found.reshape(-1, c, bins + 1)[..., :bins]
    totals = counts.sum(axis=2, keepdims=True)
    return (counts / np.maximum(totals, 1)).reshape(n, c * bins)


def biss_score(scorer: BissScorer, a: Array, b: Array) -> float:
    """Similarity score between two images of equal shape; 0 means the
    scorer cannot tell them apart."""
    if a.shape != b.shape:
        raise DimensionError(
            f"images differ in shape: {a.shape} vs {b.shape}")
    first, second = (_histograms(scorer, np.asarray(image)[None])
                     for image in (a, b))
    return float(np.abs(first - second).sum())


def positive_candidates(query_id: str, dataset: Dataset,
                        cfg: SamplerConfig) -> list[str]:
    """Up to ``cfg.n_candidates`` same-class ids nearest to the query under
    ``cfg.scorer``, ascending score with ties broken by ascending id; the query
    itself is excluded."""
    query = dataset.get(query_id)
    classmates = [dataset.ids[r]
                  for r in dataset.class_rows[query.class_label]]
    if len(classmates) < 2:
        raise DataError(
            f"item {query_id!r} is alone in class {query.class_label}; "
            f"no positive candidates exist")
    table = candidate_table(dataset.subset(classmates),  # draws no negatives
                            replace(cfg, strategy=STRATEGY_BISS,
                                    in_class_fraction=0.0))
    return [classmates[row]
            for row in table.candidates[classmates.index(query_id)]]


def candidate_table(dataset: Dataset, cfg: SamplerConfig) -> CandidateTable:
    """Under the ``biss`` strategy, rank each of ``dataset``'s rows'
    classmates by (``cfg.scorer`` score, id) and keep the first
    ``cfg.n_candidates``; refuses what the module docstring says."""
    candidates = None
    if cfg.strategy == STRATEGY_BISS:
        ids = dataset.ids
        smallest = min(map(len, dataset.class_rows.values()))
        if round(cfg.in_class_fraction) and cfg.n_candidates >= smallest - 1:
            raise ConfigError(
                f"in_class_fraction {cfg.in_class_fraction} takes every "
                f"batch negative from a query's non-candidate classmates, "
                f"but n_candidates {cfg.n_candidates} leaves none in a "
                f"class of {smallest}")
        hists = _histograms(cfg.scorer, dataset.images())
        id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
        found = [_NO_ROWS] * len(ids)
        for rows in dataset.class_rows.values():
            step = max(1, _SCORE_BLOCK // (len(rows) * hists.shape[1]))
            for start in range(0, len(rows), step):
                queries = rows[start:start + step]
                scores = np.abs(hists[queries, None] - hists[None, rows]) \
                    .sum(axis=2)
                order = np.lexsort(
                    (np.broadcast_to(id_rank[rows], scores.shape), scores))
                for query, ranked in zip(queries, rows[order]):
                    found[query] = ranked[ranked != query][
                        :cfg.n_candidates].copy()  # drop the rest of the row
        candidates = tuple(found)
    return CandidateTable(cfg, dataset, candidates)


def _candidates_cached(table: CandidateTable, row: int) -> Array:
    """Row ``row``'s positive candidates, nearest first.  The batch makers
    read candidates only here; ``perfbench/tracer.py`` counts lookups by
    this name."""
    if table.candidates is not None:
        return table.candidates[row]
    return _in_class_pool(table.dataset, row, ())


def _other_rows(dataset: Dataset, row: int) -> Array:
    others = np.flatnonzero(dataset.labels != dataset.labels[row])
    if not len(others):
        raise DataError("negative sampling needs at least one other class")
    return others


def _in_class_pool(dataset: Dataset, row: int,
                   exclude: Sequence[int] | Array) -> Array:
    """``row``'s classmates other than itself and outside ``exclude``."""
    classmates = dataset.class_rows[dataset.labels[row]]
    return classmates[~np.isin(classmates, exclude) & (classmates != row)]


def sample_negatives(query_id: str, dataset: Dataset, cfg: SamplerConfig,
                     count: int, rng: np.random.Generator,
                     exclude: Sequence[str] = (),
                     ) -> list[tuple[str, bool]]:
    """Draw ``count`` negative ids for a query by the module docstring's
    rule, uniformly without replacement within each pool; ``exclude`` is
    normally the query's positive-candidate set.

    Returns ``(id, in_class)`` tuples, in-class entries first.  Raises
    ``DataError`` naming the shortfall when a pool is too small.
    """
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    (row,) = dataset.rows([query_id])
    n_in = int(round(count * cfg.in_class_fraction))
    out_pool = _other_rows(dataset, row)
    skip = set(exclude)
    in_pool = _in_class_pool(dataset, row, ())
    in_pool = in_pool[[dataset.ids[r] not in skip for r in in_pool]]
    picked = []
    for pool, need, in_class, name in (
            (in_pool, n_in, True, f"in-class negative pool for {query_id!r}"),
            (out_pool, count - n_in, False, "out-of-class negative pool")):
        if len(pool) < need:
            raise DataError(f"{name} has {len(pool)} items, need {need} "
                            f"(short by {need - len(pool)})")
        picked += [(dataset.ids[r], in_class) for r in
                   pool[rng.choice(len(pool), size=need, replace=False)]]
    return picked


def _negative(table: CandidateTable, row: int,
              rng: np.random.Generator) -> int:
    """One negative row for ``row``, by the rule in the module docstring."""
    cfg, dataset = table.cfg, table.dataset
    pool = _other_rows(dataset, row)
    if cfg.strategy == STRATEGY_BISS and round(cfg.in_class_fraction):
        pool = _in_class_pool(dataset, row, _candidates_cached(table, row))
    return pool[rng.integers(len(pool))]


def _queryable(table: CandidateTable) -> Array:
    if not len(table.dataset.paired_rows):
        raise DataError("no class in the dataset has two or more items")
    return table.dataset.paired_rows


def make_pair_batch(table: CandidateTable, batch_size: int,
                    pos_fraction: float, rng: np.random.Generator,
                    ) -> tuple[Array, Array]:
    """Build a labeled pair batch: ``round(batch_size * pos_fraction)``
    positives (label 0) followed by negatives (label 1).

    Returns ``(rows, labels)``: a ``(batch_size, 2)`` array of (query,
    candidate) rows and the 0/1 labels.  Under the ``biss`` strategy
    positives come from the query's candidate list (or, with probability
    ``cfg.self_pair_fraction``, are self-pairs for augmented views); under
    ``random_baseline`` they are uniform same-class pairs.  Each negative
    follows the rule in the module docstring.
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    if not 0 <= pos_fraction <= 1:
        raise ConfigError(
            f"pos_fraction must be in [0, 1], got {pos_fraction}")
    queryable = _queryable(table)
    n_pos = int(round(batch_size * pos_fraction))
    self_pairs = table.cfg.self_pair_fraction
    rows = np.empty((batch_size, 2), dtype=np.intp)
    for i in range(n_pos):
        query = queryable[rng.integers(len(queryable))]
        if self_pairs and rng.random() < self_pairs:
            rows[i] = query, query
            continue
        candidates = _candidates_cached(table, query)
        rows[i] = query, candidates[rng.integers(len(candidates))]
    for i in range(n_pos, batch_size):
        query = rng.integers(len(table.dataset))
        rows[i] = query, _negative(table, query, rng)
    return rows, (np.arange(batch_size) >= n_pos).astype(np.intp)


def make_triplet_batch(table: CandidateTable, batch_size: int,
                       rng: np.random.Generator) -> Array:
    """Build a ``(batch_size, 3)`` array of (anchor, positive, negative)
    rows: anchors uniform over queryable rows, positives from the
    candidate list (same-class uniform under the random baseline),
    negatives by the rule in the module docstring."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    queryable = _queryable(table)
    rows = np.empty((batch_size, 3), dtype=np.intp)
    for i in range(batch_size):
        anchor = queryable[rng.integers(len(queryable))]
        candidates = _candidates_cached(table, anchor)
        positive = candidates[rng.integers(len(candidates))]
        rows[i] = anchor, positive, _negative(table, anchor, rng)
    return rows
