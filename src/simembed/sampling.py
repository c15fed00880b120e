"""Training-pair and triplet generation.

Positive candidates for a query are its same-class nearest neighbors under
a cheap similarity scorer: L1 distance between normalized intensity (or
per-channel color) histograms.  :func:`candidate_table` ranks them once per
dataset, for every item, and the batch makers draw row indices (positions
in ``dataset.items``) from that table.  :func:`sample_negatives` mixes
same-class items from outside the candidate set with items from other
classes, 3:7 by default.  The batch makers draw one negative per query
with that rule, and ``round(1 * 0.3) == 0``, so at the default fraction
their negatives all come from other classes.  A ``random_baseline``
strategy replaces the scorer with uniform same-class / cross-class draws
for ablation runs.

All sampling is driven by an explicit ``numpy.random.Generator``; batches
are a deterministic function of (dataset, scorer, config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, DimensionError

Array = np.ndarray

SCORER_INTENSITY = "intensity_histogram"
SCORER_COLOR = "color_histogram"

STRATEGY_BISS = "biss"
STRATEGY_RANDOM = "random_baseline"

# Scores held at once while ranking one class: queries x classmates x bins.
_SCORE_BLOCK = 1 << 16
_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class BissScorer:
    """A basic image similarity scorer: lower score = more similar.

    Both kinds compare L1 distance between normalized histograms
    (intensity pools all channels; color histograms are per-channel and
    concatenated).
    """

    kind: str = SCORER_INTENSITY
    bins: int = 16

    def __post_init__(self) -> None:
        if self.kind not in (SCORER_INTENSITY, SCORER_COLOR):
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        if self.bins < 2:
            raise ConfigError(
                f"histogram scorers need bins >= 2, got {self.bins}")


@dataclass(frozen=True)
class SamplerConfig:
    n_candidates: int = 100
    in_class_fraction: float = 0.3
    rng_seed: int = 0
    strategy: str = STRATEGY_BISS
    self_pair_fraction: float = 0.0  # share of positives taken as
    # augmented views of the query itself

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ConfigError(
                f"n_candidates must be >= 1, got {self.n_candidates}")
        if not 0 <= self.in_class_fraction <= 1:
            raise ConfigError(
                f"in_class_fraction must be in [0, 1], got "
                f"{self.in_class_fraction}")
        if not 0 <= self.self_pair_fraction <= 1:
            raise ConfigError(
                f"self_pair_fraction must be in [0, 1], got "
                f"{self.self_pair_fraction}")
        if self.strategy not in (STRATEGY_BISS, STRATEGY_RANDOM):
            raise ConfigError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class CandidateTable:
    """One dataset's rows (positions in ``dataset.items``) grouped for
    sampling under ``cfg``: ``class_rows`` and ``other_rows`` map each class
    to its rows and to the rows outside it, ascending; ``queryable`` rows
    have a classmate; ``candidates[row]`` lists a row's positive candidates,
    nearest first, or is ``None`` under ``random_baseline``, where a row's
    candidates are its classmates."""

    cfg: SamplerConfig
    ids: tuple[str, ...]
    labels: Array
    class_rows: dict[int, Array]
    other_rows: dict[int, Array]
    queryable: Array
    candidates: tuple[Array, ...] | None


def _histogram(scorer: BissScorer, image: Array) -> Array:
    """Normalized histogram feature for one (C, H, W) image in [0, 1]."""
    planes = [image.mean(axis=0)] if scorer.kind == SCORER_INTENSITY \
        else image
    parts = []
    for plane in planes:
        hist, _ = np.histogram(plane, bins=scorer.bins, range=(0.0, 1.0))
        total = hist.sum()
        parts.append(hist / total if total else hist.astype(np.float64))
    return np.concatenate(parts)


def biss_score(scorer: BissScorer, a: Array, b: Array) -> float:
    """Similarity score between two images of equal shape; 0 means the
    scorer cannot tell them apart."""
    if a.shape != b.shape:
        raise DimensionError(
            f"images differ in shape: {a.shape} vs {b.shape}")
    return float(np.abs(_histogram(scorer, a) - _histogram(scorer, b)).sum())


def positive_candidates(scorer: BissScorer, query_id: str, dataset: Dataset,
                        cfg: SamplerConfig) -> list[str]:
    """Up to ``cfg.n_candidates`` same-class ids nearest to the query under
    the scorer, ascending score with ties broken by ascending id; the query
    itself is excluded."""
    query = dataset.get(query_id)
    classmates = dataset.class_index[query.class_label]
    if len(classmates) < 2:
        raise DataError(
            f"item {query_id!r} is alone in class {query.class_label}; "
            f"no positive candidates exist")
    table = candidate_table(dataset.subset(classmates), scorer,
                            replace(cfg, strategy=STRATEGY_BISS))
    return [classmates[row]
            for row in table.candidates[classmates.index(query_id)]]


def candidate_table(dataset: Dataset, scorer: BissScorer,
                    cfg: SamplerConfig) -> CandidateTable:
    """Group ``dataset``'s rows by class and, under the ``biss`` strategy,
    rank each row's classmates by (score, id) and keep the first
    ``cfg.n_candidates``."""
    ids = dataset.ids
    labels = np.array([item.class_label for item in dataset.items])
    class_rows = {label: np.flatnonzero(labels == label)
                  for label in dataset.class_index}
    other_rows = {label: np.flatnonzero(labels != label)
                  for label in class_rows}
    queryable = np.flatnonzero(
        [len(class_rows[label]) >= 2 for label in labels])
    candidates = None
    if cfg.strategy == STRATEGY_BISS:
        hists = np.stack([_histogram(scorer, item.image)
                          for item in dataset.items])
        id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
        found = [_NO_ROWS] * len(ids)
        for rows in class_rows.values():
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
    return CandidateTable(cfg, ids, labels, class_rows, other_rows,
                          queryable, candidates)


def _candidates_cached(table: CandidateTable, row: int) -> Array:
    """Row ``row``'s positive candidates, nearest first.  The batch makers
    read candidates only here; ``perfbench/tracer.py`` counts lookups by
    this name."""
    if table.candidates is not None:
        return table.candidates[row]
    classmates = table.class_rows[table.labels[row]]
    return classmates[classmates != row]


def _other_rows(table: CandidateTable, row: int) -> Array:
    others = table.other_rows[table.labels[row]]
    if not len(others):
        raise DataError("negative sampling needs at least one other class")
    return others


def _negative_rows(table: CandidateTable, row: int, count: int,
                   rng: np.random.Generator, exclude: Array = _NO_ROWS,
                   ) -> list[Array]:
    """In-class and out-of-class negative rows for ``row``, drawn as
    :func:`sample_negatives` describes."""
    n_in = int(round(count * table.cfg.in_class_fraction))
    out_pool = _other_rows(table, row)
    in_pool = table.class_rows[table.labels[row]]
    if n_in:  # a batch's single negative mostly needs no in-class pool
        in_pool = in_pool[~np.isin(in_pool, exclude) & (in_pool != row)]
    picked = []
    for pool, need, name in (
            (in_pool, n_in, f"in-class negative pool for {table.ids[row]!r}"),
            (out_pool, count - n_in, "out-of-class negative pool")):
        if len(pool) < need:
            raise DataError(f"{name} has {len(pool)} items, need {need} "
                            f"(short by {need - len(pool)})")
        picked.append(pool[rng.choice(len(pool), size=need, replace=False)]
                      if need else _NO_ROWS)
    return picked


def sample_negatives(query_id: str, dataset: Dataset, cfg: SamplerConfig,
                     count: int, rng: np.random.Generator,
                     exclude: Sequence[str] = (),
                     ) -> list[tuple[str, bool]]:
    """Draw ``count`` negative ids for a query: ``round(count *
    in_class_fraction)`` same-class items (outside ``exclude``, normally
    the positive-candidate set) and the remainder from other classes,
    uniformly without replacement within each pool.

    Returns ``(id, in_class)`` tuples, in-class entries first.  Raises
    ``DataError`` naming the shortfall when a pool is too small.
    """
    dataset.get(query_id)  # KeyError naming an unknown id
    # the random-baseline table groups the rows and ranks nothing
    table = candidate_table(dataset, BissScorer(),
                            replace(cfg, strategy=STRATEGY_RANDOM))
    row_of = {item_id: row for row, item_id in enumerate(table.ids)}
    picked_in, picked_out = _negative_rows(
        table, row_of[query_id], count, rng,
        np.array([row_of[i] for i in exclude if i in row_of], dtype=np.intp))
    return ([(table.ids[r], True) for r in picked_in]
            + [(table.ids[r], False) for r in picked_out])


def _negative(table: CandidateTable, row: int,
              rng: np.random.Generator) -> int:
    """One negative row for ``row``: :func:`sample_negatives` with count 1
    and the row's candidates excluded, or a uniform other-class row under
    ``random_baseline``."""
    if table.cfg.strategy == STRATEGY_RANDOM:
        others = _other_rows(table, row)
        return others[rng.integers(len(others))]
    return np.concatenate(_negative_rows(
        table, row, 1, rng, exclude=_candidates_cached(table, row)))[0]


def _queryable(table: CandidateTable) -> Array:
    if not len(table.queryable):
        raise DataError("no class in the dataset has two or more items")
    return table.queryable


def make_pair_batch(table: CandidateTable, batch_size: int,
                    pos_fraction: float, rng: np.random.Generator,
                    ) -> tuple[Array, Array]:
    """Build a labeled pair batch: ``round(batch_size * pos_fraction)``
    positives (label 0) followed by negatives (label 1).

    Returns ``(rows, labels)``: a ``(batch_size, 2)`` array of (query,
    candidate) rows and the 0/1 labels.  Under the ``biss`` strategy
    positives come from the query's candidate list (or, with probability
    ``cfg.self_pair_fraction``, are self-pairs for augmented views).  Each
    negative is drawn as :func:`sample_negatives` draws one: from the
    query's class outside its candidates when ``round(in_class_fraction)``
    is 1 (fractions above 1/2), from the other classes otherwise.  Under
    ``random_baseline`` positives are uniform same-class pairs and
    negatives uniform cross-class pairs.
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
        query = rng.integers(len(table.ids))
        rows[i] = query, _negative(table, query, rng)
    return rows, (np.arange(batch_size) >= n_pos).astype(np.intp)


def make_triplet_batch(table: CandidateTable, batch_size: int,
                       rng: np.random.Generator) -> Array:
    """Build a ``(batch_size, 3)`` array of (anchor, positive, negative)
    rows: anchors uniform over queryable rows, positives from the
    candidate list (same-class uniform under the random baseline),
    negatives drawn one per anchor as :func:`make_pair_batch` draws
    them."""
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
