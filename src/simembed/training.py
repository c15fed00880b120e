"""Optimization loop, data augmentation, and evaluation metrics.

``train`` builds one candidate table per dataset when it starts and draws
every batch from it as rows of dataset positions.  Training is siamese:
every batch's query and candidate images are embedded by the same
parameter set under one dropout mask per step, so row i of each arm of a
pair (or triplet) goes through the same thinned network.  The pair (or
triplet) loss produces per-row embedding gradients, and the arms'
parameter gradients are summed before one RMSProp step.  Runs are
bit-reproducible for a fixed seed on one thread.  A NaN/Inf loss aborts
the run and returns the last good checkpoint.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import net, sampling
from .dataset import Dataset
from .distance import EUCLIDEAN, DistanceMetric, knn_many, triplet_correct
from .errors import ConfigError, DataError, NumericError
from .losses import (AngularConfig, ContrastiveConfig, TripletSample,
                     batch_loss)
from .retrieval import EmbeddingIndex

Array = np.ndarray

AUG_HFLIP = "hflip"
AUG_SHIFT = "shift"
AUG_ROTATE = "rotate"
SUPPORTED_AUGMENTATIONS = frozenset({AUG_HFLIP, AUG_SHIFT, AUG_ROTATE})

SHIFT_MAX_PX = 2
ROTATE_MAX_DEG = 10.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    rms_decay: float = 0.9
    epsilon: float = 1e-8
    epochs: int = 1
    batch_size: int = 32
    loss: ContrastiveConfig | AngularConfig = field(
        default_factory=ContrastiveConfig)
    loss_metric_exponent: float = 2.0  # metric used inside the loss
    augmentation: frozenset[str] = frozenset()
    weight_decay: float = 0.0
    seed: int = 0
    lr_decay: float = 1.0  # per-epoch multiplier on the learning rate
    pos_fraction: float = 0.5
    batches_per_epoch: int | None = None
    val_pairs: int = 128
    val_triplets: int = 256

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ConfigError(
                f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 < self.rms_decay < 1:
            raise ConfigError(
                f"rms_decay must be in (0, 1), got {self.rms_decay}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2, got {self.batch_size}")
        unknown = set(self.augmentation) - SUPPORTED_AUGMENTATIONS
        if unknown:
            raise ConfigError(
                f"unsupported augmentations: {sorted(unknown)}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(
                f"lr_decay must be in (0, 1], got {self.lr_decay}")

    @property
    def loss_metric(self) -> DistanceMetric:
        return DistanceMetric(self.loss_metric_exponent)


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    mean_train_loss: float
    validation_loss: float
    triplet_accuracy: float
    elapsed_seconds: float


LOG_HEADER = "epoch,train_loss,val_loss,triplet_acc,seconds"


def write_log(path: str, rows: Sequence[TrainLogRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.epoch},{r.mean_train_loss:.6f},"
                     f"{r.validation_loss:.6f},{r.triplet_accuracy:.4f},"
                     f"{r.elapsed_seconds:.3f}\n")


def rmsprop_step(params: Mapping[str, Array], grads: Mapping[str, Array],
                 state: Mapping[str, Array], cfg: TrainConfig,
                 learning_rate: float | None = None,
                 ) -> tuple[dict[str, Array], dict[str, Array]]:
    """One RMSProp update over named parameters.

    Per element: ``s <- rho*s + (1-rho)*g^2`` then
    ``p <- p - lr * g / sqrt(s + eps)``.  Weight decay (if any) adds
    ``wd * p`` to the gradient first.  Non-finite gradients abort the step.
    """
    if set(params) != set(grads) or set(params) != set(state):
        raise ConfigError("params, grads, and state must share keys")
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    new_params: dict[str, Array] = {}
    new_state: dict[str, Array] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or state[name].shape != p.shape:
            raise ConfigError(
                f"shape mismatch for {name!r}: param {p.shape}, "
                f"grad {g.shape}, state {state[name].shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(
                f"non-finite gradient for {name!r}; step aborted")
        if cfg.weight_decay:
            g = g + np.asarray(cfg.weight_decay, dtype=p.dtype) * p
        s = (cfg.rms_decay * state[name]
             + (1.0 - cfg.rms_decay) * (g * g)).astype(p.dtype)
        new_state[name] = s
        new_params[name] = (p - lr * g / np.sqrt(s + cfg.epsilon)).astype(
            p.dtype)
    return new_params, new_state


def _rotate_nearest(image: Array, degrees: float) -> Array:
    """Rotate (C, H, W) about the center with nearest-neighbor sampling and
    zero fill outside the frame."""
    c, h, w = image.shape
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx,
                         indexing="ij")
    src_y = np.rint(cos_t * yy + sin_t * xx + cy).astype(np.int64)
    src_x = np.rint(-sin_t * yy + cos_t * xx + cx).astype(np.int64)
    valid = (src_y >= 0) & (src_y < h) & (src_x >= 0) & (src_x < w)
    out = np.zeros_like(image)
    sy = np.clip(src_y, 0, h - 1)
    sx = np.clip(src_x, 0, w - 1)
    for ch in range(c):
        out[ch] = np.where(valid, image[ch][sy, sx], 0.0)
    return out


def _shift(image: Array, dy: int, dx: int) -> Array:
    out = np.zeros_like(image)
    h, w = image.shape[1:]
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[:, ys, xs] = image[:, ys_src, xs_src]
    return out


def augment(image: Array, cfg: TrainConfig,
            rng: np.random.Generator) -> Array:
    """Apply each enabled transform with probability 1/2, in the fixed
    order flip, shift, rotate.  Pixels stay in their original range; shifts
    and rotations zero-fill."""
    out = image
    if AUG_HFLIP in cfg.augmentation and rng.random() < 0.5:
        out = out[:, :, ::-1]
    if AUG_SHIFT in cfg.augmentation and rng.random() < 0.5:
        dy = int(rng.integers(-SHIFT_MAX_PX, SHIFT_MAX_PX + 1))
        dx = int(rng.integers(-SHIFT_MAX_PX, SHIFT_MAX_PX + 1))
        out = _shift(out, dy, dx)
    if AUG_ROTATE in cfg.augmentation and rng.random() < 0.5:
        degrees = float(rng.uniform(-ROTATE_MAX_DEG, ROTATE_MAX_DEG))
        out = _rotate_nearest(np.ascontiguousarray(out), degrees)
    return np.ascontiguousarray(out)


def _arms(dataset: Dataset, rows: Array, cfg: TrainConfig | None = None,
          rng: np.random.Generator | None = None) -> list[Array]:
    """One (B, C, H, W) image stack per column of sample ``rows``.  Given
    ``rng``, every occurrence is augmented on its own, column by column,
    so self-pairs see two different views."""
    arms = []
    for column in rows.T:
        images = [dataset.items[row].image for row in column]
        if rng is not None and cfg.augmentation:
            images = [augment(image, cfg, rng) for image in images]
        arms.append(np.stack(images))
    return arms


def _arm_rows(arms: Sequence[Array]) -> Array:
    """Sample rows into the arms stacked one after another."""
    return np.arange(sum(map(len, arms))).reshape(len(arms), -1).T


def _batch(table: sampling.CandidateTable, cfg: TrainConfig, size: int,
           rng: np.random.Generator) -> tuple[Array, Array | None]:
    """Sample rows (and pair labels) for the loss ``cfg`` trains."""
    if isinstance(cfg.loss, ContrastiveConfig):
        return sampling.make_pair_batch(table, size, cfg.pos_fraction, rng)
    return sampling.make_triplet_batch(table, size, rng), None


def train(dataset_train: Dataset, dataset_val: Dataset,
          net_cfg: net.MultiScaleNetConfig,
          sampler_cfg: sampling.SamplerConfig, train_cfg: TrainConfig,
          scorer: sampling.BissScorer | None = None,
          ) -> tuple[net.Checkpoint, list[TrainLogRow]]:
    """Run the full optimization loop and keep the best-validation model.

    Returns the retained checkpoint (epoch set to the best epoch) and one
    log row per completed epoch.  Requires at least two classes in the
    training data.
    """
    if len(dataset_train.class_index) < 2:
        raise DataError("training data needs at least two classes")
    if scorer is None:
        scorer = sampling.BissScorer()
    smallest = min(len(ids) for data in (dataset_train, dataset_val)
                   for ids in data.class_index.values())
    if (sampler_cfg.strategy == sampling.STRATEGY_BISS
            and round(sampler_cfg.in_class_fraction)
            and sampler_cfg.n_candidates >= smallest - 1):
        raise ConfigError(
            f"in_class_fraction {sampler_cfg.in_class_fraction} takes every "
            f"batch negative from a query's non-candidate classmates, but "
            f"n_candidates {sampler_cfg.n_candidates} leaves none in a class "
            f"of {smallest}")

    checkpoint = net.build_network(net_cfg, seed=train_cfg.seed)
    params = checkpoint.parameters
    state = {name: np.zeros_like(value) for name, value in params.items()}
    train_table = sampling.candidate_table(dataset_train, scorer,
                                           sampler_cfg)
    val_table = sampling.candidate_table(dataset_val, scorer, sampler_cfg)

    # fixed validation batches, sampled once, never augmented
    val_rng = np.random.default_rng([train_cfg.seed, sampler_cfg.rng_seed,
                                     0x5EED])
    val_rows, val_labels = _batch(val_table, train_cfg, train_cfg.val_pairs,
                                  val_rng)
    val_triplets = [TripletSample(*(val_table.ids[row] for row in rows))
                    for rows in sampling.make_triplet_batch(
                        val_table, train_cfg.val_triplets, val_rng)]

    n_batches = train_cfg.batches_per_epoch
    if n_batches is None:
        n_batches = max(1, len(dataset_train) // train_cfg.batch_size)

    logs: list[TrainLogRow] = []
    best_params = copy.deepcopy(params)
    best_val = math.inf
    best_epoch = 0
    lr = train_cfg.learning_rate
    aborted = False

    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.perf_counter()
        epoch_rng = np.random.default_rng(
            [train_cfg.seed, sampler_cfg.rng_seed, epoch])
        losses_seen = []
        for _ in range(n_batches):
            try:
                step_loss = _train_step(
                    checkpoint, params, state, dataset_train, train_table,
                    train_cfg, epoch_rng, lr)
            except NumericError:
                aborted = True
                break
            if not math.isfinite(step_loss):
                aborted = True
                break
            losses_seen.append(step_loss)
        if aborted and not losses_seen:
            break
        checkpoint.parameters = params = dict(params)
        val_out = [net.embed(checkpoint, arm)
                   for arm in _arms(dataset_val, val_rows)]
        val_loss, _ = batch_loss(np.concatenate(val_out), val_labels,
                                 _arm_rows(val_out), train_cfg.loss,
                                 train_cfg.loss_metric)
        acc = triplet_accuracy(checkpoint, val_triplets, dataset_val,
                               train_cfg.loss_metric)
        elapsed = time.perf_counter() - t0
        logs.append(TrainLogRow(epoch, float(np.mean(losses_seen)),
                                val_loss, acc, elapsed))
        if val_loss < best_val:
            best_val = val_loss
            best_params = copy.deepcopy(params)
            best_epoch = epoch
        lr *= train_cfg.lr_decay
        if aborted:
            break

    final = net.Checkpoint(net_cfg, best_params, rng_seed=train_cfg.seed,
                           epoch=best_epoch)
    return final, logs


def _train_step(checkpoint: net.Checkpoint, params: dict, state: dict,
                dataset: Dataset, table: sampling.CandidateTable,
                train_cfg: TrainConfig, rng: np.random.Generator,
                lr: float) -> float:
    """Sample one batch, run the siamese arms under one shared dropout
    mask, apply one RMSProp step.  Mutates ``params`` and ``state`` in
    place (same dict objects)."""
    rows, labels = _batch(table, train_cfg, train_cfg.batch_size, rng)
    stacks = _arms(dataset, rows, train_cfg, rng)

    # Every arm gets a generator seeded alike, and the stacks have equal
    # row counts, so row i of each stack draws the same dropout mask.  With
    # a mask per arm the positive term mostly measures mask noise, which
    # the net lowers by collapsing the embedding.
    mask_seed = int(rng.integers(2 ** 63))
    outputs = []
    backwards = []
    for stack in stacks:
        out, back = net.embed_with_grad(
            checkpoint, stack, training=True,
            rng=np.random.default_rng(mask_seed))
        outputs.append(out)
        backwards.append(back)
    loss, row_grads = batch_loss(np.concatenate(outputs), labels,
                                 _arm_rows(outputs), train_cfg.loss,
                                 train_cfg.loss_metric)

    grads: dict[str, Array] = {name: np.zeros_like(p)
                               for name, p in params.items()}
    for back, arm_grads in zip(backwards, np.split(row_grads, len(stacks))):
        for name, g in back(arm_grads).items():
            grads[name] += g.astype(grads[name].dtype, copy=False)

    new_params, new_state = rmsprop_step(params, grads, state, train_cfg,
                                         learning_rate=lr)
    params.update(new_params)
    state.update(new_state)
    return loss


def triplet_accuracy(checkpoint: net.Checkpoint,
                     triplets: Sequence[TripletSample], images,
                     metric: DistanceMetric = EUCLIDEAN) -> float:
    """Fraction of triplets whose positive embeds strictly closer to the
    anchor than the negative; ties count as incorrect.

    ``images`` is a ``Dataset`` or a mapping from id to (C, H, W) image.
    """
    if not triplets:
        raise DataError("triplet_accuracy needs at least one triplet")
    image_of = images.__getitem__ if not isinstance(images, Dataset) \
        else lambda item_id: images.get(item_id).image
    row = {item_id: i for i, item_id in enumerate(dict.fromkeys(
        item_id for t in triplets
        for item_id in (t.anchor_id, t.positive_id, t.negative_id)))}
    stack = np.stack([np.asarray(image_of(i), dtype=np.float32)
                      for i in row])
    vectors = net.embed(checkpoint, stack)
    rows = np.array([(row[t.anchor_id], row[t.positive_id],
                      row[t.negative_id]) for t in triplets])
    correct = triplet_correct(vectors, *rows.T, metric)
    return int(correct.sum()) / len(triplets)


def topk_recall(checkpoint: net.Checkpoint,
                queries: Sequence[tuple[Array, Sequence[str]]],
                catalog: EmbeddingIndex, k: int = 20,
                metric: DistanceMetric | None = None) -> float:
    """Fraction of queries whose any ground-truth id appears in the top-k.

    Each query is an ``(image, ground_truth_ids)`` pair; every ground-truth
    id must exist in the catalog.  ``metric`` defaults to the catalog's.
    """
    if not queries:
        raise DataError("topk_recall needs at least one query")
    catalog_ids = set(catalog.ids)
    for _, truth in queries:
        if not truth:
            raise DataError("every query needs at least one ground truth id")
        for item_id in truth:
            if item_id not in catalog_ids:
                raise DataError(
                    f"ground-truth id {item_id!r} is not in the catalog")
    stack = np.stack([np.asarray(img, dtype=np.float32)
                      for img, _ in queries])
    ranked = knn_many(net.embed(checkpoint, stack), catalog, k, metric)
    hits = sum(not {i for i, _ in top}.isdisjoint(truth)
               for top, (_, truth) in zip(ranked, queries))
    return hits / len(queries)
