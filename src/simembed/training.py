"""Optimization loop, data augmentation, and the evaluation of a checkpoint.

``train`` builds one candidate table per dataset when it starts and draws
every batch from it with :func:`draw_batch` (negatives: see ``sampling``'s
module docstring) as rows of dataset positions.  The step gathers a
batch's images and runs each occurrence through :func:`augment` on its
own; validation batches are gathered alike, never augmented.  Training
is siamese: every batch's query and candidate images are embedded by the
same parameter set under one dropout mask per step, so row i of each arm
of a pair (or triplet) goes through the same thinned network.  The pair (or
triplet) loss produces per-row embedding gradients, and the arms'
parameter gradients are summed, in arm order, before one RMSProp step.
Each arm's forward and backward pass runs on a worker of its own, one run
of arms per usable CPU (``workers``); the loss runs in the caller between
them.  Runs are bit-reproducible for a fixed seed: the arms, ``net.embed``
and the distance kernel split their work over every usable CPU, and
their results do not depend on the count.  A non-finite loss or
gradient, in a step or in the validation loss after the epoch's last
step, ends the run before that epoch is logged; ``train`` then returns
its best validated checkpoint, which is the initial parameters at epoch
0 when no epoch completed.

``triplet_accuracy`` and ``topk_recall`` embed images with a checkpoint
and measure them with the functions of those names in ``retrieval``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Annotated, Mapping, Sequence

import numpy as np

from . import net, retrieval, sampling, workers
from .container import atomic_write
from .dataset import Dataset
from .distance import EUCLIDEAN, DistanceMetric
from .errors import (MAX_SIZE, ConfigError, DataError, NumericError, Range,
                     check_ranges)
from .losses import (AngularConfig, ContrastiveConfig, TripletSample,
                     batch_loss)

Array = np.ndarray

AUG_HFLIP = "hflip"
AUG_SHIFT = "shift"
AUG_ROTATE = "rotate"
SUPPORTED_AUGMENTATIONS = frozenset({AUG_HFLIP, AUG_SHIFT, AUG_ROTATE})

SHIFT_MAX_PX = 2
ROTATE_MAX_DEG = 10.0

# RMSProp's decay of the squared-gradient average, and the epsilon added
# to it under the square root
RMS_DECAY = 0.9
RMS_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: Annotated[float, Range(0)] = 1e-4
    epochs: Annotated[int, Range(1)] = 1
    batch_size: Annotated[int, Range(2, MAX_SIZE)] = 32
    loss: ContrastiveConfig | AngularConfig = field(
        default_factory=ContrastiveConfig)
    # metric used inside the loss
    loss_metric_exponent: Annotated[float, Range(0, ends="()")] = 2.0
    augmentation: frozenset[str] = frozenset()
    seed: Annotated[int, Range(0)] = 0
    pos_fraction: Annotated[float, Range(0, 1)] = 0.5
    batches_per_epoch: Annotated[int | None, Range(1)] = None
    val_pairs: Annotated[int, Range(2, MAX_SIZE)] = 128
    val_triplets: Annotated[int, Range(1, MAX_SIZE)] = 256

    def __post_init__(self) -> None:
        check_ranges(self)
        unknown = set(self.augmentation) - SUPPORTED_AUGMENTATIONS
        if unknown:
            raise ConfigError(
                f"unsupported augmentations: {sorted(unknown)}")

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
    """Write the CSV log atomically, through ``<path>.tmp``."""
    with atomic_write(path) as fh:
        fh.write(f"{LOG_HEADER}\n".encode("utf-8"))
        for r in rows:
            fh.write(f"{r.epoch},{r.mean_train_loss:.6f},"
                     f"{r.validation_loss:.6f},{r.triplet_accuracy:.4f},"
                     f"{r.elapsed_seconds:.3f}\n".encode("utf-8"))


def rmsprop_step(params: Mapping[str, Array], grads: Mapping[str, Array],
                 state: Mapping[str, Array], learning_rate: float,
                 ) -> tuple[dict[str, Array], dict[str, Array]]:
    """One RMSProp update over named parameters.

    Per element: ``s <- rho*s + (1-rho)*g^2`` then
    ``p <- p - lr * g / sqrt(s + eps)``, with ``rho`` ``RMS_DECAY`` and
    ``eps`` ``RMS_EPSILON``.  Non-finite gradients abort the step.
    """
    if set(params) != set(grads) or set(params) != set(state):
        raise ConfigError("params, grads, and state must share keys")
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
        s = (RMS_DECAY * state[name]
             + (1.0 - RMS_DECAY) * (g * g)).astype(p.dtype)
        new_state[name] = s
        new_params[name] = (p - learning_rate * g
                            / np.sqrt(s + RMS_EPSILON)).astype(p.dtype)
    return new_params, new_state


def _rotate_nearest(image: Array, degrees: float) -> Array:
    """Rotate (C, H, W) about the center with nearest-neighbor sampling and
    zero fill outside the frame."""
    h, w = image.shape[1:]
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx,
                         indexing="ij")
    src_y = np.rint(cos_t * yy + sin_t * xx + cy).astype(np.int64)
    src_x = np.rint(-sin_t * yy + cos_t * xx + cx).astype(np.int64)
    valid = (src_y >= 0) & (src_y < h) & (src_x >= 0) & (src_x < w)
    return np.where(valid, image[:, np.clip(src_y, 0, h - 1),
                                 np.clip(src_x, 0, w - 1)], 0.0)


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
    and rotations zero-fill.  With no transform it draws nothing."""
    out = image
    if AUG_HFLIP in cfg.augmentation and rng.random() < 0.5:
        out = out[:, :, ::-1]
    if AUG_SHIFT in cfg.augmentation and rng.random() < 0.5:
        dy = int(rng.integers(-SHIFT_MAX_PX, SHIFT_MAX_PX + 1))
        dx = int(rng.integers(-SHIFT_MAX_PX, SHIFT_MAX_PX + 1))
        out = _shift(out, dy, dx)
    if AUG_ROTATE in cfg.augmentation and rng.random() < 0.5:
        degrees = float(rng.uniform(-ROTATE_MAX_DEG, ROTATE_MAX_DEG))
        out = _rotate_nearest(out, degrees)
    return np.ascontiguousarray(out)


def _arms(dataset: Dataset, rows: Array) -> list[Array]:
    """One (B, C, H, W) image stack per column of sample ``rows``."""
    return [dataset.images()[column] for column in rows.T]


def _arm_rows(arms: Sequence[Array]) -> Array:
    """Sample rows into the arms stacked one after another."""
    return np.arange(sum(map(len, arms))).reshape(len(arms), -1).T


def draw_batch(table: sampling.CandidateTable, cfg: TrainConfig, size: int,
               rng: np.random.Generator) -> tuple[Array, Array | None]:
    """Sample rows for the loss ``cfg`` trains: pairs and their labels
    (contrastive), or triplets and ``None`` (angular)."""
    if isinstance(cfg.loss, ContrastiveConfig):
        return sampling.make_pair_batch(table, size, cfg.pos_fraction, rng)
    return sampling.make_triplet_batch(table, size, rng), None


def epoch_rng(train_cfg: TrainConfig, sampler_cfg: sampling.SamplerConfig,
              epoch: int) -> np.random.Generator:
    """The generator of epoch ``epoch`` (from 1): its batches, their
    augmentation and their dropout masks, in that order per step;
    ``sample-pairs`` draws its batch from epoch 1's."""
    return np.random.default_rng([train_cfg.seed, sampler_cfg.rng_seed,
                                  epoch])


def train(dataset_train: Dataset, dataset_val: Dataset,
          net_cfg: net.MultiScaleNetConfig,
          sampler_cfg: sampling.SamplerConfig, train_cfg: TrainConfig,
          ) -> tuple[net.Checkpoint, list[TrainLogRow]]:
    """Run the full optimization loop and keep the best-validation model.

    Returns the retained checkpoint (epoch set to the best epoch, 0 for
    the initial parameters) and one log row per completed epoch; a
    diverged epoch ends the run, without numpy's float warnings.
    Training or validation data with fewer than two classes, or with
    images of another shape than the net's input, is refused up front.
    """
    for what, data in (("training", dataset_train),
                       ("validation", dataset_val)):
        classes = len(data.class_rows)
        if classes < 2 or data.image_shape != net_cfg.input_shape:
            raise DataError(
                f"{what} data needs at least two classes of "
                f"{net_cfg.input_shape} images, got {classes} of "
                f"{data.image_shape}")

    checkpoint = net.build_network(net_cfg, seed=train_cfg.seed)
    params = checkpoint.parameters
    state = {name: np.zeros_like(value) for name, value in params.items()}
    train_table = sampling.candidate_table(dataset_train, sampler_cfg)
    val_table = train_table if dataset_val is dataset_train \
        else sampling.candidate_table(dataset_val, sampler_cfg)

    # fixed validation batches, sampled once, never augmented
    val_rng = np.random.default_rng([train_cfg.seed, sampler_cfg.rng_seed,
                                     0x5EED])
    val_rows, val_labels = draw_batch(val_table, train_cfg,
                                      train_cfg.val_pairs, val_rng)
    val_triplets = [TripletSample(*(dataset_val.ids[row] for row in rows))
                    for rows in sampling.make_triplet_batch(
                        val_table, train_cfg.val_triplets, val_rng)]

    n_batches = train_cfg.batches_per_epoch
    if n_batches is None:
        n_batches = max(1, len(dataset_train) // train_cfg.batch_size)

    logs: list[TrainLogRow] = []
    best_params = dict(params)
    best_val, best_epoch = math.inf, 0

    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.perf_counter()
        rng = epoch_rng(train_cfg, sampler_cfg, epoch)
        # a diverging epoch overflows on its way to the NumericError that
        # ends it; the caller reports the divergence in one line
        try:
            with np.errstate(all="ignore"):
                losses = [_train_step(checkpoint, state, train_table,
                                      train_cfg, rng)
                          for _ in range(n_batches)]
                val_out = [net.embed(checkpoint, arm)
                           for arm in _arms(dataset_val, val_rows)]
                val_loss, _ = batch_loss(np.concatenate(val_out), val_labels,
                                         _arm_rows(val_out), train_cfg.loss,
                                         train_cfg.loss_metric)
        except NumericError:  # diverged: end the run, this epoch unlogged
            break
        acc = triplet_accuracy(checkpoint, val_triplets, dataset_val,
                               train_cfg.loss_metric)
        elapsed = time.perf_counter() - t0
        logs.append(TrainLogRow(epoch, float(np.mean(losses)),
                                val_loss, acc, elapsed))
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_params = dict(params)

    final = net.Checkpoint(net_cfg, best_params, rng_seed=train_cfg.seed,
                           epoch=best_epoch)
    return final, logs


def _train_step(checkpoint: net.Checkpoint, state: dict,
                table: sampling.CandidateTable, train_cfg: TrainConfig,
                rng: np.random.Generator) -> float:
    """Sample one batch of ``table.dataset``, augment each occurrence on
    its own, run the siamese arms under one shared dropout mask, apply one
    RMSProp step.  Mutates ``checkpoint.parameters`` and ``state`` in place
    (same dict objects)."""
    params = checkpoint.parameters
    rows, labels = draw_batch(table, train_cfg, train_cfg.batch_size, rng)
    stacks = [np.stack([augment(image, train_cfg, rng) for image in arm])
              for arm in _arms(table.dataset, rows)]

    # Every arm gets a generator seeded alike, and the stacks have equal
    # row counts, so row i of each stack draws the same dropout mask.  With
    # a mask per arm the positive term mostly measures mask noise, which
    # the net lowers by collapsing the embedding.
    mask_seed = int(rng.integers(2 ** 63))
    passes: list = [None] * len(stacks)  # (embedding, backward) per arm
    arm_grads: list = [None] * len(stacks)

    def forward(_: int, arms: range) -> None:
        for a in arms:
            passes[a] = net.embed_with_grad(
                checkpoint, stacks[a], rng=np.random.default_rng(mask_seed))

    def backward(_: int, arms: range) -> None:
        for a in arms:
            arm_grads[a] = passes[a][1](upstream[a])

    runs = workers.split(range(len(stacks)))
    workers.run(forward, runs)
    outputs = [embedding for embedding, _ in passes]
    loss, row_grads = batch_loss(np.concatenate(outputs), labels,
                                 _arm_rows(outputs), train_cfg.loss,
                                 train_cfg.loss_metric)
    upstream = np.split(row_grads, len(stacks))
    workers.run(backward, runs)

    # summed in arm order, so the sums keep their bits
    grads = {name: sum((g[name] for g in arm_grads), np.zeros_like(p))
             for name, p in params.items()}
    new_params, new_state = rmsprop_step(params, grads, state,
                                         train_cfg.learning_rate)
    params.update(new_params)
    state.update(new_state)
    return loss


def triplet_accuracy(checkpoint: net.Checkpoint,
                     triplets: Sequence[TripletSample], dataset: Dataset,
                     metric: DistanceMetric = EUCLIDEAN) -> float:
    """``retrieval.triplet_accuracy`` of the triplets' images in
    ``dataset``, embedded by ``checkpoint``, under ``metric``."""
    if not triplets:
        raise DataError("triplet_accuracy needs at least one triplet")
    images = dataset.subset(dict.fromkeys(
        item_id for t in triplets
        for item_id in (t.anchor_id, t.positive_id, t.negative_id)))
    index = retrieval.build_index(images.ids, images.labels,
                                  net.embed(checkpoint, images.images()),
                                  metric)
    return retrieval.triplet_accuracy(index, triplets)


def topk_recall(checkpoint: net.Checkpoint,
                queries: Sequence[tuple[Array, Sequence[str]]],
                catalog: retrieval.EmbeddingIndex, k: int = 20) -> float:
    """``retrieval.topk_recall`` of ``(image, ground_truth_ids)`` queries
    embedded by ``checkpoint``, under the catalog's metric."""
    if not queries:
        raise DataError("topk_recall needs at least one query")
    images, truth_ids = zip(*queries)
    vectors = net.embed(checkpoint, np.stack(images).astype(np.float32))
    return retrieval.topk_recall(catalog, vectors, truth_ids, k)
