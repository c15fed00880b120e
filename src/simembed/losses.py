"""Pairwise contrastive loss and triplet angular loss, with gradients.

Each loss runs over whole ``(B, D)`` arms at once; ``batch_loss`` takes a
batch as rows of an embedding matrix, and ``contrastive_loss`` and
``angular_loss`` are the one-sample forms of the same code.  Both losses
are written against an arbitrary ``DistanceMetric``; the default used by
training configs is Euclidean.  With fractional exponents the derivative
of ``|a_i - b_i|^k`` is singular where coordinates coincide, so any
partial term with ``|a_i - b_i| < 1e-12`` is set to zero.  That keeps
gradients finite and deterministic at the (measure-zero) singular points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .distance import EUCLIDEAN, DistanceMetric
from .errors import (ConfigError, DataError, DimensionError, NumericError,
                     Range, check_ranges)

Array = np.ndarray

COINCIDENT_GUARD = 1e-12

HINGE_AS_WRITTEN = "as_written"
HINGE_SQUARED = "squared_hinge"
ANGULAR_NEGATIVE_TO_CENTER = "negative_to_center"
ANGULAR_AS_WRITTEN = "as_written"


@dataclass(frozen=True)
class TripletSample:
    """An (anchor, positive, negative) triplet of distinct item ids."""

    anchor_id: str
    positive_id: str
    negative_id: str

    def __post_init__(self) -> None:
        ids = (self.anchor_id, self.positive_id, self.negative_id)
        if len(set(ids)) != 3:
            raise ValueError(f"triplet ids must be pairwise distinct: {ids}")


@dataclass(frozen=True)
class ContrastiveConfig:
    """Margin and hinge form for the contrastive loss.

    ``as_written`` puts the squared distance inside the hinge,
    ``max(0, m - D^2)``; ``squared_hinge`` is the classic ``max(0, m - D)^2``.
    """

    margin: Annotated[float, Range(0, ends="()")] = 1.0
    hinge_variant: str = HINGE_AS_WRITTEN

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.hinge_variant not in (HINGE_AS_WRITTEN, HINGE_SQUARED):
            raise ConfigError(
                f"unknown hinge variant {self.hinge_variant!r}")


@dataclass(frozen=True)
class AngularConfig:
    """Angle bound (degrees) and formula variant for the angular loss.

    ``negative_to_center`` measures the second term from the negative to the
    midpoint of anchor and positive; ``as_written`` measures it from the
    anchor to that midpoint, which never involves the negative at all and is
    kept only for completeness.
    """

    alpha_degrees: Annotated[float, Range(0, 90, "()")] = 45.0
    formula_variant: str = ANGULAR_NEGATIVE_TO_CENTER

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.formula_variant not in (ANGULAR_NEGATIVE_TO_CENTER,
                                        ANGULAR_AS_WRITTEN):
            raise ConfigError(
                f"unknown formula variant {self.formula_variant!r}")

    @property
    def tan_alpha_sq(self) -> float:
        return math.tan(math.radians(self.alpha_degrees)) ** 2


def _squared_distances(a: Array, b: Array, metric: DistanceMetric,
                       ) -> tuple[Array, Array]:
    """Row-wise ``D(a_i, b_i)^2`` over ``(B, D)`` arms and its gradient
    with respect to ``a``.

    For ``D^2 = S^(2/k)`` with ``S = sum |a_i - b_i|^k`` the partial is
    ``2 * S^(2/k - 1) * |d_i|^(k-1) * sign(d_i)``; terms with
    ``|d_i| < 1e-12`` are zeroed (see module docstring).  The gradient with
    respect to ``b`` is the negation.
    """
    k = metric.exponent
    d = a - b
    absd = np.abs(d)
    sums = (absd ** k).sum(axis=1)
    # Python's scalar ``**`` on each sum: numpy's array power may round the
    # last bit differently on some machines, and these values must equal
    # the one-vector formula's bit for bit.
    dsq = np.array([s ** (2.0 / k) for s in sums.tolist()])
    coef = np.array([2.0 * s ** (2.0 / k - 1.0) if s else 0.0
                     for s in sums.tolist()])
    live = (absd >= COINCIDENT_GUARD) & (sums > 0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(live, coef[:, None] * absd ** (k - 1.0) * np.sign(d),
                        0.0)
    return dsq, grad


def _contrastive_rows(xq: Array, xc: Array, labels: Array,
                      cfg: ContrastiveConfig, metric: DistanceMetric,
                      ) -> tuple[Array, list[Array]]:
    """Per-pair contrastive losses and the gradients of both arms.

    Similar pairs (label 0) pay ``D^2 / 2``; dissimilar pairs (label 1) pay
    the hinge selected by ``cfg``, with an exactly-zero gradient wherever
    the hinge is inactive.
    """
    dsq, g = _squared_distances(xq, xc, metric)
    similar = labels == 0
    if cfg.hinge_variant == HINGE_AS_WRITTEN:
        slack = cfg.margin - dsq
        hinge, hinge_grad = 0.5 * slack, -0.5 * g
    else:  # squared hinge on the plain distance
        dist = np.sqrt(dsq)
        slack = cfg.margin - dist
        hinge = 0.5 * slack * slack
        # dD/dx = dD^2/dx / (2 D); at D == 0 the guarded rule gives 0
        with np.errstate(divide="ignore", invalid="ignore"):
            hinge_grad = np.where((dist > 0)[:, None],
                                  -slack[:, None] * g / (2 * dist)[:, None],
                                  0.0)
    active = ~similar & (slack > 0)
    losses = np.where(similar, 0.5 * dsq, np.where(active, hinge, 0.0))
    gq = np.where(similar[:, None], 0.5 * g,
                  np.where(active[:, None], hinge_grad, 0.0))
    return losses, [gq, -gq]


def _angular_rows(xa: Array, xp: Array, xn: Array, cfg: AngularConfig,
                  metric: DistanceMetric) -> tuple[Array, list[Array]]:
    """Per-triplet angular losses and the gradients of all three arms.

    With center ``x_c = (x_a + x_p) / 2`` the loss is
    ``max(0, D(x_a, x_p)^2 - 4 tan^2(alpha) * D(x_n, x_c)^2)`` in the
    default variant; the ``as_written`` variant replaces the second term
    with ``D(x_a, x_c)^2``.  The center's dependence on anchor and positive
    contributes to their gradients in the active region.
    """
    center = (xa + xp) / 2.0
    scale = 4.0 * cfg.tan_alpha_sq
    dsq_ap, g_ap = _squared_distances(xa, xp, metric)
    if cfg.formula_variant == ANGULAR_NEGATIVE_TO_CENTER:
        # d(dsq_second)/d(center) = -g_n, and d(center)/d(xa) = 1/2
        dsq_second, g_n = _squared_distances(xn, center, metric)
        grads = [g_ap + 0.5 * scale * g_n, -g_ap + 0.5 * scale * g_n,
                 -scale * g_n]
    else:
        # both arguments depend on xa: direct term plus the center chain
        dsq_second, g_a_first = _squared_distances(xa, center, metric)
        grads = [g_ap - scale * (g_a_first - 0.5 * g_a_first),
                 -g_ap - scale * (-0.5 * g_a_first), np.zeros_like(xa)]
    raw = dsq_ap - scale * dsq_second
    active = ~(raw <= 0)
    return (np.where(active, raw, 0.0),
            [np.where(active[:, None], g, 0.0) for g in grads])


def _one_row(*vectors: Array) -> list[Array]:
    """Equal-length vectors as float64 ``(1, D)`` arms."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    if rows[0].ndim != 1 or any(r.shape != rows[0].shape for r in rows):
        raise DimensionError(f"expected equal-length vectors, got "
                             f"{[r.shape for r in rows]}")
    return [r[None] for r in rows]


def _one_sample(losses: Array, grads: list[Array]) -> tuple:
    if not math.isfinite(losses[0]):
        raise NumericError("loss is non-finite")
    return (float(losses[0]), *(g[0] for g in grads))


def squared_distance_with_grad(a: Array, b: Array,
                               metric: DistanceMetric) -> tuple[float, Array]:
    """``D(a, b)^2`` and its gradient with respect to ``a`` (see
    :func:`_squared_distances`)."""
    dsq, grad = _squared_distances(*_one_row(a, b), metric)
    return float(dsq[0]), grad[0]


def contrastive_loss(xq: Array, xc: Array, label: int,
                     cfg: ContrastiveConfig,
                     metric: DistanceMetric = EUCLIDEAN,
                     ) -> tuple[float, Array, Array]:
    """Per-pair contrastive loss and gradients w.r.t. both embeddings (see
    :func:`_contrastive_rows`)."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return _one_sample(*_contrastive_rows(*_one_row(xq, xc),
                                          np.array([label]), cfg, metric))


def angular_loss(xa: Array, xp: Array, xn: Array, cfg: AngularConfig,
                 metric: DistanceMetric = EUCLIDEAN,
                 ) -> tuple[float, Array, Array, Array]:
    """Per-triplet angular loss and gradients w.r.t. all three embeddings
    (see :func:`_angular_rows`)."""
    return _one_sample(*_angular_rows(*_one_row(xa, xp, xn), cfg, metric))


def batch_loss(embeddings: Array, labels: Array | None, rows: Array,
               cfg: ContrastiveConfig | AngularConfig,
               metric: DistanceMetric = EUCLIDEAN,
               ) -> tuple[float, Array]:
    """Mean loss over a batch plus gradients per embedding row.

    ``rows`` holds one sample per line as row numbers of the ``(R, D)``
    ``embeddings``: (query, candidate) pairs with 0/1 ``labels`` under a
    ``ContrastiveConfig``, (anchor, positive, negative) triplets under an
    ``AngularConfig`` (``labels`` unused).  Per-sample gradients are
    accumulated in sample order and divided by the sample count.
    """
    rows = np.asarray(rows)
    if len(rows) == 0:
        raise DataError("batch_loss on an empty sample list")
    if not isinstance(cfg, (ContrastiveConfig, AngularConfig)):
        raise TypeError(f"unsupported loss config {type(cfg)!r}")
    width = 2 if isinstance(cfg, ContrastiveConfig) else 3
    if embeddings.ndim != 2 or rows.shape != (len(rows), width):
        raise DimensionError(
            f"{type(cfg).__name__} needs an (R, D) embedding matrix and "
            f"(B, {width}) sample rows, got {embeddings.shape} and "
            f"{rows.shape}")
    if rows.min() < 0 or rows.max() >= len(embeddings):
        raise DimensionError(
            f"sample rows must lie in [0, {len(embeddings)})")
    arms = [embeddings[column].astype(np.float64) for column in rows.T]
    if isinstance(cfg, ContrastiveConfig):
        labels = np.asarray(labels)
        if labels.shape != (len(rows),) or not np.isin(labels, (0, 1)).all():
            raise ValueError(
                f"need one 0/1 label per pair, got {labels!r}")
        losses, arm_grads = _contrastive_rows(*arms, labels, cfg, metric)
    else:
        losses, arm_grads = _angular_rows(*arms, cfg, metric)
    n = len(rows)
    # left to right, as samples are added one at a time: np.sum's pairwise
    # order can move the last bit of the mean
    mean = float(np.cumsum(losses)[-1]) / n
    if not math.isfinite(mean):
        raise NumericError("batch loss is non-finite")
    grads = np.zeros(embeddings.shape, dtype=np.float64)
    np.add.at(grads, rows.ravel(),
              np.stack(arm_grads, axis=1).reshape(-1, embeddings.shape[1]))
    return mean, (grads / n).astype(embeddings.dtype, copy=False)
