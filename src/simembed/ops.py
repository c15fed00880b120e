"""Differentiable array operators.

Every operator returns an :class:`OpGrad` holding the forward output and a
closure that maps the upstream gradient to gradients with respect to each
input, in argument order.  Gradients are derived by hand per operator; there
is no taped autograd graph.  All operators are pure functions of their
inputs (plus an explicit rng for dropout), so repeated calls agree bitwise.

Layout convention is ``(N, C, H, W)`` row-major for image tensors and
``(N, D)`` for flat feature tensors.  Operators compute in the dtype of
their inputs: float32 on training paths, float64 when gradient-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray
NORM_EPSILON = 1e-12  # floor of the row norm ``l2_normalize`` divides by


@dataclass(frozen=True)
class OpGrad:
    """Forward output plus the backward closure of one operator application.

    ``grad(upstream)`` returns one gradient array per differentiable input,
    in the same order as the operator's arguments.  Gradient shapes always
    equal the corresponding input shapes.
    """

    output: Array
    grad: Callable[[Array], tuple[Array, ...]]


def conv2d(x: Array, kernels: Array, bias: Array, stride: int = 1,
           padding: int = 0) -> OpGrad:
    """2-D cross-correlation of ``x (N,C,H,W)`` with ``kernels (F,C,kh,kw)``.

    Output spatial size is ``floor((H + 2*padding - kh) / stride) + 1`` (and
    likewise for width).  No kernel flip: this is the standard deep-learning
    convolution convention.

    Lowered to im2col GEMMs: one ``np.dot`` each for the output and
    ``dkernels`` and one ``matmul`` for every tap of ``dx``.  They copy and
    ``dot`` as ``np.einsum``'s tensordot path did, over the same reduction
    axis in the same order, so values and layouts are the einsum form's.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-d input and kernels, got {x.ndim}-d and "
            f"{kernels.ndim}-d")
    n, c, h, w = x.shape
    f, kc, kh, kw = kernels.shape
    if kc != c:
        raise DimensionError(
            f"kernel channels {kc} != input channels {c}")
    if bias.shape != (f,):
        raise DimensionError(f"bias shape {bias.shape} != ({f},)")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * padding}x{w + 2 * padding}")

    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                        (padding, padding)))
    else:
        xp = x
    # windows: (N, C, H', W', kh, kw), a strided view of xp
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride,
                                                         ::stride]
    h_out, w_out = win.shape[2], win.shape[3]
    flat_kernels = kernels.reshape(f, c * kh * kw)

    def columns() -> Array:  # a fresh copy: grad rebuilds, never keeps it
        return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, -1)

    out = np.dot(flat_kernels, columns()).reshape(
        f, n, h_out, w_out).transpose(1, 0, 2, 3)
    out += bias[None, :, None, None]

    def grad(upstream: Array) -> tuple[Array, Array, Array]:
        dbias = upstream.sum(axis=(0, 2, 3))
        dkernels = np.dot(columns(), upstream.transpose(0, 2, 3, 1).reshape(
            n * h_out * w_out, f)).reshape(c, kh, kw, f).transpose(3, 0, 1, 2)
        taps = np.matmul(flat_kernels.T, upstream.reshape(
            n, f, h_out * w_out)).reshape(n, c, kh, kw, h_out, w_out)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * h_out:stride,
                    j:j + stride * w_out:stride] += taps[:, :, i, j]
        dx = dxp[:, :, padding:padding + h, padding:padding + w]
        return dx, dkernels, dbias

    return OpGrad(out, grad)


def relu(x: Array) -> OpGrad:
    """Elementwise ``max(0, x)``.  Subgradient at exactly 0 is 0."""
    out = np.maximum(x, 0)
    positive = x > 0

    def grad(upstream: Array) -> tuple[Array]:
        return (upstream * positive,)

    return OpGrad(out, grad)


def maxpool2x2(x: Array) -> OpGrad:
    """2x2 max pooling with stride 2 over ``(N,C,H,W)``; H and W must be even.

    The gradient routes entirely to the argmax cell of each window; ties
    break to the first cell in row-major order, and a window holding NaN
    pools to NaN and routes to its first NaN.  The output is the
    ``np.maximum`` of the four strided cells taken last cell first, since
    it keeps its second argument when ``-0.0`` ties ``0.0``.
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2x2 expects 4-d input, got {x.ndim}-d")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(
            f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major in the window
    cells = [x[:, :, i::2, j::2] for i, j in offsets]
    out = np.maximum(np.maximum(cells[3], cells[2]),
                     np.maximum(cells[1], cells[0]))

    def grad(upstream: Array) -> tuple[Array]:
        # dx and the masks in C order, as upstream is, though x may be laid
        # out (C, N, H, W); the four cells cover dx, so all of it is written
        dx = np.empty(x.shape, dtype=upstream.dtype)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        hit = np.empty(out.shape, dtype=bool)
        for (i, j), cell in zip(offsets, cells):
            np.equal(cell, out, out=hit)
            hit |= np.isnan(cell)
            hit &= free
            free ^= hit
            np.multiply(upstream, hit, out=dx[:, :, i::2, j::2])
        return (dx,)

    return OpGrad(out, grad)


def downsample_avg(x: Array, factor: int) -> OpGrad:
    """Block-mean pooling of ``(N,C,H,W)`` by an integer ``factor``."""
    if x.ndim != 4:
        raise DimensionError(
            f"downsample_avg expects 4-d input, got {x.ndim}-d")
    if factor < 1:
        raise DimensionError(f"factor must be >= 1, got {factor}")
    n, c, h, w = x.shape
    if h % factor or w % factor:
        raise DimensionError(
            f"factor {factor} does not divide spatial dims {h}x{w}")
    h2, w2 = h // factor, w // factor
    out = x.reshape(n, c, h2, factor, w2, factor).mean(axis=(3, 5))
    inv = 1.0 / (factor * factor)

    def grad(upstream: Array) -> tuple[Array]:
        g = upstream * np.asarray(inv, dtype=upstream.dtype)
        dx = np.repeat(np.repeat(g, factor, axis=2), factor, axis=3)
        return (dx,)

    return OpGrad(out, grad)


def affine(x: Array, weights: Array, bias: Array) -> OpGrad:
    """``x (N,D) @ weights (D,E) + bias (E)`` with bias broadcast per row."""
    if x.ndim != 2 or weights.ndim != 2:
        raise DimensionError(
            f"affine expects 2-d input and weights, got {x.ndim}-d and "
            f"{weights.ndim}-d")
    if x.shape[1] != weights.shape[0]:
        raise DimensionError(
            f"inner dims disagree: input {x.shape[1]} vs weights "
            f"{weights.shape[0]}")
    if bias.shape != (weights.shape[1],):
        raise DimensionError(
            f"bias shape {bias.shape} != ({weights.shape[1]},)")
    out = x @ weights + bias

    def grad(upstream: Array) -> tuple[Array, Array, Array]:
        return upstream @ weights.T, x.T @ upstream, upstream.sum(axis=0)

    return OpGrad(out, grad)


def l2_normalize(x: Array) -> OpGrad:
    """Divide each row of ``x (N,D)`` by ``max(||row||_2, NORM_EPSILON)``.

    Rows with norm below the constant 1e-12 are scaled by its inverse, so
    their gradient is ``upstream/NORM_EPSILON``; everything else gets the
    usual projection gradient.
    """
    if x.ndim != 2:
        raise DimensionError(f"l2_normalize expects 2-d input, got {x.ndim}-d")
    norms = np.sqrt((x * x).sum(axis=1))
    denom = np.maximum(norms, NORM_EPSILON)[:, None]
    out = x / denom
    active = (norms >= NORM_EPSILON)[:, None]

    def grad(upstream: Array) -> tuple[Array]:
        dot = (upstream * out).sum(axis=1, keepdims=True)
        dx_active = (upstream - out * dot) / denom
        dx = np.where(active, dx_active, upstream / NORM_EPSILON)
        return (dx.astype(x.dtype, copy=False),)

    return OpGrad(out, grad)


def concat(inputs: Sequence[Array]) -> OpGrad:
    """Concatenate ``(N, D_i)`` tensors along columns, in argument order."""
    if not inputs:
        raise DimensionError("concat needs at least one input")
    rows = inputs[0].shape[0]
    for i, a in enumerate(inputs):
        if a.ndim != 2:
            raise DimensionError(f"concat input {i} is {a.ndim}-d, want 2-d")
        if a.shape[0] != rows:
            raise DimensionError(
                f"concat input {i} has {a.shape[0]} rows, want {rows}")
    out = np.concatenate(inputs, axis=1)
    widths = [a.shape[1] for a in inputs]
    offsets = np.cumsum([0] + widths)

    def grad(upstream: Array) -> tuple[Array, ...]:
        return tuple(upstream[:, offsets[i]:offsets[i + 1]]
                     for i in range(len(widths)))

    return OpGrad(out, grad)


def dropout(x: Array, rate: float, rng: np.random.Generator | None) -> OpGrad:
    """Inverted dropout: one ``x.shape`` draw from ``rng`` zeroes each element
    with probability ``rate`` and scales survivors by ``1/(1-rate)``.
    Without ``rng`` (inference) or at rate 0: the identity, drawing nothing."""
    if not 0 <= rate < 1:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0:
        return OpGrad(x, lambda upstream: (upstream,))
    keep = rng.random(x.shape) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = keep * scale
    out = x * mask

    def grad(upstream: Array) -> tuple[Array]:
        return (upstream * mask,)

    return OpGrad(out, grad)


@dataclass(frozen=True)
class GradCheckReport:
    """Result of comparing analytic gradients with central differences."""

    max_rel_error: float
    tolerance: float
    passed: bool
    per_input: tuple[float, ...]


def finite_diff_check(op: Callable[..., OpGrad], inputs: Sequence[Array],
                      step: float = 1e-5, tolerance: float = 1e-4,
                      rng: np.random.Generator | None = None,
                      upstream: Array | None = None) -> GradCheckReport:
    """Check ``op``'s analytic gradients against central finite differences.

    ``inputs`` must be float64 arrays; the check perturbs every element of
    every input.  The scalar objective is ``sum(output * upstream)`` for a
    fixed random ``upstream``.  The relative error of an element pair (a, n)
    is ``|a - n| / max(|a|, |n|, 1e-4)``; the report carries the max over
    all elements of all inputs.
    """
    if step <= 0:
        raise ConfigError(f"step must be > 0, got {step}")
    inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
    for a in inputs:
        if not np.all(np.isfinite(a)):
            raise NumericError("finite_diff_check received non-finite input")

    first = op(*inputs)
    if not np.all(np.isfinite(first.output)):
        raise NumericError("operator produced non-finite output")
    if upstream is None:
        if rng is None:
            rng = np.random.default_rng(0)
        upstream = rng.standard_normal(first.output.shape)
    analytic = first.grad(np.asarray(upstream, dtype=np.float64))

    def objective() -> float:
        return float((op(*inputs).output * upstream).sum())

    per_input = []
    for idx, a in enumerate(inputs):
        ana = np.asarray(analytic[idx], dtype=np.float64)
        if ana.shape != a.shape:
            raise DimensionError(
                f"gradient {idx} shape {ana.shape} != input shape {a.shape}")
        num = np.zeros_like(a)
        flat = a.reshape(-1)
        nflat = num.reshape(-1)
        for e in range(flat.size):
            orig = flat[e]
            flat[e] = orig + step
            f_plus = objective()
            flat[e] = orig - step
            f_minus = objective()
            flat[e] = orig
            nflat[e] = (f_plus - f_minus) / (2 * step)
        if not np.all(np.isfinite(num)) or not np.all(np.isfinite(ana)):
            raise NumericError("non-finite gradient during finite_diff_check")
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-4)
        per_input.append(float((np.abs(ana - num) / denom).max()))

    worst = max(per_input) if per_input else 0.0
    return GradCheckReport(worst, tolerance, worst < tolerance,
                           tuple(per_input))
