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

from .errors import DimensionError, NumericError, Range

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

    Lowered to im2col GEMMs (Chellapilla et al., 2006): one ``np.dot`` each
    for the output and ``dkernels`` over a copy of the input columns,
    reducing over (C, kh, kw) and (N, H', W') in order.  ``dx`` is a flat
    col2im: ``upstream`` is zero-padded to the padded row width Wp, one
    ``matmul`` gives every tap over those rows, and each tap (i, j), in
    row-major order, is one step-``stride`` add into the flat
    ``(N, C, Hp*Wp)`` gradient at offset i*Wp + j.  Every element of ``dx``
    adds the same tap products in the same order as one strided add per
    tap would; with finite kernels the extra terms are zeros, added to
    sums that start at +0.0, so they change no bit.  The exception is a
    tap product that OpenBLAS computes on another path once it is wider:
    one with a single row (one input channel, a 1x1 kernel) at a stride
    above 1, or one with at most two columns unpadded (h_out * w_out <= 2).
    Such a ``dx`` can differ from the strided-add form in the last bit.
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
    Range(1).check("stride", stride)
    Range(0).check("padding", padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")

    if padding:
        xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
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
        # upstream rows widened with zeros to the padded width wp and cut
        # after the last real value: tap (i, j) of upstream (a, b) then
        # lands at flat offset i*wp + j + stride * (a*wp + b)
        length = (h_out - 1) * wp + w_out
        rows = np.zeros((n, f, h_out * wp), dtype=upstream.dtype)
        rows.reshape(n, f, h_out, wp)[..., :w_out] = upstream
        taps = np.matmul(flat_kernels.T, rows[..., :length]).reshape(
            n, c, kh, kw, length)
        # dx is laid out as x: batch or channel axis outermost
        if xp.strides[0] >= xp.strides[1]:
            flat = np.zeros((n, c, hp * wp), dtype=xp.dtype)
        else:
            flat = np.zeros((c, n, hp * wp), dtype=xp.dtype).transpose(1, 0, 2)
        span = stride * (length - 1) + 1
        for i in range(kh):
            for j in range(kw):
                start = i * wp + j
                flat[:, :, start:start + span:stride] += taps[:, :, i, j]
        dx = flat.reshape(n, c, hp, wp)[:, :, padding:padding + h,
                                          padding:padding + w]
        return dx, dkernels, dbias

    return OpGrad(out, grad)


def relu(x: Array) -> OpGrad:
    """Elementwise ``max(0, x)``.  Subgradient at exactly 0 is 0.

    The closure keeps ``x`` and builds the ``x > 0`` mask only when the
    gradient is asked for, so inference never builds it."""
    out = np.maximum(x, 0)

    def grad(upstream: Array) -> tuple[Array]:
        return (upstream * (x > 0),)

    return OpGrad(out, grad)


def maxpool2x2(x: Array) -> OpGrad:
    """2x2 max pooling with stride 2 over ``(N,C,H,W)``; H and W must be even.

    The gradient routes entirely to the argmax cell of each window; ties
    break to the first cell in row-major order, and a window holding NaN
    pools to NaN and routes to its first NaN.  The output takes two
    passes: ``np.maximum`` of each row's odd and even columns, then of the
    odd and even rows of that.  That is the maximum of the four cells
    taken last cell first, ``max(max(c11, c10), max(c01, c00))``, which
    matters since ``np.maximum`` keeps its second argument when ``-0.0``
    ties ``0.0``.
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2x2 expects 4-d input, got {x.ndim}-d")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(
            f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    pairs = np.maximum(x[..., 1::2], x[..., 0::2])
    out = np.maximum(pairs[:, :, 1::2], pairs[:, :, 0::2])

    def grad(upstream: Array) -> tuple[Array]:
        # dx and the masks in C order, as upstream is, though x may be laid
        # out (C, N, H, W); the four cells cover dx, so all of it is written
        dx = np.empty(x.shape, dtype=upstream.dtype)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        hit = np.empty(out.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # row-major order
            cell = x[:, :, i::2, j::2]
            np.equal(cell, out, out=hit)
            hit |= np.isnan(cell)
            hit &= free
            free ^= hit
            np.multiply(upstream, hit, out=dx[:, :, i::2, j::2])
        return (dx,)

    return OpGrad(out, grad)


def downsample_avg(x: Array, factor: int) -> OpGrad:
    """Block-mean pooling of ``(N,C,H,W)`` by an integer ``factor``.

    Each block is summed from strided slices: along each block row left to
    right, then the row sums top to bottom; the total is divided by the
    integer count ``factor**2`` as ``np.mean`` divides.  For factors up to
    7 this is byte-equal to ``reshape(...).mean(axis=(3, 5))``; from 8 up
    numpy's reduction sums in another order, so the two differ in the last
    bit."""
    if x.ndim != 4:
        raise DimensionError(
            f"downsample_avg expects 4-d input, got {x.ndim}-d")
    Range(1).check("factor", factor)
    h, w = x.shape[2:]
    if h % factor or w % factor:
        raise DimensionError(
            f"factor {factor} does not divide spatial dims {h}x{w}")
    out = x[:, :, 0::factor, 0::factor] + 0.0  # a reduction starts at +0.0
    for j in range(1, factor):
        out += x[:, :, 0::factor, j::factor]
    for i in range(1, factor):
        row = x[:, :, i::factor, 0::factor] + x[:, :, i::factor, 1::factor]
        for j in range(2, factor):
            row += x[:, :, i::factor, j::factor]
        out += row
    np.true_divide(out, np.intp(factor * factor), out=out, casting="unsafe")
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
    Range(0, 1, "[)").check("dropout rate", rate)
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
                      rng: np.random.Generator | None = None
                      ) -> GradCheckReport:
    """Check ``op``'s analytic gradients against central finite differences.

    ``inputs`` must be float64 arrays; the check perturbs every element of
    every input.  The scalar objective is ``sum(output * upstream)`` for an
    ``upstream`` drawn from ``rng`` (``default_rng(0)`` without one).  The
    relative error of an element pair (a, n) is ``|a - n| / max(|a|, |n|,
    1e-4)``; the report carries the max over all elements of all inputs.
    """
    Range(0, ends="()").check("step", step)
    inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
    for a in inputs:
        if not np.all(np.isfinite(a)):
            raise NumericError("finite_diff_check received non-finite input")

    first = op(*inputs)
    if not np.all(np.isfinite(first.output)):
        raise NumericError("operator produced non-finite output")
    if rng is None:
        rng = np.random.default_rng(0)
    upstream = rng.standard_normal(first.output.shape)
    analytic = first.grad(upstream)

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
