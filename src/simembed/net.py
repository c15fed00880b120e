"""Multi-scale convolutional embedding network.

The network runs several independent branches over the same image: one at
full resolution and the rest over block-averaged copies (factors 2 and 4 by
default).  Each branch is a conv/relu/pool stack followed by a linear map
to its branch dimension and row-wise L2 normalization.  Branch outputs are
concatenated, passed through a final linear layer, and L2-normalized again
so embeddings always live on the unit sphere, where distances are
comparable.

Default sizing keeps an 8:2:1 ratio between the deep branch and the two
shallow ones (64:16:8 at desk scale with a 64-dim final embedding).
Dropout, when enabled, is applied to the merged branch vector only when
:func:`embed_with_grad` is handed an ``rng`` (``ops.dropout``'s one switch),
as the training step does with the images it augmented.  Equally seeded
generators and equal row counts draw the same mask, so the step sends
every arm of a pair or triplet through one thinned network.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Annotated, Callable

import numpy as np

from . import ops, workers
from .container import (atomic_write, pack_header, pack_name, read_exact,
                        read_header, read_name, read_struct)
from .errors import (ConfigError, DimensionError, FormatError, Range,
                     check_ranges)

Array = np.ndarray

CHECKPOINT_MAGIC = b"MSNETCKP"
CHECKPOINT_VERSION = 1
EMBED_CHUNK = 128  # images per forward pass in ``embed``


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: ``filters`` output channels, square
    ``kernel``, optional 2x2 max-pool after the activation."""

    filters: Annotated[int, Range(1)]
    kernel: Annotated[int, Range(1)]
    stride: Annotated[int, Range(1)] = 1
    padding: Annotated[int, Range(0)] = 0
    pool_after: bool = False

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class BranchSpec:
    """One branch: a downsample factor (1 = full resolution), a conv stack,
    and the branch embedding width."""

    input_downsample_factor: Annotated[int, Range(1)]
    conv_layers: tuple[ConvSpec, ...]
    branch_embed_dim: Annotated[int, Range(1)]

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.conv_layers:
            raise ConfigError("branch needs at least one conv layer")


@dataclass(frozen=True)
class MultiScaleNetConfig:
    branches: tuple[BranchSpec, ...]
    final_embed_dim: Annotated[int, Range(1)]
    input_shape: tuple[int, int, int]  # (C, H, W)
    dropout_rate: Annotated[float, Range(0, 1, "[)")] = 0.25

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.branches:
            raise ConfigError("config needs at least one branch")
        full_res = [b for b in self.branches
                    if b.input_downsample_factor == 1]
        if len(full_res) != 1:
            raise ConfigError(
                f"exactly one branch must run at full resolution, "
                f"found {len(full_res)}")
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ConfigError(f"bad input shape {self.input_shape}")


def desk_scale_config(input_shape: tuple[int, int, int] = (1, 28, 28),
                      final_embed_dim: int = 64,
                      dropout_rate: float = 0.25) -> MultiScaleNetConfig:
    """Small three-branch default that trains in minutes on a CPU.

    Requires spatial dims divisible by 4 and at least 20 pixels.  Branch
    widths keep the 8:2:1 deep/shallow ratio of the full-size design.
    """
    c, h, w = input_shape
    if h % 4 or w % 4 or h < 20 or w < 20:
        raise ConfigError(
            f"desk-scale config needs H, W divisible by 4 and >= 20, "
            f"got {h}x{w}")
    deep = BranchSpec(1, (
        ConvSpec(8, 3, padding=1, pool_after=True),
        ConvSpec(16, 3, padding=1, pool_after=True),
        ConvSpec(32, 3),
        ConvSpec(32, 3),
    ), branch_embed_dim=final_embed_dim)
    mid = BranchSpec(2, (
        ConvSpec(8, 3, padding=1, pool_after=True),
        ConvSpec(16, 3),
    ), branch_embed_dim=max(1, final_embed_dim // 4))
    coarse = BranchSpec(4, (
        ConvSpec(8, 3),
        ConvSpec(16, 3),
    ), branch_embed_dim=max(1, final_embed_dim // 8))
    return MultiScaleNetConfig((deep, mid, coarse), final_embed_dim,
                               (c, h, w), dropout_rate)


@dataclass
class Checkpoint:
    """A config plus its learned parameters; the parameter names and shapes
    are exactly those generated from the config."""

    config: MultiScaleNetConfig
    parameters: dict[str, Array]
    rng_seed: int = 0
    epoch: int = 0


def _branch_shapes(branch: BranchSpec,
                   input_shape: tuple[int, int, int],
                   branch_idx: int) -> list[tuple[str, tuple[int, ...]]]:
    """Propagate shapes through one branch, returning (name, shape) pairs
    for its parameters.  Raises ConfigError on spatial underflow."""
    c, h, w = input_shape
    f = branch.input_downsample_factor
    if h % f or w % f:
        raise ConfigError(
            f"branch {branch_idx}: downsample factor {f} does not divide "
            f"input {h}x{w}")
    h, w = h // f, w // f
    names: list[tuple[str, tuple[int, ...]]] = []
    for li, conv in enumerate(branch.conv_layers):
        if conv.kernel > h + 2 * conv.padding or \
                conv.kernel > w + 2 * conv.padding:
            raise ConfigError(
                f"branch {branch_idx} conv {li}: kernel {conv.kernel} "
                f"exceeds padded input {h}x{w}")
        names.append((f"branch{branch_idx}.conv{li}.weight",
                      (conv.filters, c, conv.kernel, conv.kernel)))
        names.append((f"branch{branch_idx}.conv{li}.bias", (conv.filters,)))
        h = (h + 2 * conv.padding - conv.kernel) // conv.stride + 1
        w = (w + 2 * conv.padding - conv.kernel) // conv.stride + 1
        c = conv.filters
        if h < 1 or w < 1:
            raise ConfigError(
                f"branch {branch_idx} conv {li}: spatial size underflows "
                f"to {h}x{w}")
        if conv.pool_after:
            if h % 2 or w % 2:
                raise ConfigError(
                    f"branch {branch_idx} conv {li}: pool needs even dims, "
                    f"got {h}x{w}")
            h, w = h // 2, w // 2
    flat = c * h * w
    names.append((f"branch{branch_idx}.fc.weight",
                  (flat, branch.branch_embed_dim)))
    names.append((f"branch{branch_idx}.fc.bias",
                  (branch.branch_embed_dim,)))
    return names


def parameter_shapes(config: MultiScaleNetConfig,
                     ) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) list of every parameter the config implies."""
    names: list[tuple[str, tuple[int, ...]]] = []
    for bi, branch in enumerate(config.branches):
        names.extend(_branch_shapes(branch, config.input_shape, bi))
    merged = sum(b.branch_embed_dim for b in config.branches)
    names.append(("head.weight", (merged, config.final_embed_dim)))
    names.append(("head.bias", (config.final_embed_dim,)))
    return names


def build_network(config: MultiScaleNetConfig, seed: int,
                  dtype: np.dtype = np.float32) -> Checkpoint:
    """Initialize parameters deterministically from ``seed``.

    Weights are He-scaled normals (std ``sqrt(2 / fan_in)``); biases start
    at zero.  ``dtype`` is float32 for training, float64 when the network
    feeds a gradient check.
    """
    shapes = parameter_shapes(config)  # validates the config
    rng = np.random.default_rng(seed)
    params: dict[str, Array] = {}
    for name, shape in shapes:
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[:-1])) if len(shape) == 2 \
                else int(np.prod(shape[1:]))
            std = np.sqrt(2.0 / fan_in)
            params[name] = (rng.standard_normal(shape) * std).astype(dtype)
    return Checkpoint(config, params, rng_seed=seed, epoch=0)


BackwardFn = Callable[[Array], dict[str, Array]]


def _run_branch(branch: BranchSpec, bi: int, params: dict[str, Array],
                x: Array, tape: list | None) -> Array:
    """Forward one branch; if ``tape`` is given, append (grad_fn, names)
    entries whose grad_fn maps upstream -> (dinput, *dparams)."""
    def step(r: ops.OpGrad, names: tuple[str, ...] = ()) -> Array:
        if tape is not None:
            tape.append((r.grad, names))
        return r.output

    h = x
    if branch.input_downsample_factor > 1:
        h = step(ops.downsample_avg(h, branch.input_downsample_factor))
    for li, conv in enumerate(branch.conv_layers):
        names = (f"branch{bi}.conv{li}.weight", f"branch{bi}.conv{li}.bias")
        h = step(ops.conv2d(h, params[names[0]], params[names[1]],
                            conv.stride, conv.padding), names)
        h = step(ops.relu(h))
        if conv.pool_after:
            h = step(ops.maxpool2x2(h))
    h = step(ops.OpGrad(h.reshape(h.shape[0], -1),
                        lambda u, s=h.shape: (u.reshape(s),)))
    names = (f"branch{bi}.fc.weight", f"branch{bi}.fc.bias")
    h = step(ops.affine(h, params[names[0]], params[names[1]]), names)
    return step(ops.l2_normalize(h))


def _backward_chain(tape: list, upstream: Array,
                    grads: dict[str, Array]) -> None:
    """Walk a branch tape in reverse, accumulating parameter gradients.

    The walk stops after the earliest entry that holds parameters: the
    gradient w.r.t. the chain input is never used, so the backward of a
    leading ``downsample_avg`` is skipped."""
    first = next(i for i, (_, names) in enumerate(tape) if names)
    for grad_fn, names in reversed(tape[first:]):
        results = grad_fn(upstream)
        upstream = results[0]
        for offset, name in enumerate(names, start=1):
            grads[name] = grads.get(name, 0) + results[offset]


def _check_images(checkpoint: Checkpoint, images: Array) -> None:
    shape = checkpoint.config.input_shape
    if images.ndim != 4 or images.shape[1:] != shape or not len(images):
        raise DimensionError(
            f"images of shape {images.shape} are not a non-empty batch of "
            f"configured input {shape}")


def _dtype(checkpoint: Checkpoint) -> np.dtype:
    """The dtype the forward pass computes and returns in."""
    return next(iter(checkpoint.parameters.values())).dtype


def _forward(checkpoint: Checkpoint, images: Array,
             tapes: list[list] | None = None,
             rng: np.random.Generator | None = None) -> list[ops.OpGrad]:
    """Run every branch and the head over ``images``, already checked
    against the config.  Returns the head's op results in order: concat,
    dropout (training given ``rng``, else the identity), affine,
    l2_normalize; the last output is the embedding.  ``tapes``, one list
    per branch, receives the branch tapes; without it no tape is kept."""
    config = checkpoint.config
    params = checkpoint.parameters
    x = np.ascontiguousarray(images, dtype=_dtype(checkpoint))
    head = [ops.concat([
        _run_branch(branch, bi, params, x,
                    None if tapes is None else tapes[bi])
        for bi, branch in enumerate(config.branches)])]
    head.append(ops.dropout(head[-1].output, config.dropout_rate, rng))
    head.append(ops.affine(head[-1].output, params["head.weight"],
                           params["head.bias"]))
    head.append(ops.l2_normalize(head[-1].output))
    return head


def embed_with_grad(checkpoint: Checkpoint, images: Array,
                    rng: np.random.Generator | None = None,
                    ) -> tuple[Array, BackwardFn]:
    """Embed ``images (N,C,H,W)`` and return a backward closure mapping the
    upstream embedding gradient to gradients per parameter name.

    Given ``rng`` (training), dropout applies a mask drawn from it, one
    ``(N, merged)`` draw; without it no dropout is applied."""
    _check_images(checkpoint, images)
    tapes: list[list] = [[] for _ in checkpoint.config.branches]
    merge, dropout, head, norm = _forward(checkpoint, images, tapes, rng)

    def backward(upstream: Array) -> dict[str, Array]:
        grads: dict[str, Array] = {}
        (u,) = norm.grad(upstream)
        u, grads["head.weight"], grads["head.bias"] = head.grad(u)
        (u,) = dropout.grad(u)
        for tape, bu in zip(tapes, merge.grad(u)):
            _backward_chain(tape, bu, grads)
        return grads

    return norm.output, backward


def embed(checkpoint: Checkpoint, images: Array) -> Array:
    """Embed ``images (N,C,H,W)`` into unit-norm rows of the final dim.

    The images go in chunks of ``EMBED_CHUNK``, a fixed 128, and the
    chunks in contiguous runs, one run per usable CPU, each on its own
    thread (``workers``); every chunk writes its rows into one output
    array.  The chunk does not depend on the CPU count, so neither does
    the result, and at most 128 images per CPU are in flight.  The
    images are checked before any thread starts, and one chunk starts
    none.  Inference applies no dropout and keeps no tape, so each chunk
    equals ``embed_with_grad(checkpoint, chunk)[0]`` bit for bit and
    repeated calls agree bitwise.  A row's last float32 bits can depend on
    how the batch was cut into chunks: the GEMMs may sum in another order
    for another chunk length.
    """
    _check_images(checkpoint, images)
    out = np.empty((len(images), checkpoint.config.final_embed_dim),
                   _dtype(checkpoint))

    def work(_: int, starts: range) -> None:
        for start in starts:
            end = start + EMBED_CHUNK
            out[start:end] = _forward(checkpoint, images[start:end])[-1].output

    chunks = range(0, len(images), EMBED_CHUNK)
    workers.run(work, workers.split(chunks))
    return out


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the checkpoint; parameters are stored as little-endian
    float32, so a float32 checkpoint round-trips bit-exactly.

    The blocks go in ``parameter_shapes`` order, the order the reader
    requires.  A parameter that is missing, extra or of another shape than
    the config implies is one ``DimensionError``, a refused ``rng_seed`` or
    ``epoch`` one ``ConfigError``, both before the file is opened."""
    shapes = dict(parameter_shapes(checkpoint.config))
    params = checkpoint.parameters
    for name in [*shapes, *params]:  # "none": missing, or not implied
        found = np.shape(params[name]) if name in params else "none"
        want = shapes.get(name, "none")
        if found != want:
            raise DimensionError(f"shape of parameter {name!r} {found}, "
                                 f"config implies {want}")
    counts = {"rng_seed": checkpoint.rng_seed, "epoch": checkpoint.epoch}
    _check_counts(counts)
    header = json.dumps({"config": asdict(checkpoint.config), **counts},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(pack_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", len(shapes)))
        for name, shape in shapes.items():
            fh.write(pack_name(name))
            fh.write(struct.pack(f"<I{len(shape)}Q", len(shape), *shape))
            fh.write(np.ascontiguousarray(params[name], dtype="<f4")
                     .tobytes())


def _check_counts(counts: dict) -> None:
    """``ConfigError`` unless each count is a non-negative int, not a bool."""
    for field, value in counts.items():
        if type(value) is not int or value < 0:
            raise ConfigError(
                f"{field} must be a non-negative integer, got {value!r}")


def _expect(found, want, what: str) -> None:
    if found != want:
        raise FormatError(f"{what} {found!r}, config implies {want!r}")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint, checking the block count and each block's name,
    rank and dims as they are read against the ``parameter_shapes`` of
    its header's config; a mismatch, or a refused ``rng_seed`` or
    ``epoch``, is one ``FormatError``."""
    from .config import parse_net_config  # config imports this module
    with open(path, "rb") as fh:
        read_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        (header_len,) = read_struct(fh, "<Q", "header length")
        try:
            header = json.loads(read_exact(fh, header_len, "header"))
            config = parse_net_config(header["config"])
            counts = {field: header[field] for field in ("rng_seed", "epoch")}
            _check_counts(counts)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad checkpoint header: {exc}") from exc
        expected = parameter_shapes(config)
        (count,) = read_struct(fh, "<Q", "parameter count")
        _expect(count, len(expected), "parameter count")
        params: dict[str, Array] = {}
        for i, (name, shape) in enumerate(expected):
            what = f"name of block {i}"
            _expect(read_name(fh, what), name, what)
            (rank,) = read_struct(fh, "<I", f"rank of {name}")
            _expect(rank, len(shape), f"rank of {name}")
            dims = read_struct(fh, f"<{rank}Q", f"dims of {name}")
            _expect(dims, shape, f"dims of {name}")
            raw = read_exact(fh, 4 * math.prod(shape), f"data of {name}")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(
                shape).copy()
        if fh.read(1):
            raise FormatError("trailing bytes after final parameter block")
    return Checkpoint(config, params, **counts)
