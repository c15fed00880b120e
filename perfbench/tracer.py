"""Span tracing of simembed from outside the package.

The traced run replaces public functions with wrappers where their callers
look the names up: module attributes for names reached as ``module.name``
(``ops.conv2d`` from ``net``, ``sampling.make_pair_batch`` from
``training``), and the importing module's own global for names bound by
``from ... import`` (``training.batch_loss``, ``retrieval.knn``).  Every
``ops`` result gets its ``grad`` closure wrapped too, so backward time lands
on the op that recorded it.

Spans (name, start, end, parent) are kept in memory and written out once,
when the run ends.  A span's self time is its duration minus the time its
direct children cover; the per-layer metrics are sums of self times.
"""

from __future__ import annotations

import functools
import json
import time

# Ops whose forward and backward are reported on their own; the rest fold
# into ``ops.other``.  The downsample backward is folded too.
OWN_FWD = ("conv2d", "maxpool2x2", "downsample_avg", "affine")
OWN_BWD = ("conv2d", "maxpool2x2", "affine")
OPS = ("conv2d", "relu", "maxpool2x2", "downsample_avg", "affine",
       "l2_normalize", "concat", "dropout")


class Tracer:
    """Nested perf_counter spans plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds, index]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self._name_id(name), 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def end(self) -> float:
        stop = time.perf_counter()
        name, start, children, index = self._stack.pop()
        duration = stop - start
        self.spans[index] = (self.spans[index][0], start, stop,
                             self.spans[index][3])
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def snapshot(self) -> tuple[dict[str, float], dict[str, float]]:
        return dict(self.self_s), dict(self.counts)

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def _name_id(self, name: str) -> int:
        found = self.name_ids.get(name)
        if found is None:
            found = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, stop, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, stop,
                                     parent]) + "\n")


def _wrap(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _conv_macs(x, kernels, bias, stride: int = 1, padding: int = 0) -> int:
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    return n * f * c * kh * kw * h_out * w_out


def _wrap_op(tracer: Tracer, op_name: str, fn, ops_module):
    fwd = f"ops.{op_name}.fwd"
    bwd = f"ops.{op_name}.bwd"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(fwd)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        inner = result.grad
        macs = 0
        if op_name == "conv2d":
            macs = _conv_macs(*args, **kwargs)
            tracer.count("ops.conv2d.calls")
            tracer.count("ops.conv2d.flop", 2 * macs)

        def grad(upstream):
            tracer.begin(bwd)
            try:
                return inner(upstream)
            finally:
                tracer.end()
                if macs:  # dx and dkernels each cost one forward
                    tracer.count("ops.conv2d.flop", 4 * macs)

        return ops_module.OpGrad(result.output, grad)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap simembed's public functions in place for this process."""
    from simembed import (cli, data_io, dataset, distance, net, ops,
                          retrieval, sampling, training)

    for op_name in OPS:
        setattr(ops, op_name, _wrap_op(tracer, op_name,
                                       getattr(ops, op_name), ops))

    inner_embed_with_grad = net.embed_with_grad

    @functools.wraps(inner_embed_with_grad)
    def embed_with_grad(checkpoint, images, *args, **kwargs):
        tracer.count("net.images", len(images))
        out, backward = tracer.call("net.embed_with_grad",
                                    inner_embed_with_grad, checkpoint,
                                    images, *args, **kwargs)
        return out, functools.partial(tracer.call, "net.backward", backward)

    net.embed_with_grad = embed_with_grad
    net.embed = _wrap(tracer, "net.embed", net.embed)
    net.load_checkpoint = _wrap(tracer, "net.load_checkpoint",
                                net.load_checkpoint)

    training.batch_loss = _wrap(
        tracer, "losses.batch_loss", training.batch_loss,
        before=lambda emb, ids, samples, *a, **k:
        tracer.count("losses.samples", len(samples)))
    for fn_name in ("rmsprop_step", "augment", "triplet_accuracy", "train"):
        setattr(training, fn_name, _wrap(tracer, f"training.{fn_name}",
                                         getattr(training, fn_name)))

    sampling.make_pair_batch = _wrap(tracer, "sampling.make_pair_batch",
                                     sampling.make_pair_batch)
    sampling.positive_candidates = _wrap(
        tracer, "sampling.positive_candidates", sampling.positive_candidates,
        before=lambda *a, **k: tracer.count("sampling.positive_candidates"))
    sampling.sample_negatives = _wrap(tracer, "sampling.sample_negatives",
                                      sampling.sample_negatives)
    lookups = sampling._candidates_cached

    @functools.wraps(lookups)
    def candidates_cached(*args, **kwargs):
        tracer.count("sampling.candidate_lookups")
        return lookups(*args, **kwargs)

    sampling._candidates_cached = candidates_cached

    distance.distances_to = _wrap(
        tracer, "distance.distances_to", distance.distances_to,
        before=lambda points, *a, **k:
        tracer.count("distance.rows_scanned", len(points)))
    retrieval.knn = _wrap(tracer, "distance.knn", retrieval.knn)
    for fn_name in ("read_embeddings", "write_embeddings", "build_index",
                    "query_topk"):
        setattr(retrieval, fn_name, _wrap(tracer, f"retrieval.{fn_name}",
                                          getattr(retrieval, fn_name)))
    data_io.read_dataset = _wrap(tracer, "data_io.read_dataset",
                                 data_io.read_dataset)
    dataset.Dataset.images = _wrap(tracer, "dataset.images",
                                   dataset.Dataset.images)
    cli.main = _wrap(tracer, "cli.main", cli.main)


# Reads that a workload does once, in set-up, are reported per run; every
# other figure is per operation of the timed phase.
SETUP_READS = ("data_io.read_dataset", "retrieval.read_embeddings")


def layer_metrics(tracer: Tracer, setup: tuple[dict, dict], ops: int,
                  timed_s: float, entry: str | None) -> dict[str, float]:
    """Per-layer self times and counts of the timed phase, per operation.

    ``setup`` is the snapshot taken when set-up ended; ``entry`` names the
    span of the call each operation makes into the program, whose self time
    counts as uncovered together with the benchmark's own loop.
    """
    setup_self, setup_counts = setup
    self_s = {k: (v - setup_self.get(k, 0.0)) / ops
              for k, v in tracer.self_s.items()}
    for name in SETUP_READS:
        self_s[name] = self_s.get(name, 0.0) + setup_self.get(name, 0.0)
    counts = {k: (v - setup_counts.get(k, 0)) / ops
              for k, v in tracer.counts.items()}

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    m: dict[str, float] = {}
    for op in OWN_FWD:
        m[f"ops.{op}.fwd_s"] = s(f"ops.{op}.fwd")
    for op in OWN_BWD:
        m[f"ops.{op}.bwd_s"] = s(f"ops.{op}.bwd")
    m["ops.other.fwd_s"] = sum(s(f"ops.{op}.fwd") for op in OPS
                               if op not in OWN_FWD)
    m["ops.other.bwd_s"] = sum(s(f"ops.{op}.bwd") for op in OPS
                               if op not in OWN_BWD)
    m["ops.conv2d.calls"] = counts.get("ops.conv2d.calls", 0)
    m["ops.conv2d.gflop"] = counts.get("ops.conv2d.flop", 0) / 1e9
    for name in ("net.embed_with_grad", "net.backward", "net.embed"):
        m[f"{name}.self_s"] = s(name)
    m["net.images"] = counts.get("net.images", 0)
    m["losses.batch_loss_s"] = s("losses.batch_loss")
    m["losses.samples"] = counts.get("losses.samples", 0)
    m["sampling.make_pair_batch.self_s"] = s("sampling.make_pair_batch")
    m["sampling.positive_candidates_s"] = s("sampling.positive_candidates")
    m["sampling.positive_candidates.calls"] = counts.get(
        "sampling.positive_candidates", 0)
    m["sampling.sample_negatives_s"] = s("sampling.sample_negatives")
    lookups = counts.get("sampling.candidate_lookups", 0)
    m["sampling.candidate_cache_hit_ratio"] = (
        1.0 - m["sampling.positive_candidates.calls"] / lookups
        if lookups else 0.0)
    for name in ("rmsprop_step", "augment", "triplet_accuracy"):
        m[f"training.{name}_s"] = s(f"training.{name}")
    m["training.train.self_s"] = s("training.train")
    m["distance.distances_to_s"] = s("distance.distances_to")
    m["distance.knn.self_s"] = s("distance.knn")
    m["distance.rows_scanned"] = counts.get("distance.rows_scanned", 0)
    for name in ("read_embeddings", "write_embeddings", "build_index"):
        m[f"retrieval.{name}_s"] = s(f"retrieval.{name}")
    m["retrieval.query_topk.self_s"] = s("retrieval.query_topk")
    m["data_io.read_dataset_s"] = s("data_io.read_dataset")
    m["dataset.images_s"] = s("dataset.images")
    m["cli.main.self_s"] = s("cli.main")
    uncovered = s("bench.timed") + (s(entry) if entry else 0.0)
    m["trace.uncovered_share"] = uncovered / (timed_s / ops)
    return m
