"""Run one workload against simembed in this process.

Usage::

    python3 perfbench/workload.py --workload train --inputs DIR --seed 3 \
        --seconds 30 --size full --trace 0 --result OUT.json [--setup-only]

Set-up is timed from before ``import simembed``: import, then the reads
the workload needs before its first operation.  The timed phase then runs
whole operations (one ``train`` call, one ``embed`` command, one query)
until ``--seconds`` have passed, and at least the size's minimum count.
Outputs are checked after the timed phase.  With ``--trace 1`` the same
phases run with spans on, and the result holds per-layer figures instead
of timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time


def _peak_rss_mb() -> float:
    """High-water resident set of this process (reset by exec)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mb(*paths: str) -> float:
    return sum(os.path.getsize(p) for p in paths) / 1e6


# -- train -------------------------------------------------------------------

EVAL_TRIPLETS = 400
# Trained held-out triplet accuracy must beat the untrained net of the same
# seed by this much: at full size, about half the smallest gain seen over
# the seeds tried (a run still on the loss plateau after 3 epochs; see the
# README).
ACCURACY_MARGIN = {"full": 0.05, "tiny": 0.02}


def setup_train(inputs: str, size: dict) -> dict:
    from simembed import data_io
    return {"train": data_io.read_dataset(os.path.join(inputs, "train.dset")),
            "held_out": data_io.read_dataset(
                os.path.join(inputs, "held_out.dset"))}


def op_train(state: dict, seed: int, size: dict):
    from simembed import losses, net, sampling, training
    cfg = training.TrainConfig(
        learning_rate=1e-3, epochs=size["epochs"], batch_size=32,
        augmentation=frozenset({"hflip", "shift"}), seed=seed,
        loss=losses.ContrastiveConfig(
            hinge_variant=losses.HINGE_AS_WRITTEN))
    result = training.train(
        state["train"], state["held_out"], net.desk_scale_config(),
        sampling.SamplerConfig(n_candidates=100, rng_seed=seed), cfg)
    batches = max(1, len(state["train"]) // cfg.batch_size)
    return result, cfg.epochs * batches * cfg.batch_size


def check_train(state: dict, outputs: list, seed: int,
                size: dict) -> list[tuple[int, str]]:
    import numpy as np
    from simembed import net
    import checks
    held = state["held_out"]
    images = held.images(held.ids)
    labels = np.array([held.get(i).class_label for i in held.ids])
    triplets = checks.triplets_from(labels, EVAL_TRIPLETS,
                                    np.random.default_rng([seed, 0x7E57]))
    untrained = net.build_network(net.desk_scale_config(), seed=seed)
    base = checks.triplet_accuracy(net.embed(untrained, images), triplets,
                                   0.25)
    errors = []
    for i, (checkpoint, logs) in enumerate(outputs):
        for row in logs:
            if not (math.isfinite(row.mean_train_loss)
                    and math.isfinite(row.validation_loss)):
                errors.append((i, f"non-finite loss at epoch {row.epoch}"))
        if len(logs) != size["epochs"]:
            errors.append((i, f"{len(logs)} epochs logged"))
        acc = checks.triplet_accuracy(net.embed(checkpoint, images),
                                      triplets, 0.25)
        print(f"train {i}: held-out triplet accuracy {acc:.4f} vs "
              f"untrained {base:.4f}", file=sys.stderr)
        margin = ACCURACY_MARGIN[size["name"]]
        if acc < base + margin:
            errors.append((i, f"accuracy {acc:.4f} does not beat untrained "
                              f"{base:.4f} by {margin}"))
    return errors


# -- catalog -----------------------------------------------------------------

REFERENCE_SAMPLE = 48
REFERENCE_ATOL = 1e-5  # float32 forward vs float64 reference, unit vectors


def setup_catalog(inputs: str, size: dict) -> dict:
    return {}


def op_catalog(state: dict, seed: int, size: dict):
    from simembed import cli
    inputs = state["inputs"]
    out = os.path.join(inputs, f"catalog-{state.setdefault('n', 0)}.emb")
    state["n"] += 1
    code = cli.main(["embed", "--checkpoint",
                     os.path.join(inputs, "model.ckpt"), "--data",
                     os.path.join(inputs, "catalog.dset"), "--output", out,
                     "--metric-k", "0.25"])
    return (code, out), size["catalog_items"]


def check_catalog(state: dict, outputs: list, seed: int,
                  size: dict) -> list[tuple[int, str]]:
    import numpy as np
    import checks
    inputs = state["inputs"]
    dataset = checks.read_dataset(os.path.join(inputs, "catalog.dset"))
    params = dict(np.load(os.path.join(inputs, "params.npz")))
    with open(os.path.join(inputs, "netspec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rng = np.random.default_rng([seed, 0xCA7])
    sample = rng.choice(len(dataset["ids"]),
                        min(REFERENCE_SAMPLE, len(dataset["ids"])),
                        replace=False)
    reference = checks.reference_embed(dataset["images"][sample], params,
                                       spec)
    errors = []
    for i, (code, path) in enumerate(outputs):
        if code != 0:
            errors.append((i, f"embed exited {code}"))
            continue
        try:
            index = checks.read_index(path)
        except ValueError as exc:
            errors.append((i, str(exc)))
            continue
        norms = np.linalg.norm(index["vectors"].astype(np.float64), axis=1)
        worst = float(np.abs(index["vectors"][sample] - reference).max())
        problems = [
            (index["exponent"] != 0.25, f"exponent {index['exponent']}"),
            (index["ids"] != dataset["ids"], "ids out of dataset order"),
            (not np.array_equal(index["labels"], dataset["labels"]),
             "labels out of dataset order"),
            (np.abs(norms - 1).max() > 1e-4, "a vector is not unit norm"),
            (worst > REFERENCE_ATOL,
             f"reference forward differs by {worst:.2e}")]
        errors += [(i, what) for bad, what in problems if bad]
    return errors


# -- query -------------------------------------------------------------------

RTOL = 1e-10


def setup_query(inputs: str, size: dict) -> dict:
    from simembed import retrieval
    return {"index": retrieval.read_embeddings(
        os.path.join(inputs, "index.emb"))}


def op_query(state: dict, seed: int, size: dict):
    from simembed import retrieval
    import sizes
    pool = state["pool"]
    i = state.setdefault("n", 0) % len(pool["rows"])
    state["n"] += 1
    row = pool["rows"][i]
    vector = state["index"].vectors[row] if row >= 0 else pool["vectors"][i]
    return (i, retrieval.query_topk(state["index"], vector, sizes.TOPK)), 1


def check_query(state: dict, outputs: list, seed: int,
                size: dict) -> list[tuple[int, str]]:
    import numpy as np
    import checks
    import sizes
    state.pop("index")  # the program's copy is no longer needed
    own = checks.read_index(os.path.join(state["inputs"], "index.emb"))
    ids = np.array(own["ids"])
    points = own["vectors"].astype(np.float64)
    scratch = np.empty_like(points)
    pool = state["pool"]
    exact: dict[int, list] = {}  # by pool entry: the loop may wrap round
    errors = []
    for n, (i, got) in enumerate(outputs):
        row = pool["rows"][i]
        if i not in exact:
            q = own["vectors"][row] if row >= 0 else pool["vectors"][i]
            exact[i] = checks.exact_topk(points, ids, q, sizes.TOPK,
                                         own["exponent"], scratch)
        want = exact[i]
        same = ([g[0] for g in got] == [w[0] for w in want]
                and np.allclose([g[1] for g in got], [w[1] for w in want],
                                rtol=RTOL, atol=0.0))
        if not same:
            errors.append((n, f"top-{sizes.TOPK} differs from exact"))
        if row >= 0 and got and got[0] != (sizes.record_id(row), 0.0):
            errors.append((n, "stored record is not its own nearest"))
    return errors


WORKLOADS = {
    "train": (setup_train, op_train, check_train),
    "catalog": (setup_catalog, op_catalog, check_catalog),
    "query": (setup_query, op_query, check_query),
}
# the span of the call each operation makes into the program
ENTRY = {"train": "training.train", "catalog": "cli.main", "query": None}


def _file_sizes(workload: str, inputs: str, outputs: list) -> dict:
    join = os.path.join
    if workload == "train":
        return {"data_io.dataset_file_mb": _file_mb(
            join(inputs, "train.dset"), join(inputs, "held_out.dset"))}
    if workload == "catalog":
        return {"data_io.dataset_file_mb": _file_mb(
                    join(inputs, "catalog.dset")),
                "retrieval.index_file_mb": _file_mb(outputs[-1][1])}
    return {"retrieval.index_file_mb": _file_mb(join(inputs, "index.emb"))}


def _machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def timed_phase(op, state: dict, seed: int, size: dict, seconds: float,
                min_ops: int) -> tuple[list, list[float], int, float]:
    """Whole operations until ``seconds`` have passed and at least
    ``min_ops`` are done."""
    outputs, latencies, work = [], [], 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out, done = op(state, seed, size)
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        work += done
        elapsed = time.perf_counter() - start
        if len(latencies) >= min_ops and elapsed >= seconds:
            return outputs, latencies, work, elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import simembed  # noqa: F401  (set-up includes the package import)
    import sizes
    size = dict(sizes.SIZES[args.size], name=args.size)
    setup, op, check = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = setup(args.inputs, size)
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        result.update(run(args, size, state, op, check, tracer))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.write(os.path.splitext(args.result)[0] + ".spans.jsonl")
    return 0


def run(args, size: dict, state: dict, op, check, tracer) -> dict:
    """The timed phase, then the checks of its outputs."""
    import numpy as np
    state["inputs"] = args.inputs
    min_ops = 1
    if args.workload == "query":
        state["pool"] = dict(np.load(os.path.join(args.inputs,
                                                  "queries.npz")))
        min_ops = size["min_queries"]
    if tracer:
        after_setup = tracer.snapshot()
        tracer.begin("bench.timed")
    outputs, latencies, work, elapsed = timed_phase(
        op, state, args.seed, size, args.seconds, min_ops)
    if tracer:
        timed_s = tracer.end()
    result = {"peak_rss_mb": _peak_rss_mb(), "latencies_s": latencies,
              "work": work, "elapsed_s": elapsed, "machine": _machine()}
    if tracer:
        import tracer as tracing
        layers = tracing.layer_metrics(tracer, after_setup, len(latencies),
                                       timed_s, ENTRY[args.workload])
        if args.workload == "train":
            logs = outputs[-1][1]
            layers["training.first_epoch_s"] = logs[0].elapsed_seconds
            layers["training.later_epoch_s"] = statistics.fmean(
                [r.elapsed_seconds for r in logs[1:]] or [0.0])
        layers.update(_file_sizes(args.workload, args.inputs, outputs))
        layers["trace.throughput_per_s"] = work / elapsed
        result["layers"] = layers

    errors = check(state, outputs, args.seed, size)
    for i, message in errors:
        print(f"check failed: {args.workload} operation {i}: {message}",
              file=sys.stderr)
    failed = len({i for i, _ in errors})
    result.update({"attempted": len(latencies), "failed": failed,
                   "correct": not errors})
    return result


if __name__ == "__main__":
    sys.exit(main())
