"""Command-line surface: ingest -> train -> embed -> query/eval, plus the
distance-concentration diagnostic and a preview of training batches.

Every command exits 0 on success and nonzero with a single
``error: <Kind>: <message>`` line on standard error otherwise.  Each
subcommand accepts only the options it reads, and refuses one that the
rest of its command line leaves unread.  The commands that draw
random numbers (``train``, ``sample-pairs``, ``diag-contrast``) take their
seed from ``--seed``; rerunning a command with identical inputs and seed
produces byte-identical artifacts.  The commands that write a file
(``ingest``, ``train``, ``embed``) never overwrite one unless ``--force``
is given.  ``train``, ``embed`` and ``sample-pairs`` read the JSON run
config named by ``--config``; ``embed`` refuses one whose ``net`` section
differs from the checkpoint's net.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import Sequence

import numpy as np

from . import data_io, net, retrieval, sampling
from . import training as train_mod
from .config import RunConfig, load_run_config
from .dataset import Dataset
from .distance import DistanceMetric, relative_contrast
from .errors import MAX_SIZE, ConfigError, DataError, Range, SimEmbedError

# Each numeric option's range, by argparse dest, checked before any command
# runs.  ``k`` is not here: it is also ``diag-contrast``'s exponent list.
OPTION_RANGES = {"offset": Range(0), "limit": Range(0),
                 "points": Range(2, MAX_SIZE), "trials": Range(1),
                 "seed": Range(0), "count": Range(2, MAX_SIZE)}


def _fail(message: str) -> int:
    sys.stderr.write(f"{message}\n")
    return 2


def _check_output(path: str, force: bool) -> None:
    """Refuse ``path`` before any input is read: a directory, an existing
    file without ``force``, or a path in no existing directory."""
    if os.path.isdir(path):
        raise ConfigError(f"output {path!r} is a directory")
    if os.path.exists(path) and not force:
        raise ConfigError(
            f"output {path!r} exists; pass --force to overwrite")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"directory of output {path!r} does not exist")


def _load_config(path: str | None, seed: int | None = None,
                 metric_k: float | None = None) -> RunConfig:
    """The run config at ``path`` (defaults without one), with ``seed``
    replacing every RNG seed in it and ``metric_k`` its metric."""
    cfg = load_run_config(path) if path else RunConfig()
    if seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=seed),
                      sampler=replace(cfg.sampler, rng_seed=seed))
    if metric_k is not None:
        cfg = replace(cfg, metric=DistanceMetric(metric_k))
    return cfg


def _slice(dataset: Dataset, offset: int, limit: int | None) -> Dataset:
    if offset == 0 and limit is None:
        return dataset
    end = None if limit is None else offset + limit
    ids = dataset.ids[offset:end]
    if not ids:
        raise DataError(
            f"offset/limit selects no items (dataset has "
            f"{len(dataset)} items)")
    return dataset.subset(ids)


def cmd_ingest(args: argparse.Namespace) -> int:
    _check_output(args.output, args.force)
    if args.format == "idx":
        if not args.images or not args.labels:
            raise ConfigError("idx ingest needs --images and --labels")
        if args.inputs:
            raise ConfigError("idx ingest reads no --input")
        dataset = data_io.load_idx_files(args.images, args.labels)
    else:
        if not args.inputs:
            raise ConfigError("cifar10 ingest needs at least one --input")
        if args.images or args.labels:
            raise ConfigError("cifar10 ingest reads no --images or --labels")
        dataset = data_io.load_cifar10_files(args.inputs)
    dataset = _slice(dataset, args.offset, args.limit)
    data_io.write_dataset(args.output, dataset)
    print(f"items={len(dataset)}")
    print(f"image_shape={'x'.join(str(s) for s in dataset.image_shape)}")
    print(f"classes={len(dataset.class_rows)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.log and os.path.realpath(args.log) == \
            os.path.realpath(args.output):
        raise ConfigError(f"--log {args.log!r} names the --output checkpoint")
    _check_output(args.output, args.force)
    if args.log:
        _check_output(args.log, args.force)
    cfg = _load_config(args.config, seed=args.seed)
    train_set = data_io.read_dataset(args.train_data)
    val_set = data_io.read_dataset(args.val_data) if args.val_data \
        else train_set
    checkpoint, logs = train_mod.train(train_set, val_set, cfg.net,
                                       cfg.sampler, cfg.train)
    net.save_checkpoint(checkpoint, args.output)
    if args.log:
        train_mod.write_log(args.log, logs)
    print(f"epochs_run={len(logs)}")
    print(f"best_epoch={checkpoint.epoch}")
    if len(logs) < cfg.train.epochs:  # only a NumericError ends it early
        sys.stderr.write(f"warning: training diverged in epoch "
                         f"{len(logs) + 1}; kept epoch {checkpoint.epoch}\n")
    if logs:
        last = logs[-1]
        print(f"final_val_loss={last.validation_loss:.6f}")
        print(f"final_triplet_acc={last.triplet_accuracy:.4f}")
    return 0


def _refuse_other_net(path: str, cfg: RunConfig,
                      checkpoint: net.Checkpoint) -> None:
    """Refuse the run config at ``path`` if it has a ``net`` section that
    differs from the checkpoint's net; one without a ``net`` passes."""
    with open(path, "r", encoding="utf-8") as fh:
        if "net" not in json.load(fh):
            return
    differ = [f"net.{f.name}" for f in fields(cfg.net)
              if getattr(cfg.net, f.name) != getattr(checkpoint.config,
                                                     f.name)]
    if differ:
        raise ConfigError(f"config {path!r} disagrees with the checkpoint "
                          f"in {', '.join(differ)}")


def cmd_embed(args: argparse.Namespace) -> int:
    _check_output(args.output, args.force)
    cfg = _load_config(args.config, metric_k=args.metric_k)
    checkpoint = net.load_checkpoint(args.checkpoint)
    if args.config:
        _refuse_other_net(args.config, cfg, checkpoint)
    dataset = data_io.read_dataset(args.data)
    index = retrieval.build_index(
        dataset.ids, dataset.labels, net.embed(checkpoint, dataset.images()),
        cfg.metric)
    retrieval.write_embeddings(args.output, index)
    print(f"records={index.size}")
    print(f"dim={index.dim}")
    print(f"metric_k={index.metric.exponent}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.data and not args.checkpoint:
        raise ConfigError("--data queries need --checkpoint to embed")
    if args.checkpoint and not args.data:
        raise ConfigError("--checkpoint is read only to embed a --data image")
    index = retrieval.read_embeddings(args.embeddings)
    if args.metric_k is not None:
        index = replace(index, metric=DistanceMetric(args.metric_k))
    if args.data:
        dataset = data_io.read_dataset(args.data)
        image = dataset.get(args.id).image
        checkpoint = net.load_checkpoint(args.checkpoint)
        vector = net.embed(checkpoint, image[None])[0]
    else:
        vector = index.vectors[retrieval.rows_of(index, [args.id])[0]]
    results = retrieval.query_topk(index, vector, args.k)
    if args.pretty:
        width = max(len(i) for i, _ in results)
        print(f"{'id':<{width}}  distance")
        for item_id, dist in results:
            print(f"{item_id:<{width}}  {dist:.6f}")
    else:
        for item_id, dist in results:
            print(f"{item_id}\t{dist:.6f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not (args.triplets or args.queries):
        raise ConfigError("eval needs --triplets and/or --queries")
    index = retrieval.read_embeddings(args.embeddings)
    if args.metric_k is not None:
        index = replace(index, metric=DistanceMetric(args.metric_k))
    if args.triplets:
        with open(args.triplets, "r", encoding="utf-8") as fh:
            triplets = data_io.parse_triplet_list(fh.read())
        acc = retrieval.triplet_accuracy(index, triplets)
        print(f"triplet_accuracy={acc:.4f}")
        print(f"triplets={len(triplets)}")
    if args.queries:
        with open(args.queries, "r", encoding="utf-8") as fh:
            query_ids, truth_ids = zip(*data_io.parse_query_list(fh.read()))
        ids = [*query_ids, *(i for truth in truth_ids for i in truth)]
        rows = retrieval.rows_of(index, ids, "query list id")
        recall = retrieval.topk_recall(
            index, index.vectors[rows[:len(query_ids)]], truth_ids, args.k)
        print(f"top{args.k}_recall={recall:.4f}")
        print(f"queries={len(query_ids)}")
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated list of "
                          f"numbers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def cmd_diag_contrast(args: argparse.Namespace) -> int:
    dims = _parse_float_list(args.dims, "--dims")
    exponents = _parse_float_list(args.k, "--k")
    if not all(dim.is_integer() for dim in dims):
        raise ConfigError(f"--dims must be integers, got {args.dims!r}")
    for dim in dims:
        Range(1, MAX_SIZE).check("--dims", int(dim))
    metrics = [DistanceMetric(k) for k in exponents]  # refuse before printing
    print("dimension,k,contrast_mean,contrast_std")
    for dim in map(int, dims):
        for metric in metrics:
            values = []
            for trial in range(args.trials):
                rng = np.random.default_rng([args.seed, dim, trial])
                points = rng.uniform(0.0, 1.0, (args.points, dim))
                reference = rng.uniform(0.0, 1.0, dim)
                values.append(relative_contrast(points, reference, metric))
            mean = float(np.mean(values))
            std = float(np.std(values))
            print(f"{dim},{metric.exponent},{mean:.6f},{std:.6f}")
    return 0


def cmd_sample_pairs(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, seed=args.seed)
    dataset = data_io.read_dataset(args.data)
    table = sampling.candidate_table(dataset, cfg.sampler)
    rng = train_mod.epoch_rng(cfg.train, cfg.sampler, 1)  # train's 1st batch
    rows, labels = train_mod.draw_batch(table, cfg.train, args.count, rng)
    for i, row in enumerate(rows):  # triplets carry no label
        line = ",".join(dataset.ids[r] for r in row)
        print(line if labels is None else f"{line},{labels[i]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simembed",
        description="Train image embeddings, index them, and run "
                    "similarity queries.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = {"type": int, "default": None,
            "help": "override every RNG seed in the run"}
    config = {"default": None, "help": "JSON run-config path"}
    force = {"action": "store_true", "help": "overwrite existing output files"}
    metric_k = {"type": float, "default": None,
                "help": "distance exponent override"}

    p = sub.add_parser("ingest", help="parse a public dataset format into "
                                      "the internal container")
    p.add_argument("--force", **force)
    p.add_argument("--format", required=True, choices=["idx", "cifar10"])
    p.add_argument("--images", help="IDX image file (idx format)")
    p.add_argument("--labels", help="IDX label file (idx format)")
    p.add_argument("--input", dest="inputs", action="append",
                   help="CIFAR-10 batch file; repeatable")
    p.add_argument("--output", required=True)
    p.add_argument("--offset", type=int, default=0,
                   help="skip this many leading items")
    p.add_argument("--limit", type=int, default=None,
                   help="keep at most this many items")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train an embedding network")
    p.add_argument("--seed", **seed)
    p.add_argument("--config", **config)
    p.add_argument("--force", **force)
    p.add_argument("--train-data", required=True)
    p.add_argument("--val-data", default=None)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="CSV training log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a dataset into an index file")
    p.add_argument("--config", **config)
    p.add_argument("--force", **force)
    p.add_argument("--metric-k", **metric_k)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("query", help="top-k similarity query")
    p.add_argument("--metric-k", **metric_k)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--id", required=True, help="query item id")
    p.add_argument("--data", default=None,
                   help="dataset holding the query image (embeds it "
                        "fresh instead of using the stored vector)")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--pretty", action="store_true",
                   help="aligned table instead of tab-separated lines")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="triplet accuracy and/or top-k recall")
    p.add_argument("--metric-k", **metric_k)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--triplets", default=None,
                   help="triplet list file (anchor,positive,negative)")
    p.add_argument("--queries", default=None,
                   help="query list file (query_id,truth_id[,...])")
    p.add_argument("-k", type=int, default=20)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diag-contrast",
                       help="relative-contrast table over dimensions "
                            "and exponents")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random points")
    p.add_argument("--dims", required=True,
                   help="comma-separated dimensions, e.g. 2,10,100")
    p.add_argument("--k", required=True,
                   help="comma-separated exponents, e.g. 0.3,2.0")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_diag_contrast)

    p = sub.add_parser("sample-pairs",
                       help="emit a training batch as train draws it")
    p.add_argument("--seed", **seed)
    p.add_argument("--config", **config)
    p.add_argument("--data", required=True)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_sample_pairs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, bound in OPTION_RANGES.items():
            value = getattr(args, dest, None)
            if value is not None:
                bound.check(f"--{dest}", value)
        return args.func(args)
    except SimEmbedError as exc:
        kind = type(exc).__name__
        msg = " ".join(str(exc).split())
        return _fail(f"error: {kind}: {msg}")
    except OSError as exc:  # "FileNotFound: <path>", "IsADirectory: <path>"
        kind = type(exc).__name__.removesuffix("Error")
        return _fail(f"error: {kind}: {exc.filename or exc}")


if __name__ == "__main__":
    sys.exit(main())
