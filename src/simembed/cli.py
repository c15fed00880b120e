"""Command-line surface: ingest -> train -> embed -> query/eval, plus the
distance-concentration diagnostic and the pair sampler.

Every command exits 0 on success and nonzero with a single
``error: <Kind>: <message>`` line on standard error otherwise.  All
randomness is controlled by ``--seed``; rerunning a command with identical
inputs and seed produces byte-identical artifacts.  Output files are never
overwritten unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import data_io, net, retrieval, sampling
from . import training as train_mod
from .config import RunConfig, load_run_config
from .dataset import Dataset
from .distance import (DistanceMetric, knn_many, relative_contrast,
                       triplet_correct)
from .errors import ConfigError, DataError, SimEmbedError


def _fail(message: str) -> int:
    sys.stderr.write(f"{message}\n")
    return 2


def _check_output(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ConfigError(
            f"output {path!r} exists; pass --force to overwrite")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg,
                      train=replace(cfg.train, seed=args.seed),
                      sampler=replace(cfg.sampler, rng_seed=args.seed))
    if getattr(args, "metric_k", None) is not None:
        cfg = replace(cfg, metric=DistanceMetric(args.metric_k))
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
        dataset = data_io.load_idx_files(args.images, args.labels)
    elif args.format == "cifar10":
        if not args.inputs:
            raise ConfigError("cifar10 ingest needs at least one --input")
        dataset = data_io.load_cifar10_files(args.inputs)
    else:
        raise ConfigError(f"unknown ingest format {args.format!r}")
    dataset = _slice(dataset, args.offset, args.limit)
    data_io.write_dataset(args.output, dataset)
    print(f"items={len(dataset)}")
    print(f"image_shape={'x'.join(str(s) for s in dataset.image_shape)}")
    print(f"classes={len(dataset.class_index)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _check_output(args.output, args.force)
    if args.log:
        _check_output(args.log, args.force)
    cfg = _load_config(args)
    train_set = data_io.read_dataset(args.train_data)
    val_set = data_io.read_dataset(args.val_data) if args.val_data \
        else train_set
    checkpoint, logs = train_mod.train(train_set, val_set, cfg.net,
                                       cfg.sampler, cfg.train,
                                       scorer=cfg.scorer)
    net.save_checkpoint(checkpoint, args.output)
    if args.log:
        train_mod.write_log(args.log, logs)
    if logs:
        last = logs[-1]
        print(f"epochs_run={last.epoch}")
        print(f"best_epoch={checkpoint.epoch}")
        print(f"final_val_loss={last.validation_loss:.6f}")
        print(f"final_triplet_acc={last.triplet_accuracy:.4f}")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    _check_output(args.output, args.force)
    cfg = _load_config(args)
    checkpoint = net.load_checkpoint(args.checkpoint)
    dataset = data_io.read_dataset(args.data)
    vectors = net.embed(checkpoint, dataset.images(dataset.ids))
    records = [retrieval.EmbeddingRecord(item_id, item.class_label, vec)
               for item_id, item, vec in
               zip(dataset.ids, dataset.items, vectors)]
    index = retrieval.build_index(records, cfg.metric)
    retrieval.write_embeddings(args.output, index)
    print(f"records={index.size}")
    print(f"dim={index.dim}")
    print(f"metric_k={index.metric.exponent}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index = retrieval.read_embeddings(args.embeddings)
    if args.metric_k is not None:
        index = replace(index, metric=DistanceMetric(args.metric_k))
    if args.data:
        if not args.checkpoint:
            raise ConfigError("--data queries need --checkpoint to embed")
        dataset = data_io.read_dataset(args.data)
        image = dataset.get(args.id).image
        checkpoint = net.load_checkpoint(args.checkpoint)
        vector = net.embed(checkpoint, image[None])[0]
    else:
        try:
            row = index.ids.index(args.id)
        except ValueError:
            raise DataError(
                f"id {args.id!r} is not in the embedding file") from None
        vector = index.vectors[row]
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


def _parse_query_list(text: str) -> list[tuple[str, list[str]]]:
    """Lines of ``query_id,truth_id[,truth_id...]``; '#' comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2 or not all(parts):
            raise DataError(
                f"line {lineno}: expected query_id,truth_id[,...], "
                f"got {raw!r}")
        out.append((parts[0], parts[1:]))
    if not out:
        raise DataError("query list contains no usable lines")
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    index = retrieval.read_embeddings(args.embeddings)
    if args.metric_k is not None:
        index = replace(index, metric=DistanceMetric(args.metric_k))
    row = {item_id: i for i, item_id in enumerate(index.ids)}
    printed = False
    if args.triplets:
        with open(args.triplets, "r", encoding="utf-8") as fh:
            triplets = data_io.parse_triplet_list(fh.read())
        if not triplets:
            raise DataError("triplet list contains no usable lines")
        try:
            rows = np.array([(row[t.anchor_id], row[t.positive_id],
                              row[t.negative_id]) for t in triplets])
        except KeyError as exc:
            raise DataError(
                f"triplet id {exc.args[0]!r} not in embeddings") from None
        correct = triplet_correct(index.vectors, *rows.T, index.metric)
        acc = int(correct.sum()) / len(triplets)
        print(f"triplet_accuracy={acc:.4f}")
        print(f"triplets={len(triplets)}")
        printed = True
    if args.queries:
        with open(args.queries, "r", encoding="utf-8") as fh:
            queries = _parse_query_list(fh.read())
        unknown = [i for q, truth in queries for i in (q, *truth)
                   if i not in row]
        if unknown:
            raise DataError(f"query list id {unknown[0]!r} not in embeddings")
        ranked = knn_many(index.vectors[[row[q] for q, _ in queries]],
                          index, args.k)
        hits = sum(not {i for i, _ in top}.isdisjoint(truth)
                   for top, (_, truth) in zip(ranked, queries))
        print(f"top{args.k}_recall={hits / len(queries):.4f}")
        print(f"queries={len(queries)}")
        printed = True
    if not printed:
        raise ConfigError("eval needs --triplets and/or --queries")
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
    dims = [int(d) for d in _parse_float_list(args.dims, "--dims")]
    exponents = _parse_float_list(args.k, "--k")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    seed = args.seed if args.seed is not None else 0
    print("dimension,k,contrast_mean,contrast_std")
    for dim in dims:
        if dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {dim}")
        for k in exponents:
            metric = DistanceMetric(k)
            values = []
            for trial in range(args.trials):
                rng = np.random.default_rng([seed, dim, trial])
                points = rng.uniform(0.0, 1.0, (args.points, dim))
                reference = rng.uniform(0.0, 1.0, dim)
                values.append(relative_contrast(points, reference, metric))
            mean = float(np.mean(values))
            std = float(np.std(values))
            print(f"{dim},{k},{mean:.6f},{std:.6f}")
    return 0


def cmd_sample_pairs(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset = data_io.read_dataset(args.data)
    rng = np.random.default_rng(cfg.sampler.rng_seed)
    table = sampling.candidate_table(dataset, cfg.scorer, cfg.sampler)
    rows, labels = sampling.make_pair_batch(table, args.count,
                                            args.pos_fraction, rng)
    for (query, candidate), label in zip(rows, labels):
        print(f"{table.ids[query]},{table.ids[candidate]},{label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simembed",
        description="Train image embeddings, index them, and run "
                    "similarity queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, metric: bool = False) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="override every RNG seed in the run")
        p.add_argument("--config", default=None,
                       help="JSON run-config path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if metric:
            p.add_argument("--metric-k", type=float, default=None,
                           help="distance exponent override")

    p = sub.add_parser("ingest", help="parse a public dataset format into "
                                      "the internal container")
    common(p)
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
    common(p)
    p.add_argument("--train-data", required=True)
    p.add_argument("--val-data", default=None)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="CSV training log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a dataset into an index file")
    common(p, metric=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("query", help="top-k similarity query")
    common(p, metric=True)
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
    common(p, metric=True)
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
    common(p)
    p.add_argument("--dims", required=True,
                   help="comma-separated dimensions, e.g. 2,10,100")
    p.add_argument("--k", required=True,
                   help="comma-separated exponents, e.g. 0.3,2.0")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_diag_contrast)

    p = sub.add_parser("sample-pairs",
                       help="emit training pairs as text lines")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--pos-fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_sample_pairs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimEmbedError as exc:
        kind = type(exc).__name__
        msg = " ".join(str(exc).split())
        return _fail(f"error: {kind}: {msg}")
    except FileNotFoundError as exc:
        return _fail(f"error: FileNotFound: {exc.filename}")
    except KeyError as exc:
        return _fail(f"error: KeyError: {exc}")


if __name__ == "__main__":
    sys.exit(main())
