"""Print sha256 digests of a fixed, seeded set of simembed outputs.

Each output is named, and the last line is one digest over all of the
lines above it.  Run it on two trees on one machine and diff the outputs:
a change that leaves every seeded float as it was prints the same lines.

    PYTHONPATH=src python tools/bitcheck.py [--tiny]

The outputs are the output and every gradient of ``conv2d``,
``maxpool2x2``, ``downsample_avg`` and ``relu`` on fixed seeded inputs in
float32 and float64; the toy images; the candidate tables, 20 pair and 20
triplet batches and ``sample_negatives`` draws under both strategies and
both scorers; the final parameters and log rows (seconds excluded) of
short ``train`` runs on three paths; ``embed`` of whole and partial
chunks; ``knn_many`` at k = 0.25, 1 and 2; and a seeded CLI chain,
IDX ``ingest`` -> ``train --config`` -> ``embed`` -> ``query``.
``--tiny`` runs the same set on smaller inputs, except the operators'
fixed inputs.  Digests depend on the BLAS build and the CPU, so compare
trees on one machine only.

Standard library, numpy and simembed only.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import struct
import sys
import tempfile

import numpy as np

from simembed import cli, net, ops, retrieval, sampling, toydata, training
from simembed.dataset import Dataset
from simembed.distance import DistanceMetric, knn_many
from simembed.losses import AngularConfig, ContrastiveConfig

BATCHES = 20  # pair and triplet batches per candidate table
TRAIN_PATHS = {
    "contrastive-hflip-shift": (ContrastiveConfig(), {"hflip", "shift"}),
    "contrastive-none": (ContrastiveConfig(), set()),
    "angular-hflip-shift-rotate": (AngularConfig(),
                                   {"hflip", "shift", "rotate"}),
}


def _sha(*parts) -> str:
    """One digest over ``parts``: an array by its dtype, shape and bytes,
    anything else by its ``repr``."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        else:
            part = repr(part).encode()
        digest.update(struct.pack("<Q", len(part)) + part)
    return digest.hexdigest()


def _ops() -> dict[str, str]:
    """Output and every gradient of each operator whose bits a faster
    rewrite must keep, in float32 and float64.  The inputs hold exact
    zeros and -0.0; the pool's also ties and NaN, the block mean's
    magnitudes from 1e-3 to 1e3."""
    out = {}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(27)

        def draw(*shape, spread=0.0):
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(
                -spread, spread, shape)
            a[rng.random(shape) < 0.1] = 0.0
            a[rng.random(shape) < 0.1] = -0.0
            return a.astype(dtype)

        def add(name, result):
            upstream = draw(*result.output.shape)
            out[f"ops.{name}.{np.dtype(dtype).name}"] = _sha(
                result.output, *result.grad(upstream))

        x = draw(4, 3, 10, 11)
        for stride, padding, kh, kw in ((1, 0, 3, 3), (1, 1, 3, 3),
                                        (2, 0, 3, 3), (2, 1, 3, 3),
                                        (1, 1, 2, 3)):
            add(f"conv2d.s{stride}p{padding}k{kh}x{kw}", ops.conv2d(
                x, draw(5, 3, kh, kw), draw(5), stride, padding))
        cells = np.round(draw(3, 4, 8, 10))  # ties, and -0.0 from rounding
        cells[0, 0, 0, :2] = cells[1, 2, 5, 7] = np.nan
        add("maxpool2x2", ops.maxpool2x2(cells))
        blocks = draw(3, 2, 12, 24, spread=3.0)
        blocks[0, 0] = -0.0  # whole blocks of -0.0 average to +0.0
        for factor in (2, 3, 4):
            add(f"downsample_avg.f{factor}",
                ops.downsample_avg(blocks, factor))
        add("relu", ops.relu(cells))
    return out


def _sampling(dataset: Dataset, n_candidates: int) -> dict[str, str]:
    """Tables, batches and negative draws of each strategy and scorer, on
    a three-channel copy of ``dataset`` so that the scorers differ."""
    images = dataset.images()
    rgb = Dataset(dataset.ids, dataset.labels, np.concatenate(
        [images, 1 - images, images * images], axis=1))
    out = {}
    for strategy in (sampling.STRATEGY_BISS, sampling.STRATEGY_RANDOM):
        for kind in (sampling.SCORER_INTENSITY, sampling.SCORER_COLOR):
            cfg = sampling.SamplerConfig(
                n_candidates=n_candidates, in_class_fraction=0.6,
                strategy=strategy, self_pair_fraction=0.25,
                scorer=sampling.BissScorer(kind))
            table = sampling.candidate_table(rgb, cfg)
            rng = np.random.default_rng(7)
            name = f"sampling.{strategy}.{kind}"
            out[f"{name}.table"] = _sha(*(table.candidates or [None]))
            out[f"{name}.pairs"] = _sha(*(
                part for _ in range(BATCHES)
                for part in sampling.make_pair_batch(table, 8, 0.5, rng)))
            out[f"{name}.triplets"] = _sha(*(
                sampling.make_triplet_batch(table, 8, rng)
                for _ in range(BATCHES)))
            out[f"{name}.negatives"] = _sha(*(
                sampling.sample_negatives(query, rgb, cfg, 4, rng, [
                    rgb.ids[r] for r in
                    (table.candidates[row] if table.candidates else ())])
                for row, query in enumerate(rgb.ids[:BATCHES])))
    return out


def _train_config(steps: int) -> dict:
    """The ``TrainConfig`` fields of a short run: ``steps`` batches of 8
    in each of two epochs."""
    return {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8,
            "batches_per_epoch": steps, "val_pairs": 8 * steps,
            "val_triplets": 8 * steps}


def _training(dataset: Dataset,
              steps: int) -> tuple[dict[str, str], net.Checkpoint]:
    """Final parameters and log rows of a short run on each path; the
    validation data is the held-out fifth, or for the last path the
    training data itself.  Returns the digests and the last checkpoint."""
    cut = len(dataset) * 4 // 5
    train_set = dataset.subset(dataset.ids[:cut])
    val_set = dataset.subset(dataset.ids[cut:])
    net_cfg = net.desk_scale_config(dataset.image_shape, final_embed_dim=16)
    out = {}
    for name, (loss, augmentation) in TRAIN_PATHS.items():
        if name == list(TRAIN_PATHS)[-1]:
            val_set = train_set
        cfg = training.TrainConfig(
            **_train_config(steps), loss=loss, seed=3, lr_decay=0.5,
            augmentation=frozenset(augmentation))
        checkpoint, logs = training.train(
            train_set, val_set, net_cfg,
            sampling.SamplerConfig(n_candidates=3, rng_seed=1), cfg)
        out[f"train.{name}.parameters"] = _sha(
            checkpoint.epoch, *(part for item in
                                sorted(checkpoint.parameters.items())
                                for part in item))
        out[f"train.{name}.log"] = _sha(*(
            (row.epoch, row.mean_train_loss, row.validation_loss,
             row.triplet_accuracy) for row in logs))
    return out, checkpoint


def _retrieval(checkpoint: net.Checkpoint, dataset: Dataset) -> dict[str, str]:
    """``embed`` of two whole chunks, of whole chunks and a partial one,
    and of one partial chunk; then exact top-5 queries of the longest
    under three metrics."""
    images = dataset.images()
    images = np.concatenate([images] * (
        -(-(2 * net.EMBED_CHUNK + 37) // len(images))))
    out = {}
    for count in (2 * net.EMBED_CHUNK, 2 * net.EMBED_CHUNK + 37, 37):
        vectors = net.embed(checkpoint, images[:count])
        out[f"embed.{count}"] = _sha(vectors)
    ids = [f"row-{i:05d}" for i in range(len(vectors))]
    for exponent in (0.25, 1.0, 2.0):
        index = retrieval.build_index(ids, np.arange(len(ids)) % 10,
                                      vectors, DistanceMetric(exponent))
        out[f"knn_many.k{exponent:g}"] = _sha(
            knn_many(vectors[:10], index, 5))
    return out


def _run(argv: list[str]) -> str:
    """``simembed`` with ``argv``, its standard output; refuses a failure."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"simembed {' '.join(argv)}: {stderr.getvalue()}")
    return stdout.getvalue()


def _cli_chain(dataset: Dataset, steps: int) -> dict[str, str]:
    """The files and standard output of each step of a seeded CLI run on
    the toy images, written as byte IDX files (the images gzipped)."""
    pixels = np.round(dataset.images()[:, 0] * 255).astype(np.uint8)
    count, rows, cols = pixels.shape
    run_config = {
        "net": {"input_shape": [1, rows, cols], "final_embed_dim": 16},
        "sampler": {"n_candidates": 3},
        "train": {**_train_config(steps), "augmentation": ["hflip"]},
        "metric": {"exponent": 0.25}}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name) for name in (
            "images.gz", "labels", "config.json", "data.dset", "model.ckpt",
            "index.emb")}
        with open(path["images.gz"], "wb") as fh:
            fh.write(gzip.compress(struct.pack(">IIII", 0x803, count, rows,
                                               cols) + pixels.tobytes(),
                                   mtime=0))
        with open(path["labels"], "wb") as fh:
            fh.write(struct.pack(">II", 0x801, count)
                     + dataset.labels.astype(np.uint8).tobytes())
        with open(path["config.json"], "w", encoding="utf-8") as fh:
            json.dump(run_config, fh)
        steps = {
            "data.dset": ["ingest", "--format", "idx", "--images",
                          path["images.gz"], "--labels", path["labels"]],
            "model.ckpt": ["train", "--seed", "5", "--config",
                           path["config.json"], "--train-data",
                           path["data.dset"]],
            "index.emb": ["embed", "--config", path["config.json"],
                          "--checkpoint", path["model.ckpt"], "--data",
                          path["data.dset"]]}
        for name, argv in steps.items():
            stdout = _run([*argv, "--output", path[name]])
            with open(path[name], "rb") as fh:
                out[f"cli.{argv[0]}"] = _sha(stdout, fh.read())
        query = ["query", "--embeddings", path["index.emb"], "--id",
                 "idx-00003", "-k", "5"]
        out["cli.query"] = _sha(_run(query), _run(
            [*query, "--data", path["data.dset"], "--checkpoint",
             path["model.ckpt"]]))
    return out


def digests(tiny: bool = False) -> dict[str, str]:
    """Name -> sha256 of each checked output, in a fixed order."""
    count, side, steps = (60, 20, 1) if tiny else (600, 28, 10)
    dataset = toydata.make_shape_dataset(count, seed=0, size=side)
    out = _ops()
    out["toydata.images"] = _sha(dataset.images(), dataset.labels,
                                 dataset.ids)
    out.update(_sampling(dataset, count // 30))
    trained, checkpoint = _training(dataset, steps)
    out.update(trained)
    out.update(_retrieval(checkpoint, dataset))
    out.update(_cli_chain(dataset, steps))
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--tiny"]):
        sys.stderr.write("usage: bitcheck.py [--tiny]\n")
        return 2
    lines = [f"{digest}  {name}"
             for name, digest in digests(tiny=bool(argv)).items()]
    print("\n".join(lines))
    print(f"{_sha(*lines)}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
