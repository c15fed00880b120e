"""Generate one workload's input files from a seed.

Runs in its own process, so the workload process receives only files and
its peak RSS is not the generator's.  Usage::

    python3 perfbench/gen.py --workload query --seed 3 --size full --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import sizes
from checks import EMBED_MAGIC, embed_record_dtype

# Stored records among the query vectors, as `simembed query --id` asks.
STORED_QUERY_SHARE = 0.25
# Distinct query vectors; a faster program wraps round the pool, which
# bounds the time its exact check takes.
QUERY_POOL = 256


def _toy_dataset(count: int, seed: int):
    from simembed import toydata
    return toydata.make_shape_dataset(count, seed=seed)


def gen_train(out: str, seed: int, size: dict) -> None:
    from simembed import data_io
    n_train, n_held = size["train_items"], size["held_out_items"]
    dataset = _toy_dataset(n_train + n_held, seed)
    data_io.write_dataset(os.path.join(out, "train.dset"),
                          dataset.subset(dataset.ids[:n_train]))
    data_io.write_dataset(os.path.join(out, "held_out.dset"),
                          dataset.subset(dataset.ids[n_train:]))


def gen_catalog(out: str, seed: int, size: dict) -> None:
    from simembed import data_io, net
    data_io.write_dataset(os.path.join(out, "catalog.dset"),
                          _toy_dataset(size["catalog_items"], seed))
    config = net.desk_scale_config()
    checkpoint = net.build_network(config, seed=seed)
    net.save_checkpoint(checkpoint, os.path.join(out, "model.ckpt"))
    # the reference forward pass reads these, not the checkpoint file
    np.savez(os.path.join(out, "params.npz"), **checkpoint.parameters)
    spec = {
        "branches": [
            {"factor": b.input_downsample_factor,
             "convs": [[c.stride, c.padding, c.pool_after]
                       for c in b.conv_layers]}
            for b in config.branches],
    }
    with open(os.path.join(out, "netspec.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spec, fh)


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def gen_query(out: str, seed: int, size: dict) -> None:
    """Records and queries from one mixture of clustered unit vectors."""
    rng = np.random.default_rng([seed, 0x0E1])
    n, dim, clusters = size["records"], sizes.DIM, sizes.CLUSTERS
    centres = unit_rows(rng.standard_normal((clusters, dim)))

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(clusters, size=count)
        noise = rng.standard_normal((count, dim)) * sizes.CLUSTER_SPREAD
        return unit_rows(centres[labels] + noise).astype(np.float32), labels

    vectors, labels = draw(n)
    records = np.zeros(n, dtype=embed_record_dtype(sizes.ID_BYTES, dim))
    records["id_len"] = sizes.ID_BYTES
    records["id"] = [sizes.record_id(i).encode() for i in range(n)]
    records["label"] = labels
    records["vector"] = vectors
    with open(os.path.join(out, "index.emb"), "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(np.array([1], "<u4").tobytes())
        fh.write(np.array([sizes.METRIC_K], "<f8").tobytes())
        fh.write(np.array([dim], "<u4").tobytes())
        fh.write(np.array([n], "<u8").tobytes())
        fh.write(records.tobytes())

    fresh, _ = draw(QUERY_POOL)
    rows = np.full(QUERY_POOL, -1, dtype=np.int64)
    stored = rng.random(QUERY_POOL) < STORED_QUERY_SHARE
    rows[stored] = rng.integers(n, size=int(stored.sum()))
    np.savez(os.path.join(out, "queries.npz"), vectors=fresh, rows=rows)


GENERATORS = {"train": gen_train, "catalog": gen_catalog, "query": gen_query}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sizes.SIZES)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    GENERATORS[args.workload](args.out, args.seed, sizes.SIZES[args.size])
    return 0


if __name__ == "__main__":
    sys.exit(main())
