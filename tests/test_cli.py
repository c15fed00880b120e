import argparse
import copy
import gzip
import json
import os
import re
import struct
import warnings

import numpy as np
import pytest

from dataclasses import replace

from simembed import cli, data_io, net, retrieval, toydata
from simembed import training as train_mod
from simembed.dataset import make_dataset
from simembed.distance import DistanceMetric

TINY_CONFIG = {
    "net": {
        "input_shape": [1, 8, 8],
        "final_embed_dim": 6,
        "dropout_rate": 0.0,
        "branches": [
            {"input_downsample_factor": 1,
             "conv_layers": [{"filters": 2, "kernel": 3, "padding": 1,
                              "pool_after": True}],
             "branch_embed_dim": 8},
            {"input_downsample_factor": 2,
             "conv_layers": [{"filters": 2, "kernel": 3, "padding": 1}],
             "branch_embed_dim": 4},
        ],
    },
    "sampler": {"n_candidates": 3},
    "train": {"learning_rate": 0.001, "epochs": 1, "batch_size": 4,
              "batches_per_epoch": 2, "val_pairs": 8, "val_triplets": 8},
}


def fails_with_one_line(capsys, rc, kind):
    """Assert that a command exited 2 with exactly one ``error: <kind>: ...``
    line on stderr and no traceback; return the captured output."""
    captured = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {kind}: ")
    assert captured.err.endswith("\n")
    return captured


def make_grid_dataset(seed=0):
    rng = np.random.default_rng(seed)
    return make_dataset(
        (f"c{c}i{j}", rng.uniform(0, 1, (1, 8, 8)).astype(np.float32), c)
        for c in range(3) for j in range(4))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, config, and a finished train->embed chain shared by the
    read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset_path = str(root / "toy.dset")
    data_io.write_dataset(dataset_path, make_grid_dataset())
    config_path = str(root / "run.json")
    with open(config_path, "w") as fh:
        json.dump(TINY_CONFIG, fh)
    ckpt_path = str(root / "model.ckpt")
    emb_path = str(root / "toy.emb")
    assert cli.main(["train", "--train-data", dataset_path,
                     "--output", ckpt_path, "--config", config_path,
                     "--seed", "5"]) == 0
    assert cli.main(["embed", "--checkpoint", ckpt_path,
                     "--data", dataset_path, "--output", emb_path,
                     "--config", config_path]) == 0
    return {"root": root, "dataset": dataset_path, "config": config_path,
            "checkpoint": ckpt_path, "embeddings": emb_path}


class TestIngest:
    def write_idx(self, tmp_path, n=5):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, (n, 4, 4), dtype=np.uint8)
        labels = (np.arange(n) % 3).astype(np.uint8)
        blob_i = struct.pack(">IIII", 0x803, n, 4, 4) + images.tobytes()
        blob_l = struct.pack(">II", 0x801, n) + labels.tobytes()
        ip, lp = tmp_path / "img.gz", tmp_path / "lab.gz"
        ip.write_bytes(gzip.compress(blob_i))
        lp.write_bytes(gzip.compress(blob_l))
        return str(ip), str(lp)

    def test_idx_ingest_writes_dataset(self, tmp_path, capsys):
        ip, lp = self.write_idx(tmp_path)
        out = str(tmp_path / "out.dset")
        assert cli.main(["ingest", "--format", "idx", "--images", ip,
                         "--labels", lp, "--output", out]) == 0
        stdout = capsys.readouterr().out
        assert "items=5" in stdout
        assert "image_shape=1x4x4" in stdout
        assert "classes=3" in stdout
        ds = data_io.read_dataset(out)
        assert len(ds) == 5

    def test_offset_and_limit_slice(self, tmp_path, capsys):
        ip, lp = self.write_idx(tmp_path)
        out = str(tmp_path / "out.dset")
        assert cli.main(["ingest", "--format", "idx", "--images", ip,
                         "--labels", lp, "--output", out,
                         "--offset", "1", "--limit", "2"]) == 0
        assert "items=2" in capsys.readouterr().out
        ds = data_io.read_dataset(out)
        assert ds.ids == ("idx-00001", "idx-00002")

    @pytest.mark.parametrize("flag, value", [("--limit", "-1"),
                                             ("--offset", "-3")])
    def test_negative_offset_or_limit_rejected(self, tmp_path, capsys, flag,
                                               value):
        ip, lp = self.write_idx(tmp_path, n=10)
        out = tmp_path / "out.dset"
        rc = cli.main(["ingest", "--format", "idx", "--images", ip,
                       "--labels", lp, "--output", str(out), flag, value])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err == f"error: ConfigError: {flag} must be >= 0, " \
                               f"got {value}\n"
        assert not out.exists()

    def test_existing_output_needs_force(self, tmp_path, capsys):
        ip, lp = self.write_idx(tmp_path)
        out = tmp_path / "out.dset"
        out.write_bytes(b"occupied")
        rc = cli.main(["ingest", "--format", "idx", "--images", ip,
                       "--labels", lp, "--output", str(out)])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err.startswith("error:")
        assert "\n" not in captured.err.strip()
        assert out.read_bytes() == b"occupied"
        assert cli.main(["ingest", "--format", "idx", "--images", ip,
                         "--labels", lp, "--output", str(out),
                         "--force"]) == 0

    def test_missing_input_file_reports_cleanly(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--format", "idx",
                       "--images", str(tmp_path / "no.gz"),
                       "--labels", str(tmp_path / "nope.gz"),
                       "--output", str(tmp_path / "o.dset")])
        captured = fails_with_one_line(capsys, rc, "FileNotFound")
        assert "error: FileNotFound" in captured.err

    def test_idx_ingest_refuses_input(self, tmp_path, capsys):
        ip, lp = self.write_idx(tmp_path)
        out = tmp_path / "out.dset"
        rc = cli.main(["ingest", "--format", "idx", "--images", ip,
                       "--labels", lp, "--input", ip, "--output", str(out)])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == "error: ConfigError: idx ingest reads no --input\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, refusal", [
        (["--format", "idx", "--images", "img.gz"],
         "idx ingest needs --images and --labels"),
        (["--format", "cifar10"], "cifar10 ingest needs at least one --input"),
    ], ids=["idx without labels", "cifar10 without input"])
    def test_missing_input_flag_refused(self, tmp_path, capsys, argv,
                                        refusal):
        out = tmp_path / "out.dset"
        rc = cli.main(["ingest", *argv, "--output", str(out)])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == f"error: ConfigError: {refusal}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--offset", "5"], ["--limit", "0"]])
    def test_slice_selecting_no_items_refused(self, tmp_path, capsys, flags):
        ip, lp = self.write_idx(tmp_path)
        out = tmp_path / "out.dset"
        rc = cli.main(["ingest", "--format", "idx", "--images", ip,
                       "--labels", lp, "--output", str(out), *flags])
        err = fails_with_one_line(capsys, rc, "DataError").err
        assert err == ("error: DataError: offset/limit selects no items "
                       "(dataset has 5 items)\n")
        assert not out.exists()

    def test_cifar10_ingest_writes_every_batch(self, tmp_path, capsys):
        first, second = tmp_path / "b0.bin", tmp_path / "b1.bin"
        pixels = np.arange(3 * 3072).reshape(3, 3072) % 256
        first.write_bytes(bytes([4, *pixels[0], 9, *pixels[1]]))
        second.write_bytes(bytes([0, *pixels[2]]))
        out = str(tmp_path / "out.dset")
        assert cli.main(["ingest", "--format", "cifar10", "--input",
                         str(first), "--input", str(second),
                         "--output", out]) == 0
        assert capsys.readouterr().out == ("items=3\nimage_shape=3x32x32\n"
                                           "classes=3\n")
        ds = data_io.read_dataset(out)
        assert ds.ids == ("cifar-b0-00000", "cifar-b0-00001",
                          "cifar-b1-00000")
        assert ds.labels.tolist() == [4, 9, 0]
        assert np.array_equal(ds.images(), (pixels.astype(np.float32)
                                            / np.float32(255)).reshape(
                                                3, 3, 32, 32))

    @pytest.mark.parametrize("fault, refusal", [
        ("idx images cut", "gzipped IDX image file is cut or corrupt: "
         "Compressed file ended before the end-of-stream marker was "
         "reached"),
        ("idx labels bad header", "gzipped IDX label file is cut or "
         "corrupt: Unknown compression method"),
        ("cifar10 batch cut", "gzipped CIFAR-10 batch 1 is cut or corrupt: "
         "Compressed file ended before the end-of-stream marker was "
         "reached"),
    ])
    def test_broken_gzip_input_refused(self, tmp_path, capsys, fault,
                                       refusal):
        out = tmp_path / "out.dset"
        if fault.startswith("idx"):
            ip, lp = self.write_idx(tmp_path)
            path = tmp_path / ("img.gz" if fault == "idx images cut"
                               else "lab.gz")
            blob = bytearray(path.read_bytes())
            if fault == "idx images cut":
                del blob[-6:]
            else:
                blob[2] = 7  # compression method: only 8 (deflate) exists
            path.write_bytes(bytes(blob))
            argv = ["--format", "idx", "--images", ip, "--labels", lp]
        else:
            first, second = tmp_path / "b0.bin", tmp_path / "b1.gz"
            first.write_bytes(bytes(data_io.CIFAR_RECORD_BYTES))
            second.write_bytes(gzip.compress(
                bytes(data_io.CIFAR_RECORD_BYTES))[:-6])
            argv = ["--format", "cifar10", "--input", str(first),
                    "--input", str(second)]
        rc = cli.main(["ingest", *argv, "--output", str(out)])
        err = fails_with_one_line(capsys, rc, "FormatError").err
        assert err == f"error: FormatError: {refusal}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--images", "--labels"])
    def test_cifar10_ingest_refuses_idx_files(self, tmp_path, capsys, flag):
        batch = tmp_path / "batch.bin"
        batch.write_bytes(bytes(2 * data_io.CIFAR_RECORD_BYTES))
        out = tmp_path / "out.dset"
        rc = cli.main(["ingest", "--format", "cifar10", "--input", str(batch),
                       flag, str(batch), "--output", str(out)])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == ("error: ConfigError: cifar10 ingest reads no "
                       "--images or --labels\n")
        assert not out.exists()


class TestTrain:
    def test_reports_progress_keys(self, workdir, capsys, tmp_path):
        log_path = str(tmp_path / "log.csv")
        rc = cli.main(["train", "--train-data", workdir["dataset"],
                       "--output", str(tmp_path / "m.ckpt"),
                       "--config", workdir["config"], "--seed", "5",
                       "--log", log_path])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "epochs_run=1" in stdout
        assert "best_epoch=" in stdout
        assert "final_val_loss=" in stdout
        assert "final_triplet_acc=" in stdout
        lines = open(log_path).read().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,triplet_acc,seconds"
        assert len(lines) == 2

    @pytest.mark.parametrize("path, value", [
        (("train", "epochs"), "x"),
        (("sampler", "n_candidates"), "5"),
        (("sampler", "n_candidates"), 2.7),
        (("net", "branches", 0, "conv_layers", 0), {"kernel": 3}),
        (("net", "input_shape"), 5),
        (("net", "branches"), 5),
        (("net", "branches", 0, "conv_layers"), 3),
        (("train", "loss"), {"margin": -1}),
        (("train", "loss"), {"kind": "angular", "alpha_degrees": 100}),
        (("metric", "exponent"), 0),
        (("metric", "exponent"), "x"),
        (("sampler", "scorer"), {"bins": "x"}),
        (("train", "batches_per_epoch"), 0),
    ])
    def test_malformed_config_value_fails_with_one_line(
            self, workdir, capsys, tmp_path, path, value):
        doc = copy.deepcopy(TINY_CONFIG)
        *parents, key = path
        node = doc
        for step in parents:
            node = node.setdefault(step, {}) if isinstance(step, str) \
                else node[step]
        node[key] = value
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--train-data", workdir["dataset"],
                       "--output", str(out), "--config", str(config_path)])
        fails_with_one_line(capsys, rc, "ConfigError")
        assert not out.exists()

    @staticmethod
    def _train_hot(tmp_path):
        """``simembed train`` at learning rate 1e6, which diverges in its
        first epoch; returns the exit code and the checkpoint path."""
        shapes = toydata.make_shape_dataset(200, seed=1)
        paths = {}
        for name, ids in (("train", shapes.ids[:150]),
                          ("val", shapes.ids[150:])):
            paths[name] = str(tmp_path / f"{name}.dset")
            data_io.write_dataset(paths[name], shapes.subset(ids))
        config_path = tmp_path / "hot.json"
        config_path.write_text(json.dumps({
            "sampler": {"n_candidates": 10},
            "train": {"learning_rate": 1e6, "epochs": 2,
                      "batches_per_epoch": 3, "val_pairs": 16,
                      "val_triplets": 16}}))
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--train-data", paths["train"],
                       "--val-data", paths["val"], "--output", str(out),
                       "--config", str(config_path)])
        return rc, out

    def test_diverged_first_epoch_saves_the_initial_checkpoint(
            self, capsys, tmp_path):
        rc, out = self._train_hot(tmp_path)
        assert rc == 0
        assert capsys.readouterr().out == "epochs_run=0\nbest_epoch=0\n"
        assert net.load_checkpoint(str(out)).epoch == 0

    def test_diverged_run_warns_in_one_line(self, capsys, tmp_path):
        """The warning line is all of stderr: numpy's overflow warnings,
        made errors here, are not raised."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _ = self._train_hot(tmp_path)
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: training diverged in epoch 1; kept epoch 0\n")

    def test_log_naming_the_checkpoint_is_refused(self, workdir, capsys,
                                                  tmp_path):
        out = tmp_path / "m.ckpt"
        log = f"{tmp_path}/./m.ckpt"
        rc = cli.main(["train", "--train-data", workdir["dataset"],
                       "--output", str(out), "--config", workdir["config"],
                       "--log", log])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == (f"error: ConfigError: --log {log!r} names the "
                       f"--output checkpoint\n")
        assert not out.exists()

    def test_negative_seed_fails_with_one_line(self, workdir, capsys,
                                               tmp_path):
        rc = cli.main(["train", "--train-data", workdir["dataset"],
                       "--output", str(tmp_path / "m.ckpt"),
                       "--config", workdir["config"], "--seed", "-3"])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert "seed must be >= 0, got -3" in err


class TestEmbed:
    def test_reports_index_stats(self, workdir, capsys, tmp_path):
        out = str(tmp_path / "again.emb")
        rc = cli.main(["embed", "--checkpoint", workdir["checkpoint"],
                       "--data", workdir["dataset"], "--output", out,
                       "--config", workdir["config"]])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "records=12" in stdout
        assert "dim=6" in stdout
        assert "metric_k=0.25" in stdout

    def test_oversized_checkpoint_length_fails_with_one_line(
            self, workdir, capsys, tmp_path):
        blob = bytearray(open(workdir["checkpoint"], "rb").read())
        struct.pack_into("<Q", blob, 12, 2 ** 40)  # the header length
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        rc = cli.main(["embed", "--checkpoint", str(bad),
                       "--data", workdir["dataset"],
                       "--output", str(tmp_path / "out.emb"),
                       "--config", workdir["config"]])
        err = fails_with_one_line(capsys, rc, "FormatError").err
        assert err.startswith("error: FormatError: bad checkpoint header:")
        assert "truncated" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_metric_k_not_positive_fails_with_one_line(
            self, workdir, capsys, tmp_path, k):
        out = tmp_path / "out.emb"
        rc = cli.main(["embed", "--checkpoint", workdir["checkpoint"],
                       "--data", workdir["dataset"], "--output", str(out),
                       "--metric-k", k])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert f"exponent must be > 0, got {float(k)}" in err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def desk(self, tmp_path_factory):
        """A desk-scale checkpoint (1x28x28 images, 64-d) and a dataset."""
        root = tmp_path_factory.mktemp("desk")
        paths = {"checkpoint": str(root / "desk.ckpt"),
                 "dataset": str(root / "shapes.dset")}
        net.save_checkpoint(net.build_network(net.desk_scale_config(), 1),
                            paths["checkpoint"])
        data_io.write_dataset(paths["dataset"],
                              toydata.make_shape_dataset(20, seed=1))
        return paths

    def _embed_with(self, desk, tmp_path, document):
        config, out = tmp_path / "run.json", tmp_path / "out.emb"
        config.write_text(json.dumps(document))
        rc = cli.main(["embed", "--checkpoint", desk["checkpoint"],
                       "--data", desk["dataset"], "--output", str(out),
                       "--config", str(config)])
        return rc, out

    def test_net_section_other_than_the_checkpoints_fails_with_one_line(
            self, desk, capsys, tmp_path):
        rc, out = self._embed_with(desk, tmp_path, {"net": {
            "input_shape": [3, 32, 32], "final_embed_dim": 16}})
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert "disagrees with the checkpoint in net.branches, " \
            "net.final_embed_dim, net.input_shape" in err
        assert not out.exists()

    def test_net_section_equal_to_the_checkpoints_is_accepted(
            self, desk, capsys, tmp_path):
        rc, out = self._embed_with(desk, tmp_path, {"net": {}})
        assert rc == 0 and "dim=64" in capsys.readouterr().out

    def test_config_without_a_net_section_is_accepted(self, workdir, capsys,
                                                      tmp_path):
        """The tiny checkpoint differs from the default net, which a
        config without ``net`` stands for."""
        rc, out = self._embed_with(workdir, tmp_path,
                                   {"metric": {"exponent": 0.5}})
        stdout = capsys.readouterr().out
        assert rc == 0 and "dim=6" in stdout and "metric_k=0.5" in stdout

    def test_repeat_embeds_are_byte_identical(self, workdir, tmp_path):
        a, b = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
        for out in (a, b):
            assert cli.main(["embed", "--checkpoint",
                             workdir["checkpoint"], "--data",
                             workdir["dataset"], "--output", out,
                             "--config", workdir["config"]]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestQuery:
    def test_stored_id_is_own_nearest_neighbor(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c1i2", "-k", "3"])
        stdout = capsys.readouterr().out
        assert rc == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 3
        first_id, first_dist = lines[0].split("\t")
        assert first_id == "c1i2"
        assert float(first_dist) == 0.0

    def test_fresh_image_query_with_checkpoint(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c0i0", "--data", workdir["dataset"],
                       "--checkpoint", workdir["checkpoint"], "-k", "1"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert stdout.split("\t")[0] == "c0i0"

    def test_data_without_checkpoint_is_refused(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c0i0", "--data", workdir["dataset"]])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == ("error: ConfigError: --data queries need "
                       "--checkpoint to embed\n")
        assert capsys.readouterr().out == ""

    def test_checkpoint_without_data_is_refused(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c0i0", "--checkpoint", workdir["checkpoint"]])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == ("error: ConfigError: --checkpoint is read only to "
                       "embed a --data image\n")
        assert capsys.readouterr().out == ""

    def test_pretty_output_has_header(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c0i1", "-k", "2", "--pretty"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert stdout.splitlines()[0].startswith("id")
        assert "distance" in stdout.splitlines()[0]

    def test_k_below_one_fails_with_one_line(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c0i1", "-k", "0"])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err.startswith("error: ConfigError: k must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_non_utf8_id_in_index_fails_with_one_line(self, tmp_path,
                                                      capsys):
        path = tmp_path / "latin.emb"
        path.write_bytes(b"EMBIDX01" + struct.pack("<IdIQ", 1, 2.0, 2, 1)
                         + struct.pack("<H", 2) + b"\xff\xfe"
                         + struct.pack("<i2f", 0, 1.0, 2.0))
        rc = cli.main(["query", "--embeddings", str(path), "--id", "x"])
        err = fails_with_one_line(capsys, rc, "FormatError").err
        assert err.startswith("error: FormatError:")
        assert "id of record 0 is not UTF-8" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_id_fails_with_one_line(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "ghost"])
        captured = fails_with_one_line(capsys, rc, "DataError")
        assert captured.err.startswith("error: DataError:")

    def test_unknown_id_in_query_data_fails_with_one_line(self, workdir,
                                                          capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "ghost", "--data", workdir["dataset"],
                       "--checkpoint", workdir["checkpoint"]])
        err = fails_with_one_line(capsys, rc, "DataError").err
        assert err == "error: DataError: no item with id 'ghost'\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_metric_k_not_positive_fails_with_one_line(self, workdir,
                                                       capsys, k):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "c1i2", "--metric-k", k])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert f"exponent must be > 0, got {float(k)}" in captured.err
        assert captured.out == ""

    def test_metric_k_override_changes_distances(self, workdir, capsys):
        cli.main(["query", "--embeddings", workdir["embeddings"],
                  "--id", "c1i2", "-k", "12"])
        frac = capsys.readouterr().out
        cli.main(["query", "--embeddings", workdir["embeddings"],
                  "--id", "c1i2", "-k", "12", "--metric-k", "2.0"])
        euclid = capsys.readouterr().out
        frac_d = [float(line.split("\t")[1])
                  for line in frac.strip().split("\n")]
        euc_d = [float(line.split("\t")[1])
                 for line in euclid.strip().split("\n")]
        # unit-norm embeddings keep Euclidean distances <= 2; the
        # fractional metric inflates them well beyond that
        assert max(euc_d) <= 2.0 + 1e-6
        assert max(frac_d) > max(euc_d)


class TestEval:
    def test_self_query_recall_is_perfect(self, workdir, capsys, tmp_path):
        queries = tmp_path / "q.csv"
        ds = data_io.read_dataset(workdir["dataset"])
        queries.write_text(
            "".join(f"{i},{i}\n" for i in ds.ids))
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries), "-k", "1"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "top1_recall=1.0000" in stdout
        assert "queries=12" in stdout

    @pytest.mark.parametrize("line", ["ghost,c0i0", "c0i0,c0i1,ghost"])
    def test_unknown_query_list_id_rejected(self, workdir, capsys, tmp_path,
                                            line):
        queries = tmp_path / "q.csv"
        queries.write_text(f"c1i0,c1i1\n{line}\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries)])
        assert "error: DataError: query list id 'ghost'" in \
            fails_with_one_line(capsys, rc, "DataError").err

    def test_k_below_one_fails_with_one_line(self, workdir, capsys,
                                            tmp_path):
        queries = tmp_path / "q.csv"
        queries.write_text("c1i0,c1i1\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries), "-k", "0"])
        assert "error: ConfigError" in \
            fails_with_one_line(capsys, rc, "ConfigError").err

    def test_triplet_accuracy_line(self, workdir, capsys, tmp_path):
        trips = tmp_path / "t.csv"
        trips.write_text("c0i0,c0i1,c2i0\n# comment\nc1i0,c1i1,c0i3\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "triplet_accuracy=" in stdout
        assert "triplets=2" in stdout
        value = float(stdout.split("triplet_accuracy=")[1].split("\n")[0])
        assert value in (0.0, 0.5, 1.0)

    def test_needs_at_least_one_mode(self, workdir, capsys):
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"]])
        assert "error: ConfigError" in \
            fails_with_one_line(capsys, rc, "ConfigError").err

    def test_empty_triplet_list_rejected(self, workdir, capsys, tmp_path):
        trips = tmp_path / "t.csv"
        trips.write_text("# no triplets\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips)])
        assert "error: DataError" in \
            fails_with_one_line(capsys, rc, "DataError").err

    def test_malformed_query_line_names_it(self, workdir, capsys, tmp_path):
        queries = tmp_path / "q.csv"
        queries.write_text("# query,truth\nc1i0,c1i1\nc0i0\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries)])
        captured = fails_with_one_line(capsys, rc, "FormatError")
        assert captured.err.startswith("error: FormatError: line 3: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_query_list_without_usable_lines_rejected(self, workdir, capsys,
                                                      tmp_path):
        queries = tmp_path / "q.csv"
        queries.write_text("# nothing here\n\n   \n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries)])
        captured = fails_with_one_line(capsys, rc, "DataError")
        assert captured.err == \
            "error: DataError: query list contains no usable lines\n"

    def test_metric_k_overrides_the_index_metric(self, workdir, capsys,
                                                 tmp_path):
        trips, queries = tmp_path / "t.csv", tmp_path / "q.csv"
        trips.write_text("c0i0,c0i1,c2i0\nc1i0,c1i1,c0i3\nc2i2,c2i3,c1i1\n")
        queries.write_text("c0i0,c0i1,c0i2\nc1i3,c1i0\nc2i1,c0i0\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips), "--queries", str(queries),
                       "-k", "2", "--metric-k", "2"])
        assert rc == 0
        index = replace(retrieval.read_embeddings(workdir["embeddings"]),
                        metric=DistanceMetric(2.0))
        query_ids, truth_ids = zip(*data_io.parse_query_list(
            queries.read_text()))
        acc = retrieval.triplet_accuracy(
            index, data_io.parse_triplet_list(trips.read_text()))
        recall = retrieval.topk_recall(
            index, index.vectors[retrieval.rows_of(index, query_ids)],
            truth_ids, 2)
        assert capsys.readouterr().out == (
            f"triplet_accuracy={acc:.4f}\ntriplets=3\n"
            f"top2_recall={recall:.4f}\nqueries=3\n")

    def test_unknown_triplet_id_rejected(self, workdir, capsys, tmp_path):
        trips = tmp_path / "t.csv"
        trips.write_text("ghost,c0i1,c2i0\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips)])
        assert "error: DataError" in \
            fails_with_one_line(capsys, rc, "DataError").err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_metric_k_not_positive_fails_with_one_line(self, workdir, capsys,
                                                       tmp_path, k):
        trips = tmp_path / "t.csv"
        trips.write_text("c0i0,c0i1,c2i0\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips), "--metric-k", k])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert f"exponent must be > 0, got {float(k)}" in captured.err
        assert captured.out == ""


class TestDiagContrast:
    def test_grid_of_dims_and_exponents(self, capsys):
        rc = cli.main(["diag-contrast", "--dims", "2,100",
                       "--k", "0.3,2.0", "--points", "200",
                       "--seed", "1"])
        stdout = capsys.readouterr().out
        assert rc == 0
        lines = stdout.strip().split("\n")
        assert lines[0] == "dimension,k,contrast_mean,contrast_std"
        assert len(lines) == 5
        parsed = [line.split(",") for line in lines[1:]]
        assert [(p[0], p[1]) for p in parsed] == \
            [("2", "0.3"), ("2", "2.0"), ("100", "0.3"), ("100", "2.0")]
        for p in parsed:
            assert float(p[2]) > 0

    def test_same_seed_reproduces_output(self, capsys):
        argv = ["diag-contrast", "--dims", "5", "--k", "1.0",
                "--points", "100", "--trials", "3", "--seed", "9"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first

    def test_trials_below_one_rejected(self, capsys):
        rc = cli.main(["diag-contrast", "--dims", "2", "--k", "1.0",
                       "--trials", "0"])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err == "error: ConfigError: --trials must be >= 1, " \
                               "got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("dims", ["2.7", "2,0"])
    def test_dimension_not_a_positive_integer_rejected(self, capsys, dims):
        rc = cli.main(["diag-contrast", "--dims", dims, "--k", "1.0"])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err.startswith(
            "error: ConfigError: --dims must be integers >= 1")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, refusal", [
        (["--dims", ",", "--k", "1.0"], "--dims must not be empty"),
        (["--dims", "2", "--k", "1.0", "--points", "1"],
         "--points must be >= 2, got 1"),
        # a later exponent is refused before the rows of earlier ones print
        (["--dims", "2,3", "--k", "1,0", "--points", "5"],
         "exponent must be > 0, got 0.0"),
    ], ids=["empty dims", "one point", "later exponent"])
    def test_refused_before_printing(self, capsys, argv, refusal):
        rc = cli.main(["diag-contrast", *argv])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err == f"error: ConfigError: {refusal}\n"
        assert captured.out == ""

    def test_bad_k_list_rejected(self, capsys):
        rc = cli.main(["diag-contrast", "--dims", "2", "--k", "abc"])
        assert "error: ConfigError" in \
            fails_with_one_line(capsys, rc, "ConfigError").err

    def test_negative_seed_rejected(self, capsys):
        rc = cli.main(["diag-contrast", "--dims", "2", "--k", "1.0",
                       "--seed", "-3"])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err == "error: ConfigError: --seed must be >= 0, " \
                               "got -3\n"
        assert captured.out == ""


class TestSamplePairs:
    def test_line_format_and_count(self, workdir, capsys):
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--count", "10",
                       "--config", workdir["config"], "--seed", "4"])
        stdout = capsys.readouterr().out
        assert rc == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 10
        labels = []
        ds = data_io.read_dataset(workdir["dataset"])
        for line in lines:
            q, c, label = line.split(",")
            assert ds.get(q) is not None and ds.get(c) is not None
            labels.append(int(label))
        assert labels.count(0) == 5 and labels.count(1) == 5

    def test_positive_share_comes_from_the_run_config(self, workdir, capsys,
                                                      tmp_path):
        doc = copy.deepcopy(TINY_CONFIG)
        doc["train"]["pos_fraction"] = 0.25
        config_path = tmp_path / "quarter.json"
        config_path.write_text(json.dumps(doc))
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--count", "8", "--config", str(config_path)])
        labels = [line.rsplit(",", 1)[1]
                  for line in capsys.readouterr().out.splitlines()]
        assert rc == 0
        assert labels == ["0"] * 2 + ["1"] * 6

    def test_angular_loss_prints_the_triplets_train_draws(self, workdir,
                                                          capsys, tmp_path):
        doc = copy.deepcopy(TINY_CONFIG)
        doc["train"]["loss"] = {"kind": "angular"}
        config_path = tmp_path / "angular.json"
        config_path.write_text(json.dumps(doc))
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--count", "6", "--config", str(config_path)])
        triplets = data_io.parse_triplet_list(capsys.readouterr().out)
        assert rc == 0
        assert len(triplets) == 6
        ds = data_io.read_dataset(workdir["dataset"])
        for t in triplets:
            anchor, positive, negative = (
                ds.get(i).class_label
                for i in (t.anchor_id, t.positive_id, t.negative_id))
            assert anchor == positive != negative

    @pytest.mark.parametrize("loss", ["contrastive", "angular"])
    def test_prints_the_first_batch_train_draws(self, workdir, capsys,
                                                tmp_path, monkeypatch, loss):
        doc = copy.deepcopy(TINY_CONFIG)
        doc["train"].update(batch_size=6, batches_per_epoch=1,
                            loss={"kind": loss})
        config_path = str(tmp_path / "one_batch.json")
        with open(config_path, "w") as fh:
            json.dump(doc, fh)
        drawn = []
        draw_batch = train_mod.draw_batch

        def recorded(table, cfg, size, rng):
            rows, labels = draw_batch(table, cfg, size, rng)
            drawn.append([[table.dataset.ids[r] for r in row]
                          + ([] if labels is None else [str(labels[i])])
                          for i, row in enumerate(rows)])
            return rows, labels

        monkeypatch.setattr(train_mod, "draw_batch", recorded)
        assert cli.main(["train", "--train-data", workdir["dataset"],
                         "--output", str(tmp_path / "m.ckpt"),
                         "--config", config_path, "--seed", "3"]) == 0
        monkeypatch.undo()
        assert len(drawn) == 2  # the validation batch, then the one step's
        capsys.readouterr()
        assert cli.main(["sample-pairs", "--data", workdir["dataset"],
                         "--config", config_path, "--seed", "3",
                         "--count", "6"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(",") for line in printed] == drawn[1]

    def test_set_up_train_refuses_fails_before_printing(self, workdir,
                                                        capsys, tmp_path):
        config_path = tmp_path / "no_in_class_pool.json"
        config_path.write_text(json.dumps(
            {"sampler": {"n_candidates": 100, "in_class_fraction": 0.8}}))
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--config", str(config_path)])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert "in_class_fraction 0.8" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_two_fails_with_one_line(self, workdir, capsys,
                                                 count):
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--count", count])
        captured = fails_with_one_line(capsys, rc, "ConfigError")
        assert captured.err == \
            f"error: ConfigError: --count must be >= 2, got {count}\n"
        assert captured.out == ""


class TestCommonFlags:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    @pytest.mark.parametrize("command", [
        ["query", "--embeddings", "{dir}", "--id", "x"],
        ["ingest", "--format", "idx", "--images", "{dir}", "--labels",
         "{dir}", "--output", "{out}"],
        ["train", "--train-data", "{dir}", "--output", "{out}"],
    ], ids=["query", "ingest", "train"])
    def test_directory_for_an_input_file_fails_with_one_line(
            self, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        rc = cli.main([arg.format(dir=folder, out=out) for arg in command])
        err = fails_with_one_line(capsys, rc, "IsADirectory").err
        assert err == f"error: IsADirectory: {folder}\n"
        assert not out.exists()


    @pytest.fixture
    def nothing_read(self, monkeypatch):
        """Every input reader and the training run fail if called."""
        def unread(*args, **kwargs):
            raise AssertionError("input read before the output was checked")
        for module, name in ((data_io, "read_dataset"),
                             (data_io, "load_idx_files"),
                             (net, "load_checkpoint"), (train_mod, "train")):
            monkeypatch.setattr(module, name, unread)

    @pytest.mark.parametrize("command", [
        ["train", "--train-data", "in.dset", "--output", "{out}"],
        ["train", "--train-data", "in.dset", "--output", "{tmp}/ok.ckpt",
         "--log", "{out}"],
        ["embed", "--checkpoint", "m.ckpt", "--data", "in.dset",
         "--output", "{out}"],
        ["ingest", "--format", "idx", "--images", "i.gz", "--labels", "l.gz",
         "--output", "{out}"],
    ], ids=["train", "train --log", "embed", "ingest"])
    def test_output_in_a_missing_directory_refused_before_reading(
            self, tmp_path, capsys, nothing_read, command):
        out = str(tmp_path / "missing" / "out")
        rc = cli.main([arg.format(out=out, tmp=tmp_path) for arg in command])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == (f"error: ConfigError: directory of output {out!r} "
                       f"does not exist\n")
        assert os.listdir(tmp_path) == []

    def test_directory_as_output_refused_before_reading(
            self, tmp_path, capsys, nothing_read):
        rc = cli.main(["ingest", "--format", "idx", "--images", "i.gz",
                       "--labels", "l.gz", "--output", str(tmp_path),
                       "--force"])
        err = fails_with_one_line(capsys, rc, "ConfigError").err
        assert err == (f"error: ConfigError: output {str(tmp_path)!r} is a "
                       f"directory\n")


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# Every required option of each subcommand, with a value.
REQUIRED = {
    "ingest": ["--format", "idx", "--output", "x.dset"],
    "embed": ["--checkpoint", "m.ckpt", "--data", "x.dset",
              "--output", "x.emb"],
    "query": ["--embeddings", "x.emb", "--id", "x"],
    "eval": ["--embeddings", "x.emb"],
    "diag-contrast": ["--dims", "2", "--k", "1"],
    "sample-pairs": ["--data", "x.dset"],
}


def readme_options():
    """The README's per-subcommand option table, as {subcommand: options}."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.fullmatch(r"\|\s*subcommand\s*\|\s*options\s*\|", line))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, options = line.strip("|").split("|")
        table[command.strip().strip("`")] = re.findall(r"`([^`]+)`", options)
    return table


class TestOptions:
    def test_each_subcommand_takes_the_options_readme_lists(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        parsed = {name: [option for action in sub._actions
                         for option in action.option_strings
                         if option not in ("-h", "--help")]
                  for name, sub in commands.choices.items()}
        assert parsed == readme_options()

    @pytest.mark.parametrize("command, flag", [
        ("ingest", "--seed"), ("ingest", "--config"), ("embed", "--seed"),
        ("query", "--seed"), ("query", "--config"), ("query", "--force"),
        ("eval", "--seed"), ("eval", "--config"), ("eval", "--force"),
        ("diag-contrast", "--config"), ("diag-contrast", "--force"),
        ("sample-pairs", "--force"), ("sample-pairs", "--pos-fraction"),
    ])
    def test_option_the_command_does_not_read_is_refused(self, capsys,
                                                         command, flag):
        value = [] if flag == "--force" else ["1"]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *REQUIRED[command], flag, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
