import gzip
import json
import struct

import numpy as np
import pytest

from simembed import cli, data_io
from simembed.dataset import Dataset, DatasetItem

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


def make_grid_dataset(seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for c in range(3):
        for j in range(4):
            img = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
            items.append(DatasetItem(f"c{c}i{j}", img, c))
    return Dataset(tuple(items))


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
        assert [it.id for it in ds.items] == ["idx-00001", "idx-00002"]

    def test_existing_output_needs_force(self, tmp_path, capsys):
        ip, lp = self.write_idx(tmp_path)
        out = tmp_path / "out.dset"
        out.write_bytes(b"occupied")
        rc = cli.main(["ingest", "--format", "idx", "--images", ip,
                       "--labels", lp, "--output", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
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
        assert rc == 2
        assert "error: FileNotFound" in capsys.readouterr().err


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
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: k must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_id_fails_with_one_line(self, workdir, capsys):
        rc = cli.main(["query", "--embeddings", workdir["embeddings"],
                       "--id", "ghost"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: DataError:")

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
        assert rc == 2
        assert "error: DataError: query list id 'ghost'" in \
            capsys.readouterr().err

    def test_k_below_one_fails_with_one_line(self, workdir, capsys,
                                            tmp_path):
        queries = tmp_path / "q.csv"
        queries.write_text("c1i0,c1i1\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--queries", str(queries), "-k", "0"])
        assert rc == 2
        assert "error: ConfigError" in capsys.readouterr().err

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
        assert rc == 2
        assert "error: ConfigError" in capsys.readouterr().err

    def test_empty_triplet_list_rejected(self, workdir, capsys, tmp_path):
        trips = tmp_path / "t.csv"
        trips.write_text("# no triplets\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips)])
        assert rc == 2
        assert "error: DataError" in capsys.readouterr().err

    def test_unknown_triplet_id_rejected(self, workdir, capsys, tmp_path):
        trips = tmp_path / "t.csv"
        trips.write_text("ghost,c0i1,c2i0\n")
        rc = cli.main(["eval", "--embeddings", workdir["embeddings"],
                       "--triplets", str(trips)])
        assert rc == 2
        assert "error: DataError" in capsys.readouterr().err


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

    def test_bad_k_list_rejected(self, capsys):
        rc = cli.main(["diag-contrast", "--dims", "2", "--k", "abc"])
        assert rc == 2
        assert "error: ConfigError" in capsys.readouterr().err


class TestSamplePairs:
    def test_line_format_and_count(self, workdir, capsys):
        rc = cli.main(["sample-pairs", "--data", workdir["dataset"],
                       "--count", "10", "--pos-fraction", "0.5",
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


class TestCommonFlags:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
