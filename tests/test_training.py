import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from simembed import data_io, losses, net, sampling, toydata, training, workers
from simembed.dataset import Dataset, make_dataset
from simembed.distance import DistanceMetric
from simembed.errors import ConfigError, DataError, NumericError
from simembed.losses import AngularConfig, ContrastiveConfig, TripletSample
from simembed.retrieval import build_index
from simembed.sampling import SamplerConfig
from simembed.training import TrainConfig, TrainLogRow


def tiny_net_config():
    return net.MultiScaleNetConfig(
        branches=(
            net.BranchSpec(1, (net.ConvSpec(2, 3, padding=1,
                                            pool_after=True),), 8),
            net.BranchSpec(2, (net.ConvSpec(2, 3, padding=1),), 4),
        ),
        final_embed_dim=6, input_shape=(1, 8, 8))


def quick_train_config(**overrides):
    base = dict(learning_rate=1e-3, epochs=1, batch_size=4,
                batches_per_epoch=2, val_pairs=8, val_triplets=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestRmsprop:
    def test_first_step_matches_closed_form(self):
        cfg = TrainConfig(learning_rate=0.01, rms_decay=0.9, epsilon=1e-12)
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = {"w": np.zeros(1)}
        new_params, new_state = training.rmsprop_step(params, grads, state,
                                                      cfg)
        # s = 0.1 * 1^2, step = 0.01 / sqrt(0.1) = 0.0316228
        assert new_state["w"][0] == pytest.approx(0.1)
        assert new_params["w"][0] == pytest.approx(-0.01 / math.sqrt(0.1),
                                                   rel=1e-6)
        assert new_params["w"][0] == pytest.approx(-0.0316228, abs=1e-6)

    def test_zero_gradient_leaves_params_and_decays_state(self):
        cfg = TrainConfig(learning_rate=0.5, rms_decay=0.9)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = {"w": np.array([0.4, 0.8])}
        new_params, new_state = training.rmsprop_step(params, grads, state,
                                                      cfg)
        assert np.array_equal(new_params["w"], params["w"])
        assert np.allclose(new_state["w"], [0.36, 0.72])

    def test_deterministic(self, rng):
        cfg = TrainConfig(learning_rate=0.01)
        params = {"w": rng.standard_normal(5)}
        grads = {"w": rng.standard_normal(5)}
        state = {"w": np.abs(rng.standard_normal(5))}
        a = training.rmsprop_step(params, grads, state, cfg)
        b = training.rmsprop_step(params, grads, state, cfg)
        assert np.array_equal(a[0]["w"], b[0]["w"])
        assert np.array_equal(a[1]["w"], b[1]["w"])

    def test_inputs_not_mutated(self):
        cfg = TrainConfig(learning_rate=0.1)
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([2.0])}
        state = {"w": np.array([0.5])}
        training.rmsprop_step(params, grads, state, cfg)
        assert params["w"][0] == 1.0 and state["w"][0] == 0.5

    def test_weight_decay_adds_to_gradient(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        params = {"w": np.array([2.0])}
        grads = {"w": np.zeros(1)}
        state = {"w": np.zeros(1)}
        new_params, _ = training.rmsprop_step(params, grads, state, cfg)
        # effective gradient 0.1 * 2 = 0.2 moves the weight down
        assert new_params["w"][0] < 2.0

    def test_key_mismatch_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ConfigError):
            training.rmsprop_step({"a": np.zeros(1)}, {"b": np.zeros(1)},
                                  {"a": np.zeros(1)}, cfg)

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ConfigError):
            training.rmsprop_step({"a": np.zeros(2)}, {"a": np.zeros(3)},
                                  {"a": np.zeros(2)}, cfg)

    def test_non_finite_gradient_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(NumericError):
            training.rmsprop_step({"a": np.zeros(1)},
                                  {"a": np.array([np.nan])},
                                  {"a": np.zeros(1)}, cfg)

    def test_learning_rate_override_wins(self):
        cfg = TrainConfig(learning_rate=0.01)
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = {"w": np.zeros(1)}
        hot, _ = training.rmsprop_step(params, grads, state, cfg,
                                       learning_rate=0.1)
        cold, _ = training.rmsprop_step(params, grads, state, cfg)
        assert abs(hot["w"][0]) == pytest.approx(10 * abs(cold["w"][0]),
                                                 rel=1e-9)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("batches_per_epoch", 0, "batches_per_epoch must be None or >= 1"),
        ("val_pairs", 1, "val_pairs must be >= 2"),
        ("val_triplets", 0, "val_triplets must be >= 1"),
        ("seed", -3, "seed must be >= 0"),
        ("pos_fraction", 2.5, r"pos_fraction must be in \[0, 1\], got 2.5"),
        ("pos_fraction", -0.5, r"pos_fraction must be in \[0, 1\]"),
        ("loss_metric_exponent", 0.0,
         "loss_metric_exponent must be > 0, got 0.0"),
    ])
    def test_refused_when_built(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    def test_smallest_accepted_values(self):
        TrainConfig(batches_per_epoch=1, val_pairs=2, val_triplets=1, seed=0)


class TestAugment:
    def test_no_augmentations_is_identity(self, rng):
        cfg = TrainConfig(augmentation=frozenset())
        img = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        out = training.augment(img, cfg, np.random.default_rng(0))
        assert np.array_equal(out, img)

    def test_hflip_when_rng_fires(self):
        cfg = TrainConfig(augmentation=frozenset({"hflip"}))
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        # default_rng(2).random() < 0.5 so the flip triggers
        out = training.augment(img, cfg, np.random.default_rng(2))
        assert np.array_equal(out, img[:, :, ::-1])

    def test_seeded_augment_reproducible(self, rng):
        cfg = TrainConfig(
            augmentation=frozenset({"hflip", "shift", "rotate"}))
        img = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        a = training.augment(img, cfg, np.random.default_rng(5))
        b = training.augment(img, cfg, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_shift_zero_fills(self):
        img = np.ones((1, 4, 4), dtype=np.float32)
        out = training._shift(img, 1, 0)
        assert np.all(out[0, 0] == 0)
        assert np.all(out[0, 1:] == 1)

    def test_rotate_zero_degrees_is_identity(self, rng):
        img = rng.uniform(0, 1, (1, 6, 6)).astype(np.float32)
        assert np.array_equal(training._rotate_nearest(img, 0.0), img)

    def test_unknown_augmentation_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(augmentation=frozenset({"zoom"}))


class TestTrainLoop:
    def test_zero_learning_rate_keeps_initial_weights(self, small_dataset):
        tcfg = quick_train_config(learning_rate=0.0)
        ckpt, logs = training.train(small_dataset, small_dataset,
                                    tiny_net_config(), SamplerConfig(
                                        n_candidates=3), tcfg)
        fresh = net.build_network(tiny_net_config(), seed=tcfg.seed)
        for name in fresh.parameters:
            assert np.array_equal(ckpt.parameters[name],
                                  fresh.parameters[name])

    def test_one_epoch_writes_one_log_row(self, small_dataset):
        ckpt, logs = training.train(small_dataset, small_dataset,
                                    tiny_net_config(),
                                    SamplerConfig(n_candidates=3),
                                    quick_train_config())
        assert len(logs) == 1
        row = logs[0]
        assert row.epoch == 1
        assert math.isfinite(row.mean_train_loss)
        assert math.isfinite(row.validation_loss)
        assert 0.0 <= row.triplet_accuracy <= 1.0
        assert row.elapsed_seconds >= 0
        assert ckpt.epoch == 1

    def test_seeded_rerun_is_bitwise_identical(self, small_dataset):
        cfg = quick_train_config(epochs=2, seed=3)
        runs = []
        for _ in range(2):
            ckpt, logs = training.train(small_dataset, small_dataset,
                                        tiny_net_config(),
                                        SamplerConfig(n_candidates=3,
                                                      rng_seed=1), cfg)
            runs.append((ckpt, logs))
        a, b = runs
        for name in a[0].parameters:
            assert np.array_equal(a[0].parameters[name],
                                  b[0].parameters[name])
        for ra, rb in zip(a[1], b[1]):
            assert ra.mean_train_loss == rb.mean_train_loss
            assert ra.validation_loss == rb.validation_loss
            assert ra.triplet_accuracy == rb.triplet_accuracy

    def test_siamese_arms_share_one_dropout_mask(self, small_dataset,
                                                 monkeypatch):
        # positive self-pairs without augmentation hand both arms the same
        # images, so with one mask per step both arms embed them alike
        arms = []
        real_embed_with_grad = net.embed_with_grad

        def recording(checkpoint, images, rng=None):
            out, back = real_embed_with_grad(checkpoint, images, rng=rng)
            if rng is not None:
                plain, _ = real_embed_with_grad(checkpoint, images)
                arms.append((out, plain))
            return out, back

        monkeypatch.setattr(net, "embed_with_grad", recording)
        training.train(small_dataset, small_dataset,
                       replace(tiny_net_config(), dropout_rate=0.5),
                       SamplerConfig(n_candidates=3, self_pair_fraction=1.0),
                       quick_train_config(batches_per_epoch=1,
                                          pos_fraction=1.0))
        (query_rows, query_plain), (candidate_rows, _) = arms
        assert not np.array_equal(query_rows, query_plain)  # dropout ran
        assert np.array_equal(query_rows, candidate_rows)

    def test_angular_loss_path_runs(self, small_dataset):
        cfg = quick_train_config(loss=AngularConfig())
        ckpt, logs = training.train(small_dataset, small_dataset,
                                    tiny_net_config(),
                                    SamplerConfig(n_candidates=3), cfg)
        assert len(logs) == 1
        assert math.isfinite(logs[0].mean_train_loss)

    @pytest.mark.parametrize("same, tables", [(True, 1), (False, 2)],
                             ids=["validation is training", "other"])
    def test_one_candidate_table_per_dataset(self, small_dataset,
                                             monkeypatch, same, tables):
        built = []

        def counted(dataset, cfg):
            built.append(dataset)
            return candidate_table(dataset, cfg)

        candidate_table = sampling.candidate_table
        monkeypatch.setattr(sampling, "candidate_table", counted)
        val = small_dataset if same else small_dataset.subset(
            small_dataset.ids)
        training.train(small_dataset, val, tiny_net_config(),
                       SamplerConfig(n_candidates=3), quick_train_config())
        assert len(built) == tables

    def test_single_class_data_rejected(self, small_dataset):
        one_class = small_dataset.subset(
            small_dataset.ids[r] for r in small_dataset.class_rows[0])
        with pytest.raises(DataError):
            training.train(one_class, one_class, tiny_net_config(),
                           SamplerConfig(), quick_train_config())

    @pytest.mark.parametrize("val, got", [
        (lambda ds: ds.subset(ds.ids[r] for r in ds.class_rows[0]),
         "1 of (1, 8, 8)"),
        (lambda ds: Dataset(ds.ids, ds.labels,
                            np.zeros((len(ds), 3, 8, 8), np.float32)),
         "3 of (3, 8, 8)"),
    ], ids=["one class", "other shape"])
    def test_validation_data_refused_before_the_first_step(
            self, small_dataset, monkeypatch, val, got):
        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_train_step", no_step)
        with pytest.raises(DataError) as err:
            training.train(small_dataset, val(small_dataset),
                           tiny_net_config(), SamplerConfig(n_candidates=3),
                           quick_train_config())
        assert str(err.value) == ("validation data needs at least two "
                                  "classes of (1, 8, 8) images, got " + got)


    def test_runs_on_a_read_only_dataset_from_a_file(self, tmp_path,
                                                     small_dataset):
        path = str(tmp_path / "x.dset")
        data_io.write_dataset(path, small_dataset)
        ds = data_io.read_dataset(path)
        assert not ds.images().flags.writeable
        cfg = quick_train_config(augmentation=frozenset(
            {"hflip", "shift", "rotate"}))
        from_file, _ = training.train(ds, ds, tiny_net_config(),
                                      SamplerConfig(n_candidates=3), cfg)
        in_memory, _ = training.train(small_dataset, small_dataset,
                                      tiny_net_config(),
                                      SamplerConfig(n_candidates=3), cfg)
        for name, value in in_memory.parameters.items():
            assert np.array_equal(from_file.parameters[name], value)
        vectors = net.embed(from_file, ds.images())
        assert vectors.shape == (len(ds), 6)
        assert np.array_equal(vectors,
                              net.embed(in_memory, small_dataset.images()))


class TestThreadedStep:
    """``_train_step`` embeds each siamese arm, and runs its backward, on
    a worker of its own; every parameter bit equals the one-thread step's
    at any CPU count."""

    @staticmethod
    def sequential_step(checkpoint, state, table, cfg, rng, lr):
        """The step with its arms one after another in the caller."""
        rows, labels = training.draw_batch(table, cfg, cfg.batch_size, rng)
        stacks = [np.stack([training.augment(image, cfg, rng)
                            for image in arm])
                  for arm in training._arms(table.dataset, rows)]
        mask_seed = int(rng.integers(2 ** 63))
        outputs, backwards = zip(*(net.embed_with_grad(
            checkpoint, stack, rng=np.random.default_rng(mask_seed))
            for stack in stacks))
        loss, row_grads = losses.batch_loss(
            np.concatenate(outputs), labels, training._arm_rows(outputs),
            cfg.loss, cfg.loss_metric)
        grads = {name: np.zeros_like(p)
                 for name, p in checkpoint.parameters.items()}
        for back, up in zip(backwards, np.split(row_grads, len(stacks))):
            for name, g in back(up).items():
                grads[name] += g.astype(grads[name].dtype, copy=False)
        params, new_state = training.rmsprop_step(
            checkpoint.parameters, grads, state, cfg, learning_rate=lr)
        checkpoint.parameters.update(params)
        state.update(new_state)
        return loss

    @staticmethod
    def steps(step, dataset, cfg, count=4):
        """Losses and the parameter and state bytes after ``count`` seeded
        steps of ``step``."""
        checkpoint = net.build_network(
            replace(tiny_net_config(), dropout_rate=0.25), seed=2)
        state = {name: np.zeros_like(p)
                 for name, p in checkpoint.parameters.items()}
        table = sampling.candidate_table(dataset,
                                         SamplerConfig(n_candidates=3))
        rng = np.random.default_rng(5)
        losses_ = [step(checkpoint, state, table, cfg, rng,
                        cfg.learning_rate) for _ in range(count)]
        return losses_, b"".join(
            checkpoint.parameters[name].tobytes() + state[name].tobytes()
            for name in sorted(state))

    @pytest.mark.parametrize("loss, arms", [(ContrastiveConfig(), 2),
                                            (AngularConfig(), 3)],
                             ids=["contrastive", "angular"])
    def test_steps_do_not_depend_on_the_cpu_count(self, small_dataset,
                                                  monkeypatch, loss, arms):
        """On 2 CPUs the angular loss's third arm shares a worker."""
        cfg = quick_train_config(loss=loss, augmentation=frozenset(
            {"hflip", "shift"}))
        want = self.steps(self.sequential_step, small_dataset, cfg)
        threads = []
        inner = net.embed_with_grad

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return inner(*args, **kwargs)

        monkeypatch.setattr(net, "embed_with_grad", recorded)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            threads.clear()
            assert self.steps(training._train_step, small_dataset,
                              cfg) == want
            assert [len(set(threads[i:i + arms]))
                    for i in range(0, len(threads), arms)] == \
                [min(cpus, arms)] * 4

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_a_raising_backward_raises_in_the_caller(self, small_dataset,
                                                     monkeypatch, raiser):
        """One arm's backward raises, in a worker or in the caller: the
        step raises once every worker is joined, and changes nothing."""
        inner = net.embed_with_grad

        def failing(*args, **kwargs):
            out, back = inner(*args, **kwargs)

            def backward(upstream):
                in_caller = threading.current_thread() is \
                    threading.main_thread()
                if in_caller == (raiser == "caller"):
                    raise MemoryError("no room for the arm's gradients")
                return back(upstream)

            return out, backward

        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(net, "embed_with_grad", failing)
        checkpoint = net.build_network(tiny_net_config(), seed=2)
        before = {name: p.copy() for name, p in checkpoint.parameters.items()}
        state = {name: np.zeros_like(p) for name, p in before.items()}
        table = sampling.candidate_table(small_dataset,
                                         SamplerConfig(n_candidates=3))
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="arm's gradients"):
            training._train_step(checkpoint, state, table,
                                 quick_train_config(),
                                 np.random.default_rng(5), 1e-3)
        assert threading.active_count() == threads
        for name, p in before.items():
            assert np.array_equal(checkpoint.parameters[name], p)


class TestDivergence:
    """An epoch whose loss or gradient turns non-finite ends the run before
    it is validated, and ``train`` returns its best validated checkpoint."""

    @pytest.fixture(scope="class")
    def shapes(self):
        data = toydata.make_shape_dataset(200, seed=1)
        return data.subset(data.ids[:150]), data.subset(data.ids[150:])

    # (1e30, 1): the epoch's only step is finite and leaves non-finite
    # embeddings, so the validation loss is the first to diverge
    @pytest.mark.parametrize("learning_rate, batches_per_epoch",
                             [(1e6, 3), (1e30, 3), (1e30, 1)])
    def test_first_epoch_diverging_returns_the_initial_parameters(
            self, shapes, learning_rate, batches_per_epoch):
        train_cfg = TrainConfig(learning_rate=learning_rate, epochs=2,
                                batches_per_epoch=batches_per_epoch,
                                val_pairs=16, val_triplets=16)
        with np.errstate(all="ignore"):
            ckpt, logs = training.train(*shapes, net.desk_scale_config(),
                                        SamplerConfig(n_candidates=10),
                                        train_cfg)
        assert ckpt.epoch == 0 and logs == []
        fresh = net.build_network(net.desk_scale_config(), seed=0)
        for name, value in fresh.parameters.items():
            assert np.array_equal(ckpt.parameters[name], value)


class TestInClassNegativePool:
    """Above in_class_fraction 1/2 every batch negative is a classmate
    outside the query's candidates; ``train`` refuses a set-up that leaves
    some class none, before it builds a batch."""

    @pytest.fixture(scope="class")
    def quick_start(self):
        # the README quick start: 1500 training items (150 per class) and
        # 300 held out (30 per class)
        dataset = toydata.make_shape_dataset(1800, seed=3)
        return (dataset.subset(dataset.ids[:1500]),
                dataset.subset(dataset.ids[1500:]))

    def run(self, quick_start, monkeypatch, **sampler):
        class FirstStep(Exception):
            pass

        def first_step(*args, **kwargs):
            raise FirstStep

        monkeypatch.setattr(training, "_train_step", first_step)
        train_set, held_out = quick_start
        with pytest.raises(FirstStep):  # validation batches were drawn
            training.train(train_set, held_out, net.desk_scale_config(),
                           SamplerConfig(rng_seed=0, **sampler),
                           quick_train_config())

    def test_every_classmate_a_candidate_rejected(self, quick_start,
                                                  monkeypatch):
        monkeypatch.setattr(training, "_train_step", None)  # never reached
        train_set, held_out = quick_start
        with pytest.raises(ConfigError) as err:
            training.train(train_set, held_out, net.desk_scale_config(),
                           SamplerConfig(n_candidates=100, rng_seed=0,
                                         in_class_fraction=0.8),
                           quick_train_config())
        assert "in_class_fraction 0.8" in str(err.value)
        assert "n_candidates 100" in str(err.value)
        assert "class of 30" in str(err.value)

    @pytest.mark.parametrize("fraction, n_candidates", [
        (0.8, 28),   # one classmate of 30 left outside the candidates
        (0.5, 100),  # round(0.5) == 0: negatives from other classes
        (0.3, 100),  # the default fraction
    ])
    def test_set_ups_that_leave_a_negative_run(self, quick_start,
                                               monkeypatch, fraction,
                                               n_candidates):
        self.run(quick_start, monkeypatch, n_candidates=n_candidates,
                 in_class_fraction=fraction)


def test_no_seed_stalls_at_the_collapsed_loss_after_epoch_3():
    # a collapsed embedding pays 0 on positives and 1/2 on negatives, so a
    # run stuck in collapse reports a mean train loss of 0.25
    ds = toydata.make_shape_dataset(1300, seed=99)
    train_set, val_set = ds.subset(ds.ids[:1000]), ds.subset(ds.ids[1000:])
    epoch3_losses = {}
    for seed in range(5):
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=32,
                          augmentation=frozenset({"hflip", "shift"}),
                          seed=seed, val_pairs=64, val_triplets=64)
        _, logs = training.train(train_set, val_set,
                                 net.desk_scale_config(),
                                 SamplerConfig(n_candidates=100,
                                               rng_seed=seed), cfg)
        epoch3_losses[seed] = logs[2].mean_train_loss
    stalled = {seed: loss for seed, loss in epoch3_losses.items()
               if abs(loss - 0.25) <= 0.005}
    assert not stalled, epoch3_losses


def as_dataset(images):
    """A one-class dataset of an id -> image mapping."""
    return make_dataset((item_id, image, 0)
                        for item_id, image in images.items())


class TestTripletAccuracy:
    def checkpoint(self):
        return net.build_network(tiny_net_config(), seed=0)

    def test_identical_positive_always_wins(self, rng):
        ckpt = self.checkpoint()
        images = {
            "a": rng.uniform(0, 1, (1, 8, 8)).astype(np.float32),
            "n": rng.uniform(0, 1, (1, 8, 8)).astype(np.float32),
        }
        images["p"] = images["a"].copy()
        trips = [TripletSample("a", "p", "n")]
        assert training.triplet_accuracy(ckpt, trips,
                                         as_dataset(images)) == 1.0

    def test_tie_counts_as_incorrect(self, rng):
        ckpt = self.checkpoint()
        img_a = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        img_o = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        images = {"a": img_a, "p": img_o, "n": img_o.copy()}
        trips = [TripletSample("a", "p", "n")]
        assert training.triplet_accuracy(ckpt, trips,
                                         as_dataset(images)) == 0.0

    def test_fraction_counts_mixed_outcomes(self, rng):
        ckpt = self.checkpoint()
        images = {}
        trips = []
        for i in range(2):  # winners
            a = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
            images[f"a{i}"] = a
            images[f"p{i}"] = a.copy()
            images[f"n{i}"] = rng.uniform(0, 1, (1, 8, 8)) \
                .astype(np.float32)
            trips.append(TripletSample(f"a{i}", f"p{i}", f"n{i}"))
        for i in range(2):  # ties
            a = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
            o = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
            images[f"ta{i}"] = a
            images[f"tp{i}"] = o
            images[f"tn{i}"] = o.copy()
            trips.append(TripletSample(f"ta{i}", f"tp{i}", f"tn{i}"))
        assert training.triplet_accuracy(ckpt, trips,
                                         as_dataset(images)) == 0.5

    def test_accepts_dataset_argument(self, small_dataset):
        ckpt = self.checkpoint()
        ids = list(small_dataset.ids)
        trips = [TripletSample(ids[0], ids[1], ids[-1])]
        acc = training.triplet_accuracy(ckpt, trips, small_dataset)
        assert acc in (0.0, 1.0)

    def test_empty_rejected(self, small_dataset):
        with pytest.raises(DataError):
            training.triplet_accuracy(self.checkpoint(), [], small_dataset)


class TestTopkRecall:
    def build(self, rng, n=4):
        ckpt = net.build_network(tiny_net_config(), seed=0)
        images = [rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
                  for _ in range(n)]
        vectors = net.embed(ckpt, np.stack(images))
        index = build_index([f"item{i}" for i in range(n)], np.arange(n),
                            vectors, DistanceMetric(2.0))
        return ckpt, images, index

    def test_self_query_is_rank_one(self, rng):
        ckpt, images, index = self.build(rng)
        queries = [(img, [f"item{i}"]) for i, img in enumerate(images)]
        assert training.topk_recall(ckpt, queries, index, k=1) == 1.0

    def test_counts_hits_exactly(self, rng):
        ckpt, images, index = self.build(rng)
        queries = [(images[i], [f"item{i}"]) for i in range(3)]
        queries.append((images[0], ["item3"]))  # top-1 is item0, a miss
        assert training.topk_recall(ckpt, queries, index, k=1) == 0.75

    def test_k_equals_catalog_size_recalls_everything(self, rng):
        ckpt, images, index = self.build(rng)
        queries = [(images[0], ["item3"])]
        assert training.topk_recall(ckpt, queries, index,
                                    k=index.size) == 1.0

    def test_unknown_truth_id_rejected(self, rng):
        ckpt, images, index = self.build(rng)
        with pytest.raises(DataError):
            training.topk_recall(ckpt, [(images[0], ["ghost"])], index)

    def test_empty_queries_rejected(self, rng):
        ckpt, _, index = self.build(rng)
        with pytest.raises(DataError):
            training.topk_recall(ckpt, [], index)


class TestWriteLog:
    def test_format_round_trip(self, tmp_path):
        rows = [TrainLogRow(1, 0.5, 0.25, 0.75, 1.5),
                TrainLogRow(2, 0.25, 0.125, 0.875, 2.0)]
        path = tmp_path / "log.csv"
        training.write_log(str(path), rows)
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,triplet_acc,seconds"
        assert lines[1] == "1,0.500000,0.250000,0.7500,1.500"
        assert lines[2] == "2,0.250000,0.125000,0.8750,2.000"

    def test_failed_write_keeps_old_log_and_leaves_no_tmp(
            self, tmp_path, monkeypatch, disk_fills):
        rows = [TrainLogRow(1, 0.5, 0.25, 0.75, 1.5),
                TrainLogRow(2, 0.25, 0.125, 0.875, 2.0)]
        path = str(tmp_path / "log.csv")
        disk_fills(60)  # the header fits, the first row does not
        with pytest.raises(OSError, match="no space"):
            training.write_log(path, rows)
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        training.write_log(path, rows[:1])
        before = open(path, "rb").read()
        disk_fills(60)
        with pytest.raises(OSError):
            training.write_log(path, rows)
        assert os.listdir(tmp_path) == ["log.csv"]
        assert open(path, "rb").read() == before
