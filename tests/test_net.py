import json
import os
import struct
import threading

import numpy as np
import pytest

from simembed import net, workers
from simembed.container import pack_name
from simembed.errors import ConfigError, DimensionError, FormatError


def tiny_config(dropout=0.0):
    return net.MultiScaleNetConfig(
        branches=(
            net.BranchSpec(1, (net.ConvSpec(2, 3, padding=1,
                                            pool_after=True),), 8),
            net.BranchSpec(2, (net.ConvSpec(2, 3, padding=1),), 4),
        ),
        final_embed_dim=6, input_shape=(1, 8, 8), dropout_rate=dropout)


class TestConfig:
    def test_desk_scale_builds_with_final_dim_64(self):
        cfg = net.desk_scale_config()
        ckpt = net.build_network(cfg, seed=0)
        out = net.embed(ckpt, np.zeros((1, 1, 28, 28), dtype=np.float32))
        assert out.shape == (1, 64)

    def test_desk_scale_branch_dims_keep_8_2_1_ratio(self):
        cfg = net.desk_scale_config()
        dims = sorted((b.branch_embed_dim for b in cfg.branches),
                      reverse=True)
        assert dims == [64, 16, 8]

    def test_needs_exactly_one_full_resolution_branch(self):
        with pytest.raises(ConfigError):
            net.MultiScaleNetConfig(
                branches=(net.BranchSpec(2, (net.ConvSpec(2, 3),), 4),),
                final_embed_dim=4, input_shape=(1, 8, 8))

    def test_kernel_larger_than_downsampled_input_rejected(self):
        cfg = net.MultiScaleNetConfig(
            branches=(
                net.BranchSpec(1, (net.ConvSpec(2, 3),), 4),
                net.BranchSpec(4, (net.ConvSpec(2, 5),), 4),
            ),
            final_embed_dim=4, input_shape=(1, 8, 8))
        with pytest.raises(ConfigError):
            net.parameter_shapes(cfg)

    def test_dropout_range_validated(self):
        with pytest.raises(ConfigError):
            net.MultiScaleNetConfig(
                branches=(net.BranchSpec(1, (net.ConvSpec(2, 3),), 4),),
                final_embed_dim=4, input_shape=(1, 8, 8), dropout_rate=1.0)


class TestBuild:
    def test_same_seed_same_parameters(self):
        cfg = tiny_config()
        a = net.build_network(cfg, seed=9)
        b = net.build_network(cfg, seed=9)
        assert set(a.parameters) == set(b.parameters)
        for name in a.parameters:
            assert np.array_equal(a.parameters[name], b.parameters[name])

    def test_different_seed_different_parameters(self):
        cfg = tiny_config()
        a = net.build_network(cfg, seed=1)
        b = net.build_network(cfg, seed=2)
        assert any(not np.array_equal(a.parameters[n], b.parameters[n])
                   for n in a.parameters)

    def test_biases_start_at_zero(self):
        ckpt = net.build_network(tiny_config(), seed=0)
        for name, value in ckpt.parameters.items():
            if name.endswith(".bias"):
                assert np.all(value == 0)

    def test_parameters_match_declared_shapes(self):
        cfg = tiny_config()
        shapes = net.parameter_shapes(cfg)
        ckpt = net.build_network(cfg, seed=0)
        assert {n for n, _ in shapes} == set(ckpt.parameters)
        for name, shape in shapes:
            assert ckpt.parameters[name].shape == shape


class TestEmbed:
    def test_rows_are_unit_norm(self, rng):
        ckpt = net.build_network(tiny_config(), seed=0)
        x = rng.uniform(0, 1, (5, 1, 8, 8)).astype(np.float32)
        out = net.embed(ckpt, x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-5)

    def test_duplicate_rows_embed_identically(self, rng):
        ckpt = net.build_network(tiny_config(), seed=0)
        img = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        out = net.embed(ckpt, np.stack([img, img]))
        assert np.array_equal(out[0], out[1])

    def test_single_image_distance_to_itself_is_zero(self, rng):
        from simembed.distance import EUCLIDEAN, lk_distance
        ckpt = net.build_network(tiny_config(), seed=0)
        x = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
        v = net.embed(ckpt, x)[0]
        assert lk_distance(v, v, EUCLIDEAN) == 0.0

    def test_chunked_embed_matches_single_pass(self, rng, monkeypatch):
        # float32 matmul reduction order shifts with batch size, so the
        # comparison is tight-tolerance rather than bitwise
        ckpt = net.build_network(tiny_config(), seed=0)
        x = rng.uniform(0, 1, (10, 1, 8, 8)).astype(np.float32)
        single = net.embed(ckpt, x)
        monkeypatch.setattr(net, "EMBED_CHUNK", 3)
        assert np.allclose(single, net.embed(ckpt, x), atol=1e-6)

    def test_wrong_input_shape_rejected(self):
        ckpt = net.build_network(tiny_config(), seed=0)
        with pytest.raises(DimensionError):
            net.embed(ckpt, np.zeros((1, 1, 7, 7), dtype=np.float32))

    @pytest.mark.parametrize("embed", [net.embed, net.embed_with_grad])
    def test_empty_batch_rejected(self, embed):
        ckpt = net.build_network(tiny_config(), seed=0)
        with pytest.raises(DimensionError, match="non-empty batch"):
            embed(ckpt, np.zeros((0, 1, 8, 8), dtype=np.float32))

    def test_training_dropout_changes_output_but_not_inference(self, rng):
        ckpt = net.build_network(tiny_config(dropout=0.5), seed=0)
        x = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        inference = net.embed(ckpt, x)
        again = net.embed(ckpt, x)
        assert np.array_equal(inference, again)
        out_a, _ = net.embed_with_grad(ckpt, x, rng=np.random.default_rng(1))
        out_b, _ = net.embed_with_grad(ckpt, x, rng=np.random.default_rng(2))
        assert not np.array_equal(out_a, out_b)

    def test_backward_produces_grad_for_every_parameter(self, rng):
        ckpt = net.build_network(tiny_config(), seed=0)
        x = rng.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        out, back = net.embed_with_grad(ckpt, x)
        grads = back(np.ones_like(out))
        assert set(grads) == set(ckpt.parameters)
        for name, g in grads.items():
            assert g.shape == ckpt.parameters[name].shape
            assert np.all(np.isfinite(g))

    def test_tape_free_embed_equals_embed_with_grad(self, rng, monkeypatch):
        ckpt = net.build_network(net.desk_scale_config(), seed=4)
        x = rng.uniform(0, 1, (40, 1, 28, 28)).astype(np.float32)
        out, _ = net.embed_with_grad(ckpt, x)
        assert net.embed(ckpt, x).tobytes() == out.tobytes()
        chunks = [net.embed_with_grad(ckpt, x[i:i + 16])[0]
                  for i in range(0, 40, 16)]
        monkeypatch.setattr(net, "EMBED_CHUNK", 16)
        assert net.embed(ckpt, x).tobytes() \
            == np.concatenate(chunks).tobytes()

    @pytest.fixture(scope="class")
    def desk(self):
        """A desk-scale net and 389 images: three chunks of 128 and five."""
        ckpt = net.build_network(net.desk_scale_config(), seed=6)
        rng = np.random.default_rng(6)
        return ckpt, rng.uniform(0, 1, (3 * 128 + 5, 1, 28, 28)).astype(
            np.float32)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 3 * 128 + 5])
    def test_embed_does_not_depend_on_the_cpu_count(self, desk, n,
                                                    monkeypatch):
        """The same bits from 1, 2, 3 and 8 workers, each chunk's rows in
        place, and one thread per run of chunks."""
        ckpt, x = desk
        threads = set()
        inner = net._forward

        def recorded(*args):
            threads.add(threading.current_thread())
            return inner(*args)

        monkeypatch.setattr(net, "_forward", recorded)
        outs = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            threads.clear()
            outs.append(net.embed(ckpt, x[:n]))
            assert len(threads) == min(cpus, -(-n // 128))
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)
        chunks = [net.embed_with_grad(ckpt, x[i:min(i + 128, n)])[0]
                  for i in range(0, n, 128)]
        assert outs[0].tobytes() == np.concatenate(chunks).tobytes()

    def test_one_chunk_starts_no_thread(self, desk, monkeypatch):
        ckpt, x = desk
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        monkeypatch.setattr(threading.Thread, "start", None)
        assert net.embed(ckpt, x[:128]).shape == (128, 64)

    def test_images_are_checked_before_any_thread(self, desk, monkeypatch):
        ckpt, x = desk
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        monkeypatch.setattr(threading.Thread, "start", None)
        with pytest.raises(DimensionError, match="configured input"):
            net.embed(ckpt, x[:, :, :27])

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_a_raising_chunk_raises_in_the_caller(self, desk, cpus,
                                                  monkeypatch):
        """The third chunk's forward raises, in a worker or in the caller;
        ``embed`` raises it once every worker has been joined."""
        ckpt, x = desk
        x = x.copy()
        x[256, 0, 0, 0] = -1.0  # marks the first image of the third chunk
        inner = net._forward

        def failing(checkpoint, images):
            if images[0, 0, 0, 0] == -1.0:
                raise MemoryError("no room for the third chunk")
            return inner(checkpoint, images)

        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(net, "_forward", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="third chunk"):
            net.embed(ckpt, x)
        assert threading.active_count() == before

    def test_backward_covers_branches_that_start_with_a_downsample(self,
                                                                   rng):
        cfg = net.desk_scale_config()
        assert [b.input_downsample_factor for b in cfg.branches] == [1, 2, 4]
        ckpt = net.build_network(cfg, seed=4)
        x = rng.uniform(0, 1, (6, 1, 28, 28)).astype(np.float32)
        out, back = net.embed_with_grad(ckpt, x, rng=np.random.default_rng(0))
        grads = back(rng.standard_normal(out.shape).astype(np.float32))
        assert set(grads) == set(ckpt.parameters)
        for name, g in grads.items():
            assert g.shape == ckpt.parameters[name].shape
            assert g.dtype == np.float32
            assert np.all(np.isfinite(g))
        for bi in range(3):
            assert np.any(grads[f"branch{bi}.conv0.weight"] != 0)

    def test_whole_net_gradient_against_finite_difference(self):
        cfg = tiny_config()
        ckpt = net.build_network(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (2, 1, 8, 8))
        out, back = net.embed_with_grad(ckpt, x)
        upstream = rng.standard_normal(out.shape)
        grads = back(upstream)

        def objective():
            o, _ = net.embed_with_grad(ckpt, x)
            return float((o * upstream).sum())

        step = 1e-5
        worst = 0.0
        for name, g in grads.items():
            flat = ckpt.parameters[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(5, flat.size),
                               replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + step
                f_plus = objective()
                flat[i] = orig - step
                f_minus = objective()
                flat[i] = orig
                num = (f_plus - f_minus) / (2 * step)
                ana = float(g.reshape(-1)[i])
                rel = abs(ana - num) / max(abs(ana), abs(num), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-3, worst


def checkpoint_fields(blob):
    """(offset, struct format) of the length fields of a saved checkpoint:
    the header length, the parameter count and the first block's name
    length, rank and first dim."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    count_at = 20 + header_len
    (name_len,) = struct.unpack_from("<H", blob, count_at + 8)
    rank_at = count_at + 10 + name_len
    return {"header length": (12, "<Q"), "parameter count": (count_at, "<Q"),
            "name length": (count_at + 8, "<H"), "rank": (rank_at, "<I"),
            "dims": (rank_at + 4, "<Q")}


def beyond(field, value, refusal):
    """A case of ``test_length_beyond_the_file_rejected`` with the refusal
    it must raise, under its ``<field>-<value>`` id."""
    return pytest.param(field, value, refusal, id=f"{field}-{value}")


def with_header(blob, edit):
    """``blob`` with its JSON header passed through ``edit`` and its
    header length field rewritten to match."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + header_len])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    return (blob[:12] + struct.pack("<Q", len(text)) + text
            + blob[20 + header_len:])


class TestCheckpointFile:
    def test_round_trip_bitwise(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        ckpt.epoch = 3
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        loaded = net.load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.rng_seed == ckpt.rng_seed
        assert loaded.epoch == 3
        for name in ckpt.parameters:
            assert np.array_equal(loaded.parameters[name],
                                  ckpt.parameters[name])

    def test_save_is_deterministic(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        net.save_checkpoint(ckpt, a)
        net.save_checkpoint(ckpt, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            net.load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(FormatError):
            net.load_checkpoint(str(cut))

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        blob = open(path, "rb").read()
        padded = tmp_path / "pad.ckpt"
        padded.write_bytes(blob + b"x")
        with pytest.raises(FormatError):
            net.load_checkpoint(str(padded))

    @pytest.mark.parametrize("field, value, refusal", [
        beyond("header length", 2 ** 40, "truncated"),
        beyond("parameter count", 2 ** 60,
               "parameter count 1152921504606846976, config implies 10"),
        beyond("name length", 0xFFFF, "truncated"),
        beyond("rank", 2 ** 32 - 1, "rank of branch0.conv0.weight "
                                    "4294967295, config implies 4"),
        beyond("rank", 2 ** 28, "rank of branch0.conv0.weight "
                                "268435456, config implies 4"),
        beyond("dims", 2 ** 33, "dims of branch0.conv0.weight "
                                "(8589934592, 1, 3, 3), config implies "
                                "(2, 1, 3, 3)")])
    def test_length_beyond_the_file_rejected(self, tmp_path, field, value,
                                             refusal):
        # each would otherwise ask for gigabytes before reading them
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        blob = bytearray(open(path, "rb").read())
        offset, fmt = checkpoint_fields(blob)[field]
        struct.pack_into(fmt, blob, offset, value)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            net.load_checkpoint(str(bad))
        assert refusal in str(err.value)

    def test_non_utf8_block_name_rejected(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        blob = bytearray(open(path, "rb").read())
        offset, _ = checkpoint_fields(blob)["name length"]
        blob[offset + 2] = 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match=r"bad\.ckpt: name of block 0 is not UTF-8"):
            net.load_checkpoint(str(bad))

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(bogus=1),
         "unknown config keys: net.bogus"),
        (lambda h: h["config"]["branches"][0]["conv_layers"][0].update(
            oops=2), "unknown config keys: net.branches[0].conv_layers[0]"
                     ".oops"),
        (lambda h: h["config"].update(final_embed_dim="6"),
         "net.final_embed_dim must be an integer"),
        (lambda h: h["config"]["branches"][0]["conv_layers"][0].update(
            pool_after=1), "net.branches[0].conv_layers[0].pool_after must "
                           "be true or false"),
        (lambda h: h["config"].update(input_shape=[8, 8]),
         "net.input_shape must have exactly 3 items"),
        (lambda h: h.pop("rng_seed"), "'rng_seed'"),
    ])
    def test_bad_header_rejected(self, tmp_path, edit, message):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(open(path, "rb").read(), edit))
        with pytest.raises(FormatError) as err:
            net.load_checkpoint(str(bad))
        assert str(err.value).startswith(f"bad checkpoint header: {message}")

    @pytest.mark.parametrize("field, value", [
        ("epoch", "three"), ("epoch", -1), ("epoch", True),
        ("rng_seed", 1.5), ("rng_seed", None)])
    def test_counts_other_than_non_negative_integers_rejected(
            self, tmp_path, field, value):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(ckpt, str(path))
        path.write_bytes(with_header(path.read_bytes(),
                                     lambda h: h.update({field: value})))
        refusal = f"{field} must be a non-negative integer, got {value!r}"
        with pytest.raises(FormatError) as err:
            net.load_checkpoint(str(path))
        assert str(err.value) == f"bad checkpoint header: {refusal}"
        setattr(ckpt, field, value)
        with pytest.raises(ConfigError) as err:
            net.save_checkpoint(ckpt, str(tmp_path / "again.ckpt"))
        assert str(err.value) == refusal
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_failed_save_leaves_no_file(self, tmp_path):
        # the last block has the implied shape but no float32 form, so the
        # save fails after the blocks before it are written
        ckpt = net.build_network(tiny_config(), seed=5)
        ckpt.parameters["head.bias"] = np.array([object()] * 6)
        with pytest.raises(TypeError):
            net.save_checkpoint(ckpt, str(tmp_path / "model.ckpt"))
        assert os.listdir(tmp_path) == []

    def test_parameters_go_in_the_order_the_config_implies(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        in_order, reversed_ = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_checkpoint(ckpt, str(in_order))
        ckpt.parameters = dict(reversed(ckpt.parameters.items()))
        net.save_checkpoint(ckpt, str(reversed_))
        assert reversed_.read_bytes() == in_order.read_bytes()

    @pytest.mark.parametrize("edit, refusal", [
        (lambda p: p.update({"head.bias": np.zeros(3, np.float32)}),
         "shape of parameter 'head.bias' (3,), config implies (6,)"),
        (lambda p: p.pop("head.bias"),
         "shape of parameter 'head.bias' none, config implies (6,)"),
        (lambda p: p.update(extra=np.zeros(1, np.float32)),
         "shape of parameter 'extra' (1,), config implies none"),
    ], ids=["misshapen", "missing", "extra"])
    def test_parameters_other_than_the_config_implies_not_saved(
            self, tmp_path, edit, refusal):
        ckpt = net.build_network(tiny_config(), seed=5)
        edit(ckpt.parameters)
        with pytest.raises(DimensionError) as err:
            net.save_checkpoint(ckpt, str(tmp_path / "model.ckpt"))
        assert str(err.value) == refusal
        assert os.listdir(tmp_path) == []

    def test_loaded_parameters_are_writable(self, tmp_path):
        ckpt = net.build_network(tiny_config(), seed=5)
        path = str(tmp_path / "model.ckpt")
        net.save_checkpoint(ckpt, path)
        loaded = net.load_checkpoint(path)
        name = next(iter(loaded.parameters))
        loaded.parameters[name][...] = 0  # must not raise

    @staticmethod
    def _saved_with(tmp_path, edit):
        """A checkpoint file whose parameter blocks are the tiny net's
        ``(name, array)`` pairs passed through ``edit``, written here in
        the block layout, as ``save_checkpoint`` refuses them."""
        ckpt = net.build_network(tiny_config(), seed=5)
        path = tmp_path / "edited.ckpt"
        net.save_checkpoint(ckpt, str(path))
        blob = path.read_bytes()
        blocks = edit(list(ckpt.parameters.items()))
        count_at, _ = checkpoint_fields(blob)["parameter count"]
        path.write_bytes(blob[:count_at] + struct.pack("<Q", len(blocks))
                         + b"".join(pack_name(name) + struct.pack(
                             f"<I{value.ndim}Q", value.ndim, *value.shape)
                             + value.astype("<f4").tobytes()
                             for name, value in blocks))
        return str(path)

    @pytest.mark.parametrize("edit, refusal", [
        (lambda blocks: [("branch0.conv0.kernel", blocks[0][1]),
                         *blocks[1:]],
         "name of block 0 'branch0.conv0.kernel', config implies "
         "'branch0.conv0.weight'"),
        # the two conv biases have one shape, so only the order tells
        (lambda blocks: [*blocks[:1], blocks[5], *blocks[2:5], blocks[1],
                         *blocks[6:]],
         "name of block 1 'branch1.conv0.bias', config implies "
         "'branch0.conv0.bias'"),
        (lambda blocks: [*blocks[:-1], ("head.bias", np.zeros(7))],
         "dims of head.bias (7,), config implies (6,)"),
        (lambda blocks: blocks[:-1], "parameter count 9, config implies 10"),
        (lambda blocks: [*blocks, ("extra", np.zeros(1))],
         "parameter count 11, config implies 10"),
    ], ids=["renamed", "swapped", "dim", "one short", "one long"])
    def test_blocks_other_than_the_config_implies_rejected(
            self, tmp_path, edit, refusal):
        with pytest.raises(FormatError) as err:
            net.load_checkpoint(self._saved_with(tmp_path, edit))
        assert str(err.value) == refusal

    def test_earlier_checkpoint_loads_and_resaves_bytewise(self, tmp_path):
        # saved before the reader checked each block against the config
        # as it read it; the file format is the same
        earlier = os.path.join(os.path.dirname(__file__), "data",
                               "tiny_v1.ckpt")
        loaded = net.load_checkpoint(earlier)
        assert loaded.config == tiny_config(dropout=0.25)
        assert (loaded.rng_seed, loaded.epoch) == (7, 3)
        again = tmp_path / "again.ckpt"
        net.save_checkpoint(loaded, str(again))
        with open(earlier, "rb") as fh:
            assert again.read_bytes() == fh.read()
