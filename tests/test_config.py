import json
import math
import re
from dataclasses import asdict, fields, is_dataclass, replace
from types import UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from simembed import config, net
from simembed.distance import DistanceMetric
from simembed.errors import ConfigError
from simembed.losses import AngularConfig, ContrastiveConfig
from simembed.sampling import BissScorer, SamplerConfig
from simembed.training import TrainConfig


def branch_net(conv=None, **overrides):
    """A net section with explicit branches; ``conv`` replaces the first
    branch's only conv layer."""
    conv = {"filters": 2, "kernel": 3, "padding": 1} if conv is None else conv
    section = {"input_shape": [1, 8, 8], "final_embed_dim": 6,
               "branches": [
                   {"input_downsample_factor": 1, "conv_layers": [conv],
                    "branch_embed_dim": 8},
                   {"input_downsample_factor": 2,
                    "conv_layers": [{"filters": 2, "kernel": 3}],
                    "branch_embed_dim": 4}]}
    return {"net": {**section, **overrides}}


class TestDefaults:
    def test_empty_document_gives_all_defaults(self):
        run = config.parse_run_config("{}")
        assert run.net.final_embed_dim == 64
        assert run.net.input_shape == (1, 28, 28)
        assert run.sampler.n_candidates == 100
        assert run.sampler.in_class_fraction == 0.3
        assert run.train.learning_rate == 1e-4
        assert isinstance(run.train.loss, ContrastiveConfig)
        assert run.metric.exponent == 0.25
        assert run.sampler.scorer.kind == "intensity_histogram"

    def test_accepts_decoded_mapping(self):
        assert config.parse_run_config({}) == config.parse_run_config("{}")


class TestOverrides:
    def test_scalar_overrides_land(self):
        run = config.parse_run_config(json.dumps({
            "train": {"learning_rate": 0.5, "epochs": 3,
                      "augmentation": ["hflip", "shift"]},
            "sampler": {"n_candidates": 7, "strategy": "random_baseline"},
            "metric": {"exponent": 0.5},
        }))
        assert run.train.learning_rate == 0.5
        assert run.train.epochs == 3
        assert run.train.augmentation == frozenset({"hflip", "shift"})
        assert run.sampler.n_candidates == 7
        assert run.sampler.strategy == "random_baseline"
        assert run.metric.exponent == 0.5

    def test_loss_kind_contrastive(self):
        run = config.parse_run_config(json.dumps({
            "train": {"loss": {"kind": "contrastive", "margin": 2.0,
                               "hinge_variant": "squared_hinge"}}}))
        assert run.train.loss == ContrastiveConfig(2.0, "squared_hinge")

    def test_loss_kind_angular(self):
        run = config.parse_run_config(json.dumps({
            "train": {"loss": {"kind": "angular", "alpha_degrees": 30.0}}}))
        assert run.train.loss == AngularConfig(30.0)

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config.parse_run_config(
                '{"train": {"loss": {"kind": "pull-push"}}}')

    def test_nested_branches_build_custom_net(self):
        run = config.parse_run_config(json.dumps({"net": {
            "input_shape": [1, 8, 8],
            "final_embed_dim": 6,
            "branches": [
                {"input_downsample_factor": 1,
                 "conv_layers": [{"filters": 2, "kernel": 3,
                                  "padding": 1, "pool_after": True}],
                 "branch_embed_dim": 8},
                {"input_downsample_factor": 2,
                 "conv_layers": [{"filters": 2, "kernel": 3, "padding": 1}],
                 "branch_embed_dim": 4},
            ]}}))
        assert run.net.final_embed_dim == 6
        assert len(run.net.branches) == 2
        assert run.net.branches[0].conv_layers[0].pool_after is True

    def test_net_without_branches_is_desk_scale(self):
        run = config.parse_run_config(json.dumps({"net": {
            "input_shape": [3, 32, 32], "final_embed_dim": 16,
            "dropout_rate": 0.1}}))
        assert run.net == net.desk_scale_config((3, 32, 32), 16, 0.1)

    def test_non_default_config_round_trips(self):
        run = config.RunConfig(
            net=net.MultiScaleNetConfig(
                branches=(
                    net.BranchSpec(1, (net.ConvSpec(3, 3, stride=2,
                                                    padding=1,
                                                    pool_after=True),
                                       net.ConvSpec(4, 1)), 5),
                    net.BranchSpec(2, (net.ConvSpec(2, 3),), 3)),
                final_embed_dim=7, input_shape=(3, 16, 16),
                dropout_rate=0.5),
            sampler=SamplerConfig(n_candidates=7, in_class_fraction=0.6,
                                  rng_seed=3, strategy="random_baseline",
                                  scorer=BissScorer("color_histogram", 8)),
            train=TrainConfig(learning_rate=0.01, epochs=4, batch_size=8,
                              loss=AngularConfig(30.0, "as_written"),
                              loss_metric_exponent=1.0,
                              augmentation=frozenset({"hflip", "rotate"}),
                              seed=9, pos_fraction=0.25, batches_per_epoch=5,
                              val_pairs=16, val_triplets=12),
            metric=DistanceMetric(0.5))
        defaults = config.RunConfig()
        for section in fields(config.RunConfig):  # every field is set
            for name in asdict(getattr(run, section.name)):
                assert getattr(getattr(run, section.name), name) != \
                    getattr(getattr(defaults, section.name), name), name
        doc = asdict(run)
        doc["train"]["loss"]["kind"] = "angular"
        assert config.parse_run_config(json.dumps(doc, default=sorted)) \
            == run

    def test_scorer_section_nested_in_sampler(self):
        run = config.parse_run_config(json.dumps({
            "sampler": {"scorer": {"kind": "color_histogram",
                                   "bins": 32}}}))
        assert run.sampler.scorer.kind == "color_histogram"
        assert run.sampler.scorer.bins == 32


class TestUnknownKeys:
    def test_single_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown config keys: extra"):
            config.parse_run_config('{"extra": 1}')

    def test_all_offenders_listed_as_dotted_paths(self):
        doc = {
            "net": {"final_embed_dim": 8, "bogus_a": 1},
            "train": {"bogus_b": 2, "loss": {"kind": "contrastive",
                                             "bogus_c": 3}},
            "sampler": {"bogus_d": 4},
            "metric": {"bogus_e": 5},
            "bogus_top": 6,
        }
        with pytest.raises(ConfigError) as err:
            config.parse_run_config(json.dumps(doc))
        message = str(err.value)
        for path in ("net.bogus_a", "train.bogus_b", "train.loss.bogus_c",
                     "sampler.bogus_d", "metric.bogus_e", "bogus_top"):
            assert path in message

    def test_removed_optimiser_and_sampler_settings_are_unknown(self):
        doc = {"train": {"rms_decay": 0.9, "epsilon": 1e-8,
                         "weight_decay": 0.0, "lr_decay": 1.0},
               "sampler": {"self_pair_fraction": 0.0}}
        with pytest.raises(ConfigError) as err:
            config.parse_run_config(json.dumps(doc))
        assert str(err.value) == (
            "unknown config keys: sampler.self_pair_fraction, "
            "train.epsilon, train.lr_decay, train.rms_decay, "
            "train.weight_decay")

    def test_offenders_sorted(self):
        with pytest.raises(ConfigError) as err:
            config.parse_run_config('{"zzz": 1, "aaa": 2}')
        message = str(err.value)
        assert message.index("aaa") < message.index("zzz")

    def test_branch_level_unknown_key_has_index_in_path(self):
        doc = {"net": {"branches": [
            {"input_downsample_factor": 1,
             "conv_layers": [{"filters": 2, "kernel": 3, "oops": 1}],
             "branch_embed_dim": 4}]}}
        with pytest.raises(ConfigError,
                           match=r"net\.branches\[0\]\.conv_layers\[0\]"
                                 r"\.oops"):
            config.parse_run_config(json.dumps(doc))


class TestMalformedInput:
    def test_invalid_json_is_config_error(self):
        with pytest.raises(ConfigError, match="JSON"):
            config.parse_run_config("{not json")

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_run_config("[1, 2]")

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_run_config('{"train": 5}')

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"train": {"epochs": 2}}')
        run = config.load_run_config(str(path))
        assert run.train.epochs == 2


class TestValueTypes:
    @pytest.mark.parametrize("doc, message", [
        ({"train": {"epochs": "x"}}, "train.epochs must be an integer"),
        ({"train": {"epochs": "3"}}, "train.epochs must be an integer"),
        ({"train": {"epochs": 2.7}}, "train.epochs must be an integer"),
        ({"train": {"epochs": True}}, "train.epochs must be an integer"),
        ({"sampler": {"n_candidates": "5"}},
         "sampler.n_candidates must be an integer"),
        ({"sampler": {"n_candidates": 2.7}},
         "sampler.n_candidates must be an integer"),
        ({"sampler": {"scorer": {"bins": "x"}}},
         "sampler.scorer.bins must be an integer"),
        ({"train": {"learning_rate": "0.1"}},
         "train.learning_rate must be a finite number"),
        ({"train": {"learning_rate": True}},
         "train.learning_rate must be a finite number"),
        ({"metric": {"exponent": "x"}}, "metric.exponent must be a finite"),
        ({"net": {"dropout_rate": float("nan")}},
         "net.dropout_rate must be a finite number"),
        ({"sampler": {"strategy": 1}}, "sampler.strategy must be a string"),
        (branch_net({"filters": 2, "kernel": 3, "pool_after": 1}),
         "net.branches[0].conv_layers[0].pool_after must be true or false"),
        ({"train": {"augmentation": "hflip"}},
         "train.augmentation must be a list"),
        ({"train": {"augmentation": ["hflip", 3]}},
         "train.augmentation[1] must be a string"),
        ({"net": {"input_shape": 5}}, "net.input_shape must be a list"),
        ({"net": {"input_shape": [1, 28]}},
         "net.input_shape must have exactly 3 items, got 2"),
        (branch_net(input_shape=[1, 8, 8, 1]),
         "net.input_shape must have exactly 3 items, got 4"),
        (branch_net(branches=5), "net.branches must be a list"),
        (branch_net(branches=[5]), "net.branches[0] must be a JSON object"),
        (branch_net(branches=[{"input_downsample_factor": 1,
                               "conv_layers": 3, "branch_embed_dim": 4}]),
         "net.branches[0].conv_layers must be a list"),
        ({"train": {"loss": 5}}, "train.loss must be a JSON object"),
        ({"sampler": {"scorer": [16]}},
         "sampler.scorer must be a JSON object"),
    ])
    def test_wrong_type_names_its_path(self, doc, message):
        with pytest.raises(ConfigError) as err:
            config.parse_run_config(json.dumps(doc))
        assert message in str(err.value)

    @pytest.mark.parametrize("doc, paths", [
        (branch_net({"kernel": 3}), "net.branches[0].conv_layers[0].filters"),
        (branch_net({"filters": 2}), "net.branches[0].conv_layers[0].kernel"),
        (branch_net({}), "net.branches[0].conv_layers[0].filters, "
                         "net.branches[0].conv_layers[0].kernel"),
        (branch_net(branches=[{"conv_layers": [{"filters": 2, "kernel": 3}],
                               "branch_embed_dim": 4}]),
         "net.branches[0].input_downsample_factor"),
        ({"net": {"branches": []}}, "net.final_embed_dim, net.input_shape"),
    ])
    def test_missing_required_key_names_its_path(self, doc, paths):
        with pytest.raises(ConfigError,
                           match="missing required config keys: ") as err:
            config.parse_run_config(json.dumps(doc))
        assert str(err.value).endswith(paths)

    @pytest.mark.parametrize("doc, message", [
        ({"train": {"loss": {"margin": -1}}},
         "train.loss: margin must be > 0"),
        ({"train": {"loss": {"hinge_variant": "cubic"}}},
         "train.loss: unknown hinge variant"),
        ({"train": {"loss": {"kind": "angular", "alpha_degrees": 100}}},
         "train.loss: alpha_degrees must be in (0, 90), got 100.0"),
        ({"metric": {"exponent": 0}},
         "metric: exponent must be > 0, got 0.0"),
        ({"train": {"batches_per_epoch": 0}},
         "train: batches_per_epoch must be None or >= 1"),
        ({"sampler": {"rng_seed": -2}}, "sampler: rng_seed must be >= 0"),
        ({"net": {"input_shape": [1, 30, 30]}},
         "net: desk-scale config needs H, W divisible by 4"),
        (branch_net({"filters": 0, "kernel": 3}),
         "net.branches[0].conv_layers[0]: filters must be in "
         "[1, 2147483647], got 0"),
        ({"train": {"pos_fraction": 2.5}},
         "train: pos_fraction must be in [0, 1], got 2.5"),
    ])
    def test_refused_value_names_its_section(self, doc, message):
        with pytest.raises(ConfigError) as err:
            config.parse_run_config(json.dumps(doc))
        assert str(err.value).startswith(message)

    def test_null_batches_per_epoch_keeps_the_default(self):
        run = config.parse_run_config('{"train": {"batches_per_epoch": null}}')
        assert run.train.batches_per_epoch is None


def _config_fields():
    """``(class, field, hint with its range)`` for every field of every
    config class reached from ``RunConfig``: through nested configs, the
    arms of a union and the items of a tuple."""
    todo, seen, found = [config.RunConfig], set(), []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for name, hint in get_type_hints(cls, include_extras=True).items():
            found.append((cls, name, hint))
            parts = [hint]
            while parts:
                part = parts.pop()
                if is_dataclass(part):
                    todo.append(part)
                elif get_origin(part) is not Annotated:
                    parts.extend(get_args(part))
    return found


CONFIG_FIELDS = _config_fields()
RANGED = [(cls, name, *get_args(hint)) for cls, name, hint in CONFIG_FIELDS
          if get_origin(hint) is Annotated]

def _first_branch(section):
    doc = branch_net()
    doc["net"]["branches"][0].update(section)
    return doc


# Where each class sits in a run config: its section's dotted path and the
# document that sets ``section`` there.
WHERE = {
    TrainConfig: ("train", lambda s: {"train": s}),
    SamplerConfig: ("sampler", lambda s: {"sampler": s}),
    BissScorer: ("sampler.scorer", lambda s: {"sampler": {"scorer": s}}),
    ContrastiveConfig: ("train.loss", lambda s: {"train": {"loss": s}}),
    AngularConfig: ("train.loss",
                    lambda s: {"train": {"loss": {"kind": "angular", **s}}}),
    DistanceMetric: ("metric", lambda s: {"metric": s}),
    net.MultiScaleNetConfig: ("net", lambda s: branch_net(**s)),
    net.BranchSpec: ("net.branches[0]", _first_branch),
    net.ConvSpec: ("net.branches[0].conv_layers[0]",
                   lambda s: branch_net({"filters": 2, "kernel": 3, **s})),
}


def _at(run, path):
    for step in re.findall(r"\w+", path):
        run = run[int(step)] if step.isdigit() else getattr(run, step)
    return run


def _edge_cases():
    """``(class, field, value, accepted)``: each finite bound of each
    declared range, one value just outside it, and for float fields NaN
    and +-inf."""
    for cls, name, base, bound in RANGED:
        number = float if float in (base, *get_args(base)) else int
        for end, mark, step in ((bound.low, bound.ends[0], -1),
                                (bound.high, bound.ends[1], 1)):
            if math.isinf(end):
                continue
            yield cls, name, number(end), mark in "[]"
            yield cls, name, (math.nextafter(end, step * math.inf)
                              if number is float else end + step), False
        if number is float:
            for value in (math.nan, math.inf, -math.inf):
                yield cls, name, value, False


EDGES = list(_edge_cases())
INTS = [(cls, name, bound) for cls, name, base, bound in RANGED
        if int in (base, *get_args(base))]


class TestRanges:
    def test_every_number_field_declares_a_range(self):
        """No ``int`` or ``float`` field, optional or not, lacks a range;
        ``bool`` and tuple fields are exempt."""
        def numeric(hint):
            arms = get_args(hint) if get_origin(hint) in (Union, UnionType) \
                else (hint,)
            return bool({int, float} & set(arms))

        unchecked = [f"{cls.__name__}.{name}"
                     for cls, name, hint in CONFIG_FIELDS if numeric(hint)]
        assert unchecked == []

    def test_each_ranged_class_has_its_section_path(self):
        assert {cls for cls, *_ in RANGED} == set(WHERE)

    @pytest.mark.parametrize(
        "cls, name, value, accepted", EDGES,
        ids=[f"{cls.__name__}.{name}={value!r}"
             for cls, name, value, _ in EDGES])
    def test_edges(self, cls, name, value, accepted):
        path, document = WHERE[cls]
        base = _at(config.parse_run_config(document({})), path)
        assert type(base) is cls
        if accepted:
            assert getattr(replace(base, **{name: value}), name) == value
            run = config.parse_run_config(document({name: value}))
            assert getattr(_at(run, path), name) == value
            return
        with pytest.raises(ConfigError) as built:
            replace(base, **{name: value})
        message = str(built.value)
        assert message.startswith(f"{name} must be ")
        assert message.endswith(f", got {value}")
        with pytest.raises(ConfigError) as parsed:
            config.parse_run_config(document({name: value}))
        if math.isfinite(value):
            assert str(parsed.value) == f"{path}: {message}"
        else:  # the reader refuses a non-finite number first
            assert str(parsed.value).startswith(f"{path}.{name} must be ")

    @pytest.mark.parametrize("build, name", [
        (lambda: TrainConfig(epochs=2.5), "epochs"),
        (lambda: SamplerConfig(n_candidates=2.5), "n_candidates"),
        (lambda: net.ConvSpec(2.5, 3), "filters")])
    def test_int_field_built_from_a_float_is_refused(self, build, name):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == f"{name} must be an integer, got 2.5"

    @pytest.mark.parametrize(
        "cls, name", [(cls, name) for cls, name, *_ in RANGED],
        ids=[f"{cls.__name__}.{name}" for cls, name, *_ in RANGED])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused(self, cls, name, value):
        path, document = WHERE[cls]
        base = _at(config.parse_run_config(document({})), path)
        with pytest.raises(ConfigError, match=(
                f"^{name} must be .*(an integer|a number), got {value}$")):
            replace(base, **{name: value})

    @pytest.mark.parametrize(
        "cls, name, bound", INTS,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in INTS])
    def test_int_field_takes_numpy_integers_and_no_float(self, cls, name,
                                                         bound):
        path, document = WHERE[cls]
        base = _at(config.parse_run_config(document({})), path)
        low = int(bound.low)
        assert getattr(replace(base, **{name: np.int64(low)}), name) == low
        for value in (low + 0.5, float(low), np.float64(low)):
            with pytest.raises(ConfigError, match=f"^{name} must be "):
                replace(base, **{name: value})
