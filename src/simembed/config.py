"""Run configuration: one JSON document covering net, sampler, train, and
metric settings.

Every field is optional and falls back to the module defaults.  Unknown
keys are rejected before any work starts, and the error names every
offending key (dotted paths), not just the first one found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from . import net
from .distance import DistanceMetric
from .errors import ConfigError
from .losses import AngularConfig, ContrastiveConfig
from .sampling import BissScorer, SamplerConfig
from .training import TrainConfig

_TOP_KEYS = {"net", "sampler", "train", "metric"}
_NET_KEYS = {"input_shape", "final_embed_dim", "dropout_rate", "branches"}
_BRANCH_KEYS = {"input_downsample_factor", "conv_layers",
                "branch_embed_dim"}
_CONV_KEYS = {"filters", "kernel", "stride", "padding", "pool_after"}
_SAMPLER_KEYS = {"n_candidates", "in_class_fraction", "rng_seed",
                 "strategy", "self_pair_fraction", "scorer"}
_SCORER_CASTS = {"kind": str, "bins": int}
_TRAIN_CASTS = {
    **dict.fromkeys(("learning_rate", "rms_decay", "epsilon",
                     "loss_metric_exponent", "weight_decay", "lr_decay",
                     "pos_fraction"), float),
    **dict.fromkeys(("epochs", "batch_size", "seed", "val_pairs",
                     "val_triplets"), int),
    "augmentation": lambda names: frozenset(str(a) for a in names)}
_TRAIN_KEYS = {"loss", "batches_per_epoch", *_TRAIN_CASTS}
_LOSSES = {
    "contrastive": (ContrastiveConfig,
                    {"margin": float, "hinge_variant": str}),
    "angular": (AngularConfig,
                {"alpha_degrees": float, "formula_variant": str})}
_METRIC_KEYS = {"exponent"}


@dataclass(frozen=True)
class RunConfig:
    net: net.MultiScaleNetConfig = field(
        default_factory=net.desk_scale_config)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    metric: DistanceMetric = field(default_factory=DistanceMetric)
    scorer: BissScorer = field(default_factory=BissScorer)


def _collect_unknown(section: Mapping[str, Any], allowed: set[str],
                     prefix: str, offenders: list[str]) -> None:
    for key in section:
        if key not in allowed:
            offenders.append(f"{prefix}{key}")


def _typed(section: Mapping[str, Any],
           casts: Mapping[str, Any]) -> dict[str, Any]:
    """The keys of ``casts`` that ``section`` sets, each passed through its
    cast."""
    return {key: cast(section[key]) for key, cast in casts.items()
            if key in section}


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be a JSON object, "
                          f"got {type(value).__name__}")
    return value


def _parse_net(section: Mapping[str, Any],
               offenders: list[str]) -> net.MultiScaleNetConfig:
    _collect_unknown(section, _NET_KEYS, "net.", offenders)
    input_shape = tuple(section.get("input_shape", (1, 28, 28)))
    final_dim = int(section.get("final_embed_dim", 64))
    if "branches" not in section:
        cfg = net.desk_scale_config(input_shape=input_shape,
                                    final_embed_dim=final_dim)
        if "dropout_rate" in section:
            cfg = replace(cfg, dropout_rate=float(section["dropout_rate"]))
        return cfg
    branches = []
    for bi, branch in enumerate(section["branches"]):
        branch = _require_mapping(branch, f"net.branches[{bi}]")
        _collect_unknown(branch, _BRANCH_KEYS, f"net.branches[{bi}].",
                         offenders)
        convs = []
        for ci, conv in enumerate(branch.get("conv_layers", ())):
            conv = _require_mapping(
                conv, f"net.branches[{bi}].conv_layers[{ci}]")
            _collect_unknown(
                conv, _CONV_KEYS,
                f"net.branches[{bi}].conv_layers[{ci}].", offenders)
            convs.append(net.ConvSpec(
                filters=int(conv["filters"]),
                kernel=int(conv["kernel"]),
                stride=int(conv.get("stride", 1)),
                padding=int(conv.get("padding", 0)),
                pool_after=bool(conv.get("pool_after", False))))
        branches.append(net.BranchSpec(
            input_downsample_factor=int(
                branch.get("input_downsample_factor", 1)),
            conv_layers=tuple(convs),
            branch_embed_dim=int(branch["branch_embed_dim"])))
    if offenders:
        # config invalid anyway; skip construction that may also throw
        return net.desk_scale_config()
    return net.MultiScaleNetConfig(
        branches=tuple(branches), final_embed_dim=final_dim,
        input_shape=input_shape,
        dropout_rate=float(section.get("dropout_rate", 0.25)))


def _parse_scorer(section: Mapping[str, Any],
                  offenders: list[str]) -> BissScorer:
    _collect_unknown(section, set(_SCORER_CASTS), "sampler.scorer.",
                     offenders)
    return BissScorer(**({} if offenders
                         else _typed(section, _SCORER_CASTS)))


def _parse_sampler(section: Mapping[str, Any], offenders: list[str]
                   ) -> tuple[SamplerConfig, BissScorer]:
    _collect_unknown(section, _SAMPLER_KEYS, "sampler.", offenders)
    scorer = BissScorer()
    if "scorer" in section:
        scorer = _parse_scorer(
            _require_mapping(section["scorer"], "sampler.scorer"),
            offenders)
    if offenders:
        return SamplerConfig(), scorer
    kwargs = {k: section[k] for k in
              ("n_candidates", "in_class_fraction", "rng_seed", "strategy",
               "self_pair_fraction") if k in section}
    return SamplerConfig(**kwargs), scorer


def _parse_loss(section: Mapping[str, Any], offenders: list[str]
                ) -> ContrastiveConfig | AngularConfig:
    kind = section.get("kind", "contrastive")
    if kind not in ("contrastive", "angular"):
        raise ConfigError("train.loss.kind must be 'contrastive' or "
                          f"'angular', got {kind!r}")
    make, casts = _LOSSES[kind]
    _collect_unknown(section, {"kind", *casts}, "train.loss.", offenders)
    return make(**({} if offenders else _typed(section, casts)))


def _parse_train(section: Mapping[str, Any],
                 offenders: list[str]) -> TrainConfig:
    _collect_unknown(section, _TRAIN_KEYS, "train.", offenders)
    loss = ContrastiveConfig()
    if "loss" in section:
        loss = _parse_loss(_require_mapping(section["loss"], "train.loss"),
                           offenders)
    if offenders:
        return TrainConfig()
    kwargs = {"loss": loss, **_typed(section, _TRAIN_CASTS)}
    if section.get("batches_per_epoch") is not None:
        kwargs["batches_per_epoch"] = int(section["batches_per_epoch"])
    return TrainConfig(**kwargs)


def parse_run_config(document: str | Mapping[str, Any]) -> RunConfig:
    """Parse a JSON document (or an already-decoded mapping).

    Raises ``ConfigError`` listing every unknown key if any section
    contains one.
    """
    if isinstance(document, str):
        try:
            decoded = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        decoded = document
    decoded = _require_mapping(decoded, "config root")

    offenders: list[str] = []
    _collect_unknown(decoded, _TOP_KEYS, "", offenders)

    net_cfg = net.desk_scale_config()
    if "net" in decoded:
        net_cfg = _parse_net(_require_mapping(decoded["net"], "net"),
                             offenders)
    sampler_cfg, scorer = SamplerConfig(), BissScorer()
    if "sampler" in decoded:
        sampler_cfg, scorer = _parse_sampler(
            _require_mapping(decoded["sampler"], "sampler"), offenders)
    train_cfg = TrainConfig()
    if "train" in decoded:
        train_cfg = _parse_train(
            _require_mapping(decoded["train"], "train"), offenders)
    metric = DistanceMetric()
    if "metric" in decoded:
        metric_section = _require_mapping(decoded["metric"], "metric")
        _collect_unknown(metric_section, _METRIC_KEYS, "metric.",
                         offenders)
        if not offenders and "exponent" in metric_section:
            metric = DistanceMetric(float(metric_section["exponent"]))

    if offenders:
        raise ConfigError(
            "unknown config keys: " + ", ".join(sorted(offenders)))
    return RunConfig(net=net_cfg, sampler=sampler_cfg, train=train_cfg,
                     metric=metric, scorer=scorer)


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())
