"""Run configuration: one JSON document with ``net``, ``sampler``,
``train`` and ``metric`` sections.

Each section is built from the class it configures, and the root from
``RunConfig`` by the same walk: the keys it allows, their JSON types and
which of them are required come from the class's own fields and type
hints, and missing optional keys keep the class defaults.
Each numeric field's range also comes from the class's hints: the class
checks it when it is built (``errors.check_ranges``), and this module
reads the hints without their ranges, as plain types.
A field that is itself a config class is a nested object built the same
way: ``sampler.scorer`` is ``SamplerConfig.scorer``.  Two cases are
spelled out here: ``train.loss`` picks its class by its ``kind`` tag, and
a ``net`` section without ``branches`` is ``desk_scale_config`` of its
other keys.  A checkpoint header's net config is read by the same
:func:`parse_net_config`.

Types are strict: an int field takes a JSON integer, a float field an
integer or a finite number, a bool field only ``true`` or ``false``, and a
tuple or frozenset field a list (``input_shape`` exactly 3 items).  Unknown
keys are collected over the whole document and reported together as
sorted dotted paths (``net.branches[0].conv_layers[1].oops``).  Any other
fault (a wrong type, a missing required key, a value the class refuses)
raises one ``ConfigError`` naming its path.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import types
import typing
from dataclasses import dataclass, field, is_dataclass
from typing import Any, Callable, Mapping

from . import net
from .distance import DistanceMetric
from .errors import ConfigError
from .losses import AngularConfig, ContrastiveConfig
from .sampling import SamplerConfig
from .training import TrainConfig

_LOSS_KINDS = {"contrastive": ContrastiveConfig, "angular": AngularConfig}
_SCALARS = {int: "an integer", float: "a finite number",
            bool: "true or false", str: "a string"}


@dataclass(frozen=True)
class RunConfig:
    net: net.MultiScaleNetConfig = field(
        default_factory=net.desk_scale_config)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    metric: DistanceMetric = field(default_factory=DistanceMetric)


@functools.cache
def _schema(make: Callable) -> tuple[dict[str, Any], frozenset[str]]:
    """The type hint of each parameter of ``make`` (a config class, or a
    function returning one) and the names of those without a default."""
    hints = typing.get_type_hints(make)
    params = inspect.signature(make).parameters.values()
    return ({p.name: hints[p.name] for p in params},
            frozenset(p.name for p in params if p.default is p.empty))


def _mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be a JSON object, got {value!r}")
    return value


def _build(make: Callable, section: Any, path: str,
           offenders: list[str]) -> Any:
    """``make(**section)``, each value read as its parameter's type hint.

    ``path`` is the section's dotted path, empty for the document root,
    whose keys are then bare names.  Unknown keys go to ``offenders``.
    Once there is one, nothing more is checked for required keys or
    constructed, and None is returned: a missing key or a refusal could
    stem from the misspelt key, which the caller reports instead.
    """
    section = _mapping(section, path or "config root")
    hints, required = _schema(make)
    prefix = f"{path}." if path else ""
    offenders.extend(f"{prefix}{key}" for key in section if key not in hints)
    kwargs = {key: _value(hint, section[key], f"{prefix}{key}", offenders)
              for key, hint in hints.items() if key in section}
    if offenders:
        return None
    missing = sorted(required - kwargs.keys())
    if missing:
        raise ConfigError("missing required config keys: " + ", ".join(
            f"{prefix}{key}" for key in missing))
    try:
        return make(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _value(hint: Any, value: Any, path: str, offenders: list[str]) -> Any:
    """``value`` read as type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        arms = [arm for arm in args if arm is not type(None)]
        if len(arms) > 1:  # the loss, the one union of config classes
            return _loss(value, path, offenders)
        return _value(arms[0], value, path, offenders)
    if hint is net.MultiScaleNetConfig:
        return _net(value, path, offenders)
    if is_dataclass(hint):
        return _build(hint, value, path, offenders)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ConfigError(f"{path} must have exactly {len(args)} "
                                  f"items, got {len(value)}")
        else:
            args = args[:1] * len(value)
        return origin(_value(arg, item, f"{path}[{i}]", offenders)
                      for i, (arg, item) in enumerate(zip(args, value)))
    if hint is float:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    elif type(value) is hint:
        return value
    raise ConfigError(f"{path} must be {_SCALARS[hint]}, got {value!r}")


def _loss(section: Any, path: str, offenders: list[str]
          ) -> ContrastiveConfig | AngularConfig | None:
    section = dict(_mapping(section, path))
    kind = section.pop("kind", "contrastive")
    if not (isinstance(kind, str) and kind in _LOSS_KINDS):
        raise ConfigError(f"{path}.kind must be one of "
                          f"{', '.join(map(repr, _LOSS_KINDS))}, got {kind!r}")
    return _build(_LOSS_KINDS[kind], section, path, offenders)


def _net(section: Any, path: str, offenders: list[str]
         ) -> net.MultiScaleNetConfig | None:
    """The full net of a section with ``branches``, else the desk-scale
    net of its keys."""
    section = _mapping(section, path)
    make = net.MultiScaleNetConfig if "branches" in section \
        else net.desk_scale_config
    return _build(make, section, path, offenders)


def _refuse_unknown(offenders: list[str]) -> None:
    if offenders:
        raise ConfigError(
            "unknown config keys: " + ", ".join(sorted(offenders)))


def parse_net_config(section: Any) -> net.MultiScaleNetConfig:
    """The net section of a run config or of a checkpoint header."""
    offenders: list[str] = []
    cfg = _net(section, "net", offenders)
    _refuse_unknown(offenders)
    return cfg


def parse_run_config(document: str | Mapping[str, Any]) -> RunConfig:
    """Parse a JSON document (or an already-decoded mapping).

    The root is read by the same walk as every section, as the fields of
    ``RunConfig``; a missing section keeps its default.  Raises
    ``ConfigError`` listing every unknown key if any section contains
    one, or naming the path of any other fault.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    offenders: list[str] = []
    run = _build(RunConfig, document, "", offenders)
    _refuse_unknown(offenders)
    return run


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())
