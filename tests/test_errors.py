"""The range rule of ``errors``: ``Range`` membership and wording,
``check_ranges`` on config fields, and every function argument and CLI
option that refuses a number through ``Range.check``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np
import pytest

from simembed import cli, ops, retrieval, sampling, toydata
from simembed.distance import DistanceMetric, knn_many
from simembed.errors import ConfigError, Range, check_ranges

HUGE = 10 ** 400  # beyond float range, as a JSON integer may be


class TestRangeMembership:
    @pytest.mark.parametrize("bound, inside, outside", [
        (Range(0, 1), [0, 0.5, 1], [-1e-9, 1 + 1e-9]),
        (Range(0, 1, "()"), [1e-9, 0.5, 1 - 1e-9], [0, 1]),
        (Range(0, 1, "[)"), [0, 0.999], [1]),
        (Range(0, 1, "(]"), [1, 0.001], [0]),
        (Range(0, ends="()"), [5e-324, 1e308], [0, -1]),
        (Range(2), [2, 3, 1e300], [1, 1.999]),
    ])
    def test_open_and_closed_ends(self, bound, inside, outside):
        assert all(value in bound for value in inside)
        assert not any(value in bound for value in outside)

    @pytest.mark.parametrize("bound", [
        Range(0), Range(0, 1), Range(-math.inf), Range(-math.inf, math.inf),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       np.float32(np.inf), np.float64("nan")])
    def test_no_range_holds_an_infinity_or_nan(self, bound, value):
        assert value not in bound

    def test_numpy_numbers(self):
        assert np.int64(1) in Range(1)
        assert np.int32(0) not in Range(1)
        assert np.uint8(255) in Range(0, 255)
        assert np.float32(0.5) in Range(0, 1, "[)")
        assert np.float64(1.0) not in Range(0, 1, "[)")
        assert np.float16(-0.0) in Range(0)

    def test_huge_integers_are_compared_exactly(self):
        assert HUGE in Range(1)
        assert -HUGE not in Range(0)
        assert HUGE not in Range(0, 1)
        assert -HUGE in Range(-math.inf)
        assert HUGE + 1 not in Range(0, HUGE)
        assert HUGE in Range(0, HUGE)
        assert HUGE not in Range(0, HUGE, "[)")


class TestRangeWording:
    @pytest.mark.parametrize("bound, text", [
        (Range(0), ">= 0"),
        (Range(17), ">= 17"),
        (Range(0.5), ">= 0.5"),
        (Range(0, ends="()"), "> 0"),
        (Range(0, 1), "in [0, 1]"),
        (Range(0, 1, "[)"), "in [0, 1)"),
        (Range(0, 1, "()"), "in (0, 1)"),
        (Range(0, 1, "(]"), "in (0, 1]"),
        (Range(0, 10, "[)"), "in [0, 10)"),
        (Range(0, 90, "()"), "in (0, 90)"),
    ])
    def test_each_form(self, bound, text):
        assert str(bound) == text

    def test_check_passes_a_value_in_range(self):
        assert Range(1).check("k", 1) is None
        assert Range(1).check("k", HUGE) is None

    @pytest.mark.parametrize("bound, value, message", [
        (Range(1), 0, "k must be >= 1, got 0"),
        (Range(1), math.inf, "k must be >= 1, got inf"),
        (Range(0, 1), math.nan, "k must be in [0, 1], got nan"),
        (Range(0), np.int64(-2), "k must be >= 0, got -2"),
        (Range(0), -HUGE, f"k must be >= 0, got {-HUGE}"),
    ])
    def test_check_refuses_with_the_config_wording(self, bound, value,
                                                    message):
        with pytest.raises(ConfigError) as info:
            bound.check("k", value)
        assert str(info.value) == message


@dataclass(frozen=True)
class Ranged:
    count: Annotated[int, Range(1)] = 1
    rate: Annotated[float, Range(0, 1, "[)")] = 0.5
    limit: Annotated[int | None, Range(0)] = None
    label: str = "free"

    def __post_init__(self) -> None:
        check_ranges(self)


class TestCheckRanges:
    @pytest.mark.parametrize("fields", [
        {}, {"count": np.int64(3)}, {"rate": np.float32(0.25)},
        {"rate": 0}, {"limit": 0}, {"limit": np.int16(7)}, {"count": HUGE},
        {"label": None},
    ])
    def test_accepts(self, fields):
        Ranged(**fields)

    @pytest.mark.parametrize("fields, message", [
        ({"count": True}, "count must be an integer, got True"),
        ({"rate": False}, "rate must be a number, got False"),
        ({"limit": True}, "limit must be None or an integer, got True"),
        ({"count": None}, "count must be an integer, got None"),
        ({"rate": None}, "rate must be a number, got None"),
        ({"count": 2.0}, "count must be an integer, got 2.0"),
        ({"rate": "0.5"}, "rate must be a number, got '0.5'"),
        ({"limit": 1.5}, "limit must be None or an integer, got 1.5"),
        ({"count": 0}, "count must be >= 1, got 0"),
        ({"count": -HUGE}, f"count must be >= 1, got {-HUGE}"),
        ({"rate": 1.0}, "rate must be in [0, 1), got 1.0"),
        ({"rate": math.nan}, "rate must be in [0, 1), got nan"),
        ({"limit": -1}, "limit must be None or >= 0, got -1"),
    ])
    def test_refuses(self, fields, message):
        with pytest.raises(ConfigError) as info:
            Ranged(**fields)
        assert str(info.value) == message


def _index():
    return retrieval.build_index(["a", "b"], [0, 1], np.eye(2),
                                 DistanceMetric(2.0))


def _conv(**kwargs):
    return ops.conv2d(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)),
                      np.zeros(1), **kwargs)


def _pairs(ds, batch_size, pos_fraction=0.5):
    table = sampling.candidate_table(ds, sampling.SamplerConfig(
        n_candidates=2))
    return sampling.make_pair_batch(table, batch_size, pos_fraction,
                                    np.random.default_rng(0))


def _triplets(ds, batch_size):
    table = sampling.candidate_table(ds, sampling.SamplerConfig(
        n_candidates=2))
    return sampling.make_triplet_batch(table, batch_size,
                                       np.random.default_rng(0))


def _negatives(ds, count):
    return sampling.sample_negatives("c0i0", ds, sampling.SamplerConfig(),
                                     count, np.random.default_rng(0))


def _image(class_label, size):
    return toydata.make_shape_image(class_label, size,
                                    np.random.default_rng(0))


def _grad_check(step):
    return ops.finite_diff_check(ops.relu, [np.ones((2, 2))], step=step)


# Every input names a file that does not exist, and every output a missing
# directory, so a refusal shows that the option was checked before both.
_MISSING = "no-such-dir/no-such-file"
_INGEST = ["ingest", "--format", "idx", "--images", _MISSING,
           "--labels", _MISSING, "--output", _MISSING]
_CONTRAST = ["diag-contrast", "--dims", "not-a-list", "--k", "1.0"]

ROUTED = [
    # (function of the dataset, or a command line; the refusal)
    (lambda ds: knn_many(np.zeros((1, 2)), _index(), 0),
     "k must be >= 1, got 0"),
    (lambda ds: _conv(stride=0), "stride must be >= 1, got 0"),
    (lambda ds: _conv(padding=-1), "padding must be >= 0, got -1"),
    (lambda ds: ops.downsample_avg(np.ones((1, 1, 4, 4)), 0),
     "factor must be >= 1, got 0"),
    (lambda ds: ops.dropout(np.ones(3), 1.0, None),
     "dropout rate must be in [0, 1), got 1.0"),
    (lambda ds: _grad_check(0.0), "step must be > 0, got 0.0"),
    (lambda ds: _negatives(ds, -1), "count must be >= 0, got -1"),
    (lambda ds: _pairs(ds, 1), "batch_size must be in [2, 2147483647], got 1"),
    (lambda ds: _pairs(ds, 4, 1.5), "pos_fraction must be in [0, 1], got 1.5"),
    (lambda ds: _triplets(ds, 0),
     "batch_size must be in [1, 2147483647], got 0"),
    (lambda ds: _image(10, 28), "class_label must be in [0, 10), got 10"),
    (lambda ds: _image(0, 16), "size must be >= 17, got 16"),
    ([*_INGEST, "--offset", "-1"], "--offset must be >= 0, got -1"),
    ([*_INGEST, "--limit", "-1"], "--limit must be >= 0, got -1"),
    ([*_CONTRAST, "--points", "1"],
     "--points must be in [2, 2147483647], got 1"),
    ([*_CONTRAST, "--trials", "0"], "--trials must be >= 1, got 0"),
    ([*_CONTRAST, "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["sample-pairs", "--data", _MISSING, "--count", "1"],
     "--count must be in [2, 2147483647], got 1"),
    # the same --seed refusal from every command that takes one
    (["train", "--train-data", _MISSING, "--output", _MISSING,
      "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["sample-pairs", "--data", _MISSING, "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    # values that are not finite, which bare comparisons let through
    (lambda ds: knn_many(np.zeros((1, 2)), _index(), math.inf),
     "k must be >= 1, got inf"),
    (lambda ds: _conv(stride=math.nan), "stride must be >= 1, got nan"),
    (lambda ds: _conv(padding=math.inf), "padding must be >= 0, got inf"),
    (lambda ds: ops.downsample_avg(np.ones((1, 1, 4, 4)), math.nan),
     "factor must be >= 1, got nan"),
    (lambda ds: _grad_check(math.nan), "step must be > 0, got nan"),
    (lambda ds: _grad_check(math.inf), "step must be > 0, got inf"),
    (lambda ds: _negatives(ds, math.inf), "count must be >= 0, got inf"),
    (lambda ds: _pairs(ds, math.nan),
     "batch_size must be in [2, 2147483647], got nan"),
    (lambda ds: _triplets(ds, math.inf),
     "batch_size must be in [1, 2147483647], got inf"),
    (lambda ds: _image(0, math.inf), "size must be >= 17, got inf"),
]


@pytest.mark.parametrize("call, message", ROUTED, ids=[
    "knn_many k", "conv2d stride", "conv2d padding", "downsample_avg factor",
    "dropout rate", "finite_diff_check step", "sample_negatives count",
    "make_pair_batch batch_size", "make_pair_batch pos_fraction",
    "make_triplet_batch batch_size", "make_shape_image class_label",
    "make_shape_image size", "ingest --offset", "ingest --limit",
    "diag-contrast --points", "diag-contrast --trials",
    "diag-contrast --seed", "sample-pairs --count", "train --seed",
    "sample-pairs --seed", "knn_many k=inf", "conv2d stride=nan",
    "conv2d padding=inf", "downsample_avg factor=nan",
    "finite_diff_check step=nan", "finite_diff_check step=inf",
    "sample_negatives count=inf", "make_pair_batch batch_size=nan",
    "make_triplet_batch batch_size=inf", "make_shape_image size=inf",
])
def test_routed_refusal(call, message, small_dataset, capsys):
    """Each refusal is a ``ConfigError`` with the exact text; a command
    prints it as its one line, before reading or writing any file and
    before anything reaches stdout."""
    if isinstance(call, list):
        assert cli.main(call) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ConfigError: {message}\n"
        assert captured.out == ""
    else:
        with pytest.raises(ConfigError) as info:
            call(small_dataset)
        assert str(info.value) == message
