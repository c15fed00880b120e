import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed import losses
from simembed.distance import EUCLIDEAN, DistanceMetric
from simembed.errors import DataError, DimensionError
from simembed.losses import (AngularConfig, ContrastiveConfig, TripletSample,
                             angular_loss, batch_loss, contrastive_loss,
                             squared_distance_with_grad)


def numeric_grad(f, x, step=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.reshape(-1)[i] += step
        xm = x.copy()
        xm.reshape(-1)[i] -= step
        g.reshape(-1)[i] = (f(xp) - f(xm)) / (2 * step)
    return g


class TestSquaredDistance:
    def test_euclidean_value_and_grad(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, 6.0])
        dsq, g = squared_distance_with_grad(a, b, EUCLIDEAN)
        assert dsq == 25.0
        assert np.allclose(g, 2.0 * (a - b))

    def test_coincident_returns_zero_grad(self):
        a = np.array([0.5, 0.5])
        dsq, g = squared_distance_with_grad(a, a.copy(),
                                            DistanceMetric(0.5))
        assert dsq == 0.0
        assert np.array_equal(g, np.zeros(2))

    def test_near_coincident_coordinate_zeroed(self):
        """Coordinates closer than the guard would blow up the fractional
        power; their gradient terms are dropped."""
        a = np.array([1.0, 0.5])
        b = np.array([1.0 + 1e-14, 0.0])
        _, g = squared_distance_with_grad(a, b, DistanceMetric(0.5))
        assert g[0] == 0.0
        assert g[1] != 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        k = float(rng.choice([0.5, 1.5, 2.0]))
        metric = DistanceMetric(k)
        a = rng.standard_normal(5)
        b = a + rng.choice([-1.0, 1.0], 5) * rng.uniform(0.1, 1.0, 5)
        _, g = squared_distance_with_grad(a, b, metric)
        num = numeric_grad(
            lambda x: squared_distance_with_grad(x, b, metric)[0], a)
        assert np.allclose(g, num, rtol=1e-4, atol=1e-6)


class TestContrastive:
    def test_similar_pair_is_half_squared_distance(self):
        xq = np.array([0.0, 0.0])
        xc = np.array([2.0, 0.0])
        loss, gq, gc = contrastive_loss(xq, xc, 0, ContrastiveConfig())
        assert loss == 2.0  # D=2 -> D^2/2
        assert np.array_equal(gq, -gc)

    def test_similar_coincident_zero(self):
        x = np.array([0.3, -0.1])
        loss, gq, gc = contrastive_loss(x, x.copy(), 0, ContrastiveConfig())
        assert loss == 0.0
        assert np.array_equal(gq, np.zeros(2))
        assert np.array_equal(gc, np.zeros(2))

    def test_dissimilar_inactive_hinge_as_written(self):
        # D^2 = 1.5 > margin 1 -> no loss, exactly zero gradient
        xq = np.array([0.0])
        xc = np.array([math.sqrt(1.5)])
        loss, gq, gc = contrastive_loss(xq, xc, 1, ContrastiveConfig())
        assert loss == 0.0
        assert np.array_equal(gq, np.zeros(1))
        assert np.array_equal(gc, np.zeros(1))

    def test_dissimilar_inactive_hinge_squared_variant(self):
        cfg = ContrastiveConfig(hinge_variant=losses.HINGE_SQUARED)
        xq = np.array([0.0])
        xc = np.array([1.25])
        loss, gq, _ = contrastive_loss(xq, xc, 1, cfg)
        assert loss == 0.0
        assert np.array_equal(gq, np.zeros(1))

    def test_dissimilar_coincident_pays_half_margin(self):
        x = np.array([0.7, 0.7])
        for variant in (losses.HINGE_AS_WRITTEN, losses.HINGE_SQUARED):
            cfg = ContrastiveConfig(margin=1.0, hinge_variant=variant)
            loss, _, _ = contrastive_loss(x, x.copy(), 1, cfg)
            assert loss == 0.5

    def test_variants_differ_inside_margin(self):
        xq = np.array([0.0])
        xc = np.array([0.5])  # D = 0.5, D^2 = 0.25
        as_written, _, _ = contrastive_loss(
            xq, xc, 1, ContrastiveConfig(hinge_variant="as_written"))
        squared, _, _ = contrastive_loss(
            xq, xc, 1, ContrastiveConfig(hinge_variant="squared_hinge"))
        assert math.isclose(as_written, 0.5 * (1 - 0.25))
        assert math.isclose(squared, 0.5 * (1 - 0.5) ** 2)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros(2), np.ones(2), 2,
                             ContrastiveConfig())

    @pytest.mark.parametrize("variant", ["as_written", "squared_hinge"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_gradients_match_finite_difference(self, variant, label):
        rng = np.random.default_rng(42)
        cfg = ContrastiveConfig(hinge_variant=variant)
        for _ in range(20):
            xq = rng.standard_normal(4) * 0.4
            xc = rng.standard_normal(4) * 0.4
            dsq, _ = squared_distance_with_grad(xq, xc, EUCLIDEAN)
            if label == 1:
                boundary = abs(cfg.margin - dsq) < 0.05 or \
                    abs(cfg.margin - math.sqrt(dsq)) < 0.05
                if boundary or dsq < 1e-3:
                    continue
            loss, gq, gc = contrastive_loss(xq, xc, label, cfg)
            num_q = numeric_grad(
                lambda x: contrastive_loss(x, xc, label, cfg)[0], xq)
            num_c = numeric_grad(
                lambda x: contrastive_loss(xq, x, label, cfg)[0], xc)
            assert np.allclose(gq, num_q, rtol=1e-4, atol=1e-7)
            assert np.allclose(gc, num_c, rtol=1e-4, atol=1e-7)


class TestAngular:
    def test_anchor_equals_positive_gives_zero(self):
        x = np.array([0.4, -0.2, 0.1])
        xn = np.array([5.0, 5.0, 5.0])
        loss, ga, gp, gn = angular_loss(x, x.copy(), xn, AngularConfig())
        assert loss == 0.0
        for g in (ga, gp, gn):
            assert np.array_equal(g, np.zeros(3))

    def test_hand_value_inactive(self):
        # alpha=45: x_c=(1,0), D(xa,xp)^2=4, D(xn,x_c)^2=4 -> max(0,4-16)=0
        loss, *_ = angular_loss(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                                np.array([1.0, 2.0]), AngularConfig())
        assert loss == 0.0

    def test_hand_value_active(self):
        # alpha=45: D(xn,x_c)^2=0.25 -> max(0, 4-1)=3
        loss, *_ = angular_loss(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                                np.array([1.0, 0.5]), AngularConfig())
        assert math.isclose(loss, 3.0)

    def test_as_written_variant_ignores_negative(self):
        cfg = AngularConfig(formula_variant="as_written")
        xa = np.array([0.0, 0.0])
        xp = np.array([2.0, 0.0])
        loss1, *_ = angular_loss(xa, xp, np.array([9.0, 9.0]), cfg)
        loss2, _, _, gn = angular_loss(xa, xp, np.array([-3.0, 1.0]), cfg)
        assert loss1 == loss2
        assert np.array_equal(gn, np.zeros(2))

    def test_active_gradients_sum_to_zero(self):
        """The loss depends only on differences of the three points, so a
        common translation changes nothing and the gradients cancel."""
        rng = np.random.default_rng(5)
        cfg = AngularConfig()
        found = 0
        for _ in range(50):
            xa, xp, xn = rng.standard_normal((3, 4))
            loss, ga, gp, gn = angular_loss(xa, xp, xn, cfg)
            if loss > 0:
                found += 1
                assert np.allclose(ga + gp + gn, np.zeros(4), atol=1e-12)
        assert found > 5

    @pytest.mark.parametrize("variant,alpha",
                             [("negative_to_center", 45.0),
                              ("as_written", 30.0)])
    def test_gradients_match_finite_difference(self, variant, alpha):
        # the negative sits near the anchor/positive center so the hinge
        # is active; at 45 degrees the as_written variant is identically
        # zero under Euclidean distance, hence the smaller angle there
        rng = np.random.default_rng(13)
        cfg = AngularConfig(alpha_degrees=alpha, formula_variant=variant)
        checked = 0
        for _ in range(40):
            xa, xp = rng.standard_normal((2, 4))
            xn = (xa + xp) / 2 + 0.1 * rng.standard_normal(4)
            loss, ga, gp, gn = angular_loss(xa, xp, xn, cfg)
            if abs(loss) < 0.05:  # stay away from the hinge boundary
                continue
            checked += 1
            for point, grad, idx in ((xa, ga, 0), (xp, gp, 1), (xn, gn, 2)):
                def f(x, idx=idx):
                    args = [xa, xp, xn]
                    args[idx] = x
                    return angular_loss(*args, cfg)[0]
                assert np.allclose(grad, numeric_grad(f, point),
                                   rtol=1e-4, atol=1e-7)
        assert checked >= 10


class TestSamples:
    def test_triplet_ids_must_be_distinct(self):
        with pytest.raises(ValueError):
            TripletSample("a", "a", "b")
        with pytest.raises(ValueError):
            TripletSample("a", "b", "b")

    def test_pair_label_validated(self):
        emb = np.zeros((2, 3))
        with pytest.raises(ValueError):
            contrastive_loss(emb[0], emb[1], 2, ContrastiveConfig())
        with pytest.raises(ValueError):
            batch_loss(emb, [2], [[0, 1]], ContrastiveConfig())


def reference_squared_distance(a, b, metric):
    """The one-vector formula with scalar arithmetic on the sum, as the
    per-sample loss loop computed it before losses ran over whole arms."""
    k = metric.exponent
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    absd = np.abs(d)
    s = float((absd ** k).sum())
    grad = np.zeros_like(d)
    if s == 0.0:
        return 0.0, grad
    live = absd >= losses.COINCIDENT_GUARD
    grad[live] = (2.0 * s ** (2.0 / k - 1.0)
                  * absd[live] ** (k - 1.0) * np.sign(d[live]))
    return s ** (2.0 / k), grad


def reference_contrastive(xq, xc, label, cfg, metric):
    dsq, g = reference_squared_distance(xq, xc, metric)
    zero = np.zeros_like(g)
    if label == 0:
        return 0.5 * dsq, 0.5 * g, -0.5 * g
    if cfg.hinge_variant == losses.HINGE_AS_WRITTEN:
        slack = cfg.margin - dsq
        return (0.5 * slack, -0.5 * g, 0.5 * g) if slack > 0 \
            else (0.0, zero, zero)
    dist = math.sqrt(dsq)
    slack = cfg.margin - dist
    if slack <= 0:
        return 0.0, zero, zero
    gq = -slack * g / (2 * dist) if dist > 0 else zero
    return 0.5 * slack * slack, gq, -gq


def reference_angular(xa, xp, xn, cfg, metric):
    xa, xp, xn = (np.asarray(x, dtype=np.float64) for x in (xa, xp, xn))
    center = (xa + xp) / 2.0
    scale = 4.0 * cfg.tan_alpha_sq
    dsq_ap, g_ap = reference_squared_distance(xa, xp, metric)
    zero = np.zeros_like(xa)
    if cfg.formula_variant == losses.ANGULAR_NEGATIVE_TO_CENTER:
        dsq_second, g_n = reference_squared_distance(xn, center, metric)
        grads = (g_ap + 0.5 * scale * g_n, -g_ap + 0.5 * scale * g_n,
                 -scale * g_n)
    else:
        dsq_second, g_a = reference_squared_distance(xa, center, metric)
        grads = (g_ap - scale * (g_a - 0.5 * g_a),
                 -g_ap - scale * (-0.5 * g_a), zero)
    raw = dsq_ap - scale * dsq_second
    return (0.0, zero, zero, zero) if raw <= 0 else (raw, *grads)


PER_SAMPLE = {"public": (contrastive_loss, angular_loss),
              "reference": (reference_contrastive, reference_angular)}


def per_sample_batch_loss(emb, labels, rows, cfg, metric,
                          ops=PER_SAMPLE["public"]):
    """Mean loss and row gradients summed one sample at a time."""
    pair_op, triplet_op = ops
    total = 0.0
    grads = np.zeros(emb.shape)
    for i, row in enumerate(rows):
        if isinstance(cfg, ContrastiveConfig):
            loss, *sample_grads = pair_op(emb[row[0]], emb[row[1]],
                                          int(labels[i]), cfg, metric)
        else:
            loss, *sample_grads = triplet_op(*emb[row], cfg, metric)
        total += loss
        for r, g in zip(row, sample_grads):
            grads[r] += g
    return total / len(rows), (grads / len(rows)).astype(emb.dtype)


class TestBatchLoss:
    def _rows(self):
        return np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            batch_loss(self._rows(), [], np.empty((0, 2), dtype=int),
                       ContrastiveConfig())

    def test_single_sample_equals_per_sample_op(self):
        emb = self._rows()
        mean, grads = batch_loss(emb, [0], [[0, 1]], ContrastiveConfig())
        direct, gq, gc = contrastive_loss(emb[0], emb[1], 0,
                                          ContrastiveConfig())
        assert mean == direct
        assert np.allclose(grads[0], gq)
        assert np.allclose(grads[1], gc)
        assert np.array_equal(grads[2], np.zeros(2))

    def test_mean_of_two(self):
        # losses 2.0 (rows 0-1 similar) and 0.5 (rows 2-3 dissimilar,
        # coincident)
        emb = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        mean, _ = batch_loss(emb, [0, 1], [[0, 1], [2, 3]],
                             ContrastiveConfig())
        assert mean == 1.25

    def test_row_outside_embeddings_rejected(self):
        with pytest.raises(DimensionError):
            batch_loss(self._rows(), [0], [[0, 4]], ContrastiveConfig())
        with pytest.raises(DimensionError):
            batch_loss(self._rows(), [0], [[-1, 0]], ContrastiveConfig())

    def test_sample_config_mismatch_rejected(self):
        emb = self._rows()
        with pytest.raises(DimensionError):
            batch_loss(emb, [0], [[0, 1]], AngularConfig())
        with pytest.raises(DimensionError):
            batch_loss(emb, None, [[0, 1, 2]], ContrastiveConfig())
        with pytest.raises(TypeError):
            batch_loss(emb, [0], [[0, 1]], object())

    def test_rows_and_labels_must_match_the_batch_shape(self):
        emb = self._rows()
        with pytest.raises(DimensionError):
            batch_loss(emb, [0, 1], [0, 1], ContrastiveConfig())
        with pytest.raises(DimensionError):
            batch_loss(emb[0], [0], [[0, 1]], ContrastiveConfig())
        with pytest.raises(ValueError):
            batch_loss(emb, [0, 1], [[0, 1]], ContrastiveConfig())
        with pytest.raises(ValueError):
            batch_loss(emb, [2], [[0, 1]], ContrastiveConfig())

    def test_triplet_batch(self):
        emb = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5]])
        mean, grads = batch_loss(emb, None, [[0, 1, 2]], AngularConfig())
        assert math.isclose(mean, 3.0)
        assert grads.shape == emb.shape

    def test_repeated_rows_sum_in_sample_order(self):
        emb = np.random.default_rng(2).standard_normal((3, 4))
        rows = np.array([[0, 1], [1, 2], [2, 0], [1, 1]])
        labels = np.array([0, 1, 0, 1])
        cfg = ContrastiveConfig(margin=50.0)
        mean, grads = batch_loss(emb, labels, rows, cfg)
        ref_mean, ref_grads = per_sample_batch_loss(emb, labels, rows, cfg,
                                                    EUCLIDEAN)
        assert mean == ref_mean
        assert np.array_equal(grads, ref_grads)


def _loss_batches(k, n_batches=100, size=32, dim=8):
    """Random pair/triplet batches with repeated rows, coincident rows and
    coordinates inside the 1e-12 guard."""
    rng = np.random.default_rng([77, int(k * 100)])
    for i in range(n_batches):
        emb = rng.standard_normal((3 * size, dim)) * rng.uniform(0.05, 1.0)
        emb[1] = emb[size + 1]
        emb[2, :dim // 2] = emb[size + 2, :dim // 2] + 1e-14
        if i % 2:
            emb = emb.astype(np.float32)
        rows = np.arange(3 * size).reshape(3, size).T
        if i % 3 == 0:
            rows = rng.integers(0, 3 * size, (size, 3))
        yield emb, rng.integers(0, 2, size), rows


LOSS_CONFIGS = [ContrastiveConfig(),
                ContrastiveConfig(hinge_variant="squared_hinge", margin=0.7),
                AngularConfig(),
                AngularConfig(alpha_degrees=30.0,
                              formula_variant="as_written")]


@pytest.mark.parametrize("ops", PER_SAMPLE.values(), ids=PER_SAMPLE.keys())
@pytest.mark.parametrize("cfg", LOSS_CONFIGS)
class TestVectorisedBatchLoss:
    def test_bit_identical_to_per_sample_loop_at_k2(self, cfg, ops):
        metric = DistanceMetric(2.0)
        for emb, labels, rows in _loss_batches(2.0):
            rows = rows[:, :2] if isinstance(cfg, ContrastiveConfig) \
                else rows
            mean, grads = batch_loss(emb, labels, rows, cfg, metric)
            ref_mean, ref_grads = per_sample_batch_loss(emb, labels, rows,
                                                        cfg, metric, ops)
            assert mean == ref_mean
            assert np.array_equal(grads, ref_grads)

    def test_matches_per_sample_loop_at_k_quarter(self, cfg, ops):
        metric = DistanceMetric(0.25)
        for emb, labels, rows in _loss_batches(0.25):
            rows = rows[:, :2] if isinstance(cfg, ContrastiveConfig) \
                else rows
            mean, grads = batch_loss(emb, labels, rows, cfg, metric)
            ref_mean, ref_grads = per_sample_batch_loss(emb, labels, rows,
                                                        cfg, metric, ops)
            assert mean == pytest.approx(ref_mean, rel=1e-15, abs=0.0)
            assert np.array_equal(grads, ref_grads)


class TestConfigValidation:
    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(margin=0.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            AngularConfig(alpha_degrees=0.0)
        with pytest.raises(ValueError):
            AngularConfig(alpha_degrees=90.0)

    def test_tan_alpha_sq_at_45_degrees(self):
        assert math.isclose(AngularConfig().tan_alpha_sq, 1.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(hinge_variant="cubed")
        with pytest.raises(ValueError):
            AngularConfig(formula_variant="other")
