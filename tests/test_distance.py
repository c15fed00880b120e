import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed import distance
from simembed.distance import (EUCLIDEAN, MANHATTAN, DistanceMetric,
                               lk_distance, pairwise_distances,
                               relative_contrast)
from simembed.errors import DataError, DimensionError


class TestMetric:
    def test_defaults_to_fractional(self):
        assert DistanceMetric().exponent == 0.25

    def test_constants(self):
        assert EUCLIDEAN.exponent == 2.0
        assert MANHATTAN.exponent == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_exponent_rejected(self, bad):
        with pytest.raises(ValueError):
            DistanceMetric(bad)


class TestLkDistance:
    def test_identical_points(self):
        a = np.array([0.3, -0.7, 2.0])
        assert lk_distance(a, a, DistanceMetric(0.5)) == 0.0

    def test_unit_square_diagonal(self):
        a, b = np.zeros(2), np.ones(2)
        assert math.isclose(lk_distance(a, b, EUCLIDEAN), math.sqrt(2))
        assert lk_distance(a, b, MANHATTAN) == 2.0
        assert math.isclose(lk_distance(a, b, DistanceMetric(0.5)), 4.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            lk_distance(np.zeros(2), np.zeros(3), EUCLIDEAN)

    def test_triangle_inequality_fails_for_fractional_k(self):
        """(0,0)-(1,0)-(1,1) under k=0.5: the direct path is longer than
        the detour, so L_0.5 is not a metric."""
        metric = DistanceMetric(0.5)
        a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.0]), \
            np.array([1.0, 1.0])
        direct = lk_distance(a, c, metric)
        detour = lk_distance(a, b, metric) + lk_distance(b, c, metric)
        assert direct == 4.0
        assert detour == 2.0
        assert direct > detour

    def test_float64_even_for_float32_inputs(self):
        a = np.zeros(3, dtype=np.float32)
        b = np.ones(3, dtype=np.float32)
        out = lk_distance(a, b, DistanceMetric(0.25))
        assert isinstance(out, float)
        assert math.isclose(out, 3.0 ** 4.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        k = float(rng.uniform(0.2, 3.0))
        metric = DistanceMetric(k)
        d_ab = lk_distance(a, b, metric)
        d_ba = lk_distance(b, a, metric)
        assert d_ab == d_ba
        assert d_ab >= 0.0


class TestArgsortInvariance:
    def test_power_transform_preserves_ranking(self):
        """The 1/k root is monotone, so ranking by sum |d|^k equals ranking
        by the full distance; checked on 1000 random pairs."""
        rng = np.random.default_rng(77)
        for k in (0.25, 0.3, 0.5):
            metric = DistanceMetric(k)
            query = rng.standard_normal(8)
            points = rng.standard_normal((1000, 8))
            sums = (np.abs(points - query) ** k).sum(axis=1)
            dists = distance.distances_to(points, query, metric)
            assert np.array_equal(np.argsort(sums, kind="stable"),
                                  np.argsort(dists, kind="stable"))


class TestPairwise:
    def test_single_point(self):
        out = pairwise_distances(np.array([[1.0, 2.0]]), EUCLIDEAN)
        assert np.array_equal(out, [[0.0]])

    def test_exactly_symmetric(self, rng):
        pts = rng.standard_normal((6, 4))
        out = pairwise_distances(pts, DistanceMetric(0.3))
        assert np.array_equal(out, out.T)

    def test_matches_per_pair_calls(self, rng):
        pts = rng.standard_normal((5, 3))
        metric = DistanceMetric(0.7)
        out = pairwise_distances(pts, metric)
        for i in range(5):
            for j in range(5):
                assert math.isclose(out[i, j],
                                    lk_distance(pts[i], pts[j], metric),
                                    abs_tol=1e-12)


class TestRelativeContrast:
    def test_hand_value(self):
        points = np.array([[1.0, 0.0], [3.0, 0.0]])
        ref = np.zeros(2)
        assert relative_contrast(points, ref, EUCLIDEAN) == 2.0

    def test_equidistant_points(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert relative_contrast(points, np.zeros(2), EUCLIDEAN) == 0.0

    def test_all_coincident_rejected(self):
        points = np.zeros((3, 2))
        with pytest.raises(DataError):
            relative_contrast(points, np.zeros(2), EUCLIDEAN)

    def test_fractional_beats_euclidean_in_high_dim(self):
        rng = np.random.default_rng(123)
        points = rng.uniform(0.0, 1.0, (1000, 100))
        ref = rng.uniform(0.0, 1.0, 100)
        c_frac = relative_contrast(points, ref, DistanceMetric(0.3))
        c_eucl = relative_contrast(points, ref, EUCLIDEAN)
        assert c_frac > c_eucl


class TestKnn:
    def _index(self, rng, n=50, dim=4, k=2.0):
        from simembed.retrieval import EmbeddingRecord, build_index
        vecs = rng.standard_normal((n, dim))
        records = [EmbeddingRecord(f"r{i:03d}", i % 3, v)
                   for i, v in enumerate(vecs)]
        return build_index(records, DistanceMetric(k))

    def test_stored_vector_is_its_own_nearest(self, rng):
        index = self._index(rng)
        got = distance.knn(index.vectors[7], index, 1)
        assert got[0][0] == "r007"
        assert got[0][1] == 0.0

    def test_k_clamped_to_index_size(self, rng):
        index = self._index(rng, n=5)
        got = distance.knn(rng.standard_normal(4), index, 50)
        assert len(got) == 5

    def test_matches_full_sort(self, rng):
        index = self._index(rng, n=50, k=0.5)
        query = rng.standard_normal(4)
        dists = distance.distances_to(index.vectors, query, index.metric)
        oracle = sorted(zip(index.ids, dists),
                        key=lambda t: (t[1], t[0]))[:10]
        got = distance.knn(query, index, 10)
        assert [i for i, _ in got] == [i for i, _ in oracle]

    def test_ties_at_the_boundary_break_on_id(self, rng):
        from simembed.retrieval import EmbeddingRecord, build_index
        base = rng.standard_normal((3, 4))
        # up to five rows share each vector, and ids descend with the row
        # number, so every tie group's id order is the reverse of its rows
        ids = [f"r{i:02d}" for i in range(12)][::-1]
        vecs = base[[0, 1, 2, 0, 1, 2, 0, 1, 0, 2, 1, 0]]
        index = build_index([EmbeddingRecord(i, 0, v)
                             for i, v in zip(ids, vecs)], DistanceMetric(0.25))
        for query in (rng.standard_normal(4), base[1]):
            dists = distance.distances_to(index.vectors, query, index.metric)
            oracle = [(i, float(d)) for i, d in
                      sorted(zip(index.ids, dists),
                             key=lambda t: (t[1], t[0]))]
            for k in range(1, index.size + 1):
                assert distance.knn(query, index, k) == oracle[:k]

    def test_k_below_one_rejected(self, rng):
        index = self._index(rng, n=3)
        with pytest.raises(ValueError):
            distance.knn(index.vectors[0], index, 0)


class TestTripletCorrect:
    @pytest.mark.parametrize("k", [0.25, 2.0])
    def test_matches_per_triplet_oracle(self, rng, k):
        metric = DistanceMetric(k)
        vectors = rng.standard_normal((30, 8)).astype(np.float32)
        a, p, n = rng.integers(0, 30, (3, 200))
        a[0], p[0], n[0] = 0, 5, 5  # positive == negative: a tie
        got = distance.triplet_correct(vectors, a, p, n, metric)
        want = [lk_distance(vectors[i], vectors[j], metric)
                < lk_distance(vectors[i], vectors[m], metric)
                for i, j, m in zip(a, p, n)]
        assert got.dtype == bool
        assert got.tolist() == want
        assert not got[0]
