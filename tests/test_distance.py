import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed import distance
from simembed.distance import (EUCLIDEAN, MANHATTAN, DistanceMetric,
                               lk_distance, pairwise_distances,
                               relative_contrast)
from simembed.errors import DataError, DimensionError
from simembed.retrieval import build_index, query_topk


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


def _random_index(rng, n=50, dim=4, k=2.0):
    vecs = rng.standard_normal((n, dim))
    return build_index([f"r{i:03d}" for i in range(n)], np.arange(n) % 3,
                       vecs, DistanceMetric(k))


def _tied_index(rng):
    """12 rows sharing three vectors (up to five rows each) at k = 0.25;
    ids descend with the row number, so every tie group's id order is the
    reverse of its rows.  Returns the index and the three vectors."""
    base = rng.standard_normal((3, 4))
    ids = [f"r{i:02d}" for i in range(12)][::-1]
    vecs = base[[0, 1, 2, 0, 1, 2, 0, 1, 0, 2, 1, 0]]
    return build_index(ids, np.zeros(12, dtype=np.int32), vecs,
                       DistanceMetric(0.25)), base


class TestKnn:
    def test_stored_vector_is_its_own_nearest(self, rng):
        index = _random_index(rng)
        got = distance.knn(index.vectors[7], index, 1)
        assert got[0][0] == "r007"
        assert got[0][1] == 0.0

    def test_k_clamped_to_index_size(self, rng):
        index = _random_index(rng, n=5)
        got = distance.knn(rng.standard_normal(4), index, 50)
        assert len(got) == 5

    def test_matches_full_sort(self, rng):
        index = _random_index(rng, n=50, k=0.5)
        query = rng.standard_normal(4)
        dists = distance.distances_to(index.vectors, query, index.metric)
        oracle = sorted(zip(index.ids, dists),
                        key=lambda t: (t[1], t[0]))[:10]
        got = distance.knn(query, index, 10)
        assert [i for i, _ in got] == [i for i, _ in oracle]

    def test_ties_at_the_boundary_break_on_id(self, rng):
        index, base = _tied_index(rng)
        for query in (rng.standard_normal(4), base[1]):
            dists = distance.distances_to(index.vectors, query, index.metric)
            oracle = [(i, float(d)) for i, d in
                      sorted(zip(index.ids, dists),
                             key=lambda t: (t[1], t[0]))]
            for k in range(1, index.size + 1):
                assert distance.knn(query, index, k) == oracle[:k]

    def test_k_below_one_rejected(self, rng):
        index = _random_index(rng, n=3)
        with pytest.raises(ValueError):
            distance.knn(index.vectors[0], index, 0)


class TestKnnMany:
    def test_equals_knn_per_query(self, rng):
        for k in (0.25, 0.5, 2.0):
            index = _random_index(rng, n=300, dim=6, k=k)
            queries = np.concatenate([rng.standard_normal((5, 6)),
                                      index.vectors[[0, 17, 299]]])
            for top in (1, 10, 300, 1000):
                want = [distance.knn(q, index, top) for q in queries]
                assert distance.knn_many(queries, index, top) == want
            index = replace(index, metric=DistanceMetric(1.0))
            assert distance.knn_many(queries, index, 5) == [
                distance.knn(q, index, 5) for q in queries]

    def test_boundary_ties_equal_knn(self, rng):
        index, base = _tied_index(rng)
        queries = np.concatenate([rng.standard_normal((2, 4)), base])
        for k in range(1, index.size + 1):
            assert distance.knn_many(queries, index, k) == [
                distance.knn(q, index, k) for q in queries]

    def test_float32_queries_rank_as_float64(self, rng):
        index = _random_index(rng, n=40, dim=4, k=0.25)
        queries = rng.standard_normal((3, 4)).astype(np.float32)
        assert distance.knn_many(queries, index, 7) == distance.knn_many(
            queries.astype(np.float64), index, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        index = _random_index(rng, n=10)
        queries = rng.standard_normal((3, 4))
        queries[1, 2] = bad
        with pytest.raises(DataError, match="non-finite"):
            distance.knn_many(queries, index, 3)
        with pytest.raises(DataError, match="non-finite"):
            distance.knn(queries[1], index, 3)
        with pytest.raises(DataError, match="non-finite"):
            query_topk(index, queries[1], 3)

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (1, 2, 4)])
    def test_wrong_query_shape_rejected(self, rng, shape):
        index = _random_index(rng, n=10)
        with pytest.raises(DimensionError):
            distance.knn_many(np.zeros(shape), index, 3)


def _frozen_lk_sums(points, refs, k):
    """The ``|a - b|^k`` sums as every distance function computed them
    before the blocked kernel."""
    points = np.asarray(points, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    return (np.abs(points - refs) ** k).sum(axis=1)


class TestLkSums:
    BLOCK = distance._BLOCK

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_frozen_formula(self, n, per_row, dtype):
        rng = np.random.default_rng([n, per_row])
        points = rng.standard_normal((n, 16)).astype(dtype)
        refs = rng.standard_normal((n, 16) if per_row else 16).astype(dtype)
        points[::5] = refs[::5] if per_row else refs  # coincident rows
        for k in (0.25, 0.5, 1.0, 2.0, 0.7, 3.0):
            got = distance._lk_sums(points, refs, k)
            want = _frozen_lk_sums(points, refs, k)
            assert got.dtype == np.float64 and got.shape == (n,)
            if k in (0.5, 1.0, 2.0):  # sqrt, abs and square round exactly
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            assert not got[::5].any()

    def test_every_distance_function_keeps_its_values(self, rng):
        points = rng.standard_normal((9, 5)).astype(np.float32)
        for k in (0.5, 1.0, 2.0):
            metric = DistanceMetric(k)
            want = _frozen_lk_sums(points, points[4], k) ** (1.0 / k)
            assert np.array_equal(
                distance.distances_to(points, points[4], metric), want)
            assert np.array_equal(pairwise_distances(points, metric)[4],
                                  want)
            assert [lk_distance(p, points[4], metric)
                    for p in points] == want.tolist()


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
