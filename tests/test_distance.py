import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simembed import distance, workers
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


EXPONENTS = (0.25, 0.5, 1.0, 2.0, 0.7)  # 0.7 takes the np.power path
MAX32 = float(np.finfo(np.float32).max)


def _full_sort(index, query, top):
    """The float64 oracle: every row's distance, sorted by (distance, id)."""
    dists = distance.distances_to(index.vectors, query, index.metric)
    return sorted(zip(index.ids, dists.tolist()),
                  key=lambda t: (t[1], t[0]))[:top]


@st.composite
def _hard_knn_cases(draw):
    """An index built at k = 0.25 and switched to another exponent as
    ``--metric-k`` does, at a scale where float32 differences overflow
    (1e38), squares underflow (1e-21) or neither.  Its first 16 rows are
    one vector with single coordinates moved 1 ulp, so their float32 sums
    tie or swap where the float64 ones differ; then come exact duplicates.
    Ids descend with the row, so tie order is the reverse of row order.
    The queries are stored rows, fresh float32 vectors (half of them next
    to the 1-ulp rows) and float64 vectors off the float32 grid, one of
    them within 2 ulps of the 1-ulp rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponent = draw(st.sampled_from(EXPONENTS))
    scale = draw(st.sampled_from([1.0, 1e-21, 1e38]))
    n, dim = 40, 5
    centres = rng.standard_normal((4, dim))

    def draw_vectors(count, centre=None):
        around = centres[rng.integers(4, size=count)] if centre is None \
            else centre
        x = scale * (around + 0.05 * rng.standard_normal((count, dim)))
        return np.clip(x, -MAX32, MAX32)

    rows = draw_vectors(n).astype(np.float32)
    rows[:16] = rows[0]
    moved = (np.arange(16), rng.integers(dim, size=16))
    rows[moved] = np.nextafter(rows[moved], np.where(
        rng.random(16) < 0.5, np.float32(0), np.float32(MAX32)))
    rows[30:36] = rows[rng.integers(16, 30, size=6)]
    index = build_index([f"r{i:02d}" for i in range(n)][::-1],
                        np.zeros(n, dtype=np.int32), rows,
                        DistanceMetric(0.25))
    near = rows[0] / scale
    queries = np.concatenate([
        rows[rng.integers(n, size=2)],
        draw_vectors(2, near).astype(np.float32),
        draw_vectors(2).astype(np.float32),
        # the ulp on the side of zero: np.spacing(+-MAX32) overflows
        rows[:1] + np.spacing(np.nextafter(rows[:1], np.float32(0)))
        * rng.uniform(-2, 2, dim),
        draw_vectors(1)])
    return (replace(index, metric=DistanceMetric(exponent)), queries,
            draw(st.integers(1, n)))


def _assert_equals_the_oracle(case):
    index, queries, top = case
    assert distance.knn_many(queries, index, top) == [
        _full_sort(index, q, top) for q in queries]


class TestFloat32Scan:
    @given(_hard_knn_cases())
    @settings(deadline=None, max_examples=300)
    def test_equals_the_float64_oracle(self, case):
        _assert_equals_the_oracle(case)

    @given(_hard_knn_cases())
    @settings(deadline=None, max_examples=150)
    def test_equals_the_float64_oracle_across_blocks_and_workers(self, case):
        """The same cases in blocks of 7 rows split over 3 workers, so a
        case's 40 rows cross both kinds of boundary."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distance, "_BLOCK", 7)
            patch.setattr(workers, "usable_cpus", lambda: 3)
            _assert_equals_the_oracle(case)

    @pytest.fixture(scope="class")
    def clustered(self):
        """20k unit-norm float32 rows around 100 centres, 64 wide."""
        rng = np.random.default_rng(2024)
        centres = rng.standard_normal((100, 64))
        x = (centres[rng.integers(100, size=20000)]
             + 0.3 * rng.standard_normal((20000, 64)))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return build_index([f"r{i:05d}" for i in range(len(x))],
                           np.zeros(len(x), dtype=np.int32), x,
                           DistanceMetric(0.25))

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_re_ranks_few_rows_of_a_float32_query(self, clustered, exponent,
                                                  monkeypatch):
        index = replace(clustered, metric=DistanceMetric(exponent))
        queries = np.stack([index.vectors[0], index.vectors[19999],
                            (index.vectors[5] + index.vectors[777]) / 2]
                           ).astype(np.float64)
        off_grid = queries[0] * (1 + 2.0 ** -30)
        assert not np.array_equal(off_grid.astype(np.float32), off_grid)
        want = [_full_sort(index, q, 10) for q in (*queries, off_grid)]
        seen = []
        inner = distance.distances_to

        def counted(points, reference, metric):
            seen.append(len(points))
            return inner(points, reference, metric)

        monkeypatch.setattr(distance, "distances_to", counted)
        assert distance.knn_many(queries, index, 10) == want[:3]
        assert len(seen) == 3 and max(seen) < index.size // 100
        seen.clear()
        assert distance.knn_many(off_grid[None], index, 10) == want[3:]
        assert seen == [index.size]


def _frozen_lk_sums(points, refs, k):
    """The ``|a - b|^k`` sums as every distance function computed them
    before the blocked kernel."""
    points = np.asarray(points, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    return (np.abs(points - refs) ** k).sum(axis=1)


class TestLkSums:
    BLOCK = distance._BLOCK

    # sizes on and around one, two and four whole blocks, run by up to
    # three workers
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                                   2 * BLOCK + 3, 4 * BLOCK + 3])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_frozen_formula(self, n, per_row, dtype,
                                        monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_sums_do_not_depend_on_the_worker_count(self, dtype, per_row,
                                                    monkeypatch):
        """Five blocks, the last one ragged, summed by 1, 2 and 3 workers:
        the same bits, and each worker a thread of its own."""
        n = 4 * self.BLOCK + 17
        rng = np.random.default_rng([n, per_row])
        points = rng.standard_normal((n, 64)).astype(np.float32)
        refs = rng.standard_normal((n, 64) if per_row else 64
                                   ).astype(np.float32)
        threads = set()
        inner = distance._sum_blocks

        def recorded(*args):
            threads.add(threading.get_ident())
            inner(*args)

        monkeypatch.setattr(distance, "_sum_blocks", recorded)
        for k in (0.25, 0.5, 1.0, 2.0, 0.7, 3.0):
            sums = []
            for cpus in (1, 2, 3):
                monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
                threads.clear()
                sums.append(distance._lk_sums(points, refs, k, dtype))
                assert len(threads) == cpus
            assert all(s.dtype == dtype for s in sums)
            assert sums[0].tobytes() == sums[1].tobytes() == sums[2].tobytes()

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        """Eight workers over 63 blocks of 16 rows, the interpreter
        switching threads every microsecond: the sums of one worker."""
        monkeypatch.setattr(distance, "_BLOCK", 16)
        rng = np.random.default_rng(8)
        points = rng.standard_normal((1000, 8)).astype(np.float32)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        want = distance._lk_sums(points, points[0], 0.25, np.float32)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = distance._lk_sums(points, points[0], 0.25, np.float32)
                assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        monkeypatch.setattr(threading.Thread, "start", None)
        points = np.ones((self.BLOCK, 3))
        assert distance._lk_sums(points, points[0], 0.5).tolist() == [0] * (
            self.BLOCK)

    @pytest.mark.parametrize("raiser", ["worker", "caller"])
    def test_a_raising_run_raises_in_knn_many(self, raiser, monkeypatch):
        """Whichever run raises, ``knn_many`` raises it once every worker
        has been joined."""
        rng = np.random.default_rng(3)
        index = build_index([f"r{i:02d}" for i in range(40)],
                            np.zeros(40, dtype=np.int32),
                            rng.standard_normal((40, 5)), DistanceMetric())
        inner = distance._sum_blocks

        def failing(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (raiser == "caller"):
                raise MemoryError("no buffer")
            inner(*args)

        monkeypatch.setattr(distance, "_BLOCK", 8)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        monkeypatch.setattr(distance, "_sum_blocks", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no buffer"):
            distance.knn_many(index.vectors[:2], index, 5)
        assert threading.active_count() == before

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(distance, "_BLOCK", 4)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        points = np.full((12, 2), 3e38, np.float32)  # differences overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                sums = distance._lk_sums(points, -points[0], 1.0, np.float32)
            assert np.isinf(sums).all()
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                distance._lk_sums(points, -points[0], 1.0, np.float32)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0, 0.7, 3.0])
    def test_float32_sums_within_the_scan_bound(self, k):
        """``|s - S| <= eps*S + a`` as ``_float32_candidates`` states it,
        over rows spread from 1e-22 (squares underflow) to 1e9."""
        rng = np.random.default_rng(17)
        scale = 10.0 ** rng.integers(-22, 10, (3000, 1))
        points = (scale * rng.standard_normal((3000, 64))).astype(np.float32)
        ref = (1e-22 * rng.standard_normal(64)).astype(np.float32)
        got = distance._lk_sums(points, ref, k, np.float32)
        exact = _frozen_lk_sums(points, ref, k)
        eps = (2 * 64 + 2 * k + 16) * 2.0 ** -24
        assert got.dtype == np.float32
        assert (np.abs(got - exact) <= eps * exact + 8 * 64 * 2.0 ** -149
                ).all()

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
