import os
import struct

import numpy as np
import pytest

from simembed import retrieval
from simembed.distance import DistanceMetric, lk_distance
from simembed.errors import DataError, DimensionError, FormatError
from simembed.losses import TripletSample
from simembed.retrieval import build_index, query_topk


def random_columns(rng, n, dim=6, id_width=4):
    """``(ids, labels, vectors)`` of ``n`` random records."""
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    return [f"r{i:0{id_width}d}" for i in range(n)], np.arange(n) % 10, \
        vectors


def random_index(rng, n, metric=DistanceMetric()):
    return build_index(*random_columns(rng, n), metric)


def emb_bytes(rows, dim, exponent=2.0, count=None):
    """EMBIDX01 bytes for ``(id, label, vector)`` rows, built by hand so
    that they can hold what ``build_index`` would refuse; an id given as
    bytes is written as it is."""
    count = len(rows) if count is None else count
    out = [b"EMBIDX01", struct.pack("<IdIQ", 1, exponent, dim, count)]
    for item_id, label, vector in rows:
        raw = item_id if isinstance(item_id, bytes) else item_id.encode()
        out += [struct.pack("<H", len(raw)), raw, struct.pack("<i", label),
                np.asarray(vector, dtype="<f4").tobytes()]
    return b"".join(out)


class TestBuildIndex:
    def test_single_record(self, rng):
        index = random_index(rng, 1)
        assert index.size == 1
        assert index.dim == 6
        assert index.ids == ("r0000",)

    def test_vectors_coerced_to_float32(self):
        index = build_index(["a"], [0], np.arange(3, dtype=np.float64)[None],
                            DistanceMetric())
        assert index.vectors.dtype == np.float32

    def test_non_finite_vector_rejected(self):
        with pytest.raises(DataError, match="'b'.*non-finite"):
            build_index(["a", "b"], [0, 0], [[1.0, 2.0], [1.0, np.inf]],
                        DistanceMetric())

    def test_non_matrix_vectors_rejected(self):
        for shape in [(2,), (2, 2, 2), (2, 0)]:
            with pytest.raises(DimensionError):
                build_index(["a", "b"], [0, 0], np.zeros(shape),
                            DistanceMetric())

    def test_duplicate_id_rejected(self, rng):
        ids, labels, vectors = random_columns(rng, 2)
        with pytest.raises(DataError, match="duplicate"):
            build_index(["r0000", "r0000"], labels, vectors,
                        DistanceMetric())

    def test_dim_mismatch_rejected(self, rng):
        ids, labels, vectors = random_columns(rng, 2)
        with pytest.raises(DimensionError):
            build_index(ids + ["odd"], np.append(labels, 0), vectors,
                        DistanceMetric())

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_index([], [], np.zeros((0, 6)), DistanceMetric())

    @pytest.mark.parametrize("label", [2 ** 31, -2 ** 31 - 1])
    def test_label_outside_int32_rejected(self, label):
        with pytest.raises(DataError, match="'b'.*int32"):
            build_index(["a", "b"], [0, label], np.zeros((2, 3)),
                        DistanceMetric())

    def test_label_that_is_not_an_integer_rejected(self):
        with pytest.raises(DataError, match=(
                "^record 'a': label 0.9 is not an int32 integer$")):
            build_index(["a", "b"], [0.9, 1.2], np.zeros((2, 3)),
                        DistanceMetric())

    def test_vectors_matrix_matches_records(self, rng):
        ids, labels, vectors = random_columns(rng, 10)
        index = build_index(ids, labels, vectors, DistanceMetric())
        assert index.ids == tuple(ids)
        assert index.labels.dtype == np.int32
        assert index.labels.tolist() == labels.tolist()
        assert index.vectors.dtype == np.float32
        assert np.array_equal(index.vectors, vectors)


class TestQueryTopk:
    def test_stored_vector_comes_back_at_distance_zero(self, rng):
        index = random_index(rng, 50)
        got = query_topk(index, index.vectors[17], k=3)
        assert got[0] == ("r0017", 0.0)

    def test_matches_full_sort_oracle(self, rng):
        index = random_index(rng, 200, DistanceMetric(0.25))
        query = rng.standard_normal(6)
        got = query_topk(index, query, k=20)
        brute = sorted(
            ((lk_distance(query, vector, index.metric), item_id)
             for item_id, vector in zip(index.ids, index.vectors)),
            key=lambda pair: (pair[0], pair[1]))
        assert [(i, pytest.approx(d)) for d, i in brute[:20]] == \
            [(i, pytest.approx(d)) for i, d in got]

    def test_k_larger_than_index_clamps(self, rng):
        index = random_index(rng, 5)
        got = query_topk(index, np.zeros(6), k=50)
        assert len(got) == 5

    def test_k_zero_rejected(self, rng):
        index = random_index(rng, 5)
        with pytest.raises(ValueError):
            query_topk(index, np.zeros(6), k=0)

    def test_wrong_query_dim_rejected(self, rng):
        index = random_index(rng, 5)
        with pytest.raises(DimensionError):
            query_topk(index, np.zeros(7), k=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        index = random_index(rng, 5)
        query = np.zeros(6)
        query[2] = bad
        with pytest.raises(DataError, match="non-finite"):
            query_topk(index, query, k=1)

    def test_distances_ascend(self, rng):
        index = random_index(rng, 1000)
        got = query_topk(index, rng.standard_normal(6), k=100)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert len({i for i, _ in got}) == 100


class TestRowsOf:
    def test_rows_in_the_order_asked(self, rng):
        index = random_index(rng, 12)
        rows = retrieval.rows_of(index, ["r0007", "r0000", "r0007"])
        assert rows.tolist() == [7, 0, 7]

    def test_unknown_id_names_it(self, rng):
        index = random_index(rng, 5)
        with pytest.raises(DataError, match="query id 'ghost' not in"):
            retrieval.rows_of(index, ["r0001", "ghost"], "query id")


class TestTripletAccuracy:
    def index(self):
        # a at the origin, p and t 1 away from it, n 2 away
        vectors = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]]
        return build_index(["a", "p", "n", "t"], [0, 0, 1, 1], vectors,
                           DistanceMetric(2.0))

    def test_counts_strictly_nearer_positives(self):
        trips = [TripletSample("a", "p", "n"), TripletSample("a", "n", "p"),
                 TripletSample("a", "p", "t")]  # the last one is a tie
        assert retrieval.triplet_accuracy(self.index(), trips) == 1 / 3

    @pytest.mark.parametrize("exponent, want", [(2.0, 1.0), (1.0, 0.0),
                                                 (0.5, 0.0)])
    def test_uses_the_index_metric(self, exponent, want):
        # p is nearer a than n only under L2: sqrt(2) < 1.5 < 2 < 4
        index = build_index(["a", "p", "n"], [0, 0, 1],
                            [[0.0, 0.0], [1.0, 1.0], [1.5, 0.0]],
                            DistanceMetric(exponent))
        trips = [TripletSample("a", "p", "n")]
        assert retrieval.triplet_accuracy(index, trips) == want

    def test_unknown_id_and_empty_list_rejected(self):
        with pytest.raises(DataError, match="triplet id 'ghost'"):
            retrieval.triplet_accuracy(self.index(),
                                       [TripletSample("a", "p", "ghost")])
        with pytest.raises(DataError):
            retrieval.triplet_accuracy(self.index(), [])


class TestTopkRecall:
    def test_hit_and_miss(self, rng):
        index = random_index(rng, 30)
        query = index.vectors[[4]]
        assert retrieval.topk_recall(index, query, [["r0004"]], k=1) == 1.0
        ranked = [i for i, _ in query_topk(index, query[0], k=index.size)]
        assert retrieval.topk_recall(index, query, [[ranked[-1]]],
                                     k=1) == 0.0
        assert retrieval.topk_recall(index, index.vectors[[4, 4]],
                                     [["r0004"], [ranked[-1]]], k=1) == 0.5

    def test_empty_truth_rejected(self, rng):
        index = random_index(rng, 5)
        with pytest.raises(DataError):
            retrieval.topk_recall(index, np.zeros((1, 6)), [[]], k=3)
        with pytest.raises(DataError):
            retrieval.topk_recall(index, np.zeros((0, 6)), [], k=3)

    def test_unknown_truth_id_rejected(self, rng):
        index = random_index(rng, 5)
        with pytest.raises(DataError, match="ground-truth id 'ghost'"):
            retrieval.topk_recall(index, np.zeros((1, 6)), [["ghost"]], k=3)


class TestEmbeddingFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        index = random_index(rng, 25, DistanceMetric(0.25))
        a, b = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
        retrieval.write_embeddings(a, index)
        loaded = retrieval.read_embeddings(a)
        assert loaded.dim == index.dim
        assert loaded.metric == index.metric
        assert loaded.ids == index.ids
        assert np.array_equal(loaded.labels, index.labels)
        assert loaded.vectors.dtype == np.float32
        assert np.array_equal(loaded.vectors, index.vectors)
        retrieval.write_embeddings(b, loaded)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_round_trip_preserves_query_results(self, tmp_path, rng):
        index = random_index(rng, 40, DistanceMetric(0.25))
        path = str(tmp_path / "x.emb")
        retrieval.write_embeddings(path, index)
        loaded = retrieval.read_embeddings(path)
        query = rng.standard_normal(6)
        assert query_topk(index, query, 10) == query_topk(loaded, query, 10)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            retrieval.read_embeddings(str(path))

    def test_truncation_rejected(self, tmp_path, rng):
        index = random_index(rng, 10)
        path = str(tmp_path / "ok.emb")
        retrieval.write_embeddings(path, index)
        blob = open(path, "rb").read()
        for cut_at in (4, len(blob) // 2, len(blob) - 1):
            cut = tmp_path / f"cut{cut_at}.emb"
            cut.write_bytes(blob[:cut_at])
            with pytest.raises(FormatError):
                retrieval.read_embeddings(str(cut))

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        index = random_index(rng, 3)
        path = str(tmp_path / "ok.emb")
        retrieval.write_embeddings(path, index)
        padded = tmp_path / "pad.emb"
        padded.write_bytes(open(path, "rb").read() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            retrieval.read_embeddings(str(padded))

    def test_unicode_ids_survive(self, tmp_path, rng):
        vec = rng.standard_normal(4).astype(np.float32)
        index = build_index(["skål-中文"], [2], vec[None], DistanceMetric())
        path = str(tmp_path / "uni.emb")
        retrieval.write_embeddings(path, index)
        assert retrieval.read_embeddings(path).ids == \
            ("skål-中文",)

    def test_hand_written_file_reads_back(self, tmp_path):
        path = tmp_path / "ok.emb"
        path.write_bytes(emb_bytes([("a", 3, [1.0, 2.0]),
                                    ("b", -1, [0.5, 0.0])], dim=2,
                                   exponent=0.25))
        index = retrieval.read_embeddings(str(path))
        assert index.ids == ("a", "b")
        assert index.labels.tolist() == [3, -1]
        assert index.vectors.tolist() == [[1.0, 2.0], [0.5, 0.0]]
        assert index.metric == DistanceMetric(0.25)

    def test_mixed_length_unicode_ids_read_back(self, tmp_path):
        ids = ["", "skål-中文", "y" * 300, "b"]
        labels = [-2 ** 31, 7, 2 ** 31 - 1, 0]
        vectors = np.arange(12, dtype=np.float32).reshape(4, 3) / 7
        path = tmp_path / "mixed.emb"
        path.write_bytes(emb_bytes(list(zip(ids, labels, vectors)), dim=3,
                                   exponent=0.5))
        index = retrieval.read_embeddings(str(path))
        assert index.ids == tuple(ids)
        assert index.labels.tolist() == labels
        assert np.array_equal(index.vectors, vectors)
        assert index.metric == DistanceMetric(0.5)
        again = str(tmp_path / "again.emb")
        retrieval.write_embeddings(again, index)
        assert open(again, "rb").read() == path.read_bytes()

    def test_nan_vector_entry_rejected(self, tmp_path):
        path = tmp_path / "nan.emb"
        path.write_bytes(emb_bytes([("a", 0, [1.0, 2.0]),
                                    ("b", 1, [np.nan, 0.0])], dim=2))
        with pytest.raises(DataError, match="'b'.*non-finite"):
            retrieval.read_embeddings(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.emb"
        path.write_bytes(emb_bytes([("a", 0, [1.0, 2.0]),
                                    ("a", 1, [3.0, 4.0])], dim=2))
        with pytest.raises(DataError, match="duplicate"):
            retrieval.read_embeddings(str(path))

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "flat.emb"
        path.write_bytes(emb_bytes([("a", 0, [])], dim=0))
        with pytest.raises(DimensionError):
            retrieval.read_embeddings(str(path))

    def test_count_beyond_file_size_rejected(self, tmp_path):
        path = tmp_path / "short.emb"
        path.write_bytes(emb_bytes([("a", 0, [1.0, 2.0])], dim=2,
                                   count=2 ** 40))
        with pytest.raises(FormatError, match="truncated"):
            retrieval.read_embeddings(str(path))

    @pytest.mark.parametrize("exponent", [0.0, -1.0, np.nan, np.inf])
    def test_bad_metric_exponent_names_the_file(self, tmp_path, rng,
                                                 exponent):
        path = str(tmp_path / "ok.emb")
        retrieval.write_embeddings(path, random_index(rng, 3))
        blob = bytearray(open(path, "rb").read())
        blob[12:20] = struct.pack("<d", exponent)  # after magic and version
        bad = tmp_path / "exponent.emb"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=(
                r"exponent\.emb: bad header: exponent must be > 0, got")):
            retrieval.read_embeddings(str(bad))

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "latin.emb"
        path.write_bytes(emb_bytes([(b"\xff\xfe", 0, [1.0, 2.0])], dim=2))
        with pytest.raises(FormatError,
                           match=r"latin\.emb: id of record 0 is not UTF-8"):
            retrieval.read_embeddings(str(path))

    def test_failed_write_leaves_no_file(self, tmp_path, rng):
        vec = rng.standard_normal(4).astype(np.float32)
        index = build_index(["x" * 0x10000], [0], vec[None],
                            DistanceMetric())
        with pytest.raises(DataError, match="too long"):
            retrieval.write_embeddings(str(tmp_path / "x.emb"), index)
        assert os.listdir(tmp_path) == []
