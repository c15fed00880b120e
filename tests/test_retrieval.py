import os
import struct

import numpy as np
import pytest

from simembed import retrieval
from simembed.distance import DistanceMetric, lk_distance
from simembed.errors import DataError, DimensionError, FormatError
from simembed.retrieval import EmbeddingRecord, build_index, query_topk


def random_records(rng, n, dim=6, id_width=4):
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    return [EmbeddingRecord(f"r{i:0{id_width}d}", i % 10, vectors[i])
            for i in range(n)]


def emb_bytes(rows, dim, exponent=2.0, count=None):
    """EMBIDX01 bytes for ``(id, label, vector)`` rows, built by hand so
    that they can hold what ``build_index`` would refuse."""
    count = len(rows) if count is None else count
    out = [b"EMBIDX01", struct.pack("<IdIQ", 1, exponent, dim, count)]
    for item_id, label, vector in rows:
        raw = item_id.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw, struct.pack("<i", label),
                np.asarray(vector, dtype="<f4").tobytes()]
    return b"".join(out)


class TestRecord:
    def test_vector_coerced_to_float32(self):
        r = EmbeddingRecord("a", 0, np.arange(3, dtype=np.float64))
        assert r.vector.dtype == np.float32

    def test_non_finite_vector_rejected(self):
        with pytest.raises(DataError):
            EmbeddingRecord("a", 0, np.array([1.0, np.inf]))

    def test_non_1d_vector_rejected(self):
        with pytest.raises(DimensionError):
            EmbeddingRecord("a", 0, np.zeros((2, 2)))


class TestBuildIndex:
    def test_single_record(self, rng):
        index = build_index(random_records(rng, 1), DistanceMetric())
        assert index.size == 1
        assert index.dim == 6
        assert index.ids == ("r0000",)

    def test_duplicate_id_rejected(self, rng):
        records = random_records(rng, 2)
        records[1] = EmbeddingRecord("r0000", 1, records[1].vector)
        with pytest.raises(DataError, match="duplicate"):
            build_index(records, DistanceMetric())

    def test_dim_mismatch_rejected(self, rng):
        records = random_records(rng, 2)
        records.append(EmbeddingRecord("odd", 0, np.zeros(5,
                                                          dtype=np.float32)))
        with pytest.raises(DimensionError):
            build_index(records, DistanceMetric())

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_index([], DistanceMetric())

    def test_vectors_matrix_matches_records(self, rng):
        records = random_records(rng, 10)
        index = build_index(records, DistanceMetric())
        assert index.ids == tuple(r.id for r in records)
        assert index.labels.dtype == np.int32
        assert index.labels.tolist() == [r.class_label for r in records]
        assert index.vectors.dtype == np.float32
        assert np.array_equal(index.vectors,
                              np.stack([r.vector for r in records]))


class TestQueryTopk:
    def test_stored_vector_comes_back_at_distance_zero(self, rng):
        records = random_records(rng, 50)
        index = build_index(records, DistanceMetric())
        got = query_topk(index, records[17].vector, k=3)
        assert got[0] == ("r0017", 0.0)

    def test_matches_full_sort_oracle(self, rng):
        records = random_records(rng, 200)
        index = build_index(records, DistanceMetric(0.25))
        query = rng.standard_normal(6)
        got = query_topk(index, query, k=20)
        brute = sorted(
            ((lk_distance(query, r.vector, index.metric), r.id)
             for r in records),
            key=lambda pair: (pair[0], pair[1]))
        assert [(i, pytest.approx(d)) for d, i in brute[:20]] == \
            [(i, pytest.approx(d)) for i, d in got]

    def test_k_larger_than_index_clamps(self, rng):
        index = build_index(random_records(rng, 5), DistanceMetric())
        got = query_topk(index, np.zeros(6), k=50)
        assert len(got) == 5

    def test_k_zero_rejected(self, rng):
        index = build_index(random_records(rng, 5), DistanceMetric())
        with pytest.raises(ValueError):
            query_topk(index, np.zeros(6), k=0)

    def test_wrong_query_dim_rejected(self, rng):
        index = build_index(random_records(rng, 5), DistanceMetric())
        with pytest.raises(DimensionError):
            query_topk(index, np.zeros(7), k=1)

    def test_distances_ascend(self, rng):
        index = build_index(random_records(rng, 1000), DistanceMetric())
        got = query_topk(index, rng.standard_normal(6), k=100)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert len({i for i, _ in got}) == 100


class TestRecallAtK:
    def test_hit_and_miss(self, rng):
        records = random_records(rng, 30)
        index = build_index(records, DistanceMetric())
        query = records[4].vector
        assert retrieval.recall_at_k(index, query, ["r0004"], k=1) == 1.0
        ranked = [i for i, _ in query_topk(index, query, k=index.size)]
        assert retrieval.recall_at_k(index, query, [ranked[-1]], k=1) == 0.0

    def test_empty_truth_rejected(self, rng):
        index = build_index(random_records(rng, 5), DistanceMetric())
        with pytest.raises(DataError):
            retrieval.recall_at_k(index, np.zeros(6), [], k=3)


class TestEmbeddingFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        index = build_index(random_records(rng, 25), DistanceMetric(0.25))
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
        index = build_index(random_records(rng, 40), DistanceMetric(0.25))
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
        index = build_index(random_records(rng, 10), DistanceMetric())
        path = str(tmp_path / "ok.emb")
        retrieval.write_embeddings(path, index)
        blob = open(path, "rb").read()
        for cut_at in (4, len(blob) // 2, len(blob) - 1):
            cut = tmp_path / f"cut{cut_at}.emb"
            cut.write_bytes(blob[:cut_at])
            with pytest.raises(FormatError):
                retrieval.read_embeddings(str(cut))

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        index = build_index(random_records(rng, 3), DistanceMetric())
        path = str(tmp_path / "ok.emb")
        retrieval.write_embeddings(path, index)
        padded = tmp_path / "pad.emb"
        padded.write_bytes(open(path, "rb").read() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            retrieval.read_embeddings(str(padded))

    def test_unicode_ids_survive(self, tmp_path, rng):
        vec = rng.standard_normal(4).astype(np.float32)
        index = build_index(
            [EmbeddingRecord("skål-中文", 2, vec)],
            DistanceMetric())
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

    def test_failed_write_leaves_no_file(self, tmp_path, rng):
        vec = rng.standard_normal(4).astype(np.float32)
        index = build_index([EmbeddingRecord("x" * 0x10000, 0, vec)],
                            DistanceMetric())
        with pytest.raises(DataError, match="too long"):
            retrieval.write_embeddings(str(tmp_path / "x.emb"), index)
        assert os.listdir(tmp_path) == []
