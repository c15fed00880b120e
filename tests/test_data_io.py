import gzip
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simembed import data_io, net, retrieval
from simembed.distance import DistanceMetric
from simembed.errors import DataError, DimensionError, FormatError
from simembed.dataset import Dataset, make_dataset


def idx_image_bytes(images):
    """Big-endian IDX3 payload from a (N, H, W) uint8 array."""
    arr = np.asarray(images, dtype=np.uint8)
    n, h, w = arr.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + arr.tobytes()


def idx_label_bytes(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, arr.size) + arr.tobytes()


@pytest.fixture
def golden_idx():
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    images[0] = [[0, 255], [51, 102]]
    images[1] = 255
    # images[2] stays all zero
    labels = [7, 0, 3]
    return idx_image_bytes(images), idx_label_bytes(labels)


class TestParseIdx:
    def test_golden_values(self, golden_idx):
        ds = data_io.parse_idx(*golden_idx)
        assert len(ds) == 3
        assert ds.ids == ("idx-00000", "idx-00001", "idx-00002")
        assert ds.labels.tolist() == [7, 0, 3]
        first = ds.images()[0]
        assert first.shape == (1, 2, 2)
        assert first.dtype == np.float32
        expected = np.array([[0, 1.0], [51 / 255, 102 / 255]],
                            dtype=np.float32)
        assert np.array_equal(first[0], expected)

    def test_all_zero_images_kept(self, golden_idx):
        ds = data_io.parse_idx(*golden_idx)
        assert np.all(ds.images()[2] == 0)

    def test_gzip_transparent(self, golden_idx):
        images, labels = golden_idx
        plain = data_io.parse_idx(images, labels)
        zipped = data_io.parse_idx(gzip.compress(images),
                                   gzip.compress(labels))
        assert plain.ids == zipped.ids
        assert np.array_equal(plain.images(), zipped.images())

    def test_count_mismatch_rejected(self, golden_idx):
        images, _ = golden_idx
        labels = idx_label_bytes([1, 2])
        with pytest.raises(FormatError, match="count"):
            data_io.parse_idx(images, labels)

    def test_bad_image_magic(self, golden_idx):
        images, labels = golden_idx
        broken = struct.pack(">I", 0x00000802) + images[4:]
        with pytest.raises(FormatError, match="magic"):
            data_io.parse_idx(broken, labels)

    def test_truncated_pixels(self, golden_idx):
        images, labels = golden_idx
        with pytest.raises(FormatError, match="truncated"):
            data_io.parse_idx(images[:-3], labels)

    def test_label_out_of_range(self, golden_idx):
        images, _ = golden_idx
        labels = idx_label_bytes([7, 10, 3])
        with pytest.raises(FormatError, match="range"):
            data_io.parse_idx(images, labels)

    @pytest.mark.parametrize("edit, refusal", [
        (lambda images, labels: (images[:10], labels),
         "IDX image header truncated at byte 10"),
        (lambda images, labels: (images, labels[:5]),
         "IDX label header truncated at byte 5"),
        (lambda images, labels: (images, images[:4] + labels[4:]),
         "bad IDX label magic 0x00000803 at byte 0, want 0x00000801"),
        (lambda images, labels: (images, labels[:-1]),
         "IDX label payload is 10 bytes, want 11 (truncated at byte 10)"),
    ], ids=["short image header", "short label header", "label magic",
            "label payload"])
    def test_label_file_and_short_header_faults(self, golden_idx, edit,
                                                refusal):
        with pytest.raises(FormatError) as err:
            data_io.parse_idx(*edit(*golden_idx))
        assert str(err.value) == refusal


class TestParseCifar10:
    RECORD = 3073

    def make_batch(self, labels, fill):
        out = bytearray()
        for label, value in zip(labels, fill):
            out.append(label)
            out.extend(bytes([value]) * (self.RECORD - 1))
        return bytes(out)

    def test_two_records(self):
        batch = self.make_batch([3, 9], [0, 255])
        ds = data_io.parse_cifar10_bin(batch)
        assert ds.ids == ("cifar-00000", "cifar-00001")
        assert ds.labels.tolist() == [3, 9]
        assert ds.image_shape == (3, 32, 32)
        assert np.all(ds.images()[0] == 0.0)
        assert np.all(ds.images()[1] == 1.0)

    def test_label_9_is_valid_but_10_is_not(self):
        with pytest.raises(FormatError, match="range"):
            data_io.parse_cifar10_bin(self.make_batch([10], [0]))

    def test_empty_payload_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            data_io.parse_cifar10_bin(b"")

    def test_partial_record_rejected(self):
        batch = self.make_batch([1], [5])[:-10]
        with pytest.raises(FormatError, match="multiple"):
            data_io.parse_cifar10_bin(batch)

    def test_gzip_transparent(self):
        batch = self.make_batch([2], [7])
        a = data_io.parse_cifar10_bin(batch)
        b = data_io.parse_cifar10_bin(gzip.compress(batch))
        assert np.array_equal(a.images(), b.images())


class TestParseTripletList:
    def test_basic_with_comments_and_blanks(self):
        text = "# header\n\na1,p1,n1\n  a2 , p2 , n2  \n"
        trips = data_io.parse_triplet_list(text)
        assert len(trips) == 2
        assert trips[0].anchor_id == "a1"
        assert trips[1].positive_id == "p2"
        assert trips[1].negative_id == "n2"

    def test_malformed_line_reports_line_number(self):
        text = "a,p,n\nbroken line\n"
        with pytest.raises(FormatError, match="line 2"):
            data_io.parse_triplet_list(text)

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            data_io.parse_triplet_list("a,,n\n")

    def test_empty_text_gives_empty_list(self):
        assert data_io.parse_triplet_list("") == []

    def test_repeated_id_reports_line_number(self):
        with pytest.raises(FormatError, match=r"^line 3: triplet ids must "
                                              r"be pairwise distinct"):
            data_io.parse_triplet_list("a,p,n\n\na,p,a\n")


class TestParseQueryList:
    @pytest.mark.parametrize("line", ["q1", "q1,,t2"],
                             ids=["one field", "empty field"])
    def test_malformed_line_reports_line_number(self, line):
        with pytest.raises(FormatError, match=r"^line 2: expected "
                                              r"query_id,truth_id"):
            data_io.parse_query_list(f"q0,t0\n{line}\n")


def write_index(path, dataset):
    retrieval.write_embeddings(path, retrieval.build_index(
        dataset.ids, dataset.labels,
        dataset.images().reshape(len(dataset), -1), DistanceMetric()))


def write_checkpoint(path, dataset):
    net.save_checkpoint(net.build_network(net.desk_scale_config(), 0), path)


@pytest.mark.parametrize("write, read, what", [
    (data_io.write_dataset, data_io.read_dataset, "dataset"),
    (write_index, retrieval.read_embeddings, "embedding file"),
    (write_checkpoint, net.load_checkpoint, "checkpoint"),
], ids=["dataset", "index", "checkpoint"])
def test_unsupported_version_rejected(tmp_path, small_dataset, write, read,
                                      what):
    path = tmp_path / "file"
    write(str(path), small_dataset)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 2)  # the u32 after the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read(str(path))
    assert str(err.value) == f"unsupported {what} version 2"


class TestDatasetFile:
    def test_round_trip_bitwise(self, tmp_path, small_dataset):
        a, b = str(tmp_path / "a.dset"), str(tmp_path / "b.dset")
        data_io.write_dataset(a, small_dataset)
        loaded = data_io.read_dataset(a)
        assert loaded.ids == small_dataset.ids
        assert loaded.labels.dtype == np.int32
        assert np.array_equal(loaded.labels, small_dataset.labels)
        assert loaded.images().dtype == np.float32
        assert np.array_equal(loaded.images(), small_dataset.images())
        data_io.write_dataset(b, loaded)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dset"
        path.write_bytes(b"DSETV999" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            data_io.read_dataset(str(path))

    def test_truncation_rejected(self, tmp_path, small_dataset):
        path = str(tmp_path / "ok.dset")
        data_io.write_dataset(path, small_dataset)
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.dset"
        cut.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            data_io.read_dataset(str(cut))

    def test_empty_dataset_refused(self, tmp_path):
        with pytest.raises(DataError):
            data_io.write_dataset(str(tmp_path / "e.dset"),
                                  Dataset((), (), np.zeros((0, 1, 2, 2))))

    def test_overlong_id_refused_before_writing(self, tmp_path):
        ds = Dataset(["x" * 0x10000], [0], np.zeros((1, 1, 2, 2)))
        with pytest.raises(DataError, match="too long"):
            data_io.write_dataset(str(tmp_path / "x.dset"), ds)
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_no_file(self, tmp_path, small_dataset,
                                         monkeypatch, disk_fills):
        path = str(tmp_path / "x.dset")
        disk_fills(600)  # the disk fills on the third 266-byte record
        with pytest.raises(OSError, match="no space"):
            data_io.write_dataset(path, small_dataset)
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        data_io.write_dataset(path, small_dataset)
        before = open(path, "rb").read()
        disk_fills(600)
        with pytest.raises(OSError):
            data_io.write_dataset(path, small_dataset)
        assert os.listdir(tmp_path) == ["x.dset"]
        assert open(path, "rb").read() == before


class TestLoadHelpers:
    def test_load_idx_files_reads_gzip_from_disk(self, tmp_path, golden_idx):
        images, labels = golden_idx
        ip = tmp_path / "images.gz"
        lp = tmp_path / "labels.gz"
        ip.write_bytes(gzip.compress(images))
        lp.write_bytes(gzip.compress(labels))
        ds = data_io.load_idx_files(str(ip), str(lp))
        assert len(ds) == 3
        assert ds.get("idx-00000").class_label == 7

    def test_load_cifar10_files_numbers_ids_per_batch(self, tmp_path):
        make_batch = TestParseCifar10().make_batch
        first, second = tmp_path / "b0.bin", tmp_path / "b1.bin.gz"
        first.write_bytes(make_batch([3, 9], [0, 255]))
        second.write_bytes(gzip.compress(make_batch([5], [51])))
        ds = data_io.load_cifar10_files([str(first), str(second)])
        assert ds.ids == ("cifar-b0-00000", "cifar-b0-00001",
                          "cifar-b1-00000")
        assert ds.labels.tolist() == [3, 9, 5]
        assert ds.image_shape == (3, 32, 32)
        assert np.array_equal(ds.images()[:, 0, 0, 0],
                              np.float32([0, 255, 51]) / np.float32(255))

    def test_load_cifar10_files_checks_every_batch(self, tmp_path):
        make_batch = TestParseCifar10().make_batch
        padded, short = tmp_path / "padded.bin", tmp_path / "short.bin"
        padded.write_bytes(make_batch([1], [0]) + b"\x00" * 10)
        short.write_bytes(make_batch([1], [0])[10:])
        with pytest.raises(FormatError, match="multiple"):
            data_io.load_cifar10_files([str(padded), str(short)])
        with pytest.raises(DataError):
            data_io.load_cifar10_files([])


def dset_bytes(records, shape, count=None):
    """DSETV001 bytes for ``(id, label, image)`` records, built by hand so
    that they can hold what ``write_dataset`` would refuse; an id given as
    bytes is written as it is."""
    count = len(records) if count is None else count
    out = [b"DSETV001", struct.pack("<IQIII", 1, count, *shape)]
    for item_id, label, image in records:
        raw = item_id if isinstance(item_id, bytes) else item_id.encode()
        out += [struct.pack("<H", len(raw)), raw, struct.pack("<i", label),
                np.asarray(image, dtype="<f4").tobytes()]
    return b"".join(out)


class TestDatasetHeader:
    def test_count_beyond_file_size_rejected(self, tmp_path):
        path = tmp_path / "short.dset"
        path.write_bytes(dset_bytes([("a", 0, np.zeros((1, 2, 2)))],
                                    (1, 2, 2), count=2 ** 40))
        with pytest.raises(FormatError, match="truncated"):
            data_io.read_dataset(str(path))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (1, 0, 4), (1, 4, 0)])
    def test_zero_dimension_rejected(self, tmp_path, shape):
        path = tmp_path / "flat.dset"
        path.write_bytes(dset_bytes([("a", 0, np.zeros(shape))], shape))
        with pytest.raises(DimensionError):
            data_io.read_dataset(str(path))

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "latin.dset"
        image = np.zeros((1, 2, 2))
        path.write_bytes(dset_bytes([("a", 0, image), (b"\xe9", 1, image)],
                                    (1, 2, 2)))
        with pytest.raises(FormatError,
                           match=r"latin\.dset: id of item 1 is not UTF-8"):
            data_io.read_dataset(str(path))

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "none.dset"
        path.write_bytes(dset_bytes([], (1, 2, 2)))
        with pytest.raises(FormatError, match="zero"):
            data_io.read_dataset(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "pad.dset"
        path.write_bytes(dset_bytes([("a", 0, np.zeros((1, 2, 2)))],
                                    (1, 2, 2)) + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            data_io.read_dataset(str(path))

    def test_mixed_length_unicode_ids_read_back(self, tmp_path):
        images = np.arange(4 * 6, dtype=np.float32).reshape(4, 1, 2, 3) / 7
        ids = ["", "skål-中文", "x" * 300, "b"]
        records = [(i, label, image)
                   for i, label, image in zip(ids, [3, -1, 2 ** 31 - 1, 0],
                                              images)]
        path = tmp_path / "mixed.dset"
        path.write_bytes(dset_bytes(records, (1, 2, 3)))
        ds = data_io.read_dataset(str(path))
        assert ds.ids == tuple(ids)
        assert ds.labels.tolist() == [3, -1, 2 ** 31 - 1, 0]
        assert np.array_equal(ds.images(), images)
        again = str(tmp_path / "again.dset")
        data_io.write_dataset(again, ds)
        assert open(again, "rb").read() == path.read_bytes()


class TestDatasetColumns:
    def test_arrays_are_read_only(self, tmp_path, small_dataset):
        path = str(tmp_path / "x.dset")
        data_io.write_dataset(path, small_dataset)
        for ds in (small_dataset, data_io.read_dataset(path)):
            with pytest.raises(ValueError):
                ds.images()[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                ds.labels[0] = 1
            with pytest.raises(ValueError):
                ds.get(ds.ids[0]).image[0, 0, 0] = 1.0

    def test_images_is_the_stored_array(self, small_dataset):
        assert small_dataset.images() is small_dataset.images()
        picked = small_dataset.images(["c1i2", "c0i0"])
        assert np.array_equal(picked, small_dataset.images()[[6, 0]])
        picked[0] = 0.0  # a stack of picked ids is the caller's own
        assert small_dataset.images()[6].any()

    def test_subset_keeps_rows(self, small_dataset):
        part = small_dataset.subset(["c2i3", "c0i1"])
        assert part.ids == ("c2i3", "c0i1")
        assert part.labels.tolist() == [2, 0]
        assert np.array_equal(part.images(), small_dataset.images()[[11, 1]])
        assert {label: tuple(part.ids[r] for r in rows)
                for label, rows in part.class_rows.items()} == \
            {2: ("c2i3",), 0: ("c0i1",)}

    @pytest.mark.parametrize("label", [2 ** 31, -2 ** 31 - 1, 2 ** 70])
    def test_label_outside_int32_rejected(self, label):
        image = np.zeros((1, 2, 2), dtype=np.float32)
        with pytest.raises(DataError, match="int32"):
            make_dataset([("a", image, 0), ("b", image, label)])
        with pytest.raises(DataError, match="'b'.*int32"):
            Dataset(["a", "b"], np.array([0, label], dtype=object),
                    np.zeros((2, 1, 2, 2)))

    def test_int32_label_limits_accepted(self, tmp_path):
        ds = Dataset(["lo", "hi"], [-2 ** 31, 2 ** 31 - 1],
                     np.zeros((2, 1, 2, 2)))
        path = str(tmp_path / "x.dset")
        data_io.write_dataset(path, ds)
        assert data_io.read_dataset(path).labels.tolist() == \
            [-2 ** 31, 2 ** 31 - 1]

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="duplicate item id 'a'"):
            Dataset(["a", "b", "a"], [0, 1, 0], np.zeros((3, 1, 2, 2)))

    @pytest.mark.parametrize("labels, shown", [
        ([0.5, 1.7, 2.0], "0.5"),
        ([np.nan, 1, 2], "nan"),
        (["1", "2", "3"], "'1'"),
    ], ids=["fractions", "nan", "text"])
    def test_label_that_is_not_an_integer_rejected(self, labels, shown):
        with pytest.raises(DataError, match=(
                f"^item 'a': label {shown} is not an int32 integer$")):
            Dataset(["a", "b", "c"], labels, np.zeros((3, 1, 2, 2)))

    def test_integer_valued_float_labels_accepted(self):
        ds = Dataset(["a", "b"], [2.0, -7.0], np.zeros((2, 1, 2, 2)))
        assert ds.labels.tolist() == [2, -7]
        assert ds.labels.dtype == np.int32

    def test_zero_image_dimension_rejected(self):
        with pytest.raises(DimensionError, match=r"got \(1, 1, 0, 5\)"):
            data_io.parse_idx(struct.pack(">IIII", 0x803, 1, 0, 5),
                              idx_label_bytes([1]))
        with pytest.raises(DimensionError):
            Dataset(["a"], [0], np.zeros((1, 0, 2, 2)))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(DimensionError):
            Dataset(["a", "b"], [0], np.zeros((2, 1, 2, 2)))
        with pytest.raises(DimensionError):
            Dataset(["a"], [0], np.zeros((1, 2, 2)))
        with pytest.raises(DimensionError):
            make_dataset([("a", np.zeros((1, 2, 2)), 0),
                          ("b", np.zeros((1, 3, 2)), 0)])


# Ids of every length class: empty, unicode, and the longest storable one.
IDS = st.one_of(st.text(max_size=6), st.text(min_size=300, max_size=600),
                st.just("z" * 0xFFFF))
LABELS = st.one_of(st.integers(-2 ** 31, 2 ** 31 - 1),
                   st.sampled_from([-2 ** 31, 2 ** 31 - 1]))


@st.composite
def columns(draw, row_shape):
    """Unique ids, int32 labels and float32 rows of ``row_shape``."""
    ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(LABELS, min_size=len(ids), max_size=len(ids)))
    finite = len(row_shape) == 1  # index vectors must be finite
    rows = draw(hnp.arrays(np.float32, (len(ids), *row_shape),
                           elements=st.floats(width=32, allow_nan=not finite,
                                              allow_infinity=not finite)))
    return ids, labels, rows


def rewrites_bytewise(tmp_path, write, read, value):
    """Write ``value``, read it back, write that again; return both reads
    and whether the two files are byte-identical."""
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    write(first, value)
    back = read(first)
    write(second, back)
    return back, open(first, "rb").read() == open(second, "rb").read()


@settings(deadline=None, max_examples=60)
@given(data=st.data(),
       shape=st.tuples(*[st.integers(0, 3)] * 3))
def test_every_accepted_dataset_round_trips(tmp_path_factory, data, shape):
    ids, labels, images = data.draw(columns(shape))
    try:
        ds = Dataset(ids, labels, images)
    except DimensionError:  # refused, so nothing to write
        assert 0 in shape
        return
    back, same = rewrites_bytewise(tmp_path_factory.mktemp("dset"),
                                   data_io.write_dataset,
                                   data_io.read_dataset, ds)
    assert same
    assert back.ids == ds.ids and back.labels.tolist() == labels
    assert back.images().tobytes() == ds.images().tobytes()


@st.composite
def class_labels(draw):
    """Unsorted int32 labels drawn from one to six classes, so that single
    classes, singletons and both int32 bounds all turn up."""
    pool = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(deadline=None, max_examples=100)
@given(labels=class_labels())
def test_rows_are_grouped_by_class(labels):
    ds = Dataset([f"i{j}" for j in range(len(labels))], labels,
                 np.zeros((len(labels), 1, 1, 1), np.float32))
    labels = np.array(labels)
    assert {label: rows.tolist() for label, rows in ds.class_rows.items()} \
        == {label: np.flatnonzero(labels == label).tolist()
            for label in set(labels.tolist())}
    assert ds.paired_rows.tolist() == [
        row for row, label in enumerate(labels) if (labels == label).sum() > 1]
    for rows in (*ds.class_rows.values(), ds.paired_rows):
        with pytest.raises(ValueError):
            rows[...] = 0
    with pytest.raises(TypeError):
        ds.class_rows[int(labels[0])] = ds.paired_rows


@settings(deadline=None, max_examples=60)
@given(data=st.data(), dim=st.integers(0, 4),
       exponent=st.floats(0.1, 4.0))
def test_every_accepted_index_round_trips(tmp_path_factory, data, dim,
                                          exponent):
    ids, labels, vectors = data.draw(columns((dim,)))
    try:
        index = retrieval.build_index(ids, labels, vectors,
                                      DistanceMetric(exponent))
    except DimensionError:
        assert dim == 0
        return
    back, same = rewrites_bytewise(tmp_path_factory.mktemp("emb"),
                                   retrieval.write_embeddings,
                                   retrieval.read_embeddings, index)
    assert same
    assert back.ids == index.ids and back.labels.tolist() == labels
    assert back.vectors.tobytes() == index.vectors.tobytes()
    assert back.metric == index.metric
