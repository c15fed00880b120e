import gzip
import os
import struct

import numpy as np
import pytest

from simembed import data_io
from simembed.errors import DataError, FormatError
from simembed.dataset import Dataset, DatasetItem


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
        assert [it.id for it in ds.items] == \
            ["idx-00000", "idx-00001", "idx-00002"]
        assert [it.class_label for it in ds.items] == [7, 0, 3]
        first = ds.items[0].image
        assert first.shape == (1, 2, 2)
        assert first.dtype == np.float32
        expected = np.array([[0, 1.0], [51 / 255, 102 / 255]],
                            dtype=np.float32)
        assert np.array_equal(first[0], expected)

    def test_all_zero_images_kept(self, golden_idx):
        ds = data_io.parse_idx(*golden_idx)
        assert np.all(ds.items[2].image == 0)

    def test_gzip_transparent(self, golden_idx):
        images, labels = golden_idx
        plain = data_io.parse_idx(images, labels)
        zipped = data_io.parse_idx(gzip.compress(images),
                                   gzip.compress(labels))
        assert [it.id for it in plain.items] == [it.id for it in zipped.items]
        for a, b in zip(plain.items, zipped.items):
            assert np.array_equal(a.image, b.image)

    def test_custom_id_prefix(self, golden_idx):
        ds = data_io.parse_idx(*golden_idx, id_prefix="fash-")
        assert ds.items[0].id == "fash-00000"

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
        assert len(ds) == 2
        assert [it.class_label for it in ds.items] == [3, 9]
        assert ds.items[0].image.shape == (3, 32, 32)
        assert np.all(ds.items[0].image == 0.0)
        assert np.all(ds.items[1].image == 1.0)

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
        assert np.array_equal(a.items[0].image, b.items[0].image)


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


class TestDatasetFile:
    def test_round_trip_bitwise(self, tmp_path, small_dataset):
        a, b = str(tmp_path / "a.dset"), str(tmp_path / "b.dset")
        data_io.write_dataset(a, small_dataset)
        loaded = data_io.read_dataset(a)
        assert len(loaded) == len(small_dataset)
        for orig, got in zip(small_dataset.items, loaded.items):
            assert got.id == orig.id
            assert got.class_label == orig.class_label
            assert np.array_equal(got.image, orig.image)
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
            data_io.write_dataset(str(tmp_path / "e.dset"), Dataset(()))

    def test_overlong_id_refused_before_writing(self, tmp_path):
        ds = Dataset((DatasetItem("x" * 0x10000, np.zeros((1, 2, 2)), 0),))
        with pytest.raises(DataError, match="too long"):
            data_io.write_dataset(str(tmp_path / "x.dset"), ds)
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_no_file(self, tmp_path, small_dataset,
                                         monkeypatch):
        path = str(tmp_path / "x.dset")
        real = np.ascontiguousarray
        calls = []

        def failing(*args, **kwargs):  # the disk fills on the third image
            calls.append(1)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        with pytest.raises(OSError, match="no space"):
            data_io.write_dataset(path, small_dataset)
        assert os.listdir(tmp_path) == []
        monkeypatch.undo()
        data_io.write_dataset(path, small_dataset)
        before = open(path, "rb").read()
        calls.clear()
        monkeypatch.setattr(np, "ascontiguousarray", failing)
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
        assert ds.items[0].class_label == 7
