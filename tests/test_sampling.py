import tracemalloc

import numpy as np
import pytest

from simembed import sampling
from simembed.dataset import Dataset, make_dataset
from simembed.errors import ConfigError, DataError
from simembed.sampling import BissScorer, SamplerConfig


def flat_image(value, size=8):
    return np.full((1, size, size), value, dtype=np.float32)


def class_ids(ds, label):
    return [ds.ids[r] for r in ds.class_rows[label]]


def dataset_of_flats(values_by_class):
    """{class_label: [pixel values]} -> Dataset of constant images."""
    return make_dataset((f"c{label}i{j}", flat_image(v), label)
                        for label, values in values_by_class.items()
                        for j, v in enumerate(values))


class TestBissScore:
    def test_identical_images_score_zero(self, rng):
        scorer = BissScorer()
        img = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        assert sampling.biss_score(scorer, img, img) == 0.0

    def test_symmetric(self, rng):
        scorer = BissScorer()
        a = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        b = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        assert sampling.biss_score(scorer, a, b) == \
            sampling.biss_score(scorer, b, a)

    def test_black_vs_white_is_maximal(self):
        # disjoint one-hot histograms: L1 distance exactly 2
        scorer = BissScorer(bins=16)
        score = sampling.biss_score(scorer, flat_image(0.0), flat_image(1.0))
        assert score == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        from simembed.errors import DimensionError
        scorer = BissScorer()
        with pytest.raises(DimensionError):
            sampling.biss_score(scorer, flat_image(0, 8), flat_image(0, 9))

    def test_color_histogram_separates_channel_swaps(self):
        img_a = np.stack([np.zeros((8, 8)), np.ones((8, 8))]) \
            .astype(np.float32)
        img_b = img_a[::-1].copy()
        intensity = BissScorer(kind="intensity_histogram")
        color = BissScorer(kind="color_histogram")
        assert sampling.biss_score(intensity, img_a, img_b) == 0.0
        assert sampling.biss_score(color, img_a, img_b) > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BissScorer(kind="nope")

    def test_negative_rng_seed_rejected(self):
        with pytest.raises(ConfigError, match="rng_seed must be >= 0"):
            SamplerConfig(rng_seed=-2)

    def test_embedding_kind_rejected_as_unknown(self):
        with pytest.raises(ConfigError, match="unknown scorer kind"):
            BissScorer(kind="embedding")


class TestHistograms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bins", [2, 7, 10, 16, 33])
    @pytest.mark.parametrize("kind", ["intensity_histogram",
                                      "color_histogram"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_counts_are_np_histograms(self, rng, kind, bins, channels,
                                      dtype):
        """Every image's feature is its planes' ``np.histogram`` counts
        over (0, 1), each divided by its total, bit for bit.  Pixels lie
        on the bin edges, one ulp either side of them, at 0.0 and 1.0 and
        just outside the range."""
        edges = np.linspace(0, 1, bins + 1, dtype=dtype)
        pool = np.concatenate([edges, np.nextafter(edges, dtype(2)),
                               np.nextafter(edges, dtype(-1)),
                               np.array([0.0, 1.0, -0.0], dtype)])
        images = rng.choice(pool, (40, channels, 6, 5))
        images[:8] = rng.uniform(0, 1, (8, channels, 6, 5))
        images[8] = 1.0
        images[9] = 0.0
        images[10] = -1.0  # no pixel in range: a zero feature
        scorer = BissScorer(kind, bins)
        want = []
        for image in images:
            planes = [image.mean(axis=0)] if kind == "intensity_histogram" \
                else image
            for plane in planes:
                counts, _ = np.histogram(plane, bins=bins, range=(0.0, 1.0))
                want.append(counts / max(counts.sum(), 1))
        got = sampling._histograms(scorer, images)
        assert got.tobytes() == np.concatenate(want).tobytes()


class TestPositiveCandidates:
    def test_clamped_to_class_size(self):
        ds = dataset_of_flats({0: [0.1, 0.2, 0.3, 0.4, 0.5], 1: [0.9]})
        got = sampling.positive_candidates(
            "c0i0", ds, SamplerConfig(n_candidates=100))
        assert len(got) == 4
        assert "c0i0" not in got

    def test_duplicate_image_ranks_first(self, rng):
        base = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
        items = [("q", base, 0), ("twin", base.copy(), 0)]
        for j in range(6):
            items.append((f"other{j}",
                          rng.uniform(0, 1, (1, 8, 8)).astype(np.float32), 0))
        items.append(("far", flat_image(1.0), 1))
        ds = make_dataset(items)
        got = sampling.positive_candidates(
            "q", ds, SamplerConfig(n_candidates=3))
        assert got[0] == "twin"

    def test_matches_full_sort_oracle(self, rng):
        items = [(f"a{j:02d}",
                  rng.uniform(0, 1, (1, 8, 8)).astype(np.float32), 0)
                 for j in range(20)]
        items.append(("b0", flat_image(0.5), 1))
        ds = make_dataset(items)
        scorer = BissScorer()
        cfg = SamplerConfig(n_candidates=7, scorer=scorer)
        got = sampling.positive_candidates("a00", ds, cfg)
        query = ds.get("a00").image
        scored = sorted(
            ((sampling.biss_score(scorer, query, ds.get(i).image), i)
             for i in class_ids(ds, 0) if i != "a00"))
        assert got == [i for _, i in scored[:7]]

    def test_singleton_class_rejected(self):
        ds = dataset_of_flats({0: [0.1], 1: [0.5, 0.9]})
        with pytest.raises(DataError):
            sampling.positive_candidates("c0i0", ds, SamplerConfig())

    def test_unknown_query_rejected(self, small_dataset):
        with pytest.raises(DataError):
            sampling.positive_candidates("nope", small_dataset,
                                         SamplerConfig())


def tie_dataset():
    """Three classes with repeated images (score ties broken by id, ids out
    of row order) plus a singleton class."""
    rng = np.random.default_rng(3)
    base = rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
    items = []
    for c in range(3):
        for j in range(12):
            image = base.copy() if j % 4 == 0 else \
                rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
            items.append((f"z{(7 * j) % 12:02d}-c{c}", image, c))
    items.append(("alone", base.copy(), 9))
    return make_dataset(items)


def table_ids(table, row):
    return [table.dataset.ids[r]
            for r in sampling._candidates_cached(table, row)]


class TestCandidateTable:
    @pytest.mark.parametrize("n", [1, 3, 100])
    def test_rows_match_full_sort_oracle(self, n):
        ds = tie_dataset()
        scorer = BissScorer()
        cfg = SamplerConfig(n_candidates=n, scorer=scorer)
        table = sampling.candidate_table(ds, cfg)
        for row, item in enumerate(map(ds.get, ds.ids)):
            scored = sorted(
                (sampling.biss_score(scorer, item.image, ds.get(i).image), i)
                for i in class_ids(ds, item.class_label) if i != item.id)
            assert table_ids(table, row) == [i for _, i in scored[:n]]
            if len(scored):
                assert table_ids(table, row) == sampling.positive_candidates(
                    item.id, ds, cfg)
        assert table_ids(table, len(ds) - 1) == []  # the singleton

    def test_ranking_in_blocks_gives_same_rows(self, monkeypatch):
        ds = tie_dataset()
        cfg = SamplerConfig(n_candidates=5,
                            scorer=BissScorer(kind="color_histogram", bins=4))
        whole = sampling.candidate_table(ds, cfg)
        monkeypatch.setattr(sampling, "_SCORE_BLOCK", 50)
        blocked = sampling.candidate_table(ds, cfg)
        for row in range(len(ds)):
            assert np.array_equal(whole.candidates[row],
                                  blocked.candidates[row])

    def test_ranks_by_the_scorer_in_the_config(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(
            (f"i{j:02d}", rng.uniform(0, 1, (3, 6, 6)).astype(np.float32),
             j % 2) for j in range(16))
        scorer = BissScorer("color_histogram", 4)
        table = sampling.candidate_table(
            ds, SamplerConfig(n_candidates=5, scorer=scorer))
        default = sampling.candidate_table(ds, SamplerConfig(n_candidates=5))
        for row, item in enumerate(map(ds.get, ds.ids)):
            by_hand = sorted(
                (sampling.biss_score(scorer, item.image, ds.get(i).image), i)
                for i in class_ids(ds, item.class_label) if i != item.id)
            assert table_ids(table, row) == [i for _, i in by_hand[:5]]
        assert any(table_ids(table, row) != table_ids(default, row)
                   for row in range(len(ds)))

    def test_groups_rows_by_class(self):
        ds = tie_dataset()
        assert list(ds.class_rows[9]) == [len(ds) - 1]
        assert list(sampling._other_rows(ds, len(ds) - 1)) == \
            list(range(len(ds) - 1))
        assert list(ds.paired_rows) == list(range(len(ds) - 1))
        assert ds.labels[ds.class_rows[1]].tolist() == [1] * 12

    def test_random_baseline_candidates_are_classmates(self):
        ds = tie_dataset()
        table = sampling.candidate_table(
            ds, SamplerConfig(strategy="random_baseline"))
        assert table.candidates is None
        classmates = [i for i in class_ids(ds, 0) if i != ds.ids[5]]
        assert table_ids(table, 5) == classmates

    def test_refuses_a_class_without_in_class_negatives(self):
        # round(0.8) == 1: every batch negative is a non-candidate classmate
        ds = dataset_of_flats({c: [c / 3 + j / 40 for j in range(8)]
                               for c in range(3)})
        with pytest.raises(ConfigError, match=(
                r"in_class_fraction 0.8 .* n_candidates 7 leaves none in a "
                r"class of 8")):
            sampling.candidate_table(
                ds, SamplerConfig(n_candidates=7, in_class_fraction=0.8))
        for cfg in (SamplerConfig(n_candidates=6, in_class_fraction=0.8),
                    SamplerConfig(n_candidates=7, in_class_fraction=0.5),
                    SamplerConfig(n_candidates=7, in_class_fraction=0.8,
                                  strategy="random_baseline")):
            sampling.candidate_table(ds, cfg)
        # positive_candidates draws no negatives, so nothing is refused
        assert len(sampling.positive_candidates(
            "c0i0", ds, SamplerConfig(n_candidates=7,
                                      in_class_fraction=0.8))) == 7


def pair_ids(table, rows, labels):
    return [(table.dataset.ids[q], table.dataset.ids[c], int(label))
            for (q, c), label in zip(rows, labels)]


class TestSampleNegatives:
    def make_ds(self):
        return dataset_of_flats({
            0: [v / 40 for v in range(20)],
            1: [0.5 + v / 100 for v in range(20)],
        })

    def test_exact_in_out_split(self):
        ds = self.make_ds()
        cfg = SamplerConfig(in_class_fraction=0.3)
        got = sampling.sample_negatives("c0i0", ds, cfg, 10,
                                        np.random.default_rng(0))
        assert len(got) == 10
        in_class = [i for i, flag in got if flag]
        out_class = [i for i, flag in got if not flag]
        assert len(in_class) == 3 and len(out_class) == 7
        assert all(i.startswith("c0") for i in in_class)
        assert all(i.startswith("c1") for i in out_class)
        assert "c0i0" not in in_class

    def test_fraction_zero_is_all_cross_class(self):
        ds = self.make_ds()
        cfg = SamplerConfig(in_class_fraction=0.0)
        got = sampling.sample_negatives("c0i0", ds, cfg, 8,
                                        np.random.default_rng(1))
        assert all(not flag for _, flag in got)

    def test_no_duplicates_within_pool(self):
        ds = self.make_ds()
        cfg = SamplerConfig(in_class_fraction=0.5)
        got = sampling.sample_negatives("c0i0", ds, cfg, 20,
                                        np.random.default_rng(2))
        ids = [i for i, _ in got]
        assert len(set(ids)) == len(ids)

    def test_same_seed_same_draw(self):
        ds = self.make_ds()
        cfg = SamplerConfig(in_class_fraction=0.3)
        a = sampling.sample_negatives("c0i0", ds, cfg, 10,
                                      np.random.default_rng(7))
        b = sampling.sample_negatives("c0i0", ds, cfg, 10,
                                      np.random.default_rng(7))
        assert a == b

    def test_exclude_removes_candidates_from_in_pool(self):
        ds = self.make_ds()
        cfg = SamplerConfig(in_class_fraction=1.0)
        exclude = [f"c0i{j}" for j in range(1, 15)]
        got = sampling.sample_negatives("c0i0", ds, cfg, 5,
                                        np.random.default_rng(3),
                                        exclude=exclude)
        assert all(i not in exclude and i != "c0i0" for i, _ in got)

    def test_shortfall_raises_with_count(self):
        ds = dataset_of_flats({0: [0.1, 0.2], 1: [0.9, 0.8]})
        cfg = SamplerConfig(in_class_fraction=1.0)
        with pytest.raises(DataError, match="short by"):
            sampling.sample_negatives("c0i0", ds, cfg, 5,
                                      np.random.default_rng(0))

    def test_single_class_dataset_rejected(self):
        ds = dataset_of_flats({0: [0.1, 0.2, 0.3]})
        with pytest.raises(DataError):
            sampling.sample_negatives("c0i0", ds, SamplerConfig(), 2,
                                      np.random.default_rng(0))

    def test_negative_count_refused_before_any_draw(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=r"^count must be >= 0, got -1$"):
            sampling.sample_negatives("c0i0", self.make_ds(), SamplerConfig(),
                                      -1, rng)
        assert rng.bit_generator.state == before


class TestMakePairBatch:
    def batch(self, ds, cfg, seed, batch_size=16, pos_fraction=0.5):
        table = sampling.candidate_table(ds, cfg)
        rows, labels = sampling.make_pair_batch(
            table, batch_size, pos_fraction, np.random.default_rng(seed))
        return pair_ids(table, rows, labels)

    def test_label_split_matches_pos_fraction(self, small_dataset):
        pairs = self.batch(small_dataset, SamplerConfig(n_candidates=3), 0,
                           pos_fraction=0.75)
        labels = [label for _, _, label in pairs]
        assert labels == [0] * 12 + [1] * 4

    def test_positive_pairs_share_class(self, small_dataset):
        pairs = self.batch(small_dataset, SamplerConfig(n_candidates=3), 1,
                           batch_size=20)
        for q, c, label in pairs:
            qc = small_dataset.get(q).class_label
            cc = small_dataset.get(c).class_label
            assert q != c
            if label == 0:
                assert qc == cc

    def test_self_pairs_only_when_enabled(self, small_dataset):
        cfg = SamplerConfig(n_candidates=3, self_pair_fraction=1.0)
        pairs = self.batch(small_dataset, cfg, 2, batch_size=8,
                           pos_fraction=1.0)
        assert all(q == c for q, c, _ in pairs)

    def test_random_baseline_matches_definition(self, small_dataset):
        cfg = SamplerConfig(strategy="random_baseline")
        pairs = self.batch(small_dataset, cfg, 3, batch_size=30)
        for q, c, label in pairs:
            qc = small_dataset.get(q).class_label
            cc = small_dataset.get(c).class_label
            assert (qc == cc) == (label == 0)

    @pytest.mark.parametrize("fraction,in_class", [(0.3, False),
                                                   (0.5, False),
                                                   (0.6, True)])
    def test_negatives_follow_rounded_in_class_fraction(self, fraction,
                                                        in_class):
        # one negative per query: round(1 * fraction) of it is in-class
        ds = dataset_of_flats({c: [c / 3 + j / 40 for j in range(8)]
                               for c in range(3)})
        cfg = SamplerConfig(n_candidates=3, in_class_fraction=fraction)
        table = sampling.candidate_table(ds, cfg)
        rows, labels = sampling.make_pair_batch(
            table, 40, 0.0, np.random.default_rng(4))
        for q, c in rows:
            assert (ds.labels[q] == ds.labels[c]) == in_class
            assert c not in sampling._candidates_cached(table, q)

    def test_same_seed_reproduces_batch(self, small_dataset):
        cfg = SamplerConfig(n_candidates=3)
        assert self.batch(small_dataset, cfg, 5) == \
            self.batch(small_dataset, cfg, 5)

    def test_tiny_batch_rejected(self, small_dataset):
        table = sampling.candidate_table(small_dataset, SamplerConfig())
        with pytest.raises(ConfigError):
            sampling.make_pair_batch(table, batch_size=1, pos_fraction=0.5,
                                     rng=np.random.default_rng(0))

    def test_all_singletons_rejected(self):
        ds = dataset_of_flats({0: [0.1], 1: [0.5]})
        table = sampling.candidate_table(ds, SamplerConfig())
        with pytest.raises(DataError, match="two or more"):
            sampling.make_pair_batch(table, 4, 0.5,
                                     np.random.default_rng(0))


# Rows drawn from one generator per seed, a 6-pair batch (pos_fraction 0.5)
# and then a 4-triplet batch, on three classes of eight flat images with
# n_candidates 3.  Recorded before the negative draw was folded into one
# path; any change to how a batch consumes the generator shows here.
RECORDED_DRAWS = {
    ("biss", 0.3, 0): (
        [[20, 16], [12, 10], [7, 5], [1, 8], [4, 21], [15, 22]],
        [[12, 11, 23], [17, 19, 8], [13, 9, 4], [19, 16, 0]]),
    ("biss", 0.3, 1): (
        [[11, 12], [18, 16], [0, 1], [19, 15], [5, 12], [20, 6]],
        [[6, 0, 12], [9, 10, 16], [2, 0, 21], [18, 16, 8]]),
    ("biss", 0.3, 2): (
        [[20, 21], [2, 0], [9, 11], [10, 1], [8, 17], [19, 11]],
        [[23, 22, 14], [1, 2, 12], [4, 0, 12], [13, 14, 2]]),
    ("biss", 0.8, 0): (
        [[20, 16], [12, 10], [7, 5], [1, 4], [4, 7], [15, 14]],
        [[12, 11, 15], [17, 19, 22], [13, 9, 11], [19, 16, 20]]),
    ("biss", 0.8, 1): (
        [[11, 12], [18, 16], [0, 1], [19, 23], [5, 2], [20, 19]],
        [[6, 0, 2], [9, 10, 14], [2, 0, 7], [18, 16, 22]]),
    ("biss", 0.8, 2): (
        [[20, 21], [2, 0], [9, 11], [10, 9], [8, 14], [19, 22]],
        [[23, 22, 21], [1, 2, 5], [4, 0, 5], [13, 14, 10]]),
    ("random_baseline", 0.3, 0): (
        [[20, 21], [12, 9], [7, 0], [1, 8], [4, 21], [15, 22]],
        [[12, 13, 23], [17, 21, 8], [13, 15, 4], [19, 21, 0]]),
    ("random_baseline", 0.3, 1): (
        [[11, 12], [18, 23], [0, 2], [19, 15], [5, 12], [20, 6]],
        [[6, 5, 12], [9, 13, 16], [2, 0, 21], [18, 22, 8]]),
    ("random_baseline", 0.3, 2): (
        [[20, 17], [2, 3], [9, 14], [10, 1], [8, 17], [19, 11]],
        [[23, 17, 14], [1, 4, 12], [4, 5, 12], [13, 9, 2]]),
    ("random_baseline", 0.8, 0): (
        [[20, 21], [12, 9], [7, 0], [1, 8], [4, 21], [15, 22]],
        [[12, 13, 23], [17, 21, 8], [13, 15, 4], [19, 21, 0]]),
    ("random_baseline", 0.8, 1): (
        [[11, 12], [18, 23], [0, 2], [19, 15], [5, 12], [20, 6]],
        [[6, 5, 12], [9, 13, 16], [2, 0, 21], [18, 22, 8]]),
    ("random_baseline", 0.8, 2): (
        [[20, 17], [2, 3], [9, 14], [10, 1], [8, 17], [19, 11]],
        [[23, 17, 14], [1, 4, 12], [4, 5, 12], [13, 9, 2]]),
}


@pytest.mark.parametrize("strategy, fraction, seed", sorted(RECORDED_DRAWS))
def test_batches_draw_the_recorded_rows(strategy, fraction, seed):
    ds = dataset_of_flats({c: [c / 3 + j / 40 for j in range(8)]
                           for c in range(3)})
    table = sampling.candidate_table(ds, SamplerConfig(
        n_candidates=3, in_class_fraction=fraction, strategy=strategy))
    rng = np.random.default_rng(seed)
    rows, labels = sampling.make_pair_batch(table, 6, 0.5, rng)
    triplets = sampling.make_triplet_batch(table, 4, rng)
    pairs, expected_triplets = RECORDED_DRAWS[strategy, fraction, seed]
    assert rows.tolist() == pairs
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert triplets.tolist() == expected_triplets


def sixteenths_dataset(sizes):
    """Classes of ``(label, size)`` in that order, of random 4x4 images whose
    pixels are multiples of 1/16, so that every histogram bin is exact."""
    rng = np.random.default_rng(2024)
    return make_dataset(
        (f"f{label}-{j}", rng.integers(0, 17, (1, 4, 4)) / 16, label)
        for label, size in sizes for j in range(size))


# Unsorted and negative labels and a singleton class, drawn under each
# strategy: (pairs, triplets) from one generator.
FROZEN_BATCHES = {
    "biss": (
        [[14, 9], [10, 12], [8, 5], [12, 11], [0, 8], [4, 14], [14, 0],
         [7, 13]],
        [[1, 4, 6], [7, 6, 3], [5, 6, 12], [3, 2, 9]]),
    "random_baseline": (
        [[14, 12], [10, 14], [8, 7], [12, 10], [0, 8], [4, 14], [14, 0],
         [7, 13]],
        [[1, 4, 6], [7, 8, 3], [5, 6, 12], [3, 4, 9]]),
}


class TestFrozenDraws:
    @pytest.mark.parametrize("strategy", sorted(FROZEN_BATCHES))
    def test_batches(self, strategy):
        ds = sixteenths_dataset([(3, 5), (-1, 4), (8, 6), (0, 1)])
        table = sampling.candidate_table(
            ds, SamplerConfig(n_candidates=2, strategy=strategy))
        rng = np.random.default_rng(7)
        rows, labels = sampling.make_pair_batch(table, 8, 0.5, rng)
        pairs, triplets = FROZEN_BATCHES[strategy]
        assert rows.tolist() == pairs
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert sampling.make_triplet_batch(table, 4, rng).tolist() == \
            triplets

    def test_in_class_negatives(self):
        ds = sixteenths_dataset([(3, 5), (-1, 4), (8, 6)])
        table = sampling.candidate_table(
            ds, SamplerConfig(n_candidates=2, in_class_fraction=0.9))
        rng = np.random.default_rng(7)
        assert [sampling._negative(table, row, rng)
                for row in range(len(ds))] == \
            [4, 3, 4, 4, 3, 8, 7, 8, 7, 14, 14, 9, 9, 9, 10]

    def test_sample_negatives(self):
        ds = sixteenths_dataset([(3, 5), (-1, 4), (8, 6), (0, 1)])
        assert sampling.sample_negatives(
            "f3-0", ds, SamplerConfig(in_class_fraction=0.5), 4,
            np.random.default_rng(7), exclude=["f3-1"]) == \
            [("f3-3", True), ("f3-4", True), ("f8-4", False),
             ("f8-2", False)]


def test_random_baseline_table_of_many_classes_is_small():
    """The table keeps no per-class list of the rows outside the class:
    4000 items in 2000 classes stay far below the N x C row numbers
    (64 MB) that such lists would hold."""
    ds = Dataset([f"i{j}" for j in range(4000)], np.arange(4000) // 2,
                 np.zeros((4000, 1, 1, 1)))
    tracemalloc.start()
    try:
        sampling.candidate_table(ds, SamplerConfig(strategy="random_baseline"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


class TestMakeTripletBatch:
    def batch(self, ds, cfg, batch_size, seed):
        table = sampling.candidate_table(ds, cfg)
        rows = sampling.make_triplet_batch(table, batch_size,
                                           np.random.default_rng(seed))
        assert rows.shape == (batch_size, 3)
        return [tuple(ds.get(ds.ids[r]) for r in row) for row in rows]

    def test_class_constraints(self, small_dataset):
        trips = self.batch(small_dataset, SamplerConfig(n_candidates=3), 25,
                           0)
        for a, p, _ in trips:
            assert a.class_label == p.class_label
            assert a.id != p.id

    def test_negative_respects_in_class_fraction_zero(self, small_dataset):
        cfg = SamplerConfig(n_candidates=3, in_class_fraction=0.0)
        for a, _, n in self.batch(small_dataset, cfg, 25, 1):
            assert a.class_label != n.class_label

    def test_random_baseline_strategy(self, small_dataset):
        cfg = SamplerConfig(strategy="random_baseline")
        for a, p, n in self.batch(small_dataset, cfg, 15, 2):
            assert p.class_label == a.class_label
            assert n.class_label != a.class_label

    def test_same_seed_reproduces_batch(self, small_dataset):
        cfg = SamplerConfig(n_candidates=3)
        a = self.batch(small_dataset, cfg, 10, 11)
        b = self.batch(small_dataset, cfg, 10, 11)
        assert [[i.id for i in t] for t in a] == [[i.id for i in t]
                                                  for t in b]
