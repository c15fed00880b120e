"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible even under capture) so a
full run reads as a nine-line report card.  The two training criteria are
seeded and were calibrated once; their thresholds are not tuned per run.
"""

import math
import time

import numpy as np
import pytest

from simembed import cli, data_io, net, ops, retrieval, sampling, toydata
from simembed import training as tr
from simembed.dataset import Dataset, make_dataset
from simembed.distance import (DistanceMetric, EUCLIDEAN, lk_distance,
                               relative_contrast)
from simembed.losses import (AngularConfig, ContrastiveConfig, TripletSample,
                             angular_loss, contrastive_loss,
                             squared_distance_with_grad)
from simembed.retrieval import build_index, query_topk


def report(capsys, num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} {status}: {detail}", flush=True)


def sample_triplets(dataset: Dataset, count: int,
                    rng: np.random.Generator) -> list[TripletSample]:
    by_class = {c: [dataset.ids[r] for r in rows]
                for c, rows in dataset.class_rows.items()}
    classes = sorted(by_class)
    triplets = []
    while len(triplets) < count:
        c = classes[rng.integers(len(classes))]
        a, p = rng.choice(by_class[c], 2, replace=False)
        other = classes[rng.integers(len(classes))]
        while other == c:
            other = classes[rng.integers(len(classes))]
        n = by_class[other][rng.integers(len(by_class[other]))]
        triplets.append(TripletSample(str(a), str(p), str(n)))
    return triplets


# --- criterion 1: gradient suite ------------------------------------------

def _tie_free(rng: np.random.Generator, shape) -> np.ndarray:
    """Random tensor whose 2x2 pool windows have no near-ties."""
    while True:
        x = rng.standard_normal(shape)
        n, c, h, w = shape
        windows = x.reshape(n, c, h // 2, 2, w // 2, 2) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        ordered = np.sort(windows, axis=1)
        if (ordered[:, 3] - ordered[:, 2]).min() > 1e-3:
            return x


def _away_from_zero(x: np.ndarray, gap: float = 1e-2) -> np.ndarray:
    x = x.copy()
    x[np.abs(x) < gap] += 5 * gap
    return x


def _op_case_makers():
    def conv_case(rng):
        return (lambda x, k, b: ops.conv2d(x, k, b, stride=1, padding=1),
                [rng.standard_normal((1, 2, 4, 4)),
                 rng.standard_normal((2, 2, 3, 3)),
                 rng.standard_normal(2)])

    def relu_case(rng):
        return ops.relu, [_away_from_zero(rng.standard_normal((3, 7)))]

    def maxpool_case(rng):
        return ops.maxpool2x2, [_tie_free(rng, (1, 2, 4, 4))]

    def downsample_case(rng):
        return (lambda x: ops.downsample_avg(x, 2),
                [rng.standard_normal((1, 2, 4, 4))])

    def affine_case(rng):
        return ops.affine, [rng.standard_normal((3, 5)),
                            rng.standard_normal((5, 4)),
                            rng.standard_normal(4)]

    def l2norm_case(rng):
        x = rng.standard_normal((3, 6))
        while np.linalg.norm(x, axis=1).min() < 0.3:
            x = rng.standard_normal((3, 6))
        return ops.l2_normalize, [x]

    def concat_case(rng):
        return (lambda a, b: ops.concat([a, b]),
                [rng.standard_normal((2, 3)), rng.standard_normal((2, 4))])

    def dropout_case(rng):
        # a fresh identically-seeded generator per call fixes the mask, so
        # central differences see a deterministic linear map
        return (lambda x: ops.dropout(x, 0.35, np.random.default_rng(9)),
                [rng.standard_normal((4, 6))])

    return {"conv2d": conv_case, "relu": relu_case,
            "maxpool2x2": maxpool_case, "downsample_avg": downsample_case,
            "affine": affine_case, "l2_normalize": l2norm_case,
            "concat": concat_case, "dropout": dropout_case}


def _loss_fd_worst(fn, vectors, step=1e-5):
    """Max relative error of analytic loss gradients vs central diffs."""
    grads = fn(*vectors)[1:]
    worst = 0.0
    for vi, v in enumerate(vectors):
        for e in range(v.size):
            orig = v[e]
            v[e] = orig + step
            f_plus = fn(*vectors)[0]
            v[e] = orig - step
            f_minus = fn(*vectors)[0]
            v[e] = orig
            num = (f_plus - f_minus) / (2 * step)
            ana = float(grads[vi][e])
            worst = max(worst,
                        abs(ana - num) / max(abs(ana), abs(num), 1e-4))
    return worst


def _pair_at_squared_distance(rng, dim, dsq):
    xq = rng.standard_normal(dim)
    u = rng.standard_normal(dim)
    xc = xq + u * (math.sqrt(dsq) / np.linalg.norm(u))
    return xq, xc


def _contrastive_cases(n):
    """Seeded pairs staying clear of the hinge boundary in every variant."""
    as_written = ContrastiveConfig(hinge_variant="as_written")
    squared = ContrastiveConfig(hinge_variant="squared_hinge")
    scenarios = [
        ("similar", 0, as_written, 0.7),
        ("as_written active", 1, as_written, 0.4),
        ("as_written inactive", 1, as_written, 2.0),
        ("squared_hinge active", 1, squared, 0.25),
        ("squared_hinge inactive", 1, squared, 2.25),
    ]
    for i in range(n):
        rng = np.random.default_rng([2000, i])
        _, label, cfg, dsq = scenarios[i % len(scenarios)]
        xq, xc = _pair_at_squared_distance(rng, 8, dsq)
        yield (lambda q, c, lab=label, cf=cfg:
               contrastive_loss(q, c, lab, cf)), [xq, xc]


def _angular_cases(n):
    deg45 = AngularConfig(45.0, "negative_to_center")
    deg30 = AngularConfig(30.0, "as_written")
    for i in range(n):
        rng = np.random.default_rng([3000, i])
        xa = rng.standard_normal(8)
        xp = rng.standard_normal(8)
        center = (xa + xp) / 2.0
        dsq_ap = float(((xa - xp) ** 2).sum())
        scenario = i % 3
        if scenario == 0:
            # active: place the negative so 4*D(n,c)^2 = dsq_ap / 4
            w = rng.standard_normal(8)
            xn = center + w * (math.sqrt(dsq_ap) / 4 / np.linalg.norm(w))
            cfg = deg45
        elif scenario == 1:
            # inactive with a wide margin: 4*D(n,c)^2 = 4*dsq_ap
            w = rng.standard_normal(8)
            xn = center + w * (math.sqrt(dsq_ap) / np.linalg.norm(w))
            cfg = deg45
        else:
            xn = rng.standard_normal(8)
            cfg = deg30
        yield (lambda a, p, nv, cf=cfg: angular_loss(a, p, nv, cf)), \
            [xa, xp, xn]


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    cases_per_op = 100
    worst_by_name = {}
    counted = {}
    for position, (name, make) in enumerate(_op_case_makers().items()):
        worst = 0.0
        for i in range(cases_per_op):
            rng = np.random.default_rng([1000, position, i])
            op, inputs = make(rng)
            fd_rng = np.random.default_rng([4000, i])
            inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
            result = ops.finite_diff_check(op, inputs, step=1e-5,
                                           tolerance=1e-4, rng=fd_rng)
            worst = max(worst, result.max_rel_error)
        worst_by_name[name] = worst
        counted[name] = cases_per_op

    for name, cases in (("contrastive", _contrastive_cases(100)),
                        ("angular", _angular_cases(100))):
        worst = 0.0
        n_cases = 0
        for fn, vectors in cases:
            worst = max(worst, _loss_fd_worst(fn, vectors))
            n_cases += 1
        worst_by_name[name] = worst
        counted[name] = n_cases

    elapsed = time.perf_counter() - t0
    overall = max(worst_by_name.values())
    passed = overall < 1e-4 and elapsed < 120 \
        and all(v >= 100 for v in counted.values())
    report(capsys, 1, passed,
           f"gradient suite, {sum(counted.values())} cases over "
           f"{len(counted)} ops/losses, max rel err {overall:.2e} "
           f"(tol 1e-4), {elapsed:.1f}s (limit 120s)")
    assert passed, worst_by_name


def test_criterion_2_loss_identities(capsys):
    ok = True
    details = []

    # similar pair pays exactly half the squared distance
    xq = np.array([0.0, 0.0])
    xc = np.array([2.0, 0.0])
    loss, gq, gc = contrastive_loss(xq, xc, 0, ContrastiveConfig())
    ok &= loss == 2.0
    rng = np.random.default_rng(42)
    a, b = rng.standard_normal(16), rng.standard_normal(16)
    dsq, _ = squared_distance_with_grad(a, b, EUCLIDEAN)
    loss, _, _ = contrastive_loss(a, b, 0, ContrastiveConfig())
    ok &= loss == 0.5 * dsq
    details.append("Y=0 == D^2/2")

    # dissimilar pair beyond the margin: zero loss, exactly zero gradient
    far_q, far_c = np.zeros(4), np.full(4, 1.0)  # D^2 = 4 > margin 1
    for variant in ("as_written", "squared_hinge"):
        cfg = ContrastiveConfig(hinge_variant=variant)
        loss, gq, gc = contrastive_loss(far_q, far_c, 1, cfg)
        ok &= loss == 0.0
        ok &= bool(np.all(gq == 0.0) and np.all(gc == 0.0))
    details.append("inactive hinge -> 0 loss, 0 grad, both variants")

    # coincident anchor and positive: angular loss is exactly zero
    xa = rng.standard_normal(8)
    xn = rng.standard_normal(8)
    for cfg in (AngularConfig(45.0, "negative_to_center"),
                AngularConfig(30.0, "as_written")):
        loss, ga, gp, gn = angular_loss(xa, xa.copy(), xn, cfg)
        ok &= loss == 0.0
        ok &= bool(np.all(ga == 0.0) and np.all(gp == 0.0)
                   and np.all(gn == 0.0))
    details.append("anchor==positive -> 0")

    report(capsys, 2, bool(ok), "loss identities: " + "; ".join(details))
    assert ok


def test_criterion_3_fractional_metric_suite(capsys):
    a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    hand = (lk_distance(a, b, DistanceMetric(1.0)) == 2.0
            and lk_distance(a, b, DistanceMetric(2.0))
            == pytest.approx(math.sqrt(2.0), rel=1e-12)
            and lk_distance(a, b, DistanceMetric(0.5))
            == pytest.approx(4.0, rel=1e-12))

    x, y, z = np.array([0.0, 0.0]), np.array([1.0, 0.0]), \
        np.array([1.0, 1.0])
    half = DistanceMetric(0.5)
    triangle_broken = (lk_distance(x, z, half)
                       > lk_distance(x, y, half)
                       + lk_distance(y, z, half))

    rng = np.random.default_rng(314)
    k = 0.25
    powered = np.empty(1000)
    distance = np.empty(1000)
    for i in range(1000):
        p, q = rng.standard_normal(10), rng.standard_normal(10)
        powered[i] = (np.abs(p - q) ** k).sum()
        distance[i] = lk_distance(p, q, DistanceMetric(k))
    argsort_invariant = bool(
        (np.argsort(powered) == np.argsort(distance)).all())

    passed = bool(hand and triangle_broken and argsort_invariant)
    report(capsys, 3, passed,
           f"hand values ok={bool(hand)}, k=0.5 triangle counterexample "
           f"ok={triangle_broken}, argsort invariance over 1000 pairs "
           f"ok={argsort_invariant}")
    assert passed


def test_criterion_4_distance_concentration(capsys):
    t0 = time.perf_counter()
    trials = 20
    hits = 0
    for trial in range(trials):
        contrast = {}
        for dim, k in ((2, 2.0), (100, 2.0), (100, 0.3)):
            rng = np.random.default_rng([trial, dim, int(k * 10)])
            points = rng.uniform(0.0, 1.0, (1000, dim))
            reference = rng.uniform(0.0, 1.0, dim)
            contrast[(dim, k)] = relative_contrast(points, reference,
                                                   DistanceMetric(k))
        shrinks = contrast[(2, 2.0)] > contrast[(100, 2.0)]
        fractional_wins = contrast[(100, 0.3)] > contrast[(100, 2.0)]
        hits += int(shrinks and fractional_wins)
    elapsed = time.perf_counter() - t0
    rate = hits / trials
    passed = rate >= 0.95 and elapsed < 60
    report(capsys, 4, passed,
           f"distance concentration: {hits}/{trials} trials show L2 "
           f"contrast collapse at d=100 and k=0.3 recovering it, "
           f"{elapsed:.1f}s (limit 60s)")
    assert passed


def test_criterion_5_negative_composition(capsys):
    dataset = make_dataset(
        (f"c{c}i{j}", np.full((1, 4, 4), c + j / 300, dtype=np.float32), c)
        for c in range(2) for j in range(150))
    cfg = sampling.SamplerConfig(in_class_fraction=0.3)
    all_exact = True
    for seed in range(50):
        drawn = sampling.sample_negatives(
            "c0i0", dataset, cfg, 100, np.random.default_rng(seed))
        n_in = sum(1 for _, in_class in drawn if in_class)
        n_out = len(drawn) - n_in
        ids = [i for i, _ in drawn]
        all_exact &= (n_in == 30 and n_out == 70
                      and len(set(ids)) == 100 and "c0i0" not in ids)
    report(capsys, 5, all_exact,
           "negative batches split exactly 30 in-class / 70 out-of-class "
           "across 50 seeds")
    assert all_exact


def test_criterion_6_end_to_end_toy_training(capsys):
    t0 = time.perf_counter()
    ds = toydata.make_shape_dataset(2500, seed=42)
    train_set = ds.subset(ds.ids[:2000])
    test_set = ds.subset(ds.ids[2000:])
    net_cfg = net.desk_scale_config()
    metric = DistanceMetric(0.25)

    triplets = sample_triplets(test_set, 1000, np.random.default_rng(777))

    untrained = net.build_network(net_cfg, seed=0)
    acc_untrained = tr.triplet_accuracy(untrained, triplets, test_set,
                                        metric)

    sampler_cfg = sampling.SamplerConfig(n_candidates=100, rng_seed=0)
    train_cfg = tr.TrainConfig(
        learning_rate=1e-3, epochs=6, batch_size=32,
        augmentation=frozenset({"hflip", "shift"}), seed=0,
        val_pairs=64, val_triplets=128)
    checkpoint, _ = tr.train(train_set, test_set, net_cfg, sampler_cfg,
                             train_cfg)
    acc_trained = tr.triplet_accuracy(checkpoint, triplets, test_set,
                                      metric)

    vectors = net.embed(checkpoint, test_set.images(test_set.ids))
    index = build_index(test_set.ids, test_set.labels, vectors, metric)
    qrng = np.random.default_rng(888)
    aug_cfg = tr.TrainConfig(augmentation=frozenset({"hflip", "shift"}))
    queries = [(tr.augment(test_set.get(i).image, aug_cfg, qrng), [i])
               for i in test_set.ids]
    recall = tr.topk_recall(checkpoint, queries, index, k=20)

    elapsed = time.perf_counter() - t0
    random_baseline = 20 / index.size  # k / N = 0.04
    passed = (0.4 <= acc_untrained <= 0.6
              and acc_trained >= 0.70
              and recall >= 3 * random_baseline
              and elapsed <= 900)
    report(capsys, 6, passed,
           f"toy training: untrained acc {acc_untrained:.3f} "
           f"(need [0.4, 0.6]), trained acc {acc_trained:.3f} "
           f"(need >= 0.70), top-20 recall {recall:.3f} "
           f"(need >= {3 * random_baseline:.2f}), {elapsed:.0f}s "
           f"(limit 900s)")
    assert passed


def test_criterion_7_sampler_ablation_direction(capsys):
    ds = toydata.make_shape_dataset(1300, seed=99)
    train_set = ds.subset(ds.ids[:1000])
    val_set = ds.subset(ds.ids[1000:])
    net_cfg = net.desk_scale_config()
    metric = DistanceMetric(0.25)
    triplets = sample_triplets(val_set, 800, np.random.default_rng(555))

    wins = 0
    outcomes = []
    for seed in (0, 1, 2):
        accs = {}
        for strategy in ("biss", "random_baseline"):
            sampler_cfg = sampling.SamplerConfig(
                n_candidates=100, rng_seed=seed, strategy=strategy)
            train_cfg = tr.TrainConfig(
                learning_rate=1e-3, epochs=6, batch_size=32,
                augmentation=frozenset({"hflip", "shift"}), seed=seed,
                val_pairs=64, val_triplets=64)
            checkpoint, _ = tr.train(train_set, val_set, net_cfg,
                                     sampler_cfg, train_cfg)
            accs[strategy] = tr.triplet_accuracy(checkpoint, triplets,
                                                 val_set, metric)
        non_inferior = accs["biss"] >= accs["random_baseline"] - 0.02
        wins += int(non_inferior)
        outcomes.append(f"seed {seed}: biss {accs['biss']:.3f} vs "
                        f"random {accs['random_baseline']:.3f}")
    passed = wins >= 2
    report(capsys, 7, passed,
           f"scored sampling non-inferior to random on {wins}/3 seeds "
           f"({'; '.join(outcomes)})")
    assert passed


def test_criterion_8_determinism_and_golden_parsers(tmp_path, capsys):
    ok = True
    notes = []

    # golden IDX fixture reproduces known pixels
    import gzip
    import struct
    pixels = np.array([[0, 255], [51, 102]], dtype=np.uint8)
    blob_i = struct.pack(">IIII", 0x803, 1, 2, 2) + pixels.tobytes()
    blob_l = struct.pack(">II", 0x801, 1) + bytes([4])
    parsed = data_io.parse_idx(gzip.compress(blob_i),
                               gzip.compress(blob_l))
    expected = pixels.astype(np.float32) / np.float32(255.0)
    ok &= bool(np.array_equal(parsed.get(parsed.ids[0]).image[0], expected))
    ok &= parsed.get(parsed.ids[0]).class_label == 4
    record = bytes([3]) + bytes([128]) * 3072
    cifar = data_io.parse_cifar10_bin(record)
    ok &= bool(np.all(cifar.get(cifar.ids[0]).image
                      == np.float32(128) / np.float32(255)))
    ok &= cifar.get(cifar.ids[0]).class_label == 3
    notes.append("golden parsers exact")

    # format round trips are bit-exact
    ds = toydata.make_shape_dataset(60, seed=5)
    p1, p2 = str(tmp_path / "r1.dset"), str(tmp_path / "r2.dset")
    data_io.write_dataset(p1, ds)
    data_io.write_dataset(p2, data_io.read_dataset(p1))
    ok &= open(p1, "rb").read() == open(p2, "rb").read()
    ckpt = net.build_network(net.desk_scale_config(), seed=1)
    c1, c2 = str(tmp_path / "c1.ckpt"), str(tmp_path / "c2.ckpt")
    net.save_checkpoint(ckpt, c1)
    net.save_checkpoint(net.load_checkpoint(c1), c2)
    ok &= open(c1, "rb").read() == open(c2, "rb").read()
    vecs = net.embed(ckpt, ds.images(ds.ids[:10]))
    index = build_index(ds.ids[:10], ds.labels[:10], vecs,
                        DistanceMetric(0.25))
    e1, e2 = str(tmp_path / "e1.emb"), str(tmp_path / "e2.emb")
    retrieval.write_embeddings(e1, index)
    retrieval.write_embeddings(e2, retrieval.read_embeddings(e1))
    ok &= open(e1, "rb").read() == open(e2, "rb").read()
    notes.append("round trips bit-exact")

    # seeded CLI chain is byte-identical on rerun
    data_path = str(tmp_path / "toy.dset")
    data_io.write_dataset(data_path, ds)
    outputs = {}
    for run in ("a", "b"):
        ckpt_path = str(tmp_path / f"{run}.ckpt")
        emb_path = str(tmp_path / f"{run}.emb")
        assert cli.main(["train", "--train-data", data_path,
                         "--output", ckpt_path, "--seed", "7"]) == 0
        assert cli.main(["embed", "--checkpoint", ckpt_path,
                         "--data", data_path, "--output", emb_path]) == 0
        capsys.readouterr()
        assert cli.main(["query", "--embeddings", emb_path,
                         "--id", ds.ids[0], "-k", "5"]) == 0
        outputs[run] = (open(ckpt_path, "rb").read(),
                        open(emb_path, "rb").read(),
                        capsys.readouterr().out)
    ok &= outputs["a"] == outputs["b"]
    notes.append("seeded train->embed->query rerun byte-identical")

    report(capsys, 8, bool(ok), "; ".join(notes))
    assert ok


def test_criterion_9_retrieval_exactness(capsys):
    rng = np.random.default_rng(2718)
    vectors = rng.standard_normal((200, 8)).astype(np.float32)
    all_ok = True
    for exponent in (0.25, 1.0, 2.0):
        metric = DistanceMetric(exponent)
        ids = [f"r{i:03d}" for i in range(200)]
        index = build_index(ids, np.arange(200) % 7, vectors, metric)
        query = rng.standard_normal(8)
        oracle = sorted(
            ((lk_distance(query, vector, metric), item_id)
             for item_id, vector in zip(ids, vectors)),
            key=lambda pair: (pair[0], pair[1]))
        for k in (1, 5, 20, 200):
            got = query_topk(index, query, k)
            ids_match = [i for i, _ in got] == [i for _, i in oracle[:k]]
            dists_match = np.allclose([d for _, d in got],
                                      [d for d, _ in oracle[:k]],
                                      rtol=1e-10, atol=0)
            all_ok &= ids_match and dists_match
    report(capsys, 9, bool(all_ok),
           "query_topk equals the full-sort oracle on 200 records for "
           "k in {1, 5, 20, 200} and exponents {0.25, 1, 2}")
    assert all_ok
