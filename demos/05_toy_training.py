"""
Training the multi-scale embedding network on synthetic shapes
==============================================================

A contrastive run on the ten-class shape set: 1500 training images, six
epochs, desk-scale network.  Prints the per-epoch log and the
triplet-ordering accuracy before and after, evaluated under the fractional
retrieval metric.  Takes about half a minute on a laptop CPU.
"""

import numpy as np

from simembed import net, sampling, toydata
from simembed import training
from simembed.distance import DistanceMetric
from simembed.losses import TripletSample

dataset = toydata.make_shape_dataset(1800, seed=3)
train_set = dataset.subset(dataset.ids[:1500])
held_out = dataset.subset(dataset.ids[1500:])
print(f"train {len(train_set)} / held out {len(held_out)}")

# fixed evaluation triplets from the held-out split
rng = np.random.default_rng(99)
by_class = {c: [held_out.ids[r] for r in rows]
            for c, rows in held_out.class_rows.items()}
classes = sorted(by_class)
triplets = []
while len(triplets) < 400:
    c = classes[rng.integers(len(classes))]
    a, p = rng.choice(by_class[c], 2, replace=False)
    other = classes[rng.integers(len(classes))]
    while other == c:
        other = classes[rng.integers(len(classes))]
    n = by_class[other][rng.integers(len(by_class[other]))]
    triplets.append(TripletSample(str(a), str(p), str(n)))

metric = DistanceMetric(0.25)
net_cfg = net.desk_scale_config()

before = training.triplet_accuracy(net.build_network(net_cfg, seed=0),
                                   triplets, held_out, metric)
print(f"untrained triplet accuracy: {before:.3f} (chance is 0.5)")

sampler_cfg = sampling.SamplerConfig(n_candidates=100, rng_seed=0)
train_cfg = training.TrainConfig(
    learning_rate=1e-3, epochs=6, batch_size=32,
    augmentation=frozenset({"hflip", "shift"}), seed=0,
    val_pairs=64, val_triplets=128)

checkpoint, logs = training.train(train_set, held_out, net_cfg,
                                  sampler_cfg, train_cfg)
print("\nepoch  train_loss  val_loss  val_acc  seconds")
for row in logs:
    print(f"{row.epoch:5d}  {row.mean_train_loss:10.4f}  "
          f"{row.validation_loss:8.4f}  {row.triplet_accuracy:7.3f}  "
          f"{row.elapsed_seconds:7.1f}")

after = training.triplet_accuracy(checkpoint, triplets, held_out, metric)
print(f"\ntrained triplet accuracy:   {after:.3f} "
      f"(best epoch {checkpoint.epoch})")
