"""
Mining training pairs with a cheap similarity scorer
====================================================

Siamese training needs labeled pairs.  Positives come from a basic image
similarity scorer (intensity-histogram L1 distance): for each query it
ranks the query's classmates and keeps the closest ones as candidates.
``sample_negatives`` mixes in-class and out-of-class items 3:7, because
items from the same category that the scorer does NOT consider close make
hard negatives.  A training batch draws one negative per query with that
rule, and round(1 * 0.3) == 0, so at this fraction its negatives all come
from other classes.
"""

import numpy as np

from simembed import sampling, toydata

dataset = toydata.make_shape_dataset(200, seed=11)
print(f"dataset: {len(dataset)} items, "
      f"{len(dataset.class_rows)} shape classes")

scorer = sampling.BissScorer(kind="intensity_histogram", bins=16)
query_id = dataset.ids[0]
query = dataset.get(query_id)
print(f"\nquery {query_id} (class {query.class_label})")

# score a few classmates by hand to see what the scorer measures
classmates = [dataset.ids[r] for r in dataset.class_rows[query.class_label]
              if dataset.ids[r] != query_id][:5]
for other in classmates:
    s = sampling.biss_score(scorer, query.image, dataset.get(other).image)
    print(f"  score vs {other}: {s:.4f}")

cfg = sampling.SamplerConfig(n_candidates=5, in_class_fraction=0.3,
                             rng_seed=0, scorer=scorer)
candidates = sampling.positive_candidates(query_id, dataset, cfg)
print(f"\ntop-{cfg.n_candidates} positive candidates: {candidates}")

rng = np.random.default_rng(0)
negatives = sampling.sample_negatives(query_id, dataset, cfg, 10, rng,
                                      exclude=candidates)
n_in = sum(1 for _, in_class in negatives if in_class)
print(f"\n10 negatives -> {n_in} in-class, {10 - n_in} out-of-class:")
for neg_id, in_class in negatives:
    tag = "in " if in_class else "out"
    print(f"  [{tag}] {neg_id} (class {dataset.get(neg_id).class_label})")

# a full batch: the table ranks every item's candidates once, and batches
# are rows of dataset positions; label 0 = similar, label 1 = dissimilar
table = sampling.candidate_table(dataset, cfg)
rows, labels = sampling.make_pair_batch(table, batch_size=8,
                                        pos_fraction=0.5,
                                        rng=np.random.default_rng(1))
print("\none training batch:")
for (q, c), label in zip(rows, labels):
    print(f"  {dataset.ids[q]} / {dataset.ids[c]}  label={label}")
