"""
Building and querying an embedding index
========================================

Embeds a catalog of shape images with an untrained (but deterministic)
network, freezes the vectors and the catalog's ids and labels into an
index, saves the index to its binary
file format, and answers nearest-neighbor queries with the fractional
metric.  Untrained embeddings already cluster a little because the network
sees real pixel structure; training sharpens the effect (see demo 05).
"""

import os
import tempfile

import numpy as np

from simembed import net, retrieval, toydata
from simembed.distance import DistanceMetric

catalog_set = toydata.make_shape_dataset(300, seed=21)
checkpoint = net.build_network(net.desk_scale_config(), seed=4)

# the index takes the dataset's id and label columns as they are
vectors = net.embed(checkpoint, catalog_set.images())
index = retrieval.build_index(catalog_set.ids, catalog_set.labels, vectors,
                              DistanceMetric(0.25))
print(f"index: {index.size} records, dim {index.dim}, "
      f"metric k={index.metric.exponent}")

# round-trip through the on-disk format
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "catalog.emb")
    retrieval.write_embeddings(path, index)
    size = os.path.getsize(path)
    index = retrieval.read_embeddings(path)
    print(f"saved and re-read {size} bytes")

query_id = catalog_set.ids[42]
query_class = catalog_set.get(query_id).class_label
(row,) = retrieval.rows_of(index, [query_id])
results = retrieval.query_topk(index, index.vectors[row], k=8)

print(f"\nquery {query_id} (class {query_class}), top 8:")
hits = 0
for item_id, dist in results:
    label = catalog_set.get(item_id).class_label
    marker = "*" if label == query_class else " "
    hits += int(label == query_class)
    print(f"  {marker} {item_id:<10} class {label}  D={dist:.4f}")
print(f"\n{hits}/8 retrieved items share the query's class "
      f"(the query itself comes back first at D=0)")

recall = retrieval.topk_recall(index, index.vectors[[row]], [[query_id]], k=1)
print(f"recall@1 of the stored vector against itself: {recall}")
