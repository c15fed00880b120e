"""Make-up of each workload's inputs, at full and at smoke-test size."""

DIM = 64            # query records: embedding width of the desk-scale net
CLUSTERS = 100      # query records: mixture components
CLUSTER_SPREAD = 0.1  # query records: per-coordinate noise around a centre
METRIC_K = 0.25     # fractional L_k exponent of every index
TOPK = 10
ID_BYTES = 10

SIZES = {
    "full": {
        "train_items": 1500, "held_out_items": 300, "epochs": 3,
        "catalog_items": 20000,
        "records": 100000, "min_queries": 100,
    },
    "tiny": {
        "train_items": 400, "held_out_items": 100, "epochs": 2,
        "catalog_items": 300,
        "records": 2000, "min_queries": 10,
    },
}


def record_id(i: int) -> str:
    return f"rec-{i:06d}"
