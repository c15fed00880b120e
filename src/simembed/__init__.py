"""simembed: siamese metric-learning embeddings with fractional-distance
retrieval, self-contained on numpy."""

from .dataset import Dataset, DatasetItem, make_dataset
from .distance import (EUCLIDEAN, MANHATTAN, DistanceMetric, knn, knn_many,
                       lk_distance, pairwise_distances, relative_contrast)
from .errors import (ConfigError, DataError, DimensionError, FormatError,
                     NumericError, SimEmbedError)
from .losses import (AngularConfig, ContrastiveConfig, TripletSample,
                     angular_loss, batch_loss, contrastive_loss)
from .net import (BranchSpec, Checkpoint, ConvSpec, MultiScaleNetConfig,
                  build_network, desk_scale_config, embed, embed_with_grad,
                  load_checkpoint, save_checkpoint)
from .retrieval import (EmbeddingIndex, EmbeddingRecord, build_index,
                        query_topk, read_embeddings, recall_at_k,
                        write_embeddings)
from .sampling import (BissScorer, SamplerConfig, biss_score,
                       candidate_table, make_pair_batch, make_triplet_batch,
                       positive_candidates, sample_negatives)
from .training import (TrainConfig, TrainLogRow, augment, rmsprop_step,
                    topk_recall, train, triplet_accuracy)

__version__ = "0.1.0"

__all__ = [
    "AngularConfig", "BissScorer", "BranchSpec", "Checkpoint", "ConfigError",
    "ContrastiveConfig", "ConvSpec", "DataError", "Dataset", "DatasetItem",
    "DimensionError", "DistanceMetric", "EUCLIDEAN", "EmbeddingIndex",
    "EmbeddingRecord", "FormatError", "MANHATTAN", "MultiScaleNetConfig",
    "NumericError", "SamplerConfig", "SimEmbedError", "TrainConfig",
    "TrainLogRow", "TripletSample", "angular_loss", "augment", "batch_loss",
    "biss_score", "build_index", "build_network", "candidate_table",
    "contrastive_loss", "desk_scale_config", "embed", "embed_with_grad", "knn",
    "knn_many", "lk_distance", "load_checkpoint", "make_dataset",
    "make_pair_batch", "make_triplet_batch", "pairwise_distances",
    "positive_candidates", "query_topk", "read_embeddings", "recall_at_k",
    "relative_contrast", "rmsprop_step", "sample_negatives",
    "save_checkpoint", "topk_recall", "train", "triplet_accuracy",
    "write_embeddings",
]
