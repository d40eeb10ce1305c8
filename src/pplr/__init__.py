"""Pseudo-label refinement engine over feature banks.

Clusters global features into pseudo-labels, scores how well each part
feature space agrees with the global neighborhood structure, refines the
labels both ways (smoothing for parts, prediction ensembling for the
global head), and trains a toy model end to end on synthetic banks.
"""

from .agreement import agreement_matrix, cross_agreement
from .cluster import DbscanParams, cluster_centroids, dbscan
from .core import (
    ConfigError,
    CrossAgreement,
    DataFormatError,
    FeatureBank,
    NoValidQueryError,
    NumericalError,
    PPLRError,
    PseudoLabels,
    RankedLists,
    l2_normalize,
    normalize_bank,
)
from .evaluate import (
    LabelQuality,
    RetrievalResult,
    average_precision,
    label_quality,
    map_cmc,
)
from .ingest import (
    SynthConfig,
    generate_synthetic_bank,
    read_feature_bank,
    write_feature_bank,
)
from .neighbors import (
    DistanceMatrix,
    k_reciprocal_jaccard,
    pairwise_sq_euclidean,
    topk_ranked_lists,
)
from .objectives import (
    CameraProxySet,
    ClassifierHead,
    LossWeights,
    build_camera_proxies,
    inter_camera_loss_batch,
    softmax_triplet_loss,
)
from .pipeline import (
    EpochReport,
    PipelineConfig,
    ToyModel,
    agreement_scores,
    cluster_labels,
    clustering_stage,
    initial_model,
    load_model,
    project_bank,
    run,
    save_model,
    training_stage,
)
from .refine import (
    RefinementConfig,
    aals_targets,
    effective_alpha,
    pglr_targets,
)

__version__ = "0.1.0"
