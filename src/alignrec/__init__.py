"""Closed-form item-item recommenders with metadata similarity alignment.

The package covers the full experimental path: interaction ingestion and
cold/warm splitting, metadata featurization, smoothed-cosine similarity
mixing, the popularity-weighted alignment matrix, aligned EASE and
modified-SLIM solvers, ranking metrics with bootstrap intervals, and a
config-driven CLI runner.
"""

from .alignment import (
    AlignmentConfig,
    AlignmentMatrix,
    MixCoefficients,
    align,
    default_mix,
    fit_mix_coefficients,
    mix_similarities,
    popularity_regularizer,
    smoothed_cosine,
)
from .data import (
    ColdSplit,
    Dataset,
    WarmSplit,
    load_interactions,
    load_split,
    make_cold_split,
    make_warm_split,
    save_cold_split,
    save_warm_split,
)
from .errors import (
    CapacityError,
    ConfigError,
    EmptyDatasetError,
    FormatError,
    ParseError,
    SingularMatrixError,
    SolverError,
    StageError,
)
from .evaluation import (
    EvalReport,
    MetricResult,
    RankedList,
    bootstrap_ci,
    evaluate_scenario,
    hr_at_k,
    ndcg_at_k,
)
from .experiment import grid_search, load_config, run_experiment
from .features import (
    AttributeSpec,
    FeatureBlock,
    FeatureSet,
    build_feature_set,
    load_embedding_block,
    multihot_encode,
    tfidf_encode,
)
from .linalg import gram, solve_general
from .solvers import (
    EaseConfig,
    FitContext,
    ItemModel,
    MslimConfig,
    fit_ease,
    fit_mslim,
    itemknn_scores,
    load_model,
    predict,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentConfig", "AlignmentMatrix", "MixCoefficients", "align",
    "default_mix", "fit_mix_coefficients", "mix_similarities",
    "popularity_regularizer", "smoothed_cosine",
    "ColdSplit", "Dataset", "WarmSplit", "load_interactions", "load_split",
    "make_cold_split", "make_warm_split", "save_cold_split", "save_warm_split",
    "CapacityError", "ConfigError", "EmptyDatasetError", "FormatError",
    "ParseError", "SingularMatrixError", "SolverError", "StageError",
    "EvalReport", "MetricResult", "RankedList", "bootstrap_ci",
    "evaluate_scenario", "hr_at_k", "ndcg_at_k",
    "grid_search", "load_config", "run_experiment",
    "AttributeSpec", "FeatureBlock", "FeatureSet", "build_feature_set",
    "load_embedding_block", "multihot_encode", "tfidf_encode",
    "gram", "solve_general",
    "EaseConfig", "FitContext", "ItemModel", "MslimConfig", "fit_ease", "fit_mslim",
    "itemknn_scores", "load_model", "predict", "save_model",
    "__version__",
]
