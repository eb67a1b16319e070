"""Sparse k-means clustering with hard (l0) and soft (l1) feature
selection, gap-statistic tuning, synthetic benchmarks, evaluation metrics,
and a Monte Carlo consistency lab."""

__version__ = "0.1.0"

from .data import bcss_per_feature, standardize, total_ss, weighted_wcss
from .gap import GapProfile, default_grid, gap_statistic, permute_columns
from .kmeans import KmeansConfig, KmeansResult, kmeans_pp_init, \
    lloyd_weighted, run_kmeans
from .lab import SweepReport, TrialOutcome, run_trial, sweep, wilson_interval
from .metrics import FeatureCounts, cer, ecr, feature_counts
from .sparse import (SparseKmeansConfig, SparseKmeansResult,
                     l0_weight_update, l1_weight_update, sparse_kmeans)
from .synth import GroundTruth, MixtureSpec, experiment_spec, generate, \
    with_total_n

__all__ = [
    "__version__",
    "bcss_per_feature", "standardize", "total_ss", "weighted_wcss",
    "GapProfile", "default_grid", "gap_statistic", "permute_columns",
    "KmeansConfig", "KmeansResult", "kmeans_pp_init", "lloyd_weighted",
    "run_kmeans",
    "SweepReport", "TrialOutcome", "run_trial", "sweep", "wilson_interval",
    "FeatureCounts", "cer", "ecr", "feature_counts",
    "SparseKmeansConfig", "SparseKmeansResult", "l0_weight_update",
    "l1_weight_update", "sparse_kmeans",
    "GroundTruth", "MixtureSpec", "experiment_spec", "generate",
    "with_total_n",
]
