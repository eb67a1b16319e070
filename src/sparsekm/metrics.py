"""Evaluation criteria: CER, ECR, and feature-count summaries."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import NONZERO_TOL, as_indices
from .errors import DataError, IndexOutOfRange, LengthMismatch, NonFiniteInput


def _as_labels(x, name):
    lab = np.asarray(x)
    if lab.ndim != 1:
        raise LengthMismatch(f"{name} must be 1-dimensional")
    return lab


def _check_pair(est, truth):
    est = _as_labels(est, "estimated")
    truth = _as_labels(truth, "truth")
    if est.shape != truth.shape:
        raise LengthMismatch(
            f"partitions disagree on n: {est.shape[0]} vs {truth.shape[0]}")
    if est.shape[0] < 2:
        raise LengthMismatch("need at least 2 samples")
    return est, truth


def contingency(truth, est) -> np.ndarray:
    """Count matrix N[k, k'] = #{i : truth_i = k, est_i = k'}."""
    _, ti = np.unique(truth, return_inverse=True)
    _, ei = np.unique(est, return_inverse=True)
    rows, cols = ti.max() + 1, ei.max() + 1
    return np.bincount(ti * cols + ei, minlength=rows * cols).reshape(rows, cols)


def cer(estimated, truth) -> float:
    """Fraction of sample pairs whose co-membership the two partitions
    disagree on.

    Counted from the contingency table without enumerating pairs:
    disagreements = est-pairs + truth-pairs - 2 * joint-pairs, an integer
    that float64 holds exactly while n**2 < 2**53.
    """
    est, tru = _check_pair(estimated, truth)
    n = est.shape[0]
    table = contingency(tru, est)

    def pairs(counts):
        counts = counts.astype(float)
        return (counts * (counts - 1) / 2).sum()

    joint = pairs(table.ravel())
    disagreements = pairs(table.sum(axis=1)) + pairs(table.sum(axis=0)) - 2 * joint
    return float(disagreements / (n * (n - 1) / 2))


def ecr(estimated, truth) -> float:
    """1 - purity: the fraction left over after crediting each estimated
    cluster with its best-matching true cluster."""
    est, tru = _check_pair(estimated, truth)
    n = est.shape[0]
    return 1.0 - float((contingency(tru, est) / n).max(axis=0).sum())


class FeatureCounts(NamedTuple):
    nw: int    # nonzero estimated weights
    pzw: int   # true-noise features correctly given zero weight
    pnw: int   # true-relevant features correctly given nonzero weight


def feature_counts(w, support) -> FeatureCounts:
    """Counts for finite weights w and a flat list of distinct support
    indices of integral value (an integer, or a float such as 2.0)."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise DataError(f"weights must be 1-dimensional, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFiniteInput("weights contain NaN or infinity")
    p = w.shape[0]
    support = as_indices(support, "support indices")
    if support.ndim != 1 or np.unique(support).size != support.size:
        raise DataError("support must be a flat list of distinct indices")
    if support.size and (support.min() < 0 or support.max() >= p):
        raise IndexOutOfRange(f"support indices must lie in [0, {p})")
    relevant = np.zeros(p, dtype=bool)
    relevant[support] = True
    nonzero = np.abs(w) > NONZERO_TOL
    return FeatureCounts(nw=int(nonzero.sum()),
                         pzw=int((~nonzero & ~relevant).sum()),
                         pnw=int((nonzero & relevant).sum()))
