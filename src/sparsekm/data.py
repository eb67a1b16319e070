"""Data matrix handling and all sum-of-squares computations.

Scale convention: the dissimilarity sums below run over ordered pairs
(i, i'), so each unordered pair is counted twice. The per-feature
between-cluster dispersion a_j therefore equals exactly twice the
classical between-group sum of squares, and the decomposition

    sum_j w_j a_j  +  weighted_wcss  =  total_ss

holds identically for any partition and any weights. Only the ordering of
the a_j matters to the clustering algorithms, but the convention is pinned
here so every module (and every test oracle) agrees on the numbers.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError, EmptyCluster, LengthMismatch, NonFiniteInput

NONZERO_TOL = 1e-12  # shared definition of "this weight is nonzero"


def _as_2d(values, name: str = "data") -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def _finite(values: np.ndarray, message: str) -> np.ndarray:
    """values, or NonFiniteInput(message) if an entry is NaN or infinite."""
    if not np.isfinite(values).all():
        raise NonFiniteInput(message)
    return values


def _as_weights(w, p: int) -> np.ndarray:
    """Validate and return one finite float weight per column of a
    p-column matrix."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p,):
        raise DataError(f"weights must have shape ({p},), got {w.shape}")
    return _finite(w, "weights contain NaN or infinity")


def as_matrix(values, *, name: str = "data") -> np.ndarray:
    """Validate and return an n x p float matrix (finite, n >= 2, p >= 1)."""
    m = _as_2d(values, name)
    n, p = m.shape
    if n < 2 or p < 1:
        raise DataError(f"{name} needs n >= 2 and p >= 1, got {n} x {p}")
    return _finite(m, f"{name} contains NaN or infinity")


def as_indices(values, what: str) -> np.ndarray:
    """values as an int array when every entry is an integer or a float of
    integral value (such as 2.0); else DataError, as a cast alone would
    truncate 0.7 to 0 and read True as 1. An integer array pays only the
    dtype test."""
    given = np.asarray(values)
    if given.dtype.kind in "iu":
        return given.astype(int, copy=False)
    if given.dtype.kind != "f" or not np.isfinite(given).all() \
            or (given % 1 != 0).any():
        raise DataError(f"{what} must be integers")
    return given.astype(int)


def check_labels(labels, k: int, n: int) -> np.ndarray:
    lab = as_indices(labels, "labels")
    if lab.shape != (n,):
        raise LengthMismatch(f"expected {n} labels, got shape {lab.shape}")
    if n == 0:
        raise DataError("no rows to partition: the matrix has 0 rows")
    if lab.min() < 0 or lab.max() >= k:
        raise DataError(f"labels must lie in [0, {k})")
    return lab


def standardize(m, *, allow_constant: bool = False) -> np.ndarray:
    """Center every column; scale non-constant columns to sample sd 1.

    The sd uses the n-1 divisor. Constant columns are an error unless
    allow_constant is set, in which case they are centered and left
    unscaled (all zeros).
    """
    m = as_matrix(m)
    centered = m - m.mean(axis=0)
    sd = centered.std(axis=0, ddof=1)
    constant = sd <= 0.0
    if constant.any() and not allow_constant:
        idx = int(np.flatnonzero(constant)[0])
        raise DataError(f"column {idx} is constant; pass allow_constant to keep it")
    scale = np.where(constant, 1.0, sd)
    return centered / scale


def cluster_stats(m, labels, k: int):
    """Per-cluster row counts and column sums of m, for labels in [0, k)."""
    counts = np.bincount(labels, minlength=k)
    return counts, _cluster_sums(m, labels, counts)


def _cluster_sums(m, labels, counts):
    """Column sums of m per cluster, given the cluster sizes counts.

    Each sum adds its cluster's rows in row order: a stable argsort of the
    labels and one row gather put every cluster in a contiguous C-ordered
    block, kept in row order, and numpy sums such a block one row after
    the other, straight into its row of the result. One column goes
    through np.bincount, because numpy sums a contiguous column pairwise
    instead. Lloyd calls this with the counts it already holds."""
    k = counts.shape[0]
    if m.shape[1] == 1:
        return np.bincount(labels, weights=m[:, 0], minlength=k)[:, None]
    rows = m[labels.argsort(kind="stable")]
    sums = np.empty((k, m.shape[1]))
    start = 0
    for c, size in enumerate(counts.tolist()):
        end = start + size
        np.add.reduce(rows[start:end], axis=0, out=sums[c])
        start = end
    return sums


def _centroids(m, labels, k: int):
    """Validate a partition of m; return m, cluster sizes and centroids."""
    m = _as_2d(m)
    lab = check_labels(labels, k, m.shape[0])
    counts, sums = cluster_stats(m, lab, k)
    if (counts == 0).any():
        raise EmptyCluster(f"cluster {int(np.flatnonzero(counts == 0)[0])} is empty")
    return m, counts, sums / counts[:, None]


def bcss_per_feature(m, labels, k: int) -> np.ndarray:
    """Per-feature between-cluster dispersion a_j (ordered-pair scale).

    a_j = (1/n) sum_{i,i'} d_{ii'j} - sum_k (1/n_k) sum_{i,i' in C_k} d_{ii'j}
    with d_{ii'j} = (x_ij - x_i'j)^2 over ordered pairs, computed in O(np)
    as 2 sum_k n_k (mean_kj - mean_j)^2, twice the classical between-group
    SS. Every term is a count times a square, so no entry is negative.
    The data are not scanned for NaN or infinity; a non-finite result
    raises instead.
    """
    m, counts, centroids = _centroids(m, labels, k)
    a = 2.0 * (counts @ (centroids - m.mean(axis=0)) ** 2)
    return _finite(a, "between-cluster dispersion is not finite: the data "
                      "hold NaN or infinity, or their squares overflow")


def weighted_wcss(m, labels, w, k: int) -> float:
    """Weighted within-cluster dispersion, ordered-pair scale.

    sum_k (1/n_k) sum_{i,i' in C_k} sum_j w_j (x_ij - x_i'j)^2
    = 2 sum_j w_j (classical within-group SS of feature j).
    """
    m = _finite(_as_2d(m), "data contains NaN or infinity")
    w = _as_weights(w, m.shape[1])
    m, counts, centroids = _centroids(m, labels, k)
    return float(2.0 * (w @ ((m**2).sum(axis=0) - counts @ centroids**2)))


def total_ss(m, w) -> float:
    """Weighted total dispersion (1/n) sum_{i,i'} sum_j w_j d_{ii'j}."""
    m = _finite(_as_2d(m), "data contains NaN or infinity")
    w = _as_weights(w, m.shape[1])
    centered = m - m.mean(axis=0)
    return float(2.0 * (w @ (centered**2).sum(axis=0)))


def read_csv_matrix(path, *, header: bool = False) -> np.ndarray:
    """Read an n x p numeric CSV; with header, the first non-blank record
    is skipped. Raises DataError naming the physical line on which the
    offending record ends on parse failure, and naming the path when it
    cannot be opened or decoded."""
    rows = []
    width = None
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        try:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                if header:
                    header = False
                    continue
                lineno = reader.line_num
                try:
                    vals = np.fromiter(map(float, row), float, len(row))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if width is None:
                    width = len(vals)
                elif len(vals) != width:
                    raise DataError(f"{path}:{lineno}: expected {width} "
                                    f"columns, got {len(vals)}")
                rows.append(vals)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not {exc.encoding} text") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return as_matrix(np.array(rows), name=path)


def write_csv_matrix(path, m) -> None:
    """Write a 2-D float matrix as CSV, one line per row.

    Each cell is repr() of its Python float, the shortest text that reads
    back to the same bits; cells are joined by "," and every line ends in
    CRLF. These are the bytes csv.writer's default dialect writes, as no
    float repr needs quoting. The CLI's d.csv is written here, and the
    benchmark pins its bytes by digest. Rows are converted one at a time,
    so no list of every cell is held at once.
    """
    m = _as_2d(m)
    with open(path, "w", newline="") as fh:
        for row in m:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def _csv_cell(v) -> str:
    if not isinstance(v, str):
        return repr(v)
    if any(ch in v for ch in ',"\r\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def write_csv_rows(path, header, rows) -> None:
    """Write a table as a header line and one line per row, "\n" ended.

    String cells are written as they are, or double-quoted CSV-style when
    they hold a comma, a quote or a line break (an E2 cell name does);
    every other cell as repr(v). Callers pass Python scalars so floats
    print in shortest round-trip form.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")
