"""Weighted k-means: k-means++ seeding, Lloyd iterations, multi-restart.

All distances are weighted per-feature, which is implemented by scaling
column j of the data by sqrt(w_j) and running plain Euclidean k-means on
the result. Reported WCSS uses the ordered-pair scale of data.weighted_wcss
(twice the classical value), so KmeansResult.wcss and weighted_wcss agree
to round-off.

An optional refinement stage (refine="swap") runs first-improvement
single-point relocation sweeps after Lloyd converges, using the exact
change in WCSS including the cluster-size factors n_b/(n_b+1) and
n_a/(n_a-1) (Hartigan & Wong 1979, AS 136). A relocation-stable labeling
is also Lloyd-stable, so the returned state is still a fixed point. Lloyd
alone stalls in shallow local minima when clusters overlap in many
dimensions; the sweeps recover the deeper optima at small extra cost, and
benchmarks enable them.

The sweeps are a Python loop over points that decides each move on Python
floats. At the sizes the sweeps run (tens of points, a few clusters) a
decision costs a handful of float operations, far less than the fixed
cost of the numpy calls that would vectorise it over points. The O(p)
work stays in numpy: _swap_refine keeps a k x n table of squared
point-to-centroid distances, and after a move it updates the two cluster
sums and recomputes only the two table rows of the clusters it changed.
Python floats are IEEE binary64 like numpy's, so the factors, costs and
comparisons, and hence the labels, are the same bit for bit as a
point-by-point numpy loop's. Each row is formed in a C-ordered buffer, so
numpy sums every distance pairwise over contiguous memory, as it does for
a single point, whatever the memory order of the input.

_best_fit is the one fit loop, from the start lloyd_weighted gives or
from each k-means++ restart of run_kmeans: Lloyd, the optional swap stage,
then the WCSS of the final labels. All per-cluster sums come from the
block sums behind data.cluster_stats.

The fit path is bound by per-call overhead at the sizes the gap table runs
(tens of rows, thousands of fits), so nothing in it is computed twice or
left unread. Per fit, _best_fit squares Y once, forms the total sum of
squares and the row norms from that one square, frees it, and hands both
to every restart's Lloyd. Per Lloyd iteration:
  - the distance table d is built in place in the product Y centers^T,
    with no temporary for -2 G or for either sum;
  - the labels are counted once, with np.bincount, and those counts serve
    the empty-cluster test, the block sums of the new centres (they mark
    where each cluster's block ends) and the WCSS;
  - the centre norms are formed once, for both the WCSS and the next
    assignment;
  - Lloyd returns the WCSS of the labels it returns, which a plain fit
    keeps.
k-means++ seeding stops after its last draw, without the distance row no
further draw would read, and each draw is the inverse-CDF step numpy's
Generator.choice takes, made without its argument checks. Every one of
these gives the same bits as the longer path.

Two faster forms of the cluster sums are not used, because each changes
bits, and hence labels and every digest downstream: np.add.reduceat over
the sorted rows adds a block in another order than a row-by-row
reduction, and a one-hot matrix product adds it in the BLAS kernel's
order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .errors import (AllZeroWeights, DataError, DegenerateData,
                     NonFiniteInput, NumericalError, check_integer)
from .data import _as_weights, _cluster_sums, as_matrix, cluster_stats

REFINE_MODES = ("none", "swap")
LLOYD_TOL = 1e-8      # stop Lloyd once WCSS falls by less than this fraction
MAX_LLOYD_ITERS = 100
MAX_SWAP_SWEEPS = 100


@dataclass
class KmeansConfig:
    k: int
    restarts: int = 10
    seed: int = 0
    refine: str = "none"

    def validated(self, n: int) -> "KmeansConfig":
        check_integer("k", self.k, DataError)
        check_integer("restarts", self.restarts, DataError)
        if self.k < 1 or self.k > n:
            raise DataError(f"k must be in [1, {n}], got {self.k}")
        if self.restarts < 1:
            raise DataError(f"restarts must be >= 1, got {self.restarts}")
        if self.refine not in REFINE_MODES:
            raise DataError(f"refine must be one of {REFINE_MODES}")
        return self


@dataclass
class KmeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float
    iters_used: int
    restart_index: int
    repairs: int = 0


def _check_weights(w, p: int) -> np.ndarray:
    w = _as_weights(w, p)
    if not np.isfinite(w).all():
        raise NonFiniteInput("weights contain NaN or infinity")
    if (w < 0).any():
        raise DataError("weights must be nonnegative")
    if not (w > 0).any():
        raise AllZeroWeights("all feature weights are zero")
    return w


def _pp_draw(d2: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The index rng.choice(d2.size, p=d2 / total) draws, from the same
    stream: Generator.choice inverts the normalised CDF at one uniform.
    Calling it costs three times as much, mostly in checks of p."""
    cdf = (d2 / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _pp_indices(Y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ row selection on a pre-scaled matrix.

    Draw j reads the squared distance of every row to its nearest of the
    first j picks, so the distances to a pick are formed just before the
    next draw: k - 1 rows in all, none after the last draw."""
    n = Y.shape[0]
    idx = np.empty(k, dtype=int)
    idx[0] = int(rng.integers(n))
    for j in range(1, k):
        d = ((Y - Y[idx[j - 1]]) ** 2).sum(axis=1)
        d2 = d if j == 1 else np.minimum(d2, d)
        total = float(d2.sum())
        if total <= 0.0:
            # fewer than j distinct rows under this metric
            warnings.warn("fewer distinct rows than clusters; falling back to "
                          "duplicate-tolerant seeding", DegenerateData)
            remaining = np.setdiff1d(np.arange(n), idx[:j])
            idx[j:] = rng.choice(remaining, size=k - j, replace=False)
            break
        idx[j] = _pp_draw(d2, total, rng)
    return idx


def kmeans_pp_init(m, w, k: int, seed: int) -> np.ndarray:
    """Choose k rows of m by weighted k-means++ and return them as centroids.

    Draws from the same stream as restart 0 of run_kmeans, so a single
    restart reproduces lloyd_weighted from this seeding exactly.
    """
    m = as_matrix(m)
    w = _check_weights(w, m.shape[1])
    KmeansConfig(k=k, seed=seed).validated(m.shape[0])
    Y = m * np.sqrt(w)
    idx = _pp_indices(Y, k, rng_for(seed, 0))
    return m[idx]


def _assign(Y, centers, row_sq, center_sq):
    """Nearest centre of every row, given the squared row norms of Y and of
    centers. d is row_sq - 2 Y centers^T + center_sq, built in place in
    the product: negation is exact and addition commutes, so the bits are
    those of that expression."""
    d = Y @ centers.T
    d *= -2.0
    d += row_sq[:, None]
    d += center_sq
    return d.argmin(axis=1), d


def _lloyd_core(Y: np.ndarray, centers: np.ndarray, sq: float,
                row_sq: np.ndarray):
    """Plain Lloyd on a pre-scaled matrix whose squared entries sum to sq
    and whose squared row norms are row_sq.

    Returns labels, their classical WCSS, iterations used and the number of
    empty-cluster repairs. The caller forms sq and row_sq once per fit, for
    every start; the centre norms are formed once per iteration, where they
    serve both the WCSS and the next assignment."""
    n, _ = Y.shape
    k = centers.shape[0]
    center_sq = (centers**2).sum(axis=1)
    prev_labels = None
    prev_wcss = np.inf
    repairs = 0
    for it in range(1, MAX_LLOYD_ITERS + 1):
        new_labels, d = _assign(Y, centers, row_sq, center_sq)
        counts = np.bincount(new_labels, minlength=k)
        while not counts.all():
            empty = int(np.flatnonzero(counts == 0)[0])
            dist_own = d[np.arange(n), new_labels]
            movable = counts[new_labels] >= 2
            donor = int(np.argmax(np.where(movable, dist_own, -np.inf)))
            counts[new_labels[donor]] -= 1
            new_labels[donor] = empty
            counts[empty] = 1
            repairs += 1
        if prev_labels is not None and (new_labels == prev_labels).all():
            iters = it - 1
            break
        centers = _cluster_sums(Y, new_labels, counts) / counts[:, None]
        center_sq = (centers**2).sum(axis=1)
        wcss = float(sq - counts @ center_sq)
        labels = new_labels
        iters = it
        if wcss > prev_wcss + 1e-7 * (1.0 + abs(prev_wcss)):
            raise NumericalError("WCSS increased across a Lloyd iteration")
        if prev_wcss - wcss < LLOYD_TOL * max(1.0, abs(prev_wcss)):
            break
        prev_labels = new_labels
        prev_wcss = wcss
    return labels, wcss, iters, repairs


def _distances(Y: np.ndarray, mu: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distance ((y - mu)**2).sum() of every row y of Y, formed in
    buf, a C-ordered array of Y's shape.

    In a C-ordered array each row is contiguous and numpy sums it pairwise,
    exactly as it sums the (k, p) block of a single point. Broadcasting an
    F-ordered Y (sparse_kmeans passes m[:, active], which is one) gives
    an F-ordered difference whose rows numpy sums one element after the
    other, which differs in the last bits.
    """
    np.subtract(Y, mu, out=buf)
    np.square(buf, out=buf)
    return buf.sum(axis=1)


def _swap_refine(Y: np.ndarray, labels: np.ndarray, k: int):
    """First-improvement single-point relocation until no move lowers WCSS.

    The move criterion uses the exact WCSS change: removing point i from
    cluster a recovers n_a/(n_a-1) d(i, mu_a)^2 while inserting it into b
    costs n_b/(n_b+1) d(i, mu_b)^2. Points are visited in index order, a
    point alone in its cluster stays, ties go to the lowest b, and a pass
    without a move (or MAX_SWAP_SWEEPS passes) ends the refinement.

    The decision for each point is made on Python floats, read from the
    k x n table d2[c][i] = d(i, mu_c)^2 held as k lists; at tens of points
    and a few clusters, numpy's per-call cost would dominate it. A move
    changes only mu_a and mu_b, so numpy updates sums[a] and sums[b] and
    recomputes only d2[a] and d2[b], and only from the next point on: the
    part before it is not read again until the next pass, which recomputes
    it first (stale[c] marks where d2[c] becomes current). Python floats
    are IEEE binary64, as numpy's are, so every factor, product and
    comparison has the bits numpy would give, and the labels are those of a
    point-by-point numpy loop.
    """
    n, p = Y.shape
    Y = np.ascontiguousarray(Y)   # contiguous rows read faster in _distances
    counts, sums = cluster_stats(Y, labels, k)
    counts = counts.astype(float).tolist()
    # A keep factor of 0 pins a point alone in its cluster: no cost (>= 0)
    # falls below a gain of 0 minus the margin.
    keep = [c / (c - 1.0) if c > 1.0 else 0.0 for c in counts]
    ins = [c / (c + 1.0) for c in counts]
    others = [[c for c in range(k) if c != a] for a in range(k)]
    lab = labels.tolist()
    buf = np.empty((n, p))
    d2 = [[0.0] * n for _ in range(k)]
    stale = [n] * k
    for _ in range(MAX_SWAP_SWEEPS):
        for c in range(k):
            if stale[c]:
                end = stale[c]
                d2[c][:end] = _distances(Y[:end], sums[c] / counts[c],
                                         buf[:end]).tolist()
                stale[c] = 0
        moved = False
        for i in range(n):
            a = lab[i]
            gain = keep[a] * d2[a][i] - 1e-12
            cost = np.inf
            for c in others[a]:
                x = ins[c] * d2[c][i]
                if x < cost:
                    cost, b = x, c
            if not cost < gain:
                continue
            y = Y[i]
            sums[a] -= y
            sums[b] += y
            counts[a] -= 1.0
            counts[b] += 1.0
            lab[i] = b
            start = i + 1
            for c in (a, b):
                n_c = counts[c]
                keep[c] = n_c / (n_c - 1.0) if n_c > 1.0 else 0.0
                ins[c] = n_c / (n_c + 1.0)
                d2[c][start:] = _distances(Y[start:], sums[c] / n_c,
                                           buf[start:]).tolist()
                stale[c] = start
            moved = True
        if not moved:
            break
    return np.array(lab, dtype=labels.dtype)


def _fit_result(m, k: int, labels, wcss: float, iters_used: int,
                restart_index: int, repairs: int) -> KmeansResult:
    """The KmeansResult of a fit of m with these final labels: its
    centroids are the unscaled cluster means of m."""
    counts, sums = cluster_stats(m, labels, k)
    return KmeansResult(labels=labels, centroids=sums / counts[:, None],
                        wcss=wcss, iters_used=iters_used,
                        restart_index=restart_index, repairs=repairs)


def _best_fit(m, Y, starts, cfg: KmeansConfig) -> KmeansResult:
    """Fit from every start on Y (m pre-scaled); the lowest classical WCSS
    wins, the first on ties. No cluster is empty: Lloyd repairs empty ones
    and swap never empties one. A plain fit keeps the WCSS Lloyd returns;
    after swap it is recomputed from the final labels."""
    Y2 = Y**2
    sq, row_sq = Y2.sum(), Y2.sum(axis=1)
    del Y2   # not held through the restarts
    best = None
    for r, centers in enumerate(starts):
        labels, wcss, iters, repairs = _lloyd_core(Y, centers, sq, row_sq)
        if cfg.refine == "swap":
            labels = _swap_refine(Y, labels, cfg.k)
            counts, sums = cluster_stats(Y, labels, cfg.k)
            mu = sums / counts[:, None]
            wcss = float(sq - counts @ (mu**2).sum(axis=1))
        if best is None or wcss < best[1]:
            best = (labels, wcss, iters, r, repairs)
    labels, wcss, iters, r, repairs = best
    return _fit_result(m, cfg.k, labels, 2.0 * max(wcss, 0.0), iters, r,
                       repairs)


def lloyd_weighted(m, w, init_centroids, cfg: KmeansConfig) -> KmeansResult:
    """Lloyd iterations, and the optional swap stage, from the one given
    start. Of cfg it reads k, which must equal the number of rows of
    init_centroids, and refine; restarts and seed are validated but
    unused."""
    m = as_matrix(m)
    cfg.validated(m.shape[0])
    w = _check_weights(w, m.shape[1])
    init = np.asarray(init_centroids, dtype=float)
    if init.shape != (cfg.k, m.shape[1]):
        raise DataError(f"init_centroids must have shape ({cfg.k}, "
                        f"{m.shape[1]}), got {init.shape}")
    if not np.isfinite(init).all():
        raise NonFiniteInput("init_centroids contain NaN or infinity")
    root = np.sqrt(w)
    Y = m * root
    return _best_fit(m, Y, [init * root], cfg)


def run_kmeans(m, w, cfg: KmeansConfig, path: tuple = ()) -> KmeansResult:
    """Best result over cfg.restarts independent k-means++ seedings.

    path extends the RNG stream name so nested callers (the sparse outer
    loop, gap tuning cells) draw non-overlapping streams from one seed.
    """
    m = as_matrix(m)
    cfg.validated(m.shape[0])
    w = _check_weights(w, m.shape[1])
    Y = m * np.sqrt(w)
    starts = (Y[_pp_indices(Y, cfg.k, rng_for(cfg.seed, *path, r))]
              for r in range(cfg.restarts))
    return _best_fit(m, Y, starts, cfg)
