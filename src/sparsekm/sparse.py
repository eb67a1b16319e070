"""Sparse k-means: hard- and soft-thresholded feature weights.

Both methods run one alternation, sparse_kmeans, from uniform starting
weights 1/sqrt(p); only the weight update in step 2 differs:

  1. cluster with the current weights (weighted k-means on the active
     features, columns scaled by sqrt(w_j));
  2. given the fitted partition's per-feature dispersion vector a, replace
     w by the maximizer of sum_j w_j a_j over the method's feasible set.

For the l0 method the feasible set is {w : 0 <= w_j <= 1, ||w||_0 <= s}
and the maximizer is the indicator of the top-floor(s) entries of a. For
the l1 method it is {w : ||w||_2 <= 1, ||w||_1 <= s, w >= 0} and the
maximizer is a normalized soft threshold with the cut chosen by bisection.
The loop stops when sum|w_new - w_old| / sum|w_old| < OUTER_TOL, or
unconverged after MAX_OUTER_ITERS rounds.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .data import NONZERO_TOL, _finite, as_matrix, bcss_per_feature
from .errors import (AllNonPositiveBcss, DataError, NumericalError,
                     SparsityOutOfRange, record_warnings, replay_warnings)
from .kmeans import KmeansConfig, KmeansResult, _fit_result, run_kmeans

METHODS = ("l0", "l1")
OUTER_TOL = 1e-4
MAX_OUTER_ITERS = 20


def _check_s(method: str, s: float, p: int) -> None:
    """Raise unless 1 <= floor(s) <= p (l0) or 1 <= s <= sqrt(p) (l1)."""
    if method == "l0":
        if not 1 <= np.floor(s) <= p:   # False for nan, so nan is refused
            raise SparsityOutOfRange(
                f"l0 needs 1 <= floor(s) <= p={p}, got s={s}")
    elif not 1.0 <= s <= np.sqrt(p) + 1e-9:
        raise SparsityOutOfRange(
            f"l1 needs 1 <= s <= sqrt(p)={np.sqrt(p):.4f}, got s={s}")


@dataclass
class SparseKmeansConfig:
    s: float
    method: str
    inner: KmeansConfig

    def validated(self, n: int, p: int) -> "SparseKmeansConfig":
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}")
        _check_s(self.method, self.s, p)
        self.inner.validated(n)
        return self


@dataclass
class SparseKmeansResult:
    labels: np.ndarray
    k: int
    weights: np.ndarray
    objective: float
    outer_iters: int
    converged: bool
    selected_features: np.ndarray
    bcss: np.ndarray          # a_j at the final partition
    inner: KmeansResult


def _as_dispersion(a) -> np.ndarray:
    """a as a float vector, refused when an entry is NaN or infinite (a NaN
    compares false both ways, so either update would pass it through)."""
    return _finite(np.asarray(a, dtype=float),
                   "dispersion vector a contains NaN or infinity")


def l0_weight_update(a, s: float) -> np.ndarray:
    """Indicator of the floor(s) largest entries of a, ties to the smaller
    index. Maximizes w.a over the l0 feasible set in O(p) expected time."""
    a = _as_dispersion(a)
    p = a.shape[0]
    _check_s("l0", s, p)
    s_int = int(np.floor(s))
    w = np.zeros(p)
    part = np.argpartition(-a, s_int - 1)[:s_int]
    cut = a[part].min()
    sure = np.flatnonzero(a > cut)
    ties = np.flatnonzero(a == cut)
    w[sure] = 1.0
    w[ties[: s_int - sure.size]] = 1.0
    return w


def l1_weight_update(a, s: float) -> np.ndarray:
    """Normalized soft threshold w = S(a, delta) / ||S(a, delta)||_2 with
    delta = 0 when the l1 constraint is slack, else found by bisection so
    ||w||_1 lands within 1e-8 of s."""
    a = _as_dispersion(a)
    _check_s("l1", s, a.shape[0])
    amax = float(a.max(initial=-np.inf))
    if amax <= 0.0:
        raise AllNonPositiveBcss("no positive between-cluster dispersion")

    def normalized(delta):
        kept = np.maximum(a - delta, 0.0)
        norm = np.sqrt((kept**2).sum())
        if norm == 0.0:
            raise NumericalError("soft threshold emptied the weight vector")
        return kept / norm

    w = normalized(0.0)
    if w.sum() <= s:
        return w
    lo, hi = 0.0, amax
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if normalized(mid).sum() > s:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * amax:
            break
    w = normalized(hi)
    if abs(w.sum() - s) > 1e-8:
        raise NumericalError(f"bisection failed to match ||w||_1 = {s}")
    return w


def _shared_first_step(x, w, cfg: KmeansConfig, path: tuple,
                       memo: dict) -> KmeansResult:
    """run_kmeans(x, w, cfg, path) for a first outer step, fitted once per
    memo key (path, cfg): a miss stores the labels, counters and recorded
    warnings, and the entry stays. Every call raises the warnings again and
    builds the result from x through kmeans._fit_result, as _best_fit does,
    so it has the bits of a fresh fit. One memo per matrix (see gap.py)."""
    key = (path, astuple(cfg))
    if key not in memo:
        fit, caught = record_warnings(run_kmeans, x, w, cfg, path)
        memo[key] = (fit.labels, fit.wcss, fit.iters_used, fit.restart_index,
                     fit.repairs, caught)
    *fields, caught = memo[key]
    replay_warnings(caught)
    return _fit_result(x, cfg.k, *fields)


def sparse_kmeans(m, cfg: SparseKmeansConfig, path: tuple = (), *,
                  _memo: dict | None = None) -> SparseKmeansResult:
    """The alternation of either method (see the module docstring); path
    extends the RNG stream names of the inner k-means fits.

    _memo, private, shares the first outer step between fits of one
    matrix: that step uses the uniform weights and the stream (*path, 1),
    neither of which depends on s or the method."""
    m = as_matrix(m)
    n, p = m.shape
    cfg.validated(n, p)
    w = np.full(p, 1.0 / np.sqrt(p))
    converged = False
    update = l0_weight_update if cfg.method == "l0" else l1_weight_update
    for outer in range(1, MAX_OUTER_ITERS + 1):
        active = np.flatnonzero(w > NONZERO_TOL)
        if outer == 1 and _memo is not None:
            inner = _shared_first_step(m[:, active], w[active], cfg.inner,
                                       (*path, 1), _memo)
        else:
            inner = run_kmeans(m[:, active], w[active], cfg.inner,
                               path=(*path, outer))
        a = bcss_per_feature(m, inner.labels, cfg.inner.k)
        w_new = update(a, cfg.s)
        # the uniform start (outer 1) is in neither feasible set
        if outer > 1 and w_new @ a < w @ a - 1e-9 * max(1.0, abs(w @ a)):
            raise NumericalError("weight update decreased the objective")
        delta = np.abs(w_new - w).sum() / np.abs(w).sum()
        w = w_new
        if delta < OUTER_TOL:
            converged = True
            break
    selected = np.flatnonzero(w > NONZERO_TOL)
    return SparseKmeansResult(labels=inner.labels, k=cfg.inner.k, weights=w,
                              objective=float(w @ a), outer_iters=outer,
                              converged=converged, selected_features=selected,
                              bcss=a, inner=inner)
