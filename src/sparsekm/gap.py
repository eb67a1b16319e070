"""Gap-statistic selection of the sparsity parameter s.

For each candidate s the converged objective O(s) = sum_j w_j a_j is
computed on the real data and on b column-permuted copies (the permutation
null keeps every column's marginal distribution but destroys the joint
cluster structure). Then

    gap(s) = log O(s) - (1/b) sum_t log O_t(s)
    se(s)  = sd_t(log O_t(s)) * sqrt(1 + 1/b)

and the chosen s maximizes the gap, ties to the smaller s. The cells of
the (grid x permutation) table are independent and run on a pool of
`threads` workers, even one; every cell draws from the RNG stream named
by its indices, so results are identical at any thread count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for, spawn_seed
from .errors import NonPositiveObjective, NumericalError, UsageError
from .data import as_matrix, write_csv_rows
from .kmeans import KmeansConfig
from .sparse import SparseKmeansConfig, sparse_kmeans

_REAL, _PERMUTE, _NULL = 0, 1, 2  # RNG stream tags


@dataclass
class GapProfile:
    grid: np.ndarray
    objective: np.ndarray
    gap: np.ndarray          # NaN where the objective was not positive
    se: np.ndarray
    chosen_s: float

    def to_csv(self, path) -> None:
        write_csv_rows(path, ("s", "objective", "gap", "se"),
                       zip(self.grid.tolist(), self.objective.tolist(),
                           self.gap.tolist(), self.se.tolist()))


def permute_columns(m, seed: int) -> np.ndarray:
    """Independently permute every column; column multisets are preserved."""
    m = as_matrix(m)
    rng = rng_for(seed)
    out = np.empty_like(m)
    n = m.shape[0]
    for j in range(m.shape[1]):
        out[:, j] = m[rng.permutation(n), j]
    return out


def default_grid(method: str, p: int) -> np.ndarray:
    """15 candidates: geometric integers in [2, p] for l0, evenly spaced in
    [1.2, sqrt(p)] for l1."""
    if method == "l0":
        if p < 2:
            raise UsageError("need p >= 2 for an l0 grid")
        return np.unique(np.round(np.geomspace(2, p, 15))).astype(float)
    if method == "l1":
        if np.sqrt(p) <= 1.2:
            raise UsageError("need sqrt(p) > 1.2 for an l1 grid")
        return np.linspace(1.2, np.sqrt(p), 15)
    raise UsageError(f"unknown method {method!r}")


def _objective(m, s, method, inner, path) -> float:
    cfg = SparseKmeansConfig(s=float(s), method=method, inner=inner)
    return sparse_kmeans(m, cfg, path=path).objective


def gap_statistic(m, method: str, inner: KmeansConfig, grid=None, b: int = 10,
                  one_se: bool = False, threads: int = 1) -> GapProfile:
    m = as_matrix(m)
    p = m.shape[1]
    if grid is None:
        grid = default_grid(method, p)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1 or (np.diff(grid) <= 0).any():
        raise UsageError("grid must be non-empty and strictly ascending")
    if b < 2:
        raise UsageError(f"need at least 2 permutations, got {b}")
    if threads < 1:
        raise UsageError(f"need at least 1 thread, got {threads}")
    for s in grid:
        SparseKmeansConfig(s=float(s), method=method, inner=inner).validated(*m.shape)

    nulls = [permute_columns(m, spawn_seed(inner.seed, _PERMUTE, t))
             for t in range(b)]
    jobs = [(i, -1, m) for i in range(grid.size)]
    jobs += [(i, t, nulls[t]) for i in range(grid.size) for t in range(b)]

    def run(job):
        i, t, data = job
        path = (_REAL, i) if t < 0 else (_NULL, i, t)
        return _objective(data, grid[i], method, inner, path)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        values = list(pool.map(run, jobs))

    objective = np.array(values[: grid.size])
    null_obj = np.array(values[grid.size:]).reshape(grid.size, b)

    gap = np.full(grid.size, np.nan)
    se = np.full(grid.size, np.nan)
    for i in range(grid.size):
        if objective[i] <= 0.0 or (null_obj[i] <= 0.0).any():
            warnings.warn(f"s={grid[i]:g} dropped: non-positive objective",
                          NonPositiveObjective)
            continue
        logs = np.log(null_obj[i])
        gap[i] = np.log(objective[i]) - logs.mean()
        se[i] = logs.std(ddof=1) * np.sqrt(1.0 + 1.0 / b)

    valid = np.flatnonzero(~np.isnan(gap))
    if valid.size == 0:
        raise NumericalError("every grid point had a non-positive objective")
    best = valid[int(np.argmax(gap[valid]))]
    if one_se:
        cutoff = gap[best] - se[best]
        for i in valid:
            if gap[i] >= cutoff:
                best = i
                break
    return GapProfile(grid=grid, objective=objective, gap=gap, se=se,
                      chosen_s=float(grid[best]))
