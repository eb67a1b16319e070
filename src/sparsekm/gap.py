"""Gap-statistic selection of the sparsity parameter s.

For each candidate s the converged objective O(s) = sum_j w_j a_j is
computed on the real data and on b column-permuted copies (the permutation
null keeps every column's marginal distribution but destroys the joint
cluster structure). Then

    gap(s) = log O(s) - (1/b) sum_t log O_t(s)
    se(s)  = sd_t(log O_t(s)) * sqrt(1 + 1/b)

and the chosen s maximizes the gap, ties to the smaller s. The cells of
the (grid x permutation) table are independent. With one worker they run
inline, in this process; with more, on a pool of forked worker processes
(POSIX fork), which inherit the matrices instead of receiving them pickled
and send back each objective with the warnings its fit raised, re-emitted
here in cell order. Every cell draws from the RNG stream named by its
indices, so results and warnings are identical at any worker count.

Tables on one matrix can share their cells' first outer steps through a
private memo, a dict passed as _memo, one per source matrix: the l0 and
l1 tables of an experiment rep fit the same matrix, the same nulls
(null t follows from inner.seed) and the same inner config. A cell's
first step uses the uniform weights 1/sqrt(p) on every feature and the
stream (_REAL, i, 1) or (_NULL, i, t, 1), which names neither s nor the
method. So sparse_kmeans keys that step on (path, inner config) and fits
it once; every later fit with that key, at a grid index both grids have,
rebuilds it from the stored labels, counters and warnings, with the bits
of a fresh run. Entries are never removed, and the key holds no matrix
bytes: the path tag tells the real data from a null, and the caller's
one-memo-per-matrix rule does the rest. Pooled workers send back the
entries they added with each objective, so a later pool inherits the
filled memo at fork.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._rng import rng_for, spawn_seed
from .errors import (NonPositiveObjective, NumericalError, UsageError,
                     check_integer, record_warnings, replay_warnings)
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
    """Independently permute every column; column multisets are preserved.

    Column j is m[perm_j, j], where perm_j is the (j+1)-th draw of
    rng.permutation(n) from the stream rng_for(seed). The result keeps the
    input's memory order, which the bits of a fit on it depend on."""
    return rng_for(seed).permuted(as_matrix(m), axis=0)


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


def _objective(m, s, method, inner, path, memo) -> float:
    cfg = SparseKmeansConfig(s=float(s), method=method, inner=inner)
    return sparse_kmeans(m, cfg, path=path, _memo=memo).objective


def _cell(table, job) -> float:
    """The objective of cell (i, t): the real data at t = -1, else null t."""
    m, nulls, grid, method, inner, memo = table
    i, t = job
    matrix, path = (m, (_REAL, i)) if t < 0 else (nulls[t], (_NULL, i, t))
    return _objective(matrix, grid[i], method, inner, path, memo)


_worker_table = None  # the table a forked pool worker was started with


def _init_worker(*table) -> None:
    global _worker_table
    _worker_table = table


def _worker_cell(job):
    """A pooled cell's objective, warnings and new (so last) memo entries."""
    memo = {} if _worker_table[-1] is None else _worker_table[-1]
    known = len(memo)
    value, caught = record_warnings(_cell, _worker_table, job)
    return value, caught, dict(list(memo.items())[known:])


def _pool_map(table, jobs, workers):
    """Objectives of jobs in order, from forked workers; their warnings are
    raised again here in job order, as an inline run raises them, and the
    memo entries they added are stored in the parent's memo.

    fork: each worker inherits the table and the imported package, where
    spawn or forkserver would import numpy afresh in every worker and send
    it the table pickled. Imported here so that a one-worker run never
    loads multiprocessing."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    values = []
    memo = table[-1]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=table) as pool:
        try:
            for value, caught, added in pool.map(_worker_cell, jobs):
                replay_warnings(caught)
                values.append(value)
                if added:
                    memo.update(added)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return values


def gap_statistic(m, method: str, inner: KmeansConfig, grid=None, b: int = 10,
                  one_se: bool = False, threads: int = 1, *,
                  _memo: dict | None = None) -> GapProfile:
    """The gap profile over grid; threads is the number of worker
    processes the (grid x permutation) table runs on. _memo, private,
    shares the cells' first outer steps with other tables on the same
    matrix (see the module docstring)."""
    m = as_matrix(m)
    p = m.shape[1]
    if grid is None:
        grid = default_grid(method, p)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1 or (np.diff(grid) <= 0).any():
        raise UsageError("grid must be non-empty and strictly ascending")
    check_integer("b", b, UsageError)
    check_integer("threads", threads, UsageError)
    if b < 2:
        raise UsageError(f"need at least 2 permutations, got {b}")
    if threads < 1:
        raise UsageError(f"need at least 1 thread, got {threads}")
    for s in grid:
        SparseKmeansConfig(s=float(s), method=method, inner=inner).validated(*m.shape)

    nulls = [permute_columns(m, spawn_seed(inner.seed, _PERMUTE, t))
             for t in range(b)]
    table = (m, nulls, grid, method, inner, _memo)
    jobs = [(i, -1) for i in range(grid.size)]
    jobs += [(i, t) for i in range(grid.size) for t in range(b)]
    if threads == 1:
        values = list(map(partial(_cell, table), jobs))
    else:
        values = _pool_map(table, jobs, min(threads, len(jobs)))

    objective = np.array(values[: grid.size])
    null_obj = np.array(values[grid.size:]).reshape(grid.size, b)

    ok = ~((objective <= 0.0) | (null_obj <= 0.0).any(axis=1))
    for s in grid[~ok]:
        warnings.warn(f"s={s:g} dropped: non-positive objective",
                      NonPositiveObjective)
    gap = np.full(grid.size, np.nan)
    se = np.full(grid.size, np.nan)
    logs = np.log(null_obj[ok])
    gap[ok] = np.log(objective[ok]) - logs.mean(axis=1)
    se[ok] = logs.std(axis=1, ddof=1) * np.sqrt(1.0 + 1.0 / b)

    valid = np.flatnonzero(~np.isnan(gap))
    if valid.size == 0:
        raise NumericalError("every grid point had a non-positive objective")
    best = valid[int(np.argmax(gap[valid]))]
    if one_se:  # the smallest s whose gap is within one se of the best
        best = valid[int(np.argmax(gap[valid] >= gap[best] - se[best]))]
    return GapProfile(grid=grid, objective=objective, gap=gap, se=se,
                      chosen_s=float(grid[best]))
