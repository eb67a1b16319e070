import concurrent.futures
import itertools
import multiprocessing
import warnings

import numpy as np
import pytest

import sparsekm.gap as gap_mod
from sparsekm._rng import rng_for, spawn_seed
from sparsekm.errors import (DataError, DegenerateData, NonPositiveObjective,
                             NumericalError, SparsityOutOfRange, UsageError)
from sparsekm.gap import (GapProfile, default_grid, gap_statistic,
                          permute_columns)
from sparsekm.kmeans import KmeansConfig
from sparsekm.sparse import SparseKmeansConfig, sparse_kmeans
from sparsekm.synth import MixtureSpec, generate
from sparsekm.data import standardize


def cfg(seed=0, restarts=2, k=3):
    return KmeansConfig(k=k, restarts=restarts, seed=seed)


# ----------------------------------------------------------- permutations

def test_permute_preserves_column_multisets():
    rng = np.random.default_rng(30)
    m = rng.normal(size=(12, 5))
    out = permute_columns(m, seed=9)
    assert out.shape == m.shape
    assert not np.array_equal(out, m)
    for j in range(5):
        assert np.array_equal(np.sort(out[:, j]), np.sort(m[:, j]))


def test_permute_deterministic():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(8, 3))
    assert np.array_equal(permute_columns(m, 4), permute_columns(m, 4))
    assert not np.array_equal(permute_columns(m, 4), permute_columns(m, 5))


def test_permute_uniform_over_orderings():
    m = np.array([[1.0, 0.0], [2.0, 0.5], [3.0, 1.0]])
    perms = {p: 0 for p in itertools.permutations((1.0, 2.0, 3.0))}
    for seed in range(6000):
        out = permute_columns(m, seed)
        perms[tuple(out[:, 0])] += 1
    for count in perms.values():
        assert abs(count / 6000 - 1 / 6) <= 0.02


def permute_columns_loop(m, seed):
    """Reference: the per-column loop permute_columns replaced."""
    m = np.asarray(m, dtype=float)
    rng = rng_for(seed)
    out = np.empty_like(m)
    for j in range(m.shape[1]):
        out[:, j] = m[rng.permutation(m.shape[0]), j]
    return out


def random_layouts(rng, n, p):
    """One n x p matrix as C-ordered, F-ordered and two strided views."""
    yield rng.normal(size=(n, p))
    yield np.asfortranarray(rng.normal(size=(n, p)))
    yield rng.normal(size=(n, 2 * p + 1))[:, ::2]
    yield rng.normal(size=(3 * n, p))[1::3]


def test_permute_matches_per_column_loop():
    rng = np.random.default_rng(37)
    shapes = [(2, 1), (2, 7), (9, 1), (3, 3)]
    shapes += [tuple(rng.integers(2, 40, size=2)) for _ in range(40)]
    for case, (n, p) in enumerate(shapes):
        for m in random_layouts(rng, int(n), int(p)):
            ref = permute_columns_loop(m, case)
            out = permute_columns(m, case)
            assert np.array_equal(out.view(np.int64), ref.view(np.int64))
            assert out.strides == ref.strides
            if m.flags.c_contiguous or m.flags.f_contiguous:
                assert out.strides == m.strides


# ----------------------------------------------------------- default grid

def test_default_grid_frozen_values():
    g = default_grid("l0", 2000)
    assert g.tolist() == [2, 3, 5, 9, 14, 24, 39, 63, 104, 170, 278, 455,
                          746, 1221, 2000]
    assert default_grid("l0", 8).tolist() == [2, 3, 4, 5, 6, 7, 8]
    l1 = default_grid("l1", 500)
    assert l1.size == 15
    assert l1[0] == 1.2
    assert l1[-1] == pytest.approx(np.sqrt(500), rel=1e-12)
    with pytest.raises(UsageError):
        default_grid("l1", 1)
    with pytest.raises(UsageError):
        default_grid("l2", 100)


# ----------------------------------------------- arithmetic via stub fits

def stub_factory(real_fn, null_fn):
    def stub(m, s, method, inner, path, memo):
        if len(path) == 2:          # (tag, grid index)
            return real_fn(m, s, path[1])
        return null_fn(m, s, path[1], path[2])
    return stub


def test_gap_arithmetic_against_formula(monkeypatch):
    rng = np.random.default_rng(32)
    m = rng.normal(size=(10, 4))
    grid = np.array([2.0, 3.0, 4.0])
    b = 4
    g_real = {0: 1.3, 1: 2.0, 2: 1.7}
    e_null = {0: 0.2, 1: 0.5, 2: 0.1, 3: 0.4}
    monkeypatch.setattr(
        gap_mod, "_objective",
        stub_factory(lambda m, s, i: np.exp(g_real[i]),
                     lambda m, s, i, t: np.exp(e_null[t])))
    prof = gap_statistic(m, "l0", cfg(), grid=grid, b=b)
    nulls = np.array([e_null[t] for t in range(b)])
    for i in range(3):
        assert prof.gap[i] == pytest.approx(g_real[i] - nulls.mean(),
                                            rel=1e-12)
        assert prof.se[i] == pytest.approx(
            nulls.std(ddof=1) * np.sqrt(1 + 1 / b), rel=1e-12)
        assert prof.objective[i] == pytest.approx(np.exp(g_real[i]),
                                                  rel=1e-12)
    assert prof.chosen_s == 3.0


def test_gap_tie_prefers_smaller_s(monkeypatch):
    m = np.zeros((6, 3)) + np.arange(6)[:, None]
    monkeypatch.setattr(gap_mod, "_objective",
                        lambda m, s, method, inner, path, memo: 2.0)
    prof = gap_statistic(m, "l0", cfg(), grid=np.array([1.0, 2.0, 3.0]), b=3)
    assert (prof.gap == 0.0).all()
    assert (prof.se == 0.0).all()
    assert prof.chosen_s == 1.0


def test_gap_one_se_rule(monkeypatch):
    m = np.zeros((6, 9)) + np.arange(6)[:, None]
    g_real = {0: 0.9, 1: 1.1, 2: 1.2}
    e_null = {0: -0.3, 1: 0.3}       # spread makes se large
    monkeypatch.setattr(
        gap_mod, "_objective",
        stub_factory(lambda m, s, i: np.exp(g_real[i]),
                     lambda m, s, i, t: np.exp(e_null[t])))
    grid = np.array([1.0, 1.5, 2.0])
    argmax = gap_statistic(m, "l1", cfg(k=2), grid=grid, b=2)
    assert argmax.chosen_s == 2.0
    one_se = gap_statistic(m, "l1", cfg(k=2), grid=grid, b=2, one_se=True)
    assert one_se.chosen_s == 1.0


def test_gap_nonpositive_objective_masked(monkeypatch):
    m = np.zeros((6, 2)) + np.arange(6)[:, None]

    def stub(m, s, method, inner, path, memo):
        return -1.0 if s == 2.0 else 4.0

    monkeypatch.setattr(gap_mod, "_objective", stub)
    with pytest.warns(NonPositiveObjective):
        prof = gap_statistic(m, "l0", cfg(k=2), grid=np.array([1.0, 2.0]),
                             b=2)
    assert np.isnan(prof.gap[1])
    assert prof.chosen_s == 1.0

    monkeypatch.setattr(gap_mod, "_objective",
                        lambda m, s, method, inner, path, memo: 0.0)
    with pytest.warns(NonPositiveObjective):
        with pytest.raises(NumericalError):
            gap_statistic(m, "l0", cfg(k=2), grid=np.array([1.0, 2.0]), b=2)


def score_loop(objective, null_obj, grid, b, one_se):
    """Reference: the per-point gap/se loop and one-SE scan that
    gap_statistic replaced. Returns gap, se, warning texts, chosen index."""
    gap = np.full(grid.size, np.nan)
    se = np.full(grid.size, np.nan)
    dropped = []
    for i in range(grid.size):
        if objective[i] <= 0.0 or (null_obj[i] <= 0.0).any():
            dropped.append(f"s={grid[i]:g} dropped: non-positive objective")
            continue
        logs = np.log(null_obj[i])
        gap[i] = np.log(objective[i]) - logs.mean()
        se[i] = logs.std(ddof=1) * np.sqrt(1.0 + 1.0 / b)
    valid = np.flatnonzero(~np.isnan(gap))
    best = valid[int(np.argmax(gap[valid]))]
    if one_se:
        cutoff = gap[best] - se[best]
        for i in valid:
            if gap[i] >= cutoff:
                best = i
                break
    return gap, se, dropped, best


def profile_from_table(monkeypatch, objective, null_obj, grid, one_se):
    """gap_statistic's profile when cell (i, t) returns the given table."""
    def table_objective(m, s, method, inner, path, memo):
        if len(path) == 2:          # (tag, grid index)
            return objective[path[1]]
        return null_obj[path[1], path[2]]

    monkeypatch.setattr(gap_mod, "_objective", table_objective)
    m = np.arange(4.0 * grid.size).reshape(4, grid.size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = gap_statistic(m, "l0", cfg(k=2), grid=grid,
                             b=null_obj.shape[1], one_se=one_se)
    assert {w.category for w in caught} <= {NonPositiveObjective}
    return prof, [str(w.message) for w in caught]


def assert_scores_match_loop(monkeypatch, objective, null_obj, grid):
    for one_se in (False, True):
        prof, messages = profile_from_table(monkeypatch, objective,
                                            null_obj, grid, one_se)
        gap, se, dropped, best = score_loop(objective, null_obj, grid,
                                            null_obj.shape[1], one_se)
        assert np.array_equal(prof.gap.view(np.int64), gap.view(np.int64))
        assert np.array_equal(prof.se.view(np.int64), se.view(np.int64))
        assert messages == dropped
        assert prof.chosen_s == grid[best]


def test_gap_scores_match_per_point_loop(monkeypatch):
    rng = np.random.default_rng(38)
    for case in range(300):
        size = int(rng.integers(1, 16))
        b = int(rng.integers(2, 25))
        grid = np.arange(1.0, size + 1.0)
        objective = np.exp(rng.normal(scale=2.0, size=size))
        null_obj = np.exp(rng.normal(scale=rng.uniform(0.01, 2.0),
                                     size=(size, b)))
        if case % 3 == 0:           # drop points, in the real or a null
            drop = rng.random(size) < 0.3
            objective[drop & (rng.random(size) < 0.5)] *= -1.0
            null_obj[drop, rng.integers(0, b)] = 0.0
        if case % 5 == 0:           # exact ties in the gap
            objective[rng.integers(0, size)] = objective[0]
            null_obj[:] = null_obj[0]
        if not ((objective > 0) & (null_obj > 0).all(axis=1)).any():
            continue
        assert_scores_match_loop(monkeypatch, objective, null_obj, grid)


def test_gap_dropped_points_warn_in_grid_order(monkeypatch):
    grid = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    objective = np.array([-1.0, 3.0, 4.2, 0.0, 4.0, 5.0])
    null_obj = np.array([[1.0, 1.5, 1.2], [1.0, 1.1, 1.3],
                         [2.0, 1.4, 1.1], [1.0, 1.0, 1.0],
                         [1.2, 1.5, 1.0], [1.0, -2.0, 1.0]])
    assert_scores_match_loop(monkeypatch, objective, null_obj, grid)
    argmax, messages = profile_from_table(monkeypatch, objective, null_obj,
                                          grid, one_se=False)
    assert messages == [f"s={s} dropped: non-positive objective"
                        for s in (1, 4, 6)]
    assert np.isnan(argmax.gap[[0, 3, 5]]).all()
    assert not np.isnan(argmax.se[[1, 2, 4]]).any()
    one_se, _ = profile_from_table(monkeypatch, objective, null_obj, grid,
                                   one_se=True)
    assert (argmax.chosen_s, one_se.chosen_s) == (5.0, 2.0)


def _bool_checks():
    m = np.random.default_rng(33).normal(size=(10, 4))
    grid = np.array([2.0])
    return {
        "rng_for": (UsageError, "seed", lambda v: rng_for(v)),
        "k": (DataError, "k",
              lambda v: KmeansConfig(k=v, restarts=2).validated(5)),
        "restarts": (DataError, "restarts",
                     lambda v: KmeansConfig(k=2, restarts=v).validated(5)),
        "b": (UsageError, "b",
              lambda v: gap_statistic(m, "l0", cfg(k=2), grid=grid, b=v)),
        "threads": (UsageError, "threads",
                    lambda v: gap_statistic(m, "l0", cfg(k=2), grid=grid,
                                            b=2, threads=v)),
    }


@pytest.mark.parametrize("value", [True, False, np.True_],
                         ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("target", list(_bool_checks()))
def test_integer_fields_reject_bools(target, value):
    # operator.index(True) is 1, so True used to pass as the integer 1
    error, name, call = _bool_checks()[target]
    with pytest.raises(error, match=f"^{name} must be an integer, "
                                    f"got {value!r}$"):
        call(value)


def test_integer_fields_accept_numpy_integers():
    m = np.random.default_rng(33).normal(size=(10, 4))
    assert np.array_equal(rng_for(np.int64(3)).random(4),
                          rng_for(3).random(4))
    assert KmeansConfig(k=np.int32(2), restarts=np.int64(2)).validated(5)
    prof = gap_statistic(m, "l0", cfg(k=2), grid=np.array([2.0]),
                         b=np.int64(2), threads=np.int8(1))
    assert prof.chosen_s == 2.0


def test_gap_argument_validation():
    rng = np.random.default_rng(33)
    m = rng.normal(size=(10, 4))
    with pytest.raises(UsageError):
        gap_statistic(m, "l0", cfg(), grid=np.array([3.0, 2.0]), b=3)
    with pytest.raises(UsageError):
        gap_statistic(m, "l0", cfg(), grid=np.array([]), b=3)
    with pytest.raises(UsageError):
        gap_statistic(m, "l0", cfg(), grid=np.array([2.0]), b=1)
    with pytest.raises(UsageError):
        gap_statistic(m, "l0", cfg(), grid=np.array([2.0]), b=2, threads=0)
    with pytest.raises(UsageError, match="b must be an integer, got 2.5"):
        gap_statistic(m, "l0", cfg(), grid=np.array([2.0]), b=2.5)
    with pytest.raises(UsageError, match="threads must be an integer"):
        gap_statistic(m, "l0", cfg(), grid=np.array([2.0]), b=2,
                      threads=1.5)
    with pytest.raises(SparsityOutOfRange):
        gap_statistic(m, "l0", cfg(), grid=np.array([2.0, 9.0]), b=2)
    with pytest.raises(SparsityOutOfRange):
        gap_statistic(m, "l1", cfg(), grid=np.array([1.5, 3.0]), b=2)


# ------------------------------------------------------------- real runs

def test_gap_deterministic_and_thread_invariant():
    rng = np.random.default_rng(34)
    m = standardize(rng.normal(size=(24, 8)) +
                    np.repeat([[1.0], [0.0], [-1.0]], 8, axis=0).repeat(8, axis=1)[:24])
    grid = np.array([2.0, 4.0, 6.0])
    a = gap_statistic(m, "l0", cfg(seed=5), grid=grid, b=4)
    b_ = gap_statistic(m, "l0", cfg(seed=5), grid=grid, b=4)
    threaded = gap_statistic(m, "l0", cfg(seed=5), grid=grid, b=4, threads=3)
    for other in (b_, threaded):
        assert np.array_equal(a.objective, other.objective)
        assert np.array_equal(a.gap, other.gap)
        assert np.array_equal(a.se, other.se)
        assert a.chosen_s == other.chosen_s
    assert a.chosen_s in grid
    assert a.gap.shape == a.se.shape == a.objective.shape == grid.shape


# ------------------------------------------------------- the process pool

def two_row_matrix():
    """12 x 4 with two distinct rows: every k=3 fit warns DegenerateData."""
    return np.repeat([[0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 2.0]], 6,
                     axis=0)


def recorded_warnings(threads):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = gap_statistic(two_row_matrix(), "l0", cfg(seed=1), b=2,
                             grid=np.array([2.0, 3.0]), threads=threads)
    return prof, [(w.category, str(w.message)) for w in caught]


def two_method_warnings(threads, memo):
    """Warnings of an l0 and then an l1 gap table and final fit on one
    matrix, with duplicate rows, sharing first steps through memo or not."""
    m = two_row_matrix()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for method, grid in (("l0", [2.0, 3.0]), ("l1", [1.2, 1.5, 1.9])):
            gap_statistic(m, method, cfg(seed=1), grid=np.array(grid), b=2,
                          threads=threads, _memo=memo)
            sparse_kmeans(m, SparseKmeansConfig(
                s=grid[0], method=method, inner=cfg(seed=2)), _memo=memo)
    return [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_first_steps_warn_as_fresh_fits(threads):
    alone = two_method_warnings(threads, memo=None)
    assert {category for category, _ in alone} == {DegenerateData}
    memo = {}
    assert two_method_warnings(threads, memo) == alone
    # every first step either table or final fit made, each stored once
    # and kept: l0's grid indices 0 and 1, the final fit, then l1's index 2
    real, null = gap_mod._REAL, gap_mod._NULL
    assert [key[0] for key in memo] == [
        (real, 0, 1), (real, 1, 1), (null, 0, 0, 1), (null, 0, 1, 1),
        (null, 1, 0, 1), (null, 1, 1, 1), (1,),
        (real, 2, 1), (null, 2, 0, 1), (null, 2, 1, 1)]


def test_pool_sends_first_steps_back():
    m = two_row_matrix()
    memos = []
    for threads in (1, 2):
        memos.append({})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateData)
            gap_statistic(m, "l0", cfg(seed=1), grid=np.array([2.0, 3.0]),
                          b=2, threads=threads, _memo=memos[-1])
    inline, pooled = memos
    assert len(inline) == 2 * (1 + 2)
    assert list(pooled) == list(inline)
    for key, entry in inline.items():
        labels, *counters, caught = entry
        assert np.array_equal(pooled[key][0], labels)
        assert pooled[key][1:] == (*counters, caught)


def test_pool_workers_capped_at_job_count(monkeypatch):
    class RecordingPool:
        """Runs the jobs in this process; records the requested size."""
        sizes = []

        def __init__(self, max_workers, mp_context, initializer, initargs):
            self.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(gap_mod, "_worker_table", None)
    monkeypatch.setattr(gap_mod, "_objective",
                        lambda m, s, method, inner, path, memo: 2.0 + s)
    prof = gap_statistic(two_row_matrix(), "l0", cfg(), b=2,
                         grid=np.array([2.0, 3.0]), threads=10_000)
    assert RecordingPool.sizes == [6]           # 2 grid points x (b + 1)
    assert prof.objective.tolist() == [4.0, 5.0]


def test_pool_warnings_cross_process():
    serial, inline = recorded_warnings(threads=1)
    pooled, forked = recorded_warnings(threads=2)
    assert inline
    assert {category for category, _ in inline} == {DegenerateData}
    assert forked == inline
    assert np.array_equal(serial.objective, pooled.objective)
    assert multiprocessing.active_children() == []


def test_pool_errors_cross_process(monkeypatch):
    def fail_one_cell(m, s, method, inner, path, memo):
        if path == (gap_mod._NULL, 1, 0):
            raise NumericalError("cell (1, 0) broke down")
        return 2.0

    monkeypatch.setattr(gap_mod, "_objective", fail_one_cell)
    with pytest.raises(NumericalError, match=r"cell \(1, 0\)"):
        gap_statistic(two_row_matrix(), "l0", cfg(), b=2,
                      grid=np.array([2.0, 3.0]), threads=2)
    assert multiprocessing.active_children() == []


def test_gap_near_zero_on_pure_noise():
    rng = np.random.default_rng(35)
    m = standardize(rng.normal(size=(24, 8)))
    prof = gap_statistic(m, "l0", cfg(seed=1), b=6)
    ok = np.abs(prof.gap) <= 3.0 * prof.se
    assert ok.mean() >= 0.8


def test_gap_null_invariance():
    rng = np.random.default_rng(36)
    base = rng.normal(size=(16, 5))
    grid = np.array([2.0, 3.0])
    gaps = []
    for rep in range(50):
        nulled = permute_columns(base, seed=1000 + rep)
        prof = gap_statistic(nulled, "l0", cfg(seed=rep, restarts=1),
                             grid=grid, b=5)
        gaps.append(prof.gap)
    gaps = np.array(gaps)
    for i in range(grid.size):
        mean = gaps[:, i].mean()
        se = gaps[:, i].std(ddof=1) / np.sqrt(len(gaps))
        assert abs(mean) <= 3.0 * se + 1e-12


def test_l0_objective_mostly_monotone_in_s():
    means = np.array([[1.5] * 6, [-1.5] * 6, [0.0] * 6])
    spec = MixtureSpec(k=3, sizes=(12, 12, 12), p=20, p_star=6, means=means,
                       seed=44)
    x, _ = generate(spec)
    m = standardize(x)
    prof = gap_statistic(m, "l0", cfg(seed=2, restarts=4), b=2)
    o = prof.objective
    frac = np.mean(np.diff(o) >= -1e-9 * np.abs(o[:-1]))
    assert frac >= 0.9


def test_profile_csv(tmp_path):
    prof = GapProfile(grid=np.array([2.0, 3.0]),
                      objective=np.array([4.0, 5.0]),
                      gap=np.array([0.1, np.nan]),
                      se=np.array([0.05, 0.06]),
                      chosen_s=2.0)
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    assert path.read_bytes() == (b"s,objective,gap,se\n"
                                 b"2.0,4.0,0.1,0.05\n"
                                 b"3.0,5.0,nan,0.06\n")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,objective,gap,se"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 2.0
    assert float(cells[1]) == 4.0
