import itertools
import time

import numpy as np
import pytest

from sparsekm import sparse
from sparsekm.data import bcss_per_feature, standardize
from sparsekm.errors import (AllNonPositiveBcss, DataError, DegenerateData,
                             NumericalError, SparsityOutOfRange)
from sparsekm.kmeans import KmeansConfig, run_kmeans
from sparsekm.sparse import (SparseKmeansConfig, l0_kmeans, l0_weight_update,
                             l1_kmeans, l1_weight_update, sparse_kmeans)
from sparsekm.synth import MixtureSpec, generate


def subset_max(a, s_int):
    """Best value of w.a over all binary supports of size s_int."""
    best = -np.inf
    for combo in itertools.combinations(range(a.size), s_int):
        best = max(best, float(a[list(combo)].sum()))
    return best


def l1_norm_at(a, delta):
    kept = np.maximum(a - delta, 0.0)
    norm = np.sqrt((kept**2).sum())
    return kept.sum() / norm if norm > 0 else 0.0


def inner_cfg(seed=0, restarts=5, refine="none"):
    return KmeansConfig(k=3, restarts=restarts, seed=seed, refine=refine)


def signal_spec(seed, mu=2.0, p=50, p_star=5):
    means = np.array([[mu] * p_star, [-mu] * p_star, [0.0] * p_star])
    return MixtureSpec(k=3, sizes=(20, 20, 20), p=p, p_star=p_star,
                       means=means, seed=seed)


# -------------------------------------------------------------- l0 update

def test_l0_update_floor():
    w = l0_weight_update(np.array([5.0, 3.0, 2.0, 1.0]), 2.7)
    assert w.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_l0_update_tie_break():
    w = l0_weight_update(np.array([1.0, 1.0, 1.0]), 2)
    assert w.tolist() == [1.0, 1.0, 0.0]


def test_l0_update_subset_oracle_p8():
    rng = np.random.default_rng(20)
    for _ in range(30):
        a = rng.normal(size=8)
        w = l0_weight_update(a, 3)
        assert w.sum() == 3
        assert float(w @ a) == pytest.approx(subset_max(a, 3), abs=1e-12)


def test_l0_update_exhaustive_with_ties():
    rng = np.random.default_rng(21)
    for trial in range(200):
        p = int(rng.integers(2, 13))
        s = int(rng.integers(1, p + 1))
        if trial % 2:
            a = rng.integers(0, 4, size=p).astype(float)
        else:
            a = rng.normal(size=p)
        w = l0_weight_update(a, s)
        assert set(np.unique(w)) <= {0.0, 1.0}
        assert w.sum() == s
        assert float(w @ a) == pytest.approx(subset_max(a, s), abs=1e-12)


def test_l0_update_matches_full_sort():
    rng = np.random.default_rng(22)
    a = rng.integers(0, 5, size=300).astype(float)
    for s in (1, 7, 150, 299):
        w = l0_weight_update(a, s)
        ref = np.argsort(-a, kind="stable")[:s]
        assert np.array_equal(np.flatnonzero(w), np.sort(ref))


def test_l0_update_large_p_fast():
    rng = np.random.default_rng(23)
    a = rng.normal(size=1_000_000)
    start = time.perf_counter()
    w = l0_weight_update(a, 1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert w.sum() == 1000


def test_l0_update_range_errors():
    a = np.ones(4)
    with pytest.raises(SparsityOutOfRange):
        l0_weight_update(a, 0.5)
    with pytest.raises(SparsityOutOfRange):
        l0_weight_update(a, 5.0)
    for s in (np.nan, np.inf):
        with pytest.raises(SparsityOutOfRange):
            l0_weight_update(a, s)


# -------------------------------------------------------------- l1 update

def test_l1_update_single_positive():
    w = l1_weight_update(np.array([4.0, 0.0, 0.0]), 1.0)
    assert w == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_l1_update_slack_constraint():
    w = l1_weight_update(np.array([3.0, 3.0, 0.0]), 1.5)
    r = 1.0 / np.sqrt(2.0)
    assert w == pytest.approx([r, r, 0.0], abs=1e-12)


def test_l1_update_active_constraint():
    w = l1_weight_update(np.array([3.0, 1.0, 0.0]), 1.0)
    assert w == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)


def test_l1_update_bisection_vs_grid():
    rng = np.random.default_rng(24)
    for trial in range(25):
        p = int(rng.integers(3, 12))
        a = np.abs(rng.normal(size=p)) + 0.01
        s = float(rng.uniform(1.0, np.sqrt(p)))
        w = l1_weight_update(a, s)
        assert (w >= 0).all()
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert w.sum() <= s + 1e-6
        if w.sum() < s - 1e-6:
            # slack case: delta must have been zero
            assert np.array_equal(w > 0, a > 0)
        else:
            deltas = np.linspace(0.0, a.max(), 20001)[1:-1]
            norms = np.array([l1_norm_at(a, d) for d in deltas])
            grid_best = deltas[np.argmin(np.abs(norms - s))]
            assert l1_norm_at(a, grid_best) == pytest.approx(s, abs=2e-3)
            assert w.sum() == pytest.approx(s, abs=1e-8)


def test_l1_update_errors():
    with pytest.raises(AllNonPositiveBcss):
        l1_weight_update(np.array([0.0, -1.0, 0.0]), 1.0)
    with pytest.raises(SparsityOutOfRange):
        l1_weight_update(np.ones(4), 0.9)
    with pytest.raises(SparsityOutOfRange):
        l1_weight_update(np.ones(4), 2.5)


# ------------------------------------------------------------ outer loops

def test_l0_recovers_known_support():
    hits = 0
    for seed in range(20):
        x, truth = generate(signal_spec(seed))
        xs = standardize(x)
        cfg = SparseKmeansConfig(s=5, method="l0", inner=inner_cfg(seed))
        res = l0_kmeans(xs, cfg)
        hits += np.array_equal(res.selected_features, truth.support)
    assert hits >= 18


def test_l0_s_equals_p_is_plain_kmeans():
    x, _ = generate(signal_spec(3))
    xs = standardize(x)
    cfg = SparseKmeansConfig(s=xs.shape[1], method="l0", inner=inner_cfg(3))
    res = l0_kmeans(xs, cfg)
    assert (res.weights == 1.0).all()
    assert res.converged
    assert res.outer_iters == 2
    plain = run_kmeans(xs, np.ones(xs.shape[1]), inner_cfg(3), path=(2,))
    assert np.array_equal(res.labels, plain.labels)


def test_outer_loop_converges_and_reports(monkeypatch):
    x, _ = generate(signal_spec(4))
    xs = standardize(x)
    res = l0_kmeans(xs, SparseKmeansConfig(s=5, method="l0",
                                           inner=inner_cfg(4)))
    assert res.converged
    assert 1 <= res.outer_iters <= 20
    monkeypatch.setattr(sparse, "MAX_OUTER_ITERS", 1)
    capped = l0_kmeans(xs, SparseKmeansConfig(s=5, method="l0",
                                              inner=inner_cfg(4)))
    assert not capped.converged
    assert capped.outer_iters == 1


def test_sparse_deterministic():
    x, _ = generate(signal_spec(5))
    xs = standardize(x)
    for method in ("l0", "l1"):
        s = 5 if method == "l0" else 3.0
        cfg = SparseKmeansConfig(s=s, method=method, inner=inner_cfg(5))
        a = sparse_kmeans(xs, cfg)
        b = sparse_kmeans(xs, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.weights, b.weights)
        assert a.objective == b.objective


def test_objective_matches_bcss_dot():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(40, 12))
    xs = standardize(x)
    for method, s in (("l0", 4), ("l1", 2.0)):
        cfg = SparseKmeansConfig(s=s, method=method, inner=inner_cfg(6))
        res = sparse_kmeans(xs, cfg)
        a = bcss_per_feature(xs, res.labels, 3)
        assert res.objective == pytest.approx(float(res.weights @ a), rel=1e-9)
        assert np.array_equal(res.selected_features,
                              np.flatnonzero(res.weights > 1e-12))


def test_l0_weights_feasible_every_run():
    rng = np.random.default_rng(26)
    for trial in range(5):
        x = rng.normal(size=(30, 10))
        res = l0_kmeans(standardize(x),
                        SparseKmeansConfig(s=3.9, method="l0",
                                           inner=inner_cfg(trial)))
        assert set(np.unique(res.weights)) <= {0.0, 1.0}
        assert res.weights.sum() == 3


def test_l1_weights_feasible_every_run():
    rng = np.random.default_rng(27)
    for trial in range(5):
        x = rng.normal(size=(30, 16))
        res = l1_kmeans(standardize(x),
                        SparseKmeansConfig(s=2.5, method="l1",
                                           inner=inner_cfg(trial)))
        assert (res.weights >= 0).all()
        assert np.linalg.norm(res.weights) == pytest.approx(1.0, abs=1e-9)
        assert res.weights.sum() <= 2.5 + 1e-6


def test_l1_s_sqrt_p_unconstrained():
    x, _ = generate(signal_spec(8, mu=1.0, p=16, p_star=4))
    xs = standardize(x)
    res = l1_kmeans(xs, SparseKmeansConfig(s=4.0, method="l1",
                                           inner=inner_cfg(8)))
    # with s = sqrt(p) the l1 bound can never bind, so delta stays 0 and
    # every feature with positive dispersion keeps weight
    a = bcss_per_feature(xs, res.labels, 3)
    expect = np.maximum(a, 0.0)
    expect /= np.linalg.norm(expect)
    assert res.weights == pytest.approx(expect, abs=1e-9)


def test_method_config_mismatch():
    x = np.random.default_rng(28).normal(size=(20, 6))
    cfg = SparseKmeansConfig(s=2, method="l0", inner=inner_cfg())
    with pytest.raises(DataError):
        l1_kmeans(x, cfg)
    cfg1 = SparseKmeansConfig(s=2.0, method="l1", inner=inner_cfg())
    with pytest.raises(DataError):
        l0_kmeans(x, cfg1)
    with pytest.raises(DataError):
        sparse_kmeans(x, SparseKmeansConfig(s=2, method="lasso",
                                            inner=inner_cfg()))


def test_config_range_validation():
    x = np.random.default_rng(29).normal(size=(20, 9))
    with pytest.raises(SparsityOutOfRange):
        sparse_kmeans(x, SparseKmeansConfig(s=0.5, method="l0",
                                            inner=inner_cfg()))
    with pytest.raises(SparsityOutOfRange):
        sparse_kmeans(x, SparseKmeansConfig(s=10, method="l0",
                                            inner=inner_cfg()))
    with pytest.raises(SparsityOutOfRange):
        sparse_kmeans(x, SparseKmeansConfig(s=3.5, method="l1",
                                            inner=inner_cfg()))


def test_constant_matrix_raises():
    x = np.ones((10, 4))
    with pytest.warns(DegenerateData):
        with pytest.raises((AllNonPositiveBcss, NumericalError)):
            l1_kmeans(x, SparseKmeansConfig(s=1.5, method="l1",
                                            inner=KmeansConfig(k=2, seed=0)))


def test_l1_retains_more_features_than_l0():
    # tune each method once on one draw, then refit both on fresh draws;
    # the soft threshold should keep more features alive than the hard one
    from sparsekm._rng import spawn_seed
    from sparsekm.gap import gap_statistic
    from sparsekm.synth import experiment_spec

    spec = experiment_spec("E2", mu=0.6, p=200, seed=101)
    x, _ = generate(spec)
    xs = standardize(x)
    tune_inner = KmeansConfig(k=3, restarts=3, seed=7)
    s_by = {m: gap_statistic(xs, m, tune_inner, b=6).chosen_s
            for m in ("l0", "l1")}

    wins = 0
    for rep in range(10):
        spec = experiment_spec("E2", mu=0.6, p=200, seed=spawn_seed(202, rep))
        x, _ = generate(spec)
        xs = standardize(x)
        nw = {}
        for method in ("l0", "l1"):
            cfg = SparseKmeansConfig(s=s_by[method], method=method,
                                     inner=KmeansConfig(k=3, restarts=10,
                                                        seed=rep,
                                                        refine="swap"))
            nw[method] = sparse_kmeans(xs, cfg).selected_features.size
        wins += nw["l1"] > nw["l0"]
    assert wins >= 8


@pytest.mark.parametrize("refine", ["none", "swap"])
def test_shared_first_step_hit_has_the_bits_of_a_fit(refine):
    """A memo hit rebuilds the KmeansResult the miss fitted, centroids
    included, and keeps its entry for the next hit."""
    x = np.random.default_rng(35).normal(size=(30, 8))
    x[:10, :2] += 3.0
    active = np.arange(8)
    x, w = x[:, active], np.full(8, 1.0 / np.sqrt(8))   # as sparse_kmeans
    cfg = KmeansConfig(k=3, restarts=3, seed=6, refine=refine)
    memo = {}
    fitted = sparse._shared_first_step(x, w, cfg, (0, 2, 1), memo)
    assert list(memo) == [((0, 2, 1), (3, 3, 6, refine))]
    hits = [sparse._shared_first_step(x, w, cfg, (0, 2, 1), memo)
            for _ in range(2)]
    assert list(memo) == [((0, 2, 1), (3, 3, 6, refine))]
    fresh = run_kmeans(x, w, cfg, path=(0, 2, 1))
    for result in (fitted, *hits):
        assert result.labels.tobytes() == fresh.labels.tobytes()
        assert result.centroids.tobytes() == fresh.centroids.tobytes()
        assert (result.wcss, result.iters_used, result.restart_index,
                result.repairs) == (fresh.wcss, fresh.iters_used,
                                    fresh.restart_index, fresh.repairs)
