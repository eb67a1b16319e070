import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekm import kmeans
from sparsekm.data import cluster_stats, weighted_wcss
from sparsekm.errors import (AllZeroWeights, DataError, DegenerateData,
                             NonFiniteInput, NumericalError)
from sparsekm.kmeans import (KmeansConfig, kmeans_pp_init, lloyd_weighted,
                             run_kmeans)


def wcss_pairs(m, labels, w):
    """Ordered-pair WCSS computed straight from the definition."""
    total = 0.0
    for c in np.unique(labels):
        block = m[labels == c]
        diffs = (block[:, None, :] - block[None, :, :]) ** 2
        total += float((diffs * w).sum()) / block.shape[0]
    return total


def oracle_min_wcss(m, w, k):
    """Exhaustive minimum over all surjective assignments (small n only)."""
    Y = m * np.sqrt(w)
    n = Y.shape[0]
    A = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    row_sq = (Y**2).sum(axis=1)
    total = np.zeros(len(A))
    ok = np.ones(len(A), dtype=bool)
    for c in range(k):
        mask = (A == c).astype(float)
        cnt = mask.sum(axis=1)
        ok &= cnt > 0
        sums = mask @ Y
        total += mask @ row_sq - (sums**2).sum(axis=1) / np.maximum(cnt, 1.0)
    total[~ok] = np.inf
    return 2.0 * float(total.min())


def random_instance(rng, n, p, k):
    m = rng.normal(size=(n, p))
    return m, np.ones(p), k


# ---------------------------------------------------------------- seeding

def test_pp_init_k_equals_n_is_permutation():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 3))
    cents = kmeans_pp_init(m, np.ones(3), 6, seed=11)
    order_m = np.lexsort(m.T)
    order_c = np.lexsort(cents.T)
    assert np.array_equal(m[order_m], cents[order_c])


def test_pp_init_deterministic():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(20, 4))
    a = kmeans_pp_init(m, np.ones(4), 4, seed=3)
    b = kmeans_pp_init(m, np.ones(4), 4, seed=3)
    assert np.array_equal(a, b)


def test_pp_init_separates_blobs():
    rng = np.random.default_rng(7)
    m = np.vstack([rng.normal(0.0, 1.0, size=(5, 2)),
                   rng.normal(100.0, 1.0, size=(5, 2))])
    hits = 0
    for seed in range(200):
        cents = kmeans_pp_init(m, np.ones(2), 2, seed=seed)
        sides = cents[:, 0] > 50.0
        hits += sides[0] != sides[1]
    assert hits >= 190


def test_pp_init_duplicate_rows_warns():
    m = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
    with pytest.warns(DegenerateData):
        cents = kmeans_pp_init(m, np.ones(2), 3, seed=0)
    assert cents.shape == (3, 2)


def test_pp_init_rejects_bad_inputs():
    m = np.zeros((4, 2))
    with pytest.raises(AllZeroWeights):
        kmeans_pp_init(m, np.zeros(2), 2, seed=0)
    for k in (0, -1, 5):
        with pytest.raises(DataError, match=rf"k must be in \[1, 4\], got {k}"):
            kmeans_pp_init(m, np.ones(2), k, seed=1)
    with pytest.raises(DataError, match="k must be an integer, got 2.5"):
        kmeans_pp_init(m, np.ones(2), 2.5, seed=0)


# ------------------------------------------------------------------ lloyd

def test_lloyd_fixed_point_one_iteration():
    m = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    init = np.array([[0.0, 0.5], [10.0, 0.5]])
    res = lloyd_weighted(m, np.ones(2), init, KmeansConfig(k=2))
    assert res.iters_used == 1
    assert np.array_equal(np.sort(np.unique(res.labels[:2])), [res.labels[0]])
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]


def test_lloyd_four_point_example():
    # exhaustive minimum over 2-partitions lands on the two vertical pairs
    m = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    w = np.ones(2)
    res = run_kmeans(m, w, KmeansConfig(k=2, restarts=5, seed=1))
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.wcss == pytest.approx(oracle_min_wcss(m, w, 2), rel=1e-12)
    assert res.wcss == pytest.approx(2.0, rel=1e-12)


def test_lloyd_single_column_equivalence():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(15, 4))
    w = np.array([0.0, 0.0, 1.0, 0.0])
    init = kmeans_pp_init(m, w, 3, seed=2)
    full = lloyd_weighted(m, w, init, KmeansConfig(k=3))
    col = lloyd_weighted(m[:, 2:3], np.ones(1), init[:, 2:3], KmeansConfig(k=3))
    assert np.array_equal(full.labels, col.labels)
    assert full.wcss == pytest.approx(col.wcss, rel=1e-12)


def test_assignment_tie_prefers_smaller_index():
    m = np.array([[0.0], [2.0]])
    init = np.array([[-1.0], [1.0]])
    res = lloyd_weighted(m, np.ones(1), init, KmeansConfig(k=2))
    assert res.labels.tolist() == [0, 1]


def test_empty_cluster_repair():
    m = np.array([[0.0], [0.1], [10.0], [10.1]])
    init = np.array([[0.0], [0.05], [50.0]])
    res = lloyd_weighted(m, np.ones(1), init, KmeansConfig(k=3))
    assert res.repairs >= 1
    assert np.array_equal(np.unique(res.labels), np.arange(3))
    assert res.wcss == pytest.approx(weighted_wcss(m, res.labels, np.ones(1), 3),
                                     rel=1e-9, abs=1e-12)


def test_lloyd_all_zero_weights():
    m = np.zeros((4, 2)) + np.arange(4)[:, None]
    with pytest.raises(AllZeroWeights):
        lloyd_weighted(m, np.zeros(2), m[:2], KmeansConfig(k=2))


def test_config_validation():
    m = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError):
        run_kmeans(m, np.ones(2), KmeansConfig(k=5))
    with pytest.raises(DataError):
        run_kmeans(m, np.ones(2), KmeansConfig(k=2, restarts=0))
    with pytest.raises(DataError):
        run_kmeans(m, np.ones(2), KmeansConfig(k=2, refine="polish"))
    with pytest.raises(DataError):
        run_kmeans(m, np.full(2, -1.0), KmeansConfig(k=2))
    with pytest.raises(DataError):
        run_kmeans(m, np.ones(3), KmeansConfig(k=2))
    with pytest.raises(DataError, match="k must be an integer, got 2.5"):
        run_kmeans(m, np.ones(2), KmeansConfig(k=2.5))
    with pytest.raises(DataError, match="restarts must be an integer"):
        run_kmeans(m, np.ones(2), KmeansConfig(k=2, restarts=1.5))
    # numpy integers are integers
    assert run_kmeans(m, np.ones(2), KmeansConfig(
        k=np.int64(2), restarts=np.int32(2))).labels.shape == (4,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_and_starts_rejected(bad):
    m = np.random.default_rng(28).normal(size=(12, 3))
    w = np.array([bad, 1.0, 1.0])
    cfg = KmeansConfig(k=2)
    fits = [lambda: run_kmeans(m, w, cfg),
            lambda: lloyd_weighted(m, w, m[:2], cfg),
            lambda: kmeans_pp_init(m, w, 2, seed=0)]
    for fit in fits:
        with pytest.raises(NonFiniteInput, match="weights"):
            fit()
    init = m[:2].copy()
    init[1, 0] = bad
    with pytest.raises(NonFiniteInput, match="init_centroids"):
        lloyd_weighted(m, np.ones(3), init, cfg)


# ------------------------------------------------------------- run_kmeans

def test_single_restart_matches_lloyd():
    rng = np.random.default_rng(9)
    for trial in range(10):
        m = rng.normal(size=(12, 3))
        w = rng.uniform(0.1, 1.0, size=3)
        cfg = KmeansConfig(k=3, restarts=1, seed=trial)
        direct = run_kmeans(m, w, cfg)
        init = kmeans_pp_init(m, w, 3, seed=trial)
        via_lloyd = lloyd_weighted(m, w, init, cfg)
        assert np.array_equal(direct.labels, via_lloyd.labels)
        assert direct.wcss == via_lloyd.wcss
        assert np.array_equal(direct.centroids, via_lloyd.centroids)


def test_run_kmeans_deterministic():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(30, 5))
    cfg = KmeansConfig(k=4, restarts=6, seed=77)
    a = run_kmeans(m, np.ones(5), cfg)
    b = run_kmeans(m, np.ones(5), cfg)
    assert np.array_equal(a.labels, b.labels)
    assert a.wcss == b.wcss
    assert a.restart_index == b.restart_index


def test_more_restarts_never_worse():
    rng = np.random.default_rng(11)
    for trial in range(50):
        m, w, k = random_instance(rng, 12, 3, 3)
        one = run_kmeans(m, w, KmeansConfig(k=k, restarts=1, seed=trial))
        ten = run_kmeans(m, w, KmeansConfig(k=k, restarts=10, seed=trial))
        assert ten.wcss <= one.wcss + 1e-12


def test_wcss_matches_definition():
    rng = np.random.default_rng(12)
    for trial in range(20):
        m = rng.normal(size=(14, 4))
        w = rng.uniform(0.0, 1.0, size=4)
        w[0] = 1.0
        res = run_kmeans(m, w, KmeansConfig(k=3, restarts=3, seed=trial))
        assert res.wcss == pytest.approx(wcss_pairs(m, res.labels, w), rel=1e-9)
        assert res.wcss == pytest.approx(weighted_wcss(m, res.labels, w, 3),
                                         rel=1e-9)


def test_weight_scaling_equivariance():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(20, 4))
    w = rng.uniform(0.5, 2.0, size=4)
    cfg = KmeansConfig(k=3, restarts=4, seed=5)
    base = run_kmeans(m, w, cfg)
    scaled = run_kmeans(m, 4.0 * w, cfg)
    assert np.array_equal(base.labels, scaled.labels)
    assert scaled.wcss == 4.0 * base.wcss


def test_k_equals_n_zero_wcss():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(5, 2))
    res = run_kmeans(m, np.ones(2), KmeansConfig(k=5, restarts=1, seed=0))
    assert np.array_equal(np.sort(res.labels), np.arange(5))
    assert res.wcss == 0.0


def test_swap_refine_never_worse():
    rng = np.random.default_rng(15)
    for trial in range(15):
        m = rng.normal(size=(25, 6))
        plain = run_kmeans(m, np.ones(6),
                           KmeansConfig(k=4, restarts=2, seed=trial))
        swap = run_kmeans(m, np.ones(6),
                          KmeansConfig(k=4, restarts=2, seed=trial,
                                       refine="swap"))
        assert swap.wcss <= plain.wcss + 1e-9
        assert swap.wcss == pytest.approx(
            weighted_wcss(m, swap.labels, np.ones(6), 4), rel=1e-9)


def test_swap_result_is_lloyd_stable():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(20, 3))
    res = run_kmeans(m, np.ones(3),
                     KmeansConfig(k=3, restarts=2, seed=4, refine="swap"))
    again = lloyd_weighted(m, np.ones(3), res.centroids, KmeansConfig(k=3))
    assert np.array_equal(again.labels, res.labels)


def test_desk_scale_oracle():
    rng = np.random.default_rng(17)
    hits = 0
    for trial in range(40):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        m, w, _ = random_instance(rng, n, 2, k)
        res = run_kmeans(m, w, KmeansConfig(k=k, restarts=50, seed=trial))
        best = oracle_min_wcss(m, w, k)
        hits += abs(res.wcss - best) <= 1e-9 * max(1.0, best)
    assert hits >= 36


def swap_reference(Y, labels, k, max_sweeps):
    """The point-by-point relocation loop: one point at a time, in index
    order, centroids formed afresh for each point. Returns the labels and
    the number of passes made."""
    n = Y.shape[0]
    labels = labels.copy()
    counts, sums = cluster_stats(Y, labels, k)
    counts = counts.astype(float)
    passes = 0
    for _ in range(max_sweeps):
        passes += 1
        moved = False
        for i in range(n):
            a = labels[i]
            if counts[a] <= 1:
                continue
            mu = sums / counts[:, None]
            d2 = ((Y[i] - mu) ** 2).sum(axis=1)
            gain = counts[a] / (counts[a] - 1.0) * d2[a]
            cost = counts / (counts + 1.0) * d2
            cost[a] = np.inf
            b = int(np.argmin(cost))
            if cost[b] < gain - 1e-12:
                sums[a] -= Y[i]
                counts[a] -= 1.0
                sums[b] += Y[i]
                counts[b] += 1.0
                labels[i] = b
                moved = True
        if not moved:
            break
    return labels, passes


def swap_panel(seed):
    """Seeded (Y, labels, k) starts: C- and F-ordered Y, p in {1, 2, 9,
    300}, random starts (several passes) and starts with singletons."""
    rng = np.random.default_rng(seed)
    for p in (1, 2, 9, 300):
        for order in ("C", "F"):
            for n, k in ((7, 3), (40, 4), (90, 3)):
                Y = np.asarray(rng.normal(size=(n, p))
                               * rng.uniform(0.2, 3.0, size=p), order=order)
                labels = rng.integers(0, k, size=n)
                labels[:k] = np.arange(k)
                yield Y, labels, k
                singles = np.zeros(n, dtype=int)
                singles[1:k] = np.arange(1, k)
                yield Y, singles, k


def swap_tie():
    """Point 0 sits in cluster 0, whose centroid is far away. Clusters 1
    and 2 have two points each and centroids (0, 2) and (0, -2): moving it
    to either costs exactly 2/3 * 4, and the lower index must win."""
    Y = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 0.0],
                  [0.0, 1.0], [0.0, 3.0], [0.0, -1.0], [0.0, -3.0]])
    return Y, np.array([0, 0, 0, 1, 1, 2, 2], dtype=np.int32), 3


def swap_edge_cases():
    """Starts the random panel rarely or never makes: k = 1, k = 6, n == k,
    duplicate rows (zero distances), int32 labels and an exact tie."""
    rng = np.random.default_rng(28)
    Y = rng.normal(size=(30, 4))
    yield Y, np.zeros(30, dtype=int), 1
    yield Y, rng.permutation(np.arange(30) % 6).astype(np.int32), 6
    yield Y[:5], rng.permutation(5), 5
    dup = np.repeat(rng.normal(size=(4, 3)), [5, 1, 3, 6], axis=0)
    yield dup, rng.permutation(np.arange(15) % 3), 3
    yield swap_tie()


def test_swap_matches_reference_loop():
    multi_pass = singleton_starts = 0
    for Y, labels, k in itertools.chain(swap_panel(18), swap_edge_cases()):
        before = labels.copy()
        want, passes = swap_reference(Y, labels, k, kmeans.MAX_SWAP_SWEEPS)
        got = kmeans._swap_refine(Y, labels, k)
        assert np.array_equal(got, want)
        assert got.dtype == labels.dtype
        assert np.array_equal(labels, before)
        multi_pass += passes > 2
        singleton_starts += (np.bincount(labels, minlength=k) == 1).any()
    # the panel exercises the cases the scan must get right
    assert multi_pass >= 10 and singleton_starts >= 10
    assert kmeans._swap_refine(*swap_tie())[0] == 1
    # and through the fit path, where sparse fits pass F-ordered columns
    rng = np.random.default_rng(19)
    m = np.asfortranarray(rng.normal(size=(50, 40)))[:, ::3]
    for seed in range(4):
        cfg = KmeansConfig(k=3, restarts=1, seed=seed)
        plain = run_kmeans(m, np.ones(m.shape[1]), cfg)
        want, _ = swap_reference(m, plain.labels, 3, kmeans.MAX_SWAP_SWEEPS)
        cfg.refine = "swap"
        assert np.array_equal(
            run_kmeans(m, np.ones(m.shape[1]), cfg).labels, want)


def test_swap_sweep_cap_matches_reference_loop(monkeypatch):
    monkeypatch.setattr(kmeans, "MAX_SWAP_SWEEPS", 1)
    capped = 0
    for Y, labels, k in swap_panel(20):
        want, _ = swap_reference(Y, labels, k, 1)
        full, _ = swap_reference(Y, labels, k, 100)
        assert np.array_equal(kmeans._swap_refine(Y, labels, k), want)
        capped += not np.array_equal(want, full)
    assert capped >= 10


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(1, 12), p=st.integers(1, 4), k=st.integers(1, 4),
       order=st.sampled_from("CF"), grid=st.booleans(), capped=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_swap_property_matches_reference_loop(n, p, k, order, grid, capped,
                                               seed):
    """Small integer grids give duplicate rows and exact ties; every
    cluster starts non-empty, as Lloyd leaves them."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=(n, p)) if grid else rng.normal(
        size=(n, p))
    Y = np.asarray(values, dtype=float, order=order)
    labels = rng.permutation(np.concatenate(
        [np.arange(k), rng.integers(0, k, size=n - k)]))
    with pytest.MonkeyPatch.context() as mp:
        if capped:
            mp.setattr(kmeans, "MAX_SWAP_SWEEPS", 1)
        want, _ = swap_reference(Y, labels, k, kmeans.MAX_SWAP_SWEEPS)
        assert np.array_equal(kmeans._swap_refine(Y, labels, k), want)


@pytest.mark.parametrize("p", [9, 300])
def test_distances_match_single_point_sums(p):
    rng = np.random.default_rng(21)
    Y = np.asfortranarray(rng.normal(size=(200, p)))
    mus = rng.normal(size=(3, p))
    got = np.stack([kmeans._distances(Y, mu, np.empty(Y.shape))
                    for mu in mus], axis=1)
    want = np.stack([((Y[i] - mus) ** 2).sum(axis=1) for i in range(200)])
    assert np.array_equal(got, want)


def test_lloyd_rejects_bad_init_shape():
    m = np.random.default_rng(22).normal(size=(20, 4))
    cfg = KmeansConfig(k=3)
    for init in (m[:4], m[:2], m[0]):
        with pytest.raises(DataError, match=rf"\(3, 4\).*{init.shape}"):
            lloyd_weighted(m, np.ones(4), init, cfg)


# ------------------------------------------------ reference fit path
# The fit path written plainly: norms formed at every use, the WCSS of the
# winning labels recomputed after Lloyd, cluster sums over boolean masks and
# the k-means++ draw through Generator.choice. run_kmeans and
# lloyd_weighted must give the same bits.

def cluster_stats_reference(m, labels, k):
    counts = np.bincount(labels, minlength=k)
    if m.shape[1] == 1:
        return counts, np.bincount(labels, weights=m[:, 0], minlength=k)[:, None]
    sums = np.zeros((k, m.shape[1]))
    for c in range(k):
        sums[c] = m[labels == c].sum(axis=0)
    return counts, sums


def assign_reference(Y, centers):
    d = ((Y**2).sum(axis=1)[:, None] - 2.0 * (Y @ centers.T)
         + (centers**2).sum(axis=1)[None, :])
    return np.argmin(d, axis=1), d


def lloyd_reference(Y, centers, max_iters):
    n, _ = Y.shape
    k = centers.shape[0]
    sq = (Y**2).sum()
    prev_labels = None
    prev_wcss = np.inf
    repairs = 0
    for it in range(1, max_iters + 1):
        new_labels, d = assign_reference(Y, centers)
        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            dist_own = d[np.arange(n), new_labels]
            movable = counts[new_labels] >= 2
            donor = int(np.argmax(np.where(movable, dist_own, -np.inf)))
            counts[new_labels[donor]] -= 1
            new_labels[donor] = empty
            counts[empty] = 1
            repairs += 1
        if prev_labels is not None and np.array_equal(new_labels, prev_labels):
            iters = it - 1
            break
        _, sums = cluster_stats_reference(Y, new_labels, k)
        centers = sums / counts[:, None]
        wcss = float(sq - counts @ (centers**2).sum(axis=1))
        labels = new_labels
        iters = it
        if wcss > prev_wcss + 1e-7 * (1.0 + abs(prev_wcss)):
            raise NumericalError("WCSS increased across a Lloyd iteration")
        if prev_wcss - wcss < kmeans.LLOYD_TOL * max(1.0, abs(prev_wcss)):
            break
        prev_labels = new_labels
        prev_wcss = wcss
    return labels, iters, repairs


def pp_reference(Y, k, rng):
    n = Y.shape[0]
    idx = np.empty(k, dtype=int)
    idx[0] = int(rng.integers(n))
    d2 = ((Y - Y[idx[0]]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), idx[:j])
            idx[j:] = rng.choice(remaining, size=k - j, replace=False)
            break
        idx[j] = int(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, ((Y - Y[idx[j]]) ** 2).sum(axis=1))
    return idx


def best_fit_reference(m, Y, starts, cfg):
    best = None
    for r, centers in enumerate(starts):
        labels, iters, repairs = lloyd_reference(Y, centers,
                                                 kmeans.MAX_LLOYD_ITERS)
        if cfg.refine == "swap":
            labels = kmeans._swap_refine(Y, labels, cfg.k)
        counts, sums = cluster_stats_reference(Y, labels, cfg.k)
        mu = sums / counts[:, None]
        wcss = float((Y**2).sum() - counts @ (mu**2).sum(axis=1))
        if best is None or wcss < best[1]:
            best = (labels, wcss, iters, r, repairs)
    labels, wcss, iters, r, repairs = best
    counts, sums = cluster_stats_reference(m, labels, cfg.k)
    return kmeans.KmeansResult(labels=labels, centroids=sums / counts[:, None],
                               wcss=2.0 * max(wcss, 0.0), iters_used=iters,
                               restart_index=r, repairs=repairs)


def assert_same_fit(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.wcss == want.wcss
    assert got.iters_used == want.iters_used
    assert got.restart_index == want.restart_index
    assert got.repairs == want.repairs


def fit_panel(seed):
    """Seeded (m, w, k) inputs: C- and F-ordered matrices and fancy-indexed
    column subsets (what sparse_kmeans passes), p in {1, 2, 9, 300}, k up
    to 8, duplicated rows, magnitudes spread over four decades."""
    rng = np.random.default_rng(seed)
    for p in (1, 2, 9, 300):
        for layout in ("C", "F", "subset"):
            for n, k in ((9, 2), (30, 3), (60, 8)):
                width = 2 * p if layout == "subset" else p
                m = rng.normal(size=(n, width)) * 10.0 ** rng.uniform(
                    -2, 2, size=width)
                m[n // 2] = m[0]
                if layout == "F":
                    m = np.asfortranarray(m)
                elif layout == "subset":
                    m = np.asfortranarray(m)[:, np.sort(
                        rng.choice(width, size=p, replace=False))]
                yield m, rng.uniform(0.1, 2.0, size=p), k


def test_fit_path_matches_reference(monkeypatch):
    capped = repaired = 0
    for m, w, k in fit_panel(23):
        Y = m * np.sqrt(w)
        for max_iters in (1, 100):
            monkeypatch.setattr(kmeans, "MAX_LLOYD_ITERS", max_iters)
            for refine in kmeans.REFINE_MODES:
                cfg = KmeansConfig(k=k, restarts=3, seed=k, refine=refine)
                want = best_fit_reference(
                    m, Y, [Y[pp_reference(Y, k, kmeans.rng_for(cfg.seed, r))]
                           for r in range(cfg.restarts)], cfg)
                assert_same_fit(run_kmeans(m, w, cfg), want)
                # a start with k - 1 centres far off empties clusters
                init = m[:k].copy()
                init[1:] += 1e3 * np.abs(m).max()
                want = best_fit_reference(m, Y, [init * np.sqrt(w)], cfg)
                got = lloyd_weighted(m, w, init, cfg)
                assert_same_fit(got, want)
                repaired += got.repairs > 0
                capped += max_iters == 1 and got.iters_used == 1
    assert repaired >= 20 and capped >= 10


def test_lloyd_returns_wcss_of_its_labels(monkeypatch):
    for m, w, k in fit_panel(24):
        Y = m * np.sqrt(w)
        sq = (Y**2).sum()
        row_sq = (Y**2).sum(axis=1)
        for r in range(3):
            start = Y[kmeans._pp_indices(Y, k, kmeans.rng_for(r))]
            for max_iters in (1, 2, 100):
                monkeypatch.setattr(kmeans, "MAX_LLOYD_ITERS", max_iters)
                labels, wcss, _, _ = kmeans._lloyd_core(Y, start, sq, row_sq)
                counts, sums = cluster_stats(Y, labels, k)
                mu = sums / counts[:, None]
                assert wcss == float(sq - counts @ (mu**2).sum(axis=1))


def test_pp_draw_matches_generator_choice():
    """_pp_draw must make the draw Generator.choice makes; a numpy release
    that changes how choice samples fails here."""
    rng = np.random.default_rng(25)
    kinds = 0
    for n in (2, 7, 60, 1000):
        zeros = rng.uniform(size=n)
        zeros[rng.permutation(n)[: n // 2]] = 0.0
        dominant = rng.uniform(size=n)
        dominant[n // 3] = 1e12
        uniform = 1.0 + 1e-9 * rng.uniform(size=n)
        for d2 in (zeros, dominant, uniform):
            total = float(d2.sum())
            for stream in range(100):
                want = int(kmeans.rng_for(26, n, kinds, stream).choice(
                    n, p=d2 / total))
                got = kmeans._pp_draw(d2, total,
                                      kmeans.rng_for(26, n, kinds, stream))
                assert got == want
                assert d2[got] > 0.0
            kinds += 1
    # and the whole seeding, duplicate rows included
    for m, w, k in fit_panel(27):
        Y = m * np.sqrt(w)
        for r in range(5):
            assert np.array_equal(kmeans._pp_indices(Y, k, kmeans.rng_for(r)),
                                  pp_reference(Y, k, kmeans.rng_for(r)))
