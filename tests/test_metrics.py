import numpy as np
import pytest

from sparsekm.errors import (DataError, IndexOutOfRange, LengthMismatch,
                             NonFiniteInput)
from sparsekm.metrics import cer, contingency, ecr, feature_counts


def cer_bruteforce(est, tru):
    n = len(est)
    bad = 0
    for i in range(n):
        for j in range(i + 1, n):
            bad += (est[i] == est[j]) != (tru[i] == tru[j])
    return bad / (n * (n - 1) / 2)


# ------------------------------------------------------------------- cer

def test_cer_identical_and_relabeled():
    assert cer([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0
    assert cer([1, 1, 2, 2], [2, 2, 1, 1]) == 0.0


def test_cer_frozen_example():
    assert cer([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(4 / 6)


def test_cer_properties_random_pairs():
    rng = np.random.default_rng(40)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        v = cer(a, b)
        assert 0.0 <= v <= 1.0
        assert v == cer(b, a)
        relabeled = (a + 1) % 3
        assert cer(relabeled, b) == v
        assert v == pytest.approx(cer_bruteforce(a.tolist(), b.tolist()))


def test_cer_contingency_path_matches_pairs():
    rng = np.random.default_rng(41)
    for n in (2, 3, 60, 400):
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 5, size=n)
        iu = np.triu_indices(n, k=1)
        differ = (a[:, None] == a[None, :]) != (b[:, None] == b[None, :])
        assert cer(a, b) == float(np.mean(differ[iu]))


def test_cer_errors():
    with pytest.raises(LengthMismatch):
        cer([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        cer([1], [1])
    with pytest.raises(LengthMismatch):
        cer(np.ones((2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("est, truth, message", [
    ([1, 2], [1, 2, 3], "disagree on n: 2 vs 3"),
    ([1], [1], "at least 2 samples"),
    (np.ones((2, 2)), np.ones((2, 2)), "estimated must be 1-dimensional"),
    ([0, 1, 0, 1], [[0, 1], [0, 1]], "truth must be 1-dimensional"),
], ids=["sizes", "one-sample", "both-2d", "truth-2d"])
def test_ecr_errors_match_cer(est, truth, message):
    for fn in (cer, ecr):
        with pytest.raises(LengthMismatch, match=message):
            fn(est, truth)


# ------------------------------------------------------------------- ecr

def test_ecr_zero_on_truth():
    tru = np.array([0, 0, 1, 1, 2, 2])
    assert ecr(tru, tru) == 0.0
    assert ecr((tru + 1) % 3, tru) == 0.0


def test_ecr_frozen_examples():
    assert ecr([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(0.5)
    one_big = np.zeros(8, dtype=int)
    balanced = np.repeat(np.arange(4), 2)
    assert ecr(one_big, balanced) == pytest.approx(0.75)


def test_ecr_range():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 15))
        kstar = int(rng.integers(2, 5))
        tru = rng.integers(0, kstar, size=n)
        est = rng.integers(0, 4, size=n)
        v = ecr(est, tru)
        assert -1e-12 <= v <= 1.0 - 1.0 / len(np.unique(tru)) + 1e-12


def test_confusion_marginals():
    rng = np.random.default_rng(43)
    tru = rng.integers(0, 3, size=50)
    est = rng.integers(0, 4, size=50)
    pi = contingency(tru, est) / 50
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pi >= 0).all()
    true_ids, true_counts = np.unique(tru, return_counts=True)
    assert pi.sum(axis=1) == pytest.approx(true_counts / 50)
    est_ids, est_counts = np.unique(est, return_counts=True)
    assert pi.sum(axis=0) == pytest.approx(est_counts / 50)


def ecr_reference(estimated, truth):
    """ecr as 1 - purity through the confusion proportions, the form the
    package once computed it in."""
    tru, est = np.asarray(truth), np.asarray(estimated)
    pi = contingency(tru, est) / tru.shape[0]
    return 1.0 - float(pi.max(axis=0).sum())


def test_ecr_bits_match_reference():
    rng = np.random.default_rng(45)
    for _ in range(500):
        n = int(rng.integers(2, 200))
        est = rng.integers(0, int(rng.integers(1, 7)), size=n)
        ids = [-2, 0, 3, 8, 11, 40][:int(rng.integers(1, 7))]
        tru = rng.choice(ids, size=n)
        assert np.float64(ecr(est, tru)).view(np.int64) == \
            np.float64(ecr_reference(est, tru)).view(np.int64)


def test_contingency_matches_double_loop():
    rng = np.random.default_rng(44)
    tru = rng.choice([-3, 0, 7], size=40)
    est = rng.choice([2, 5, 9, 11, 20], size=40)
    true_ids, est_ids = np.unique(tru), np.unique(est)
    expected = np.zeros((true_ids.size, est_ids.size), dtype=int)
    for r, t in enumerate(true_ids):
        for c, e in enumerate(est_ids):
            for ti, ei in zip(tru, est):
                expected[r, c] += (ti == t) and (ei == e)
    table = contingency(tru, est)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)


# --------------------------------------------------------- feature counts

def test_feature_counts_all_nonzero():
    counts = feature_counts(np.ones(7), np.arange(3))
    assert counts == (7, 0, 3)


def test_feature_counts_perfect_recovery():
    w = np.zeros(10)
    w[[2, 5, 6]] = 1.0
    counts = feature_counts(w, np.array([2, 5, 6]))
    assert counts == (3, 7, 3)


def test_feature_counts_frozen_example():
    counts = feature_counts(np.array([1.0, 0.0, 1.0, 0.0, 0.0]),
                            np.array([0, 1]))
    assert counts.nw == 2
    assert counts.pzw == 2
    assert counts.pnw == 1


def test_feature_counts_bounds_random():
    rng = np.random.default_rng(44)
    for _ in range(50):
        p = int(rng.integers(3, 20))
        w = rng.normal(size=p) * rng.integers(0, 2, size=p)
        support = np.flatnonzero(rng.integers(0, 2, size=p))
        counts = feature_counts(w, support)
        assert counts.pnw <= support.size
        assert counts.pzw <= p - support.size
        assert counts.pnw <= counts.nw


def test_feature_counts_tiny_weights_are_zero():
    counts = feature_counts(np.array([1e-13, 0.5]), np.array([0]))
    assert counts == (1, 0, 0)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), ()])
def test_feature_counts_needs_1d_weights(shape):
    with pytest.raises(DataError, match="1-dimensional"):
        feature_counts(np.ones(shape), [0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_counts_rejects_non_finite_weights(bad):
    # a NaN weight used to count as zero
    with pytest.raises(NonFiniteInput, match="NaN or infinity"):
        feature_counts([bad, 1.0, 0.0], [0])


@pytest.mark.parametrize("support", [[0.7], [1, 0.5], [np.nan], [True],
                                     ["0"]])
def test_feature_counts_rejects_non_integral_support(support):
    # a cast alone truncates 0.7 to index 0
    with pytest.raises(DataError, match="support indices must be integers"):
        feature_counts([0.5, 1.0], support)


@pytest.mark.parametrize("support", [[[0], [2]], [0, 0, 0], [2, 0.0, 2.0],
                                     np.int64(1)],
                         ids=["2d", "repeated", "repeated-float", "scalar"])
def test_feature_counts_rejects_support_not_flat_and_distinct(support):
    # pzw <= p - len(support) holds only for a flat list of distinct indices
    with pytest.raises(DataError, match="flat list of distinct indices"):
        feature_counts([1.0, 0.0, 1.0], support)


def test_feature_counts_accepts_integral_float_support():
    assert feature_counts([0.5, 0.0, 1.0], [0.0, 1.0]) == \
        feature_counts([0.5, 0.0, 1.0], [0, 1]) == (2, 0, 1)
    assert feature_counts([0.5, 0.0], []) == (1, 1, 0)


def test_feature_counts_index_error():
    with pytest.raises(IndexOutOfRange):
        feature_counts(np.ones(4), np.array([4]))
    with pytest.raises(IndexOutOfRange):
        feature_counts(np.ones(4), np.array([-1]))
