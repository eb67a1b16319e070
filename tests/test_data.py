import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekm._rng import rng_for
from sparsekm.data import (_as_2d, _as_weights, _centroids, as_matrix,
                           bcss_per_feature, cluster_stats, read_csv_matrix,
                           standardize, total_ss, weighted_wcss,
                           write_csv_matrix, write_csv_rows)
from sparsekm.errors import DataError, EmptyCluster, NonFiniteInput


def eq4_bruteforce(x, labels, k):
    """Independent oracle: the ordered-pair double sum, O(n^2 p)."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    a = np.zeros(p)
    for j in range(p):
        d = (x[:, j][:, None] - x[:, j][None, :]) ** 2
        total = d.sum() / n
        within = 0.0
        for c in range(k):
            idx = np.flatnonzero(labels == c)
            within += d[np.ix_(idx, idx)].sum() / idx.size
        a[j] = total - within
    return a


def between_group_ss_reference(m, labels, k):
    """The centroid form sum_k n_k (mean_kj - mean_j)^2 that the package
    once exported as between_group_ss, and doubled for bcss_per_feature."""
    m, counts, centroids = _centroids(m, labels, k)
    return counts @ (centroids - m.mean(axis=0)) ** 2


def bcss_reference(m, labels, k):
    a = 2.0 * between_group_ss_reference(m, labels, k)
    a[(a < 0.0) & (a > -1e-9)] = 0.0
    return a


def within_group_ss_reference(m, labels, k):
    """The per-feature within-group SS helper weighted_wcss once called."""
    m, counts, centroids = _centroids(m, labels, k)
    return (m**2).sum(axis=0) - counts @ centroids**2


def weighted_wcss_reference(m, labels, w, k):
    m = _as_2d(m)
    w = _as_weights(w, m.shape[1])
    return float(2.0 * (w @ within_group_ss_reference(m, labels, k)))


def random_partition(rng, n, k):
    """Uniform labels conditioned on no empty cluster."""
    while True:
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() > 0:
            return labels


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out[:, 0], [-0.7071067811865475, 0.7071067811865475])

    def test_mean_zero_sd_one(self):
        x = rng_for(7).standard_normal((40, 6)) * 3 + 5
        out = standardize(x)
        assert np.allclose(out.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(out.std(axis=0, ddof=1), 1, atol=1e-9)

    def test_constant_column_needs_flag(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.raises(DataError):
            standardize(x)
        out = standardize(x, allow_constant=True)
        assert np.all(out[:, 0] == 0.0)

    def test_idempotent(self):
        x = standardize(rng_for(8).standard_normal((20, 3)))
        assert np.allclose(standardize(x), x, atol=1e-12)

    def test_nonfinite_rejected(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            standardize(x)


class TestBcss:
    def test_two_singletons(self):
        a = bcss_per_feature(np.array([[0.0], [2.0]]), [0, 1], 2)
        assert a[0] == pytest.approx(4.0)

    def test_single_cluster_is_zero(self):
        x = rng_for(3).standard_normal((6, 2))
        assert np.allclose(bcss_per_feature(x, [0] * 6, 1), 0.0, atol=1e-9)

    def test_two_pairs(self):
        # (1,1,5,5) split {0,1} vs {2,3}: the ordered-pair double sum gives 32
        a = bcss_per_feature(np.array([[1.0], [1.0], [5.0], [5.0]]),
                             [0, 0, 1, 1], 2)
        assert a[0] == pytest.approx(32.0, rel=1e-12)

    def test_matches_bruteforce(self):
        rng = rng_for(11)
        for trial in range(100):
            n = int(rng.integers(4, 13))
            p = int(rng.integers(1, 7))
            k = int(rng.integers(2, min(n, 4) + 1))
            x = rng.standard_normal((n, p))
            labels = random_partition(rng, n, k)
            a = bcss_per_feature(x, labels, k)
            ref = eq4_bruteforce(x, labels, k)
            assert np.allclose(a, ref, rtol=1e-9, atol=1e-9)

    def test_factor_two_bridge(self):
        rng = rng_for(12)
        for trial in range(50):
            n, p, k = 10, 4, 3
            x = rng.standard_normal((n, p))
            labels = random_partition(rng, n, k)
            classical = sum(
                (labels == c).sum() * (x[labels == c].mean(axis=0)
                                       - x.mean(axis=0)) ** 2
                for c in range(k))
            assert np.allclose(bcss_per_feature(x, labels, k),
                               2.0 * classical, rtol=1e-9)

    def test_empty_cluster(self):
        with pytest.raises(EmptyCluster):
            bcss_per_feature(np.eye(4), [0, 0, 1, 1], 3)

    def test_decomposition(self):
        rng = rng_for(13)
        for trial in range(50):
            n, p, k = 9, 5, 3
            x = rng.standard_normal((n, p))
            labels = random_partition(rng, n, k)
            w = rng.uniform(0, 2, size=p)
            lhs = float(w @ bcss_per_feature(x, labels, k)) \
                + weighted_wcss(x, labels, w, k)
            assert lhs == pytest.approx(total_ss(x, w), rel=1e-9)

    def test_noise_nullity_at_expectation(self):
        # standardized noise column, uniform random partitions: the
        # between-group SS averages K - 1
        rng = rng_for(14)
        n, k, draws = 30, 3, 2000
        col = standardize(rng.standard_normal((n, 1)))
        vals = np.empty(draws)
        for t in range(draws):
            labels = random_partition(rng, n, k)
            # halving is exact, so this is the classical value bit for bit
            vals[t] = bcss_per_feature(col, labels, k)[0] / 2
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - (k - 1)) < 3 * se


def test_ss_bits_match_reference():
    """bcss_per_feature and weighted_wcss give the bits of the helpers they
    absorbed, on C- and F-ordered matrices whose columns span six decades
    of magnitude."""
    rng = rng_for(15)
    for trial in range(300):
        n = int(rng.integers(2, 41))
        p = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 6) + 1))
        scale = 10.0 ** rng.uniform(-3, 3, size=p)
        x = (rng.standard_normal((n, p)) + rng.normal(size=p)) * scale
        if trial % 2:
            x = np.asfortranarray(x)
        labels = random_partition(rng, n, k)
        w = rng.uniform(0, 2, size=p)
        assert np.array_equal(
            bcss_per_feature(x, labels, k).view(np.int64),
            bcss_reference(x, labels, k).view(np.int64))
        assert np.float64(weighted_wcss(x, labels, w, k)).view(np.int64) == \
            np.float64(weighted_wcss_reference(x, labels, w, k)).view(np.int64)


class TestWcss:
    def test_zero_weights(self):
        x = rng_for(1).standard_normal((5, 3))
        assert weighted_wcss(x, [0, 0, 1, 1, 1], np.zeros(3), 2) == 0.0

    def test_one_cluster_pair(self):
        assert weighted_wcss(np.array([[0.0], [2.0]]), [0, 0], [1.0], 1) \
            == pytest.approx(4.0)

    def test_singletons(self):
        x = np.array([[0.0], [5.0]])
        assert weighted_wcss(x, [0, 1], [1.0], 2) == 0.0


class TestTotalSs:
    def test_pair(self):
        assert total_ss(np.array([[-1.0], [1.0]]), [1.0]) == pytest.approx(4.0)

    def test_zero_weight(self):
        assert total_ss(np.array([[-1.0], [1.0]]), [0.0]) == 0.0

    def test_identical_rows(self):
        assert total_ss(np.ones((4, 2)), [1.0, 1.0]) == 0.0


class TestClusterStats:
    """cluster_stats against sequential accumulation, compared exactly."""

    @staticmethod
    def reference(m, labels, k):
        sums = np.zeros((k, m.shape[1]))
        np.add.at(sums, labels, m)
        return np.bincount(labels, minlength=k), sums

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [1, 2, 7, 300])
    def test_matches_add_at_exactly(self, p, order):
        rng = rng_for(31, p)
        # magnitudes spread over six decades so summation order shows
        x = rng.standard_normal((257, p)) * 10.0 ** rng.uniform(-3, 3, (257, p))
        x = np.asarray(x, order=order)
        for k in (1, 3, 8):
            labels = rng.integers(0, k, size=257)
            counts, sums = cluster_stats(x, labels, k)
            ref_counts, ref_sums = self.reference(x, labels, k)
            assert np.array_equal(counts, ref_counts)
            assert np.array_equal(sums, ref_sums)

    @pytest.mark.parametrize("p", [1, 2, 7, 300])
    def test_column_subsets_match_add_at_exactly(self, p):
        """sparse_kmeans passes m[:, active], an F-ordered copy; a strided
        slice is a view whose rows are not contiguous."""
        rng = rng_for(33, p)
        x = rng.standard_normal((257, 3 * p)) * 10.0 ** rng.uniform(
            -3, 3, (257, 3 * p))
        active = np.sort(rng.choice(3 * p, size=p, replace=False))
        for sub in (x[:, active], x[::2, ::3]):
            for k in (1, 3, 8):
                labels = rng.integers(0, k, size=sub.shape[0])
                counts, sums = cluster_stats(sub, labels, k)
                ref_counts, ref_sums = self.reference(sub, labels, k)
                assert np.array_equal(counts, ref_counts)
                assert np.array_equal(sums, ref_sums)

    @pytest.mark.parametrize("p", [1, 4])
    def test_empty_cluster_has_zero_sums(self, p):
        x = rng_for(32).standard_normal((9, p))
        labels = np.array([0, 2, 0, 2, 2, 0, 0, 2, 2])
        counts, sums = cluster_stats(x, labels, 4)
        assert counts.tolist() == [4, 0, 5, 0]
        assert sums.shape == (4, p)
        assert np.array_equal(sums[[1, 3]], np.zeros((2, p)))
        assert np.array_equal(sums, self.reference(x, labels, 4)[1])


# Texts that all read as [[1, 2], [3, 4]]: csv quoting, blank lines, LF
# and CRLF line ends, and the spaces float() strips around a number.
SAME_MATRIX_TEXTS = [
    "1,2\n3,4\n",
    "1,2\r\n3,4\r\n",
    "1,2\n3,4",
    '"1","2"\n3,"4.0"\n',
    "\n1,2\n\n\r\n3,4\n\n",
    " 1 ,2\t\r\n3, 4 \r\n",
]

# (text, message after "<path>:"): the parse error comes first even on a
# line that is also ragged, and names the line and the bad cell.
BAD_CELL_TEXTS = [
    ("1.0,2.0\n1.0,oops\n", "2: could not convert string to float: 'oops'"),
    ("1,2\r\n3,4\r\nx\r\n", "3: could not convert string to float: 'x'"),
    ("1,2\n\n3,4,oops\n", "3: could not convert string to float: 'oops'"),
    ('1,2\n"3",""\n', "2: could not convert string to float: ''"),
    ("1,2\n3,4 5\n", "2: could not convert string to float: '4 5'"),
    ('"1\n",2\n3,x\n', "3: could not convert string to float: 'x'"),
]

RAGGED_TEXTS = [
    ("1,2\n3\n", "2: expected 2 columns, got 1"),
    ("1\r\n\r\n2,3\r\n", "3: expected 1 columns, got 2"),
    ('"1","2"\n\n6,7,8\n', "3: expected 2 columns, got 3"),
    ('"1\n",2\n3\n', "3: expected 2 columns, got 1"),
]

# Float edge cases: signed zero, the repr switch to exponent form at 1e-4
# and 1e16, the smallest subnormal and the largest finite double.
EDGE_MATRIX = np.array([
    [-0.0, 1e-05, 0.0001, 1e16],
    [5e-324, 1.7976931348623157e308, 0.1, -2.5],
    [-1e-05, -0.0001, -1e16, -5e-324],
    [-1.7976931348623157e308, -0.1, 123456789.125, 0.0],
])


class TestCsv:
    def test_round_trip(self, tmp_path):
        """write_csv_matrix writes csv.writer's bytes (repr cells, CRLF),
        and read_csv_matrix reads them back bit for bit."""
        path, ref = tmp_path / "m.csv", tmp_path / "ref.csv"
        for x in (rng_for(5).standard_normal((7, 3)),
                  rng_for(6).standard_normal((5, 9)) * 1e3, EDGE_MATRIX):
            write_csv_matrix(path, x)
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in x:
                    writer.writerow([repr(float(v)) for v in row])
            assert path.read_bytes() == ref.read_bytes()
            assert read_csv_matrix(path).tobytes() == x.tobytes()
        assert path.read_bytes().startswith(
            b"-0.0,1e-05,0.0001,1e+16\r\n5e-324,1.7976931348623157e+308,")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in BAD_CELL_TEXTS:
            path.write_text(text, newline="")
            with pytest.raises(DataError) as err:
                read_csv_matrix(path)
            assert str(err.value) == f"{path}:{message}"

    def test_header_flag(self, tmp_path):
        path = tmp_path / "h.csv"
        for text in SAME_MATRIX_TEXTS:
            eol = "\r\n" if "\r\n" in text else "\n"
            # the header is the first non-blank record, not record 1
            for header, prefix in ((False, ""), (True, '"a,b",c' + eol),
                                   (True, eol + '"a,b",c' + eol)):
                path.write_text(prefix + text, newline="")
                back = read_csv_matrix(path, header=header)
                assert back.dtype == np.float64
                assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        for text, message in RAGGED_TEXTS:
            path.write_text(text, newline="")
            with pytest.raises(DataError) as err:
                read_csv_matrix(path)
            assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_matrix_writer_rejects_non_2d(self, tmp_path, shape):
        path = tmp_path / "w.csv"
        with pytest.raises(DataError, match=rf"2-dimensional, got shape "
                                            rf"{re.escape(str(shape))}"):
            write_csv_matrix(path, np.zeros(shape))
        assert not path.exists()

    def test_rows_literal_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_rows(path, ["name", "note", "count", "value", "missing"],
                       [("a", "", 3, 0.1, float("nan")),
                        ("b", "x", -12, 1e-20, 2.0)])
        assert path.read_bytes() == (b"name,note,count,value,missing\n"
                                     b"a,,3,0.1,nan\n"
                                     b"b,x,-12,1e-20,2.0\n")

    def test_rows_quote_cells_that_need_it(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv_rows(path, ["cell", "note", "v"],
                       [("E2(mu=0.7,p=200)", 'say "hi"', 1.5),
                        ("E3a", "two\nlines", 2)])
        assert path.read_bytes() == (b"cell,note,v\n"
                                     b'"E2(mu=0.7,p=200)","say ""hi""",1.5\n'
                                     b'E3a,"two\nlines",2\n')
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                ["E2(mu=0.7,p=200)", 'say "hi"', "1.5"],
                ["E3a", "two\nlines", "2"]]

    def test_missing_file_is_data_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError, match="absent.csv: No such file"):
            read_csv_matrix(path)


def test_as_matrix_shape_checks():
    with pytest.raises(DataError):
        as_matrix(np.ones(3))
    with pytest.raises(DataError):
        as_matrix(np.ones((1, 3)))


@pytest.mark.parametrize("fn, args", [
    (bcss_per_feature, ([0, 1, 0, 1], 2)),
    (weighted_wcss, ([0, 1, 0, 1], [1.0], 2)),
    (total_ss, (np.ones(1),)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_ss_helpers_reject_non_2d(fn, args):
    with pytest.raises(DataError, match=r"2-dimensional, got shape \(4,\)"):
        fn(np.ones(4), *args)


@pytest.mark.parametrize("fn, args", [
    (weighted_wcss, ([0, 1, 0, 1, 0, 1], np.ones(3), 2)),
    (total_ss, (np.ones(3),)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_ss_helpers_need_one_weight_per_column(fn, args):
    m = np.arange(36.0).reshape(6, 6)
    with pytest.raises(DataError, match=r"shape \(6,\), got \(3,\)"):
        fn(m, *args)


@pytest.mark.parametrize("fn, args", [
    (bcss_per_feature, ([], 2)),
    (weighted_wcss, ([], np.ones(3), 2)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_ss_helpers_reject_zero_rows(fn, args):
    with pytest.raises(DataError, match="0 rows"):
        fn(np.empty((0, 3)), *args)


@pytest.mark.parametrize("labels", [[0.7, 1, 1], [1, 0.5, 0], [np.nan, 1, 0],
                                    [True, False, True], ["0", "1", "1"]],
                         ids=["0.7", "0.5", "nan", "bool", "str"])
@pytest.mark.parametrize("fn, args", [
    (bcss_per_feature, (2,)),
    (weighted_wcss, (np.ones(2), 2)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_ss_helpers_refuse_non_integral_labels(fn, args, labels):
    # a cast alone scores [0.7, 1, 1] as [0, 1, 1] and True as 1
    with pytest.raises(DataError, match="labels must be integers"):
        fn(np.eye(3, 2), labels, *args)


def test_ss_helpers_take_integral_float_labels():
    x = rng_for(16).standard_normal((5, 3))
    ints, floats = [0, 1, 1, 0, 1], [0.0, 1.0, 1.0, 0.0, 1.0]
    assert np.array_equal(bcss_per_feature(x, floats, 2),
                          bcss_per_feature(x, ints, 2))
    assert weighted_wcss(x, floats, np.ones(3), 2) == \
        weighted_wcss(x, ints, np.ones(3), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [
    lambda x, w: weighted_wcss(x, [0, 1, 0], w, 2),
    total_ss,
], ids=["weighted_wcss", "total_ss"])
def test_ss_helpers_refuse_non_finite_data_and_weights(fn, bad):
    x, w = np.arange(6.0).reshape(3, 2), np.ones(2)
    x_bad, w_bad = x.copy(), w.copy()
    x_bad[1, 0] = w_bad[1] = bad
    with pytest.raises(NonFiniteInput, match="data contains NaN or infinity"):
        fn(x_bad, w)
    with pytest.raises(NonFiniteInput, match="weights contain NaN or infinity"):
        fn(x, w_bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bcss_refuses_a_non_finite_result(bad):
    x = np.arange(6.0).reshape(3, 2)
    x[1, 0] = bad
    with pytest.raises(NonFiniteInput, match="dispersion is not finite"):
        bcss_per_feature(x, [0, 1, 0], 2)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(n=st.integers(2, 30), p=st.integers(1, 5), k=st.integers(1, 5),
       grid=st.booleans(), decade=st.integers(-12, 12),
       seed=st.integers(0, 2**32 - 1))
def test_bcss_is_never_negative(n, p, k, grid, decade, seed):
    """Every term of 2 sum_k n_k (mean_kj - mean_j)^2 is a count times a
    square, so the round-off clamp the reference keeps never fires: the
    bits match it, at scales from 1e-12 to 1e12, far from the origin
    and with exact ties."""
    rng = np.random.default_rng(seed)
    k = min(k, n)
    values = rng.integers(-2, 3, size=(n, p)) if grid \
        else rng.standard_normal((n, p)) + rng.normal(size=p) * 1e3
    x = np.asarray(values, dtype=float) * 10.0 ** decade
    labels = random_partition(rng, n, k)
    a = bcss_per_feature(x, labels, k)
    assert (a >= 0.0).all()
    assert np.array_equal(a.view(np.int64),
                          bcss_reference(x, labels, k).view(np.int64))
