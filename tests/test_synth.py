import numpy as np
import pytest

from sparsekm.errors import InvalidSpec, UnknownExperiment
from sparsekm.synth import (GroundTruth, MixtureSpec, experiment_spec,
                            generate, with_total_n)


def small_spec(**kw):
    base = dict(k=2, sizes=(5, 5), p=4, p_star=2,
                means=np.array([[1.0, 1.0], [-1.0, -1.0]]), rho=0.0, seed=0)
    base.update(kw)
    return MixtureSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        small_spec(sizes=(5,)).validated()
    with pytest.raises(InvalidSpec):
        small_spec(sizes=(5, 0)).validated()
    for p_star in (5, -1):
        with pytest.raises(InvalidSpec, match=rf"need 0 <= p_star <= p=4, "
                                              rf"got p_star={p_star}$"):
            small_spec(p_star=p_star).validated()
    with pytest.raises(InvalidSpec):
        small_spec(means=np.ones((2, 3))).validated()
    with pytest.raises(InvalidSpec):
        small_spec(rho=1.0).validated()
    with pytest.raises(InvalidSpec):
        small_spec(rho=-0.2).validated()
    assert small_spec().validated() is not None
    spec = small_spec(k=np.int64(2), sizes=(np.int64(5), np.int32(5)),
                      p=np.int64(4), p_star=np.int16(2))
    assert generate(spec)[0].shape == (10, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_means_must_be_finite(bad):
    with pytest.raises(InvalidSpec, match="^means must be finite$"):
        generate(small_spec(means=np.array([[1.0, bad], [-1.0, -1.0]])))


@pytest.mark.parametrize("field, value, message", [
    ("k", 2.0, r"k must be an integer, got 2\.0"),
    ("sizes", (5, 5.5), r"sizes\[1\] must be an integer, got 5\.5"),
    ("p", 4.5, r"p must be an integer, got 4\.5"),
    ("p_star", 2.0, r"p_star must be an integer, got 2\.0")],
    ids=["k", "sizes", "p", "p_star"])
def test_spec_fields_must_be_integers(field, value, message):
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        generate(small_spec(**{field: value}))


def test_experiment_specs_frozen():
    e1 = experiment_spec("E1")
    assert (e1.k, e1.n, e1.p, e1.p_star, e1.rho) == (6, 120, 2000, 200, 0.0)
    means = np.asarray(e1.means)
    assert means.shape == (6, 200)
    assert means[0, 0] == 0.5
    assert means[5, 199] == 3.0

    e2 = experiment_spec("E2", mu=0.7, p=500)
    assert (e2.k, e2.n, e2.p, e2.p_star) == (3, 60, 500, 50)
    m2 = np.asarray(e2.means)
    assert (m2[0] == 0.7).all() and (m2[1] == -0.7).all() and (m2[2] == 0).all()

    e3a = experiment_spec("E3a")
    assert (e3a.k, e3a.n, e3a.p, e3a.p_star) == (3, 30, 25, 5)
    assert (np.asarray(e3a.means)[0] == 1.0).all()

    e3b = experiment_spec("E3b")
    assert (e3b.k, e3b.n, e3b.p, e3b.p_star) == (3, 60, 500, 50)
    assert np.array_equal(np.asarray(e3b.means), m2)

    e4 = experiment_spec("E4", rho=0.3)
    assert (e4.k, e4.n, e4.p, e4.p_star, e4.rho) == (6, 120, 2000, 200, 0.3)
    assert np.asarray(e4.means)[5, 0] == 6.0


def test_experiment_spec_errors():
    with pytest.raises(InvalidSpec):
        experiment_spec("E2", p=200)
    with pytest.raises(InvalidSpec):
        experiment_spec("E2", mu=0.6)
    with pytest.raises(InvalidSpec):
        experiment_spec("E4")
    with pytest.raises(UnknownExperiment):
        experiment_spec("E9")
    with pytest.raises(InvalidSpec, match="p must be an integer, got 200.5"):
        experiment_spec("E2", mu=0.7, p=200.5)
    assert experiment_spec("E2", mu=0.7, p=np.int64(200)).p == 200


@pytest.mark.parametrize("exp_id, kwargs, fixed", [
    ("E1", {"rho": 0.5}, "rho"),
    ("E2", {"mu": 0.7, "p": 200, "rho": 0.5}, "rho"),
    ("E3a", {"p": 5}, "p"),
    ("E3b", {"mu": 9.0}, "mu"),
    ("E4", {"rho": 0.3, "p": 100}, "p"),
])
def test_experiment_spec_rejects_fixed_params(exp_id, kwargs, fixed):
    with pytest.raises(InvalidSpec, match=f"{exp_id} fixes {fixed}"):
        experiment_spec(exp_id, **kwargs)


def test_generate_shapes_and_grouping():
    x, truth = generate(experiment_spec("E2", mu=0.7, p=200, seed=3))
    assert x.shape == (60, 200)
    assert truth.labels.shape == (60,)
    assert np.array_equal(np.bincount(truth.labels), [20, 20, 20])
    assert (np.diff(truth.labels) >= 0).all()
    assert np.array_equal(truth.support, np.arange(50))
    # third cluster sits at the origin, first at +0.7, on relevant features
    block0 = x[truth.labels == 0][:, :50].mean()
    block2 = x[truth.labels == 2][:, :50].mean()
    bound = 4.0 / np.sqrt(20 * 50)
    assert abs(block0 - 0.7) < bound
    assert abs(block2) < bound


def test_generate_law_of_large_numbers():
    spec = MixtureSpec(k=1, sizes=(1000,), p=10, p_star=0,
                       means=np.zeros((1, 0)), seed=7)
    x, truth = generate(spec)
    assert truth.support.size == 0
    assert (np.abs(x.mean(axis=0)) < 4.0 / np.sqrt(1000)).all()
    v = x.var(axis=0, ddof=1)
    assert (v > 0.8).all() and (v < 1.2).all()


def test_generate_ar1_covariance():
    spec = MixtureSpec(k=1, sizes=(20000,), p=5, p_star=0,
                       means=np.zeros((1, 0)), rho=0.3, seed=11)
    x, _ = generate(spec)
    corr = np.corrcoef(x, rowvar=False)
    target = 0.3 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    assert np.abs(corr - target).max() < 0.03
    assert np.abs(x.var(axis=0, ddof=1) - 1.0).max() < 0.05


def test_generate_deterministic():
    spec = small_spec(seed=9)
    x1, t1 = generate(spec)
    x2, t2 = generate(small_spec(seed=9))
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1.labels, t2.labels)
    x3, _ = generate(small_spec(seed=10))
    assert not np.array_equal(x1, x3)


def test_noise_columns_identical_across_clusters():
    means = np.array([[2.0] * 5, [-2.0] * 5, [0.0] * 5])
    spec = MixtureSpec(k=3, sizes=(40, 40, 40), p=30, p_star=5, means=means,
                       seed=13)
    x, truth = generate(spec)
    a = x[truth.labels == 0][:, 5:]
    b = x[truth.labels == 1][:, 5:]
    z = (a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(1 / 40 + 1 / 40)
    assert (np.abs(z) < 3.0).mean() >= 0.95


def test_with_total_n():
    spec = experiment_spec("E3b", seed=5)
    grown = with_total_n(spec, 10)
    assert grown.sizes == (4, 3, 3)
    assert grown.p == spec.p and grown.seed == spec.seed
    assert with_total_n(spec, 120).sizes == (40, 40, 40)
    with pytest.raises(InvalidSpec):
        with_total_n(spec, 2)
    with pytest.raises(InvalidSpec, match="^n must be an integer, got 30.7$"):
        with_total_n(spec, 30.7)
    assert with_total_n(spec, np.int64(30)).sizes == (10, 10, 10)
