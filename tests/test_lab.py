import json
from dataclasses import asdict

import numpy as np
import pytest

from sparsekm import sparse
from sparsekm.errors import InvalidSpec, UsageError
from sparsekm.kmeans import KmeansConfig
from sparsekm.lab import (SweepReport, SweepRow, nondecreasing_within_slack,
                          run_trial, sweep, wilson_interval)
from sparsekm.sparse import SparseKmeansConfig
from sparsekm.synth import MixtureSpec


def lab_spec(seed, mu=10.0, n_per=20, p=100, p_star=10, rho=0.0):
    means = np.array([[mu] * p_star, [-mu] * p_star, [0.0] * p_star])
    return MixtureSpec(k=3, sizes=(n_per,) * 3, p=p, p_star=p_star,
                       means=means, rho=rho, seed=seed)


def lab_cfg(spec, seed, restarts=3):
    return SparseKmeansConfig(s=float(spec.p_star), method="l0",
                              inner=KmeansConfig(k=spec.k, restarts=restarts,
                                                 seed=seed))


# --------------------------------------------------------------- trials

def test_strong_signal_recovers_support():
    hits = 0
    for seed in range(20):
        spec = lab_spec(seed)
        out = run_trial(spec, lab_cfg(spec, seed))
        assert not (out.exact_support and not out.gap_event)
        assert out.seed == seed
        hits += out.exact_support
    assert hits >= 19


def test_no_signal_rarely_shows_gap(monkeypatch):
    monkeypatch.setattr(sparse, "MAX_OUTER_ITERS", 10)
    hits = 0
    for seed in range(100):
        spec = lab_spec(seed, mu=0.0, n_per=10)
        out = run_trial(spec, lab_cfg(spec, seed, restarts=1))
        hits += out.gap_event
    assert hits / 100 < 0.05


def test_run_trial_preconditions():
    spec = lab_spec(0)
    with pytest.raises(InvalidSpec):
        run_trial(lab_spec(0, rho=0.3), lab_cfg(spec, 0))
    with pytest.raises(InvalidSpec):
        bad = lab_spec(0, p_star=100)           # p_star == p
        run_trial(bad, SparseKmeansConfig(s=100.0, method="l0",
                                          inner=KmeansConfig(k=3, seed=0)))
    with pytest.raises(InvalidSpec):
        run_trial(spec, SparseKmeansConfig(s=3.0, method="l1",
                                           inner=KmeansConfig(k=3, seed=0)))
    with pytest.raises(InvalidSpec):
        run_trial(spec, SparseKmeansConfig(s=9.0, method="l0",
                                           inner=KmeansConfig(k=3, seed=0)))


# ---------------------------------------------------------------- sweep

def small_sweep(trials=20):
    base = lab_spec(77, mu=1.5, p=30, p_star=5)
    inner = KmeansConfig(k=3, restarts=2, seed=0)
    return sweep(base, [12, 24], trials, inner=inner)


def test_sweep_deterministic_and_ordered():
    a = small_sweep()
    b = small_sweep()
    assert [asdict(r) for r in a.rows] == [asdict(r) for r in b.rows]
    assert [r.n for r in a.rows] == [12, 24]
    for r in a.rows:
        assert r.trials == 20
        assert 0.0 <= r.freq_gap <= 1.0
        assert r.gap_lo <= r.freq_gap <= r.gap_hi
        assert r.support_lo <= r.freq_support <= r.support_hi
        assert (r.p, r.p_star) == (30, 5)


def test_sweep_rejects_few_trials():
    base = lab_spec(1, p=20, p_star=4)
    with pytest.raises(UsageError):
        sweep(base, [12], 19)


def test_sweep_report_files(tmp_path):
    report = small_sweep()
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,p,p_star,trials,freq_gap")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == report.rows[0].n
    assert float(first[4]) == report.rows[0].freq_gap
    loaded = json.loads(json_path.read_text())
    assert loaded == [asdict(r) for r in report.rows]


def test_sweep_report_csv_bytes(tmp_path):
    rows = [SweepRow(n=12, p=30, p_star=5, trials=20, freq_gap=0.75,
                     gap_lo=0.5, gap_hi=0.9, freq_support=0.5,
                     support_lo=0.25, support_hi=1.0, mean_ecr=0.1),
            SweepRow(n=24, p=30, p_star=5, trials=20, freq_gap=1.0,
                     gap_lo=0.8, gap_hi=1.0, freq_support=1.0,
                     support_lo=0.8, support_hi=1.0, mean_ecr=0.0)]
    path = tmp_path / "r.csv"
    SweepReport(rows=rows).to_csv(path)
    assert path.read_bytes() == (
        b"n,p,p_star,trials,freq_gap,gap_lo,gap_hi,freq_support,"
        b"support_lo,support_hi,mean_ecr\n"
        b"12,30,5,20,0.75,0.5,0.9,0.5,0.25,1.0,0.1\n"
        b"24,30,5,20,1.0,0.8,1.0,1.0,0.8,1.0,0.0\n")


# -------------------------------------------------------------- helpers

def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=2e-4)
    assert hi == pytest.approx(0.5962, abs=2e-4)
    lo0, hi0 = wilson_interval(0, 20)
    assert lo0 == 0.0
    assert hi0 < 0.2
    lo1, hi1 = wilson_interval(20, 20)
    assert hi1 == 1.0
    assert lo1 > 0.8
    with pytest.raises(UsageError):
        wilson_interval(0, 0)


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(50)
    for _ in range(50):
        trials = int(rng.integers(1, 200))
        hits = int(rng.integers(0, trials + 1))
        lo, hi = wilson_interval(hits, trials)
        assert lo <= hits / trials <= hi


def test_nondecreasing_within_slack():
    assert nondecreasing_within_slack([0.5, 0.7, 0.9],
                                      [0.4, 0.6, 0.8], [0.6, 0.8, 1.0])
    # a dip explained by interval overlap passes
    assert nondecreasing_within_slack([0.7, 0.65], [0.55, 0.5], [0.85, 0.8])
    # a drop past the intervals fails
    assert not nondecreasing_within_slack([0.9, 0.2], [0.8, 0.1], [1.0, 0.3])
