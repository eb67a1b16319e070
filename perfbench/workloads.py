"""The benchmark's workloads.

Each workload runs one fixed unit of work through sparsekm's public API,
returns the unit's outputs by name (for the reference digests) and checks
them against invariants recomputed here with independent numpy code:

* e2_cell  - one rep of the E2 (mu=0.7, p=200) experiment cell: l0 and l1
             gap tuning (serial, b=2), then three swap-refined final fits.
             Gap tuning dominates; the only workload with l1.
* sweep_e2 - a two-point consistency sweep (n = 60, 120; 20 trials each)
             at s = p*: swap refinement dominates, gap is never called.
* cli_e1   - generate -> tune --fit --threads 2 -> evaluate through
             ``cli.main`` on E1 (p = 2000, k = 6): the only workload with
             CSV/JSON I/O and the gap thread pool.

The sizes keep a unit to a few seconds, so a run holds several units and
reports their median (see README.md).

``SCALES["toy"]`` shrinks every workload to E3a-sized inputs for the
smoke test.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields, is_dataclass, replace

import numpy as np

from sparsekm import _rng, cli, lab, synth

from tracing import Patched

SCALES = {
    "full": {
        "e2_cell": dict(cell="E2", params={"mu": 0.7, "p": 200},
                        restarts=20, tune_restarts=5, b=2),
        "sweep_e2": dict(spec=dict(exp_id="E2", mu=0.7, p=200),
                         n_list=[60, 120], trials=20),
        "cli_e1": dict(experiment="E1", k=6, restarts=2, permutations=2,
                       threads=2),
    },
    "toy": {
        "e2_cell": dict(cell="E3a", params={}, restarts=2, tune_restarts=1,
                        b=2),
        "sweep_e2": dict(spec=dict(exp_id="E3a"), n_list=[30], trials=20),
        "cli_e1": dict(experiment="E3a", k=3, restarts=1, permutations=2,
                       threads=2),
    },
}


class UnitFailed(Exception):
    """A unit of work ended with a nonzero exit code."""


class _Recorder(Patched):
    """Wraps module functions so every call's arguments and result are
    kept, in call order, until the ``with`` block ends."""

    def __init__(self, module, names):
        super().__init__()
        self.calls = []
        for name in names:
            self.set(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, args, result))
            return result
        return recorded


# -- independent reference computations used by the checks ---------------

def bcss_ref(x, labels, k):
    """Per-feature between-cluster dispersion, ordered-pair scale,
    computed with a one-hot matrix product."""
    onehot = (np.asarray(labels)[:, None] == np.arange(k)).astype(float)
    counts = onehot.sum(axis=0)
    means = (onehot.T @ x) / counts[:, None]
    return 2.0 * counts @ (means - x.mean(axis=0)) ** 2


def cer_ref(est, truth):
    """Pair-disagreement rate from cluster-size counts."""
    est, truth = np.asarray(est), np.asarray(truth)
    n = est.size

    def pairs(labels):
        _, c = np.unique(labels, axis=-1, return_counts=True)
        return float((c * (c - 1) // 2).sum())

    joint = pairs(np.stack([est, truth]))
    return (pairs(est) + pairs(truth) - 2.0 * joint) / (n * (n - 1) / 2)


def ecr_ref(est, truth):
    table = np.zeros((truth.max() + 1, est.max() + 1), dtype=int)
    for t, e in zip(truth, est):
        table[t, e] += 1
    return 1.0 - table.max(axis=0).sum() / truth.size


def standardize_ref(x):
    centered = x - x.mean(axis=0)
    sd = centered.std(axis=0, ddof=1)
    return centered / np.where(sd > 0, sd, 1.0)


def grid_ref(method, p):
    if method == "l0":
        return np.unique(np.round(np.geomspace(2, p, 15)))
    return np.linspace(1.2, np.sqrt(p), 15)


def _close(a, b, rtol=1e-9):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_fit(problems, tag, x, k, method, s, labels, weights, objective):
    """Feasibility of the weights and the BCSS identity of the objective."""
    labels, weights = np.asarray(labels), np.asarray(weights, dtype=float)
    if labels.min() < 0 or labels.max() >= k or \
            np.unique(labels).size != k:
        problems.append(f"{tag}: labels do not use exactly {k} clusters")
        return
    if method == "l0":
        if not np.isin(weights, (0.0, 1.0)).all() or \
                weights.sum() != np.floor(s):
            problems.append(f"{tag}: l0 weights are not {int(s)} ones")
    else:
        if (weights < 0).any() or abs(np.sqrt(weights @ weights) - 1) > 1e-9 \
                or weights.sum() > s + 1e-8:
            problems.append(f"{tag}: l1 weights are infeasible for s={s}")
    if not _close(objective, float(weights @ bcss_ref(x, labels, k))):
        problems.append(f"{tag}: objective {objective!r} is not w . BCSS")


def check_gap(problems, tag, method, p, grid, gap, chosen_s):
    grid, gap = np.asarray(grid, dtype=float), np.asarray(gap, dtype=float)
    if not np.array_equal(grid, grid_ref(method, p)):
        problems.append(f"{tag}: grid differs from the default {method} grid")
    elif chosen_s != grid[np.nanargmax(gap)]:
        problems.append(f"{tag}: chosen s={chosen_s} does not maximise gap")


# -- workloads -------------------------------------------------------------

class _Workload:
    name = ""
    threads = 1         # threads a unit runs on
    output_bytes = 0    # bytes of files the last unit wrote

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.cfg = SCALES[scale][self.name]

    def setup(self, workdir):
        """Everything before the first timed call."""


class E2Cell(_Workload):
    """One rep of an E2 experiment cell."""

    name = "e2_cell"

    def unit(self):
        c = self.cfg
        with _Recorder(cli, ("run_kmeans", "gap_statistic",
                             "sparse_kmeans")) as rec:
            records = cli.run_experiment_cell(
                c["cell"], c["params"], reps=1, seed=self.seed,
                restarts=c["restarts"], tune_restarts=c["tune_restarts"],
                b=c["b"], threads=1)
        out = {}
        for name, args, result in rec.calls:
            if name == "run_kmeans":
                out["kmeans"] = result
            elif name == "gap_statistic":
                out[f"gap_{args[1]}"] = result
            else:
                out[f"fit_{args[1].method}"] = result
        out["records"] = records
        return out

    def check(self, out):
        spec = synth.experiment_spec(self.cfg["cell"],
                                     seed=_rng.spawn_seed(self.seed, 0),
                                     **self.cfg["params"])
        x, truth = synth.generate(spec)
        xs = standardize_ref(x)
        rec = out["records"][0]
        problems = []
        for method in ("l0", "l1"):
            gap, fit = out[f"gap_{method}"], out[f"fit_{method}"]
            check_gap(problems, f"gap_{method}", method, spec.p, gap.grid,
                      gap.gap, gap.chosen_s)
            check_fit(problems, f"fit_{method}", xs, spec.k, method,
                      gap.chosen_s, fit.labels, fit.weights, fit.objective)
            if rec[f"cer_{method}"] != cer_ref(fit.labels, truth.labels):
                problems.append(f"records: cer_{method} disagrees with "
                                f"fit_{method} labels")
        if rec["cer_kmeans"] != cer_ref(out["kmeans"].labels, truth.labels):
            problems.append("records: cer_kmeans disagrees with the labels")
        return problems

    def quality(self, out):
        rec = out["records"][0]
        return {"cer_l0": rec["cer_l0"], "cer_l1": rec["cer_l1"]}


class SweepE2(_Workload):
    """A consistency sweep over n with s fixed at p*."""

    name = "sweep_e2"

    def _base(self):
        spec = dict(self.cfg["spec"])
        return synth.experiment_spec(spec.pop("exp_id"), seed=self.seed,
                                     **spec)

    def unit(self):
        with _Recorder(lab, ("l0_kmeans",)) as rec:
            report = lab.sweep(self._base(), self.cfg["n_list"],
                               trials=self.cfg["trials"])
        return {"trial_fits": [r for _, _, r in rec.calls],
                "rows": report.rows}

    def check(self, out):
        base, trials = self._base(), self.cfg["trials"]
        fits = iter(out["trial_fits"])
        problems = []
        for si, (n, row) in enumerate(zip(sorted(self.cfg["n_list"]),
                                          out["rows"])):
            scaled = synth.with_total_n(base, n)
            hits_gap = hits_support = 0
            ecr_sum = 0.0
            for ti in range(trials):
                spec = replace(scaled, seed=_rng.spawn_seed(base.seed, si, ti))
                x, truth = synth.generate(spec)
                fit = next(fits)
                tag = f"trial n={n} #{ti}"
                check_fit(problems, tag, x, spec.k, "l0", spec.p_star,
                          fit.labels, fit.weights, fit.objective)
                a = bcss_ref(x, fit.labels, spec.k)
                hits_gap += a[:spec.p_star].min() > a[spec.p_star:].max()
                hits_support += bool((fit.weights[:spec.p_star] == 1).all()
                                     and (fit.weights[spec.p_star:] == 0)
                                     .all())
                ecr_sum += ecr_ref(fit.labels, truth.labels)
            if (row.n, row.trials) != (n, trials) \
                    or row.freq_gap != hits_gap / trials \
                    or row.freq_support != hits_support / trials \
                    or not _close(row.mean_ecr, ecr_sum / trials, 1e-12):
                problems.append(f"rows: n={n} frequencies disagree with "
                                f"the trial fits")
        return problems

    def quality(self, out):
        return {"freq_support": out["rows"][-1].freq_support}


_MANIFESTS = ("d.manifest.json", "t.manifest.json", "e.manifest.json")
_CLI_OUTPUTS = ("d.csv", "d.truth.json", "d.manifest.json", "t.gap.csv",
                "t.chosen.json", "t.fit.json", "t.manifest.json",
                "e.metrics.json", "e.metrics.csv", "e.manifest.json")


class CliE1(_Workload):
    """generate -> tune --fit -> evaluate through cli.main, in process.

    Output paths are relative to a private work directory, so manifests
    (which record the paths) are the same bytes in every checkout."""

    name = "cli_e1"

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.threads = self.cfg["threads"]

    def setup(self, workdir):
        os.makedirs(workdir, exist_ok=True)
        os.chdir(workdir)

    def commands(self):
        c, s = self.cfg, str(self.seed)
        return [
            ["generate", "--experiment", c["experiment"], "--seed", s,
             "--out", "d"],
            ["tune", "--input", "d.csv", "--method", "l0", "--k", str(c["k"]),
             "--restarts", str(c["restarts"]),
             "--permutations", str(c["permutations"]),
             "--seed", str(self.seed + 1), "--fit",
             "--threads", str(c["threads"]), "--out", "t"],
            ["evaluate", "--result", "t.fit.json", "--truth", "d.truth.json",
             "--out", "e"],
        ]

    def unit(self):
        for argv in self.commands():
            code = cli.main(argv)
            if code != 0:
                raise UnitFailed(f"sparsekm {argv[0]} exited {code}")
        out = {}
        for path in _CLI_OUTPUTS:
            with open(path, "rb") as fh:
                out[path] = fh.read()
        self.output_bytes = sum(len(v) for v in out.values())
        for path in _MANIFESTS:
            manifest = json.loads(out[path])
            manifest.pop("duration_s")
            out[path] = json.dumps(manifest, sort_keys=True).encode()
        return out

    def check(self, out):
        spec = synth.experiment_spec(self.cfg["experiment"], seed=self.seed)
        x, truth = synth.generate(spec)
        problems = []
        written = np.loadtxt("d.csv", delimiter=",", ndmin=2)
        if not np.array_equal(written, x):
            problems.append("d.csv does not round-trip the generated matrix")
        fit = json.loads(out["t.fit.json"])
        chosen = json.loads(out["t.chosen.json"])["chosen_s"]
        gap = np.loadtxt("t.gap.csv", delimiter=",", skiprows=1, ndmin=2)
        check_gap(problems, "t.gap.csv", "l0", spec.p, gap[:, 0], gap[:, 2],
                  chosen)
        if fit["s"] != chosen:
            problems.append("t.fit.json: s differs from t.chosen.json")
        check_fit(problems, "t.fit.json", standardize_ref(written), spec.k,
                  "l0", chosen, fit["assignments"], fit["weights"],
                  fit["objective"])
        scores = json.loads(out["e.metrics.json"])
        if scores["cer"] != cer_ref(fit["assignments"], truth.labels):
            problems.append("e.metrics.json: cer disagrees with t.fit.json")
        if scores["nw"] != int(np.count_nonzero(fit["weights"])):
            problems.append("e.metrics.json: nw disagrees with t.fit.json")
        return problems

    def quality(self, out):
        return {"cer_l0": json.loads(out["e.metrics.json"])["cer"]}


WORKLOADS = {w.name: w for w in (E2Cell, SweepE2, CliE1)}


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    elif is_dataclass(value):
        _feed(h, {f.name: getattr(value, f.name) for f in fields(value)})
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}]".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def digests(outputs) -> dict:
    """One sha256 (first 16 hex digits) per named output, in output order."""
    result = {}
    for name, value in outputs.items():
        h = hashlib.sha256()
        _feed(h, value)
        result[name] = h.hexdigest()[:16]
    return result

