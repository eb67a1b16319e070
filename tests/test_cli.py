import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsekm
from sparsekm import cli, gap, kmeans, sparse, synth
from sparsekm.cli import _write_records_csv, build_parser, main
from sparsekm.data import write_csv_matrix
from sparsekm.errors import (DataError, DegenerateData, NumericalError,
                             SparsekmError, UsageError)


def manifest_without_duration(path):
    payload = json.loads(path.read_text())
    payload.pop("duration_s")
    return payload


def make_noise_csv(tmp_path, n=20, p=8, seed=60):
    rng = np.random.default_rng(seed)
    path = tmp_path / "noise.csv"
    write_csv_matrix(path, rng.normal(size=(n, p)))
    return path


def make_signal_csv(tmp_path):
    assert main(["generate", "--experiment", "E3a", "--seed", "3",
                 "--out", str(tmp_path / "e3a")]) == 0
    return tmp_path / "e3a.csv", tmp_path / "e3a.truth.json"


def test_exit_code_mapping():
    assert UsageError("x").exit_code == 1
    assert DataError("x").exit_code == 2
    assert NumericalError("x").exit_code == 3
    assert SparsekmError("x").exit_code == 3


# -------------------------------------------------------------- generate

def test_generate_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["generate", "--experiment", "E3a", "--seed", "9",
                 "--out", str(out1)]) == 0
    assert main(["generate", "--experiment", "E3a", "--seed", "9",
                 "--out", str(out2)]) == 0
    csv1 = (tmp_path / "a.csv").read_bytes()
    csv2 = (tmp_path / "b.csv").read_bytes()
    assert csv1 == csv2
    truth = json.loads((tmp_path / "a.truth.json").read_text())
    assert len(truth["labels"]) == 30
    assert truth["support"] == list(range(5))
    assert truth["spec"]["p"] == 25
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 9
    for name in manifest["outputs"]:
        assert (tmp_path / name.split("/")[-1]).exists()
    other = main(["generate", "--experiment", "E3a", "--seed", "10",
                  "--out", str(tmp_path / "c")])
    assert other == 0
    assert (tmp_path / "c.csv").read_bytes() != csv1


def test_generate_unknown_experiment(tmp_path, capsys):
    code = main(["generate", "--experiment", "E9",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_generate_e2_requires_mu_and_p(tmp_path):
    assert main(["generate", "--experiment", "E2",
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--experiment", "E2", "--mu", "nan", "--p", "60"],
    ["sweep", "--mu", "inf", "--p", "30", "--p-star", "5", "--n-list", "12",
     "--trials", "20"],
], ids=["generate", "sweep"])
def test_non_finite_mu_is_usage_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "d")]) == 1
    assert "means must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- cluster

def test_cluster_kmeans_keeps_all_features(tmp_path):
    csv_path, _ = make_signal_csv(tmp_path)
    out = tmp_path / "km"
    assert main(["cluster", "--input", str(csv_path), "--method", "kmeans",
                 "--k", "3", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "km.json").read_text())
    assert payload["method"] == "kmeans"
    assert len(payload["assignments"]) == 30
    assert payload["weights"] == [1.0] * 25
    assert payload["selected_features"] == list(range(25))
    assert payload["objective"] == pytest.approx(sum(payload["bcss"]))


def test_cluster_l0_s_equals_p(tmp_path):
    csv_path, _ = make_signal_csv(tmp_path)
    out = tmp_path / "l0"
    assert main(["cluster", "--input", str(csv_path), "--method", "l0",
                 "--k", "3", "--s", "25", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "l0.json").read_text())
    assert payload["selected_features"] == list(range(25))
    assert payload["converged"] is True


def test_cluster_deterministic(tmp_path):
    csv_path, _ = make_signal_csv(tmp_path)
    for name in ("r1", "r2"):
        assert main(["cluster", "--input", str(csv_path), "--method", "l0",
                     "--k", "3", "--s", "5", "--seed", "4",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1.json").read_bytes() == \
        (tmp_path / "r2.json").read_bytes()
    m1 = manifest_without_duration(tmp_path / "r1.manifest.json")
    m2 = manifest_without_duration(tmp_path / "r2.manifest.json")
    m1["config"].pop("out"), m2["config"].pop("out")
    m1.pop("outputs"), m2.pop("outputs")
    assert m1 == m2


def test_cluster_missing_s_is_usage_error(tmp_path, capsys):
    csv_path, _ = make_signal_csv(tmp_path)
    code = main(["cluster", "--input", str(csv_path), "--method", "l0",
                 "--k", "3", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--s" in capsys.readouterr().err


@pytest.mark.parametrize("exists", [True, False])
def test_cluster_kmeans_rejects_s_before_reading(tmp_path, capsys, exists):
    csv_path = make_signal_csv(tmp_path)[0] if exists \
        else tmp_path / "missing.csv"
    out = tmp_path / "km"
    code = main(["cluster", "--input", str(csv_path), "--method", "kmeans",
                 "--k", "3", "--s", "7", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--s" in err and "kmeans" in err
    assert not (tmp_path / "km.json").exists()
    assert not (tmp_path / "km.manifest.json").exists()


def test_cluster_bad_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    code = main(["cluster", "--input", str(bad), "--method", "kmeans",
                 "--k", "2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "tune"])
def test_missing_input_is_data_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    extra = ["--s", "2"] if command == "cluster" else []
    code = main([command, "--input", str(missing), "--method", "l0",
                 "--k", "2", "--out", str(tmp_path / "x")] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "No such file" in err


@pytest.mark.parametrize("command", ["cluster", "tune", "evaluate"])
def test_non_utf8_input_is_data_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1,2\n3,4\n")
    if command == "evaluate":
        argv = ["evaluate", "--result", str(bad), "--truth", str(bad)]
    else:
        argv = [command, "--input", str(bad), "--method", "l0", "--k", "2"]
        argv += ["--s", "2"] if command == "cluster" else []
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "not utf-8 text" in err


def test_cluster_degenerate_l1_is_numerical_error(tmp_path):
    flat = tmp_path / "flat.csv"
    write_csv_matrix(flat, np.ones((10, 4)))
    with pytest.warns(DegenerateData):
        code = main(["cluster", "--input", str(flat), "--method", "l1",
                     "--k", "2", "--s", "1.5", "--out", str(tmp_path / "x")])
    assert code == 3


def test_cluster_manifest_records_warnings(tmp_path):
    out = tmp_path / "d"
    with pytest.warns(DegenerateData) as raised:
        assert main(["cluster", "--input", str(two_row_csv(tmp_path)),
                     "--method", "kmeans", "--k", "3",
                     "--out", str(out)]) == 0
    warned = manifest_without_duration(Path(f"{out}.manifest.json"))
    assert warned["warnings"] == [str(w.message) for w in raised]
    assert any("distinct rows" in w for w in warned["warnings"])


def test_cluster_header_flag(tmp_path):
    path = tmp_path / "h.csv"
    rng = np.random.default_rng(61)
    body = "\n".join(",".join(repr(float(v)) for v in row)
                     for row in rng.normal(size=(12, 3)))
    path.write_text("f0,f1,f2\n" + body + "\n")
    assert main(["cluster", "--input", str(path), "--header",
                 "--method", "kmeans", "--k", "2",
                 "--out", str(tmp_path / "h")]) == 0
    payload = json.loads((tmp_path / "h.json").read_text())
    assert len(payload["assignments"]) == 12


# ------------------------------------------------------------------ tune

def test_tune_small_grid_with_fit(tmp_path):
    csv_path, _ = make_signal_csv(tmp_path)
    out = tmp_path / "t"
    assert main(["tune", "--input", str(csv_path), "--method", "l0",
                 "--k", "3", "--grid", "2,5,10", "--permutations", "3",
                 "--restarts", "2", "--seed", "2", "--fit",
                 "--out", str(out)]) == 0
    chosen = json.loads((tmp_path / "t.chosen.json").read_text())
    assert chosen["chosen_s"] in (2.0, 5.0, 10.0)
    lines = (tmp_path / "t.gap.csv").read_text().strip().splitlines()
    assert lines[0] == "s,objective,gap,se"
    assert len(lines) == 4
    fit = json.loads((tmp_path / "t.fit.json").read_text())
    assert fit["s"] == chosen["chosen_s"]
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert str(tmp_path / "t.fit.json") in manifest["outputs"]


def test_tune_flat_gap_warning_on_noise(tmp_path):
    noise = make_noise_csv(tmp_path)
    assert main(["tune", "--input", str(noise), "--method", "l0",
                 "--k", "3", "--grid", "2,4", "--permutations", "4",
                 "--restarts", "2", "--seed", "3",
                 "--out", str(tmp_path / "n")]) == 0
    manifest = json.loads((tmp_path / "n.manifest.json").read_text())
    assert any("flat" in w for w in manifest["warnings"])


def test_tune_malformed_grid(tmp_path, capsys):
    noise = make_noise_csv(tmp_path)
    for grid in ("2,banana", ","):
        code = main(["tune", "--input", str(noise), "--method", "l0",
                     "--k", "3", "--grid", grid,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--grid" in capsys.readouterr().err


def two_row_csv(tmp_path):
    """12 x 4 with two distinct rows: every k=3 fit warns DegenerateData."""
    path = tmp_path / "two_rows.csv"
    write_csv_matrix(path, np.repeat([[0.0, 1.0, 2.0, 3.0],
                                      [1.0, -1.0, 0.5, 2.0]], 6, axis=0))
    return path


def test_tune_warnings_same_at_any_worker_count(tmp_path):
    args = ["tune", "--input", str(two_row_csv(tmp_path)), "--method", "l0",
            "--k", "3", "--grid", "2,3", "--permutations", "2",
            "--restarts", "2", "--seed", "1", "--no-standardize"]
    warned = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}"
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        warned.append(manifest_without_duration(
            Path(f"{out}.manifest.json"))["warnings"])
    assert any("distinct rows" in w for w in warned[0])
    assert warned[0] == warned[1]


def test_tune_pool_error_is_numerical_error(tmp_path, monkeypatch, capsys):
    def fail_one_cell(m, s, method, inner, path, memo):
        if path == (gap._NULL, 1, 0):
            raise NumericalError("cell (1, 0) broke down")
        return 2.0

    monkeypatch.setattr(gap, "_objective", fail_one_cell)
    assert main(["tune", "--input", str(make_noise_csv(tmp_path)),
                 "--method", "l0", "--k", "3", "--grid", "2,3",
                 "--permutations", "2", "--threads", "2",
                 "--out", str(tmp_path / "t")]) == 3
    assert "cell (1, 0) broke down" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_tune_thread_invariance(tmp_path):
    csv_path, _ = make_signal_csv(tmp_path)
    args = ["tune", "--input", str(csv_path), "--method", "l0", "--k", "3",
            "--grid", "2,5", "--permutations", "3", "--restarts", "2",
            "--seed", "8"]
    assert main(args + ["--threads", "1", "--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--threads", "3", "--out", str(tmp_path / "s3")]) == 0
    assert (tmp_path / "s1.gap.csv").read_bytes() == \
        (tmp_path / "s3.gap.csv").read_bytes()


# -------------------------------------------------------------- evaluate

def test_evaluate_perfect_result(tmp_path):
    _, truth_path = make_signal_csv(tmp_path)
    truth = json.loads(truth_path.read_text())
    w = [1.0] * 5 + [0.0] * 20
    result = {"assignments": truth["labels"], "weights": w}
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps(result))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "m")]) == 0
    metrics = json.loads((tmp_path / "m.metrics.json").read_text())
    assert metrics["cer"] == 0.0
    assert metrics["ecr"] == 0.0
    assert metrics["nw"] == 5
    assert metrics["pzw"] == 20
    assert metrics["pnw"] == 5
    row = (tmp_path / "m.metrics.csv").read_text().strip().splitlines()
    assert row[0] == "cer,ecr,nw,pzw,pnw"
    assert row[1].split(",")[2:] == ["5", "20", "5"]


def test_evaluate_kmeans_chain_has_zero_pzw(tmp_path):
    csv_path, truth_path = make_signal_csv(tmp_path)
    assert main(["cluster", "--input", str(csv_path), "--method", "kmeans",
                 "--k", "3", "--seed", "1", "--out", str(tmp_path / "km")]) == 0
    assert main(["evaluate", "--result", str(tmp_path / "km.json"),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "kme")]) == 0
    metrics = json.loads((tmp_path / "kme.metrics.json").read_text())
    assert metrics["pzw"] == 0
    assert metrics["nw"] == 25
    assert metrics["pnw"] == 5


def test_evaluate_error_paths(tmp_path, capsys):
    _, truth_path = make_signal_csv(tmp_path)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"assignments": [0, 1], "weights": [1.0]}))
    assert main(["evaluate", "--result", str(short),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"assignments": [0, 1]}))
    assert main(["evaluate", "--result", str(missing),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["evaluate", "--result", str(broken),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["evaluate", "--result", str(tmp_path / "absent.json"),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("replace, named", [
    ({"weights": 5}, "weights is not"),
    ({"assignments": "abcd"}, "assignments is not"),
    ({"weights": ["x", 1]}, "weights is not"),
    ({"weights": [[1.0], [0.0]]}, "weights is not"),
    ({"assignments": {"a": 0}}, "assignments is not"),
    (None, "not a JSON object"),
], ids=["scalar", "string", "text-item", "nested", "object", "top-level"])
def test_evaluate_malformed_values_are_data_errors(tmp_path, capsys, replace,
                                                   named):
    _, truth_path = make_signal_csv(tmp_path)
    result = 5 if replace is None else \
        {"assignments": [0] * 30, "weights": [1.0] * 25, **replace}
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps(result))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{result_path}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


@pytest.mark.parametrize("path_name, key, values", [
    ("result", "assignments", [0.4, 0.9, 1.6, 1.2] * 7 + [0, 0]),
    ("result", "assignments", [True, False] * 15),
    ("result", "assignments", ["1"] * 30),
    ("truth", "support", [0.7]),
], ids=["fraction", "bool", "text", "support"])
def test_evaluate_rejects_non_integer_labels(tmp_path, capsys, path_name,
                                             key, values):
    # a cast alone reads 1.6 as 1 and true as 1
    _, truth_path = make_signal_csv(tmp_path)
    truth = json.loads(truth_path.read_text())
    files = {"result": {"assignments": truth["labels"],
                        "weights": [1.0] * 5 + [0.0] * 20}, "truth": truth}
    files[path_name][key] = values
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    assert main(["evaluate", "--result", str(paths["result"]),
                 "--truth", str(paths["truth"]),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{paths[path_name]}: {key} is not a flat list of int values" \
        in capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


@pytest.mark.parametrize("bad", [True, "0.5", False, None, float("nan")],
                         ids=["true", "text", "false", "null", "nan"])
def test_evaluate_rejects_non_number_weights(tmp_path, capsys, bad):
    # a cast alone reads true as 1.0, "0.5" as 0.5 and null as nan
    _, truth_path = make_signal_csv(tmp_path)
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps({"assignments": [0] * 30,
                                       "weights": [1.0] * 24 + [bad]}))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{result_path}: weights is not a flat list of float values" \
        in capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


def test_evaluate_rejects_repeated_support(tmp_path, capsys):
    _, truth_path = make_signal_csv(tmp_path)
    truth = json.loads(truth_path.read_text())
    truth["support"] = [0, 0]
    truth_path.write_text(json.dumps(truth))
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps({"assignments": truth["labels"],
                                       "weights": [1.0] * 25}))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert "support must be a flat list of distinct indices" \
        in capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


def test_evaluate_reads_integral_floats_as_integers(tmp_path):
    _, truth_path = make_signal_csv(tmp_path)
    labels = json.loads(truth_path.read_text())["labels"]
    for name, assignments in (("int", labels),
                              ("float", [float(v) for v in labels])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"assignments": assignments,
                                    "weights": [1.0] * 25}))
        assert main(["evaluate", "--result", str(path),
                     "--truth", str(truth_path),
                     "--out", str(tmp_path / name)]) == 0
    for suffix in (".metrics.json", ".metrics.csv"):
        assert (tmp_path / f"int{suffix}").read_bytes() == \
            (tmp_path / f"float{suffix}").read_bytes()


@pytest.mark.parametrize("count", [40, 10])
def test_evaluate_weight_count_must_match_truth(tmp_path, capsys, count):
    # an E3a truth has p = 25, of which 20 are noise features
    _, truth_path = make_signal_csv(tmp_path)
    labels = json.loads(truth_path.read_text())["labels"]
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps({
        "assignments": labels, "weights": [1.0] * 5 + [0.0] * (count - 5)}))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{result_path}: {count} weights, but {truth_path} has " \
        f"spec.p = 25 features" in capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


@pytest.mark.parametrize("spec", [None, {}, {"p": 25.5}, {"p": "25"},
                                  {"p": True}],
                         ids=["no-spec", "no-p", "fraction", "text", "bool"])
def test_evaluate_needs_integer_spec_p(tmp_path, capsys, spec):
    _, truth_path = make_signal_csv(tmp_path)
    truth = json.loads(truth_path.read_text())
    if spec is None:
        del truth["spec"]
    else:
        truth["spec"] = spec
    truth_path.write_text(json.dumps(truth))
    result_path = tmp_path / "res.json"
    result_path.write_text(json.dumps({"assignments": truth["labels"],
                                       "weights": [1.0] * 25}))
    assert main(["evaluate", "--result", str(result_path),
                 "--truth", str(truth_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{truth_path}: spec.p is not an integer" in \
        capsys.readouterr().err
    assert not (tmp_path / "x.manifest.json").exists()


# ----------------------------------------------------------------- sweep

def test_sweep_writes_report(tmp_path):
    args = ["sweep", "--mu", "1.5", "--p", "30", "--p-star", "5",
            "--n-list", "12,24", "--trials", "20", "--seed", "6",
            "--out", str(tmp_path / "sw")]
    assert main(args) == 0
    lines = (tmp_path / "sw.sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    report = json.loads((tmp_path / "sw.sweep.json").read_text())
    assert [row["n"] for row in report] == [12, 24]
    assert main(["sweep", "--mu", "1.5", "--p", "30", "--p-star", "5",
                 "--n-list", "12,24", "--trials", "20", "--seed", "6",
                 "--out", str(tmp_path / "sw2")]) == 0
    assert (tmp_path / "sw.sweep.csv").read_bytes() == \
        (tmp_path / "sw2.sweep.csv").read_bytes()


def test_sweep_malformed_n_list(tmp_path, capsys):
    assert main(["sweep", "--n-list", "12,abc",
                 "--out", str(tmp_path / "x")]) == 1
    assert "--n-list" in capsys.readouterr().err


def test_sweep_rejects_small_trials(tmp_path):
    assert main(["sweep", "--trials", "19", "--p", "30", "--p-star", "5",
                 "--out", str(tmp_path / "x")]) == 1


# ------------------------------------------------------------ experiment

def test_experiment_e3_small(tmp_path):
    outdir = tmp_path / "exp"
    assert main(["experiment", "--id", "E3", "--reps", "1",
                 "--restarts", "2", "--tune-restarts", "2",
                 "--permutations", "2", "--seed", "0",
                 "--outdir", str(outdir)]) == 0
    for name in ("E3a.reps.csv", "E3b.reps.csv", "aggregate.csv",
                 "long.csv", "manifest.json"):
        assert (outdir / name).exists()
    header = (outdir / "E3a.reps.csv").read_text().splitlines()[0].split(",")
    for col in ("cell", "rep", "cer_kmeans", "cer_l0", "cer_l1", "s_l0",
                "s_l1", "pzw_l0", "pnw_l0"):
        assert col in header
    agg = (outdir / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0] == "cell,metric,mean,sd,reps"
    cells = {line.split(",")[0] for line in agg[1:]}
    assert cells == {"E3a", "E3b"}
    # single rep leaves the sd column empty
    assert all(line.split(",")[3] == "" for line in agg[1:])
    long_rows = (outdir / "long.csv").read_text().strip().splitlines()
    assert long_rows[0] == "cell,rep,metric,value"
    assert len(long_rows) > 10


def assert_same_bits(a, b, where="result"):
    """a and b equal field by field, every array bit for bit."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same_bits(getattr(a, field.name), getattr(b, field.name),
                             f"{where}.{field.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == \
            (b.dtype, b.shape, b.tobytes()), where
    else:
        assert repr(a) == repr(b), where   # repr tells -0.0 and nan apart


def experiment_fits(monkeypatch, threads, memo=True, reps=2):
    """run_experiment_cell on a small E3a cell: its records and every gap
    profile and final fit it made, in call order. memo=False drops the
    shared first steps, so every fit is made afresh."""
    made = []
    with monkeypatch.context() as patch:
        for name in ("gap_statistic", "sparse_kmeans"):
            def recorded(*args, _fn=getattr(cli, name), **kwargs):
                if not memo:
                    kwargs.pop("_memo")
                result = _fn(*args, **kwargs)
                made.append(result)
                return result
            patch.setattr(cli, name, recorded)
        records = cli.run_experiment_cell("E3a", {}, reps=reps, seed=5,
                                          restarts=2, tune_restarts=1, b=2,
                                          threads=threads)
    return records, made


@pytest.mark.parametrize("threads", [1, 2])
def test_experiment_shared_first_steps_same_bits(monkeypatch, threads):
    records, made = experiment_fits(monkeypatch, threads)
    fresh_records, fresh = experiment_fits(monkeypatch, threads, memo=False)
    assert records == fresh_records
    assert len(made) == len(fresh) == 2 * 2 * 2   # reps x methods x calls
    for i, (shared, alone) in enumerate(zip(made, fresh)):
        assert_same_bits(shared, alone, f"call {i}")


def test_experiment_shares_first_steps_once_per_rep(monkeypatch):
    b, reps = 2, 2
    p = synth.experiment_spec("E3a", seed=0).p
    shared = min(gap.default_grid("l0", p).size,
                 gap.default_grid("l1", p).size)
    calls = []
    monkeypatch.setattr(sparse, "run_kmeans",
                        lambda *a, _fn=sparse.run_kmeans, **kw:
                        calls.append(1) or _fn(*a, **kw))
    fits = []
    for memo in (True, False):
        calls.clear()
        experiment_fits(monkeypatch, threads=1, memo=memo, reps=reps)
        fits.append(len(calls))
    # each shared grid index's real and null cells, and the final fit
    assert fits[1] - fits[0] == reps * (shared * (1 + b) + 1)


@pytest.mark.parametrize("flag, value", [("--reps", "0"),
                                         ("--permutations", "1"),
                                         ("--restarts", "0"),
                                         ("--tune-restarts", "0")])
def test_experiment_rejects_small_counts(tmp_path, monkeypatch, capsys, flag,
                                         value):
    def no_fit(*args):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli, "run_experiment_cell", no_fit)
    outdir = tmp_path / "exp"
    assert main(["experiment", "--id", "E3", flag, value,
                 "--outdir", str(outdir)]) == 1
    least = int(value) + 1
    assert f"argument {flag}: need an integer >= {least}, got {value}" in \
        capsys.readouterr().err
    assert not outdir.exists()


def test_records_csv_bytes(tmp_path):
    path = tmp_path / "r.csv"
    _write_records_csv(path, [
        {"s_l0": 3.0, "cer_l0": 0.25, "rep": 0, "cell": "E3a"},
        {"cell": "E3b", "rep": 1, "cer_l0": float("nan")},
    ])
    assert path.read_bytes() == (b"cell,rep,cer_l0,s_l0\n"
                                 b"E3a,0,0.25,3.0\n"
                                 b"E3b,1,nan,\n")


def test_experiment_e2_csvs_parse(tmp_path, monkeypatch):
    # E2 cell names hold a comma; run_experiment_cell is stubbed so only
    # the CSV writers run.
    def fake_cell(cell_id, params, reps, seed, *rest):
        name = cli._cell_name(cell_id, params)
        return [{"cell": name, "rep": rep, "cer_l0": 0.5 * rep, "s_l0": 3.0}
                for rep in range(reps)]

    monkeypatch.setattr(cli, "run_experiment_cell", fake_cell)
    outdir = tmp_path / "exp"
    assert main(["experiment", "--id", "E2", "--reps", "2",
                 "--outdir", str(outdir)]) == 0
    for name in ("E2_mu0.7_p200.reps.csv", "aggregate.csv", "long.csv"):
        with open(outdir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows), name
        assert rows[1][0] in {cli._cell_name("E2", {"mu": mu, "p": p})
                              for mu in (0.6, 0.7) for p in (200, 500, 1000)}


def test_experiment_tables_bytes(tmp_path, monkeypatch):
    # Two cells of two reps; pnw_l1 is only in rep 1 of E3b, so E3b has one
    # aggregate row over one rep (empty sd) and one long row more than E3a.
    def fake_cell(cell_id, params, reps, seed, *rest):
        shift = 1.0 if cell_id == "E3b" else 0.0
        records = [{"cell": cell_id, "rep": rep, "cer_l0": 0.25 * rep + shift,
                    "s_l0": 3.0 + rep} for rep in range(reps)]
        if cell_id == "E3b":
            records[1]["pnw_l1"] = 2
        return records

    monkeypatch.setattr(cli, "run_experiment_cell", fake_cell)
    outdir = tmp_path / "exp"
    assert main(["experiment", "--id", "E3", "--reps", "2",
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "aggregate.csv").read_bytes() == (
        b"cell,metric,mean,sd,reps\n"
        b"E3a,cer_l0,0.125,0.1767766952966369,2\n"
        b"E3a,s_l0,3.5,0.7071067811865476,2\n"
        b"E3b,cer_l0,1.125,0.1767766952966369,2\n"
        b"E3b,pnw_l1,2.0,,1\n"
        b"E3b,s_l0,3.5,0.7071067811865476,2\n")
    assert (outdir / "long.csv").read_bytes() == (
        b"cell,rep,metric,value\n"
        b"E3a,0,cer_l0,0.0\n"
        b"E3a,0,s_l0,3.0\n"
        b"E3a,1,cer_l0,0.25\n"
        b"E3a,1,s_l0,4.0\n"
        b"E3b,0,cer_l0,1.0\n"
        b"E3b,0,s_l0,3.0\n"
        b"E3b,1,cer_l0,1.25\n"
        b"E3b,1,pnw_l1,2\n"
        b"E3b,1,s_l0,4.0\n")


def test_generate_rejects_preset_params(tmp_path, capsys):
    out = tmp_path / "e1"
    assert main(["generate", "--experiment", "E1", "--mu", "9", "--p", "5",
                 "--rho", "0.5", "--out", str(out)]) == 1
    assert "E1 fixes mu" in capsys.readouterr().err
    assert not (tmp_path / "e1.csv").exists()


# ------------------------------------------------------------- interface

def package_env(**extra):
    """The environment with this sparsekm's source directory importable."""
    src = str(Path(sparsekm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_cli_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "sparsekm.cli", "--version"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
    proc = subprocess.run([sys.executable, "-m", "sparsekm.cli"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 1


def test_cli_import_defers_multiprocessing():
    # the process pool is imported only when a gap table runs on it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsekm.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_demo_runs(tmp_path):
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "sparsekm"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m sparsekm.cli "$@"\n')
    shim.chmod(0o755)
    demo = Path(__file__).resolve().parents[1] / "demos" / "05_cli_pipeline.sh"
    env = package_env(TMPDIR=str(tmp_path),
                      PATH=f"{shim_dir}{os.pathsep}{os.environ['PATH']}")
    proc = subprocess.run(["sh", str(demo)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "--experiment", "E3a"],
    ["cluster", "--input", "x.csv", "--method", "kmeans", "--k", "3"],
    ["evaluate", "--result", "r.json", "--truth", "t.json"],
    ["sweep", "--p", "30", "--p-star", "5", "--n-list", "12"],
], ids=lambda argv: argv[0])
def test_threads_rejected_where_unused(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o"), "--threads", "1"]) == 1
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tune", "experiment"])
def test_threads_accepted_where_read(tmp_path, command):
    if command == "tune":
        argv = ["tune", "--input", str(make_noise_csv(tmp_path)),
                "--method", "l0", "--k", "3", "--out", str(tmp_path / "t")]
    else:
        argv = ["experiment", "--id", "E3", "--outdir", str(tmp_path / "e")]
    assert build_parser().parse_args(argv + ["--threads", "2"]).threads == 2


@pytest.mark.parametrize("command", ["tune", "experiment"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, command):
    if command == "tune":
        argv = ["tune", "--input", str(make_noise_csv(tmp_path)),
                "--method", "l0", "--k", "3", "--out", str(tmp_path / "t")]
    else:
        argv = ["experiment", "--id", "E3", "--reps", "1",
                "--outdir", str(tmp_path / "e")]
    assert main(argv + ["--threads", "0"]) == 1
    assert "argument --threads: need an integer >= 1, got 0" in \
        capsys.readouterr().err
    assert not (tmp_path / "t.manifest.json").exists()
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--experiment", "E3a", "--out", "o"],
    ["cluster", "--input", "x.csv", "--method", "kmeans", "--k", "3",
     "--out", "o"],
    ["tune", "--input", "x.csv", "--method", "l0", "--k", "3", "--out", "o"],
    ["experiment", "--id", "E3", "--outdir", "e"],
    ["sweep", "--p", "30", "--p-star", "5", "--out", "o"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--seed", "-2"]) == 1
    assert "argument --seed: need an integer >= 0, got -2" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# (command, flag, value one below the flag's bound) for every integer flag
# the parser checks; cluster and tune name an --input that does not exist,
# which would exit 2 if the command got as far as reading it
_COMMAND_ARGV = {
    "generate": ["--experiment", "E3a", "--out", "o"],
    "cluster": ["--input", "missing.csv", "--method", "l0", "--s", "2",
                "--k", "3", "--out", "o"],
    "tune": ["--input", "missing.csv", "--method", "l0", "--k", "3",
             "--out", "o"],
    "experiment": ["--id", "E3", "--reps", "1", "--outdir", "e"],
    "sweep": ["--p", "30", "--p-star", "5", "--out", "o"],
}
_BOUNDED_FLAGS = [
    ("generate", "--seed", "-1"), ("generate", "--p", "0"),
    ("cluster", "--seed", "-1"), ("cluster", "--k", "0"),
    ("cluster", "--restarts", "0"),
    ("tune", "--seed", "-1"), ("tune", "--k", "0"),
    ("tune", "--restarts", "0"), ("tune", "--permutations", "1"),
    ("tune", "--threads", "0"),
    ("experiment", "--seed", "-1"), ("experiment", "--reps", "0"),
    ("experiment", "--restarts", "0"),
    ("experiment", "--tune-restarts", "0"),
    ("experiment", "--permutations", "1"), ("experiment", "--threads", "0"),
    ("sweep", "--seed", "-1"), ("sweep", "--p", "0"),
    ("sweep", "--p-star", "0"), ("sweep", "--trials", "19"),
]


@pytest.mark.parametrize("command, flag, value", _BOUNDED_FLAGS)
def test_integer_flag_below_bound_exits_at_parse(tmp_path, monkeypatch,
                                                 capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)
    assert main([command] + _COMMAND_ARGV[command] + [flag, value]) == 1
    least = int(value) + 1
    assert f"argument {flag}: need an integer >= {least}, got {value}" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bounded_flag_cases_cover_the_parser():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    declared = {(command, action.option_strings[0])
                for command, sp in subparsers.items()
                for action in sp._actions
                if getattr(action.type, "__qualname__", "")
                .startswith("_int_at_least.")}
    assert declared == {(command, flag) for command, flag, _ in
                        _BOUNDED_FLAGS}


def test_parser_choices_come_from_the_library():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    declared = {(command, action.option_strings[0]): list(action.choices)
                for command, sp in subparsers.items()
                for action in sp._actions if action.choices is not None}
    assert declared == {
        ("generate", "--experiment"): list(synth._PRESET_PARAMS),
        ("cluster", "--refine"): list(kmeans.REFINE_MODES),
        ("cluster", "--method"): ["kmeans", *sparse.METHODS],
        ("tune", "--refine"): list(kmeans.REFINE_MODES),
        ("tune", "--method"): list(sparse.METHODS),
        ("experiment", "--id"): list(cli._EXPERIMENTS),
    }


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_every_manifest_pinned(tmp_path, monkeypatch):
    # What each command's manifest records, minus duration_s. Relative
    # paths keep the dicts literal; tune runs on noise so its flat-profile
    # warning is pinned too.
    monkeypatch.chdir(tmp_path)
    write_csv_matrix("noise.csv",
                     np.random.default_rng(60).normal(size=(30, 25)))
    fit = {"header": False, "input": "gen.csv", "k": 3, "method": "l0",
           "no_standardize": False, "refine": "none", "restarts": 2}
    runs = [
        (["generate", "--experiment", "E3a", "--seed", "4", "--out", "gen"],
         "gen.manifest.json", "generate",
         {"experiment": "E3a", "out": "gen", "seed": 4}, 4,
         ["gen.csv", "gen.truth.json"], []),
        (["cluster", "--input", "gen.csv", "--method", "l0", "--k", "3",
          "--s", "3", "--restarts", "2", "--seed", "5", "--out", "fit"],
         "fit.manifest.json", "cluster",
         {**fit, "out": "fit", "s": 3.0, "seed": 5}, 5, ["fit.json"], []),
        (["tune", "--input", "noise.csv", "--method", "l0", "--k", "3",
          "--grid", "2,4", "--restarts", "2", "--permutations", "3",
          "--seed", "6", "--fit", "--threads", "2", "--out", "tun"],
         "tun.manifest.json", "tune",
         {**fit, "input": "noise.csv", "fit": True, "grid": "2,4",
          "one_se": False, "out": "tun", "permutations": 3, "seed": 6,
          "threads": 2}, 6,
         ["tun.gap.csv", "tun.chosen.json", "tun.fit.json"],
         ["gap profile is flat: best gap 0.04554 is within 2 standard "
          "errors of 0"]),
        (["evaluate", "--result", "fit.json", "--truth", "gen.truth.json",
          "--out", "ev"],
         "ev.manifest.json", "evaluate",
         {"out": "ev", "result": "fit.json", "truth": "gen.truth.json"},
         None, ["ev.metrics.json", "ev.metrics.csv"], []),
        (["sweep", "--mu", "1.5", "--p", "30", "--p-star", "5",
          "--n-list", "12", "--trials", "20", "--seed", "8", "--out", "sw"],
         "sw.manifest.json", "sweep",
         {"mu": 1.5, "n_list": "12", "out": "sw", "p": 30, "p_star": 5,
          "seed": 8, "trials": 20}, 8, ["sw.sweep.csv", "sw.sweep.json"],
         []),
        (["experiment", "--id", "E3", "--reps", "1", "--restarts", "2",
          "--tune-restarts", "1", "--permutations", "2", "--seed", "7",
          "--outdir", "exp"],
         os.path.join("exp", "manifest.json"), "experiment",
         {"id": "E3", "outdir": "exp", "permutations": 2, "reps": 1,
          "restarts": 2, "seed": 7, "tune_restarts": 1}, 7,
         [os.path.join("exp", name) for name in
          ("E3a.reps.csv", "E3b.reps.csv", "aggregate.csv", "long.csv")],
         []),
    ]
    for argv, path, command, config, seed, outputs, warned in runs:
        assert main(argv) == 0, argv
        assert manifest_without_duration(Path(path)) == {
            "command": command, "config": config, "seed": seed,
            "version": "0.1.0", "outputs": outputs, "warnings": warned}
