"""Smoke test of the benchmark at toy scale (E3a-sized inputs).

    python3 -m pytest perfbench/test_smoke.py

Runs every workload through run.py with and without tracing, and checks
that every metric prints with its unit, that traced and untraced runs give
bit-identical outputs, that a failing unit is counted, and that the
benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
from workloads import CliE1, UnitFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
QUALITY = {"e2_cell": ["cer_l0", "cer_l1"], "sweep_e2": ["freq_support"],
           "cli_e1": ["cer_l0"]}
# Counts that are legitimately 0 on every toy workload.
MAY_BE_ZERO = {"kmeans.repairs", "gap.dropped_points"}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def runs():
    """stdout lines of every (workload, trace) toy run."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", name, "--seed", "3", "--seconds",
                          "0.2", "--trace", str(trace), "--scale", "toy")
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = proc.stdout.strip().splitlines()
    return out


def _printed(lines):
    values = {}
    for line in lines:
        name, sep, rest = line.partition(" = ")
        if sep:
            values[name] = rest
    return values


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_prints_with_its_unit(runs, name, trace):
    lines = runs[name, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = _printed(lines)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]].endswith(" " + m["unit"])
    for extra in ["fail_ratio", "bit_equal"] + QUALITY[name]:
        assert printed[extra].endswith(" " + run.REPORT_UNITS[extra])
    assert printed["fail_ratio"].startswith("0.0 ")
    if not trace:
        assert all(result["metrics"][m]["value"] > 0
                   for m in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_outputs_are_bit_identical(runs, name):
    def digests(lines):
        return next(line for line in lines if line.startswith("digests: "))
    assert digests(runs[name, 0]) == digests(runs[name, 1])


def test_every_layer_metric_is_measured_somewhere(runs):
    seen = {}
    for name in WORKLOADS:
        for metric, body in json.loads(runs[name, 1][-1])["metrics"].items():
            seen[metric] = seen.get(metric, 0.0) + abs(body["value"])
    assert [m for m, v in seen.items() if v == 0 and m not in MAY_BE_ZERO] \
        == []


class _MalformedCsv(CliE1):
    """cli_e1 at toy scale, but tuning a CSV with a non-numeric cell."""

    def setup(self, workdir):
        super().setup(workdir)
        with open("d.csv", "w") as fh:
            fh.write("1.0,2.0\n3.0,oops\n")

    def commands(self):
        return [argv for argv in super().commands() if argv[0] == "tune"]


def test_failed_unit_counts_against_attempted(tmp_path):
    workload = _MalformedCsv(seed=3, scale="toy")
    here = os.getcwd()
    try:
        workload.setup(str(tmp_path))
        stats = child.measure(workload, 0.0)
    finally:
        os.chdir(here)
    assert (stats["attempted"], stats["failed"]) == (1, 1)
    assert stats["errors"] == [f"{UnitFailed.__name__}: "
                               f"sparsekm tune exited 2"]
    assert stats["walls"] == []


def test_reference_mismatch_names_the_first_output():
    reference = {"platforms": {"fp": {"cli_e1": {"3": {
        "d.csv": "aa", "e.metrics.json": "cc", "t.fit.json": "bb"}}}}}
    got = {"d.csv": "aa", "t.fit.json": "xx", "e.metrics.json": "yy"}
    with pytest.raises(run.BenchError, match="output t.fit.json differs"):
        run._bit_equal(reference, "fp", "cli_e1", 3, got)
    assert run._bit_equal(reference, "fp", "cli_e1", 4, got) is None
    assert run._bit_equal(reference, "fp", "cli_e1", 3,
                          {"d.csv": "aa", "t.fit.json": "bb",
                           "e.metrics.json": "cc"}) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "3", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
