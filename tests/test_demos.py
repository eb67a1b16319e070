"""The Python demos run end to end on the public API.

Each demo runs in-process with runpy, its stdout captured. Together they
take a few seconds. 03_benchmark_cell.py is left out: it runs a full
benchmark cell, about 18 s, and the acceptance tests already cover that
path. The shell demo 05 is run by tests/test_cli.py.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# a line of output each demo prints
EXPECT = {
    "01_sparse_clustering.py": "plain k-means",
    "02_gap_tuning.py": "<-- chosen",
    "04_consistency_sweep.py": "freq_gap",
}


@pytest.mark.parametrize("name", sorted(EXPECT))
def test_python_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert EXPECT[name] in capsys.readouterr().out
