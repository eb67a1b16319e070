"""The benchmark in perfbench/ wraps package functions by module and name
from outside the package. A refactor that renames or deletes one of them
would break every benchmark unit; this test makes it fail here instead.
perfbench/ is only read."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the functions perfbench/workloads.py records with its _Recorder
RECORDER_TARGETS = [("cli", "run_kmeans"), ("cli", "gap_statistic"),
                    ("cli", "sparse_kmeans"), ("lab", "l0_kmeans")]


def test_benchmark_seams_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    seams = [(mod, attr) for modules, attr, _, _ in tracing.TRACE_POINTS
             for mod in modules] + RECORDER_TARGETS
    assert len(seams) > len(RECORDER_TARGETS)
    missing = [f"sparsekm.{mod}.{attr}" for mod, attr in seams
               if not callable(getattr(
                   importlib.import_module(f"sparsekm.{mod}"), attr, None))]
    assert missing == []
