"""The benchmark in perfbench/ wraps package functions by module and name
from outside the package. A refactor that renames or deletes one of them
would break every benchmark unit, and one that routes a fit around them
would silently zero the benchmark's per-layer rows; these tests make both
fail here instead. perfbench/ is only read."""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from sparsekm import kmeans, sparse
from sparsekm.kmeans import KmeansConfig
from sparsekm.sparse import SparseKmeansConfig

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


def test_fit_goes_through_traced_names(monkeypatch):
    """One sparse fit calls sparse.run_kmeans and sparse.bcss_per_feature
    once per outer iteration and kmeans.rng_for once per restart, by the
    module-global names the benchmark's trace replaces."""
    calls = Counter()
    for module, attr in ((sparse, "run_kmeans"),
                         (sparse, "bcss_per_feature"), (kmeans, "rng_for")):
        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    m = np.random.default_rng(34).normal(size=(24, 10))
    m[:12, :3] += 2.0
    restarts = 3
    result = sparse.sparse_kmeans(m, SparseKmeansConfig(
        s=3, method="l0", inner=KmeansConfig(k=2, restarts=restarts)))
    assert result.outer_iters >= 2
    assert calls == {"run_kmeans": result.outer_iters,
                     "bcss_per_feature": result.outer_iters,
                     "rng_for": restarts * result.outer_iters}
