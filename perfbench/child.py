"""One benchmark run inside a fresh process; started by run.py.

Sets up the workload, notes the moment it is ready for the first timed
call, runs whole units in a closed loop until starting another would run
past ``--seconds`` of measured unit time, checks the outputs and prints one
JSON object on stdout. With ``--trace 1`` it first runs untraced units
as the reference, then the traced units, and compares their outputs.
With ``--setup-only`` it stops once set-up is done.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

import sparsekm  # noqa: E402
from tracing import Patched, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digests  # noqa: E402


def new_stats():
    return {"attempted": 0, "failed": 0, "errors": [], "walls": [],
            "cpus": [], "speeds": [], "digests": None, "problems": [],
            "quality": {}}


# The machine this benchmark runs on is shared: identical work can take
# twice as long while a neighbour is busy. Timings are therefore reported
# in reference seconds: divided by the slowdown of a fixed calibration
# kernel, timed right before and right after each unit on as many threads
# as the unit runs, relative to CAL_NOMINAL_S per thread.
CAL_NOMINAL_S = 0.2
_CAL_X = np.random.default_rng(20140101).standard_normal((60, 200))


def calibrate(threads: int = 1) -> float:
    """Slowdown of the machine now: the time of a fixed numpy and
    interpreter mix that does not use sparsekm, run on ``threads``
    threads at once, over ``threads`` x CAL_NOMINAL_S."""
    workers = [threading.Thread(target=_cal_kernel) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - start) / (threads * CAL_NOMINAL_S)


def _cal_kernel():
    x = _CAL_X
    for _ in range(600):
        c = x[:3].copy()
        for _ in range(5):
            d = (x * x).sum(axis=1)[:, None] - 2.0 * x @ c.T \
                + (c * c).sum(axis=1)
            labels = d.argmin(axis=1)
            for j in range(3):
                members = labels == j
                if members.any():
                    c[j] = x[members].mean(axis=0)
        acc = 0.0
        for i in range(200):
            acc += x[i % 60, i]


def _cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_unit(workload):
    """Run one unit. Returns (outputs or None, wall s, cpu s, error)."""
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        outputs = workload.unit()
        error = None
    except Exception as exc:  # a failed unit is counted, not fatal
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    return (outputs, time.perf_counter() - wall0, _cpu_seconds() - cpu0,
            error)


def measure(workload, seconds, stats=None, check=True):
    """Closed loop of whole units until starting another would take the
    measured unit time past ``seconds``. Every unit has the same inputs,
    so every successful unit must give the same output digests; with
    ``check`` the first one is also checked against the workload's
    invariants."""
    stats = stats or new_stats()
    walls = []
    speed = calibrate(workload.threads)
    while True:
        outputs, wall, cpu, error = run_unit(workload)
        before, speed = speed, calibrate(workload.threads)
        stats["attempted"] += 1
        walls.append(wall)
        if error:
            stats["failed"] += 1
            stats["errors"].append(error)
        else:
            stats["walls"].append(wall)
            stats["cpus"].append(cpu)
            stats["speeds"].append((before + speed) / 2)
            got = digests(outputs)
            if stats["digests"] is None:
                stats["digests"] = got
                if check:
                    stats["problems"] += workload.check(outputs)
                    stats["quality"] = workload.quality(outputs)
            elif got != stats["digests"]:
                first = next(k for k in got if got[k] != stats["digests"][k])
                stats["problems"].append(
                    f"unit {stats['attempted'] - 1}: output {first} differs "
                    f"from the first unit's")
        if sum(walls) + statistics.median(walls) > seconds:
            return stats


def measure_traced(workload, seconds, spans_path):
    """Untraced reference units for a third of ``seconds``, then traced
    units for ``seconds``; the outputs of both must be the same."""
    stats = measure(workload, seconds / 3)
    traced = new_stats()
    tracer = Tracer()
    with Patched() as patched:
        tracer.install(sparsekm, patched)
        measure(workload, seconds, traced, check=False)
    tracer.write_jsonl(spans_path)
    for key in ("attempted", "failed", "errors", "problems"):
        stats[key] += traced[key]
    if stats["digests"] and traced["digests"] \
            and traced["digests"] != stats["digests"]:
        first = next(k for k in traced["digests"]
                     if traced["digests"][k] != stats["digests"][k])
        stats["problems"].append(
            f"traced output {first} differs from the untraced one")
    if stats["walls"] and traced["walls"]:
        speed = statistics.median(traced["speeds"])
        layers = layer_metrics(tracer.spans, len(traced["walls"]), speed)
        layers["cli.output_bytes"] = workload.output_bytes
        layers["trace_overhead"] = (
            statistics.median(w / s for w, s in zip(traced["walls"],
                                                    traced["speeds"]))
            / statistics.median(w / s for w, s in zip(stats["walls"],
                                                      stats["speeds"])))
        stats["layers"] = layers
        stats["traced_walls"] = traced["walls"]
    return stats


def _cpuinfo():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, sorted(flags & {"avx", "avx2", "fma", "avx512f"})


def environment():
    model, flags = _cpuinfo()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": flags,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    env["fingerprint"] = " | ".join(
        [env["machine"], model, ",".join(flags), "python " + env["python"],
         "numpy " + env["numpy"], env["blas"]])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-{os.getpid()}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}")
    try:
        workload.setup(workdir)
        ready = time.monotonic()
        setup_speed = calibrate()
        if args.setup_only:
            result = {}
        elif args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
            result = measure_traced(workload, args.seconds, spans_path)
        else:
            result = measure(workload, args.seconds)
        if not args.setup_only:
            result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                     .ru_maxrss / 1024.0)
            result["env"] = environment()
        result.update(ready=ready, setup_speed=setup_speed)
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
