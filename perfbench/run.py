"""sparsekm benchmark.

    python3 perfbench/run.py --workload e2_cell --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout. Each run starts fresh child processes
(child.py) with the BLAS/OpenMP pools pinned to one thread: a few that
only set up, for ``setup_s``, and one that runs the workload's units for
``--seconds`` of measured time. It prints every metric by name with its
unit, an ``env`` line and a ``digests`` line, writes the same record to
perfbench/_out/results/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (``--trace 0``) or
its per_layer metrics (``--trace 1``). Outputs are checked against the
workload's invariants and, when perfbench/reference.json holds digests for
this platform, workload and seed, against those digests: a mismatch names
the first differing output and exits 3 without a result line.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS_DIR = os.path.join(HERE, "_out", "results")
SETUP_SAMPLES = 5     # set-up is timed this many times; setup_s is the median
DEADLINE_S = 170.0    # the whole run, set-up included, ends before this

PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

# Figures printed besides BENCHMARK.json's bounded metrics: the raw
# timings, which swing with the load on a shared machine, and figures
# that repeat exactly for a seed, can be 0 and vary widely between seeds.
REPORT_UNITS = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s",
                "machine_slowdown": "ratio", "fail_ratio": "ratio",
                "bit_equal": "0/1", "cer_l0": "ratio", "cer_l1": "ratio",
                "freq_support": "ratio"}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env():
    env = dict(os.environ, **PINNED)
    env.pop("SPARSEKM_THREADS", None)
    return env


def _spawn(args, timeout):
    """Start child.py, wait for it, return (start time, its JSON)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT,
                              env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "sparsekm",
                                              "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _bit_equal(reference, fingerprint, workload, seed, got):
    """1 on a match, None without a stored reference; raises on mismatch."""
    want = reference["platforms"].get(fingerprint, {}) \
        .get(workload, {}).get(str(seed))
    if want is None:
        return None
    for name in [*got, *(n for n in want if n not in got)]:
        if got.get(name) != want.get(name):
            raise BenchError(f"output {name} differs from the reference "
                             f"digest for {workload} seed {seed}")
    return 1


def run(args, bench, reference):
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    setups, setup_speeds = [], []
    for _ in range(SETUP_SAMPLES - 1):
        started, got = _spawn(common + ["--setup-only"],
                              deadline - time.monotonic())
        setups.append(got["ready"] - started)
        setup_speeds.append(got["setup_speed"])
    started, res = _spawn(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)],
                          deadline - time.monotonic())
    setups.append(res["ready"] - started)
    setup_speeds.append(res["setup_speed"])

    if not res["walls"]:
        raise BenchError("no unit succeeded: " + "; ".join(res["errors"][:3]))
    bit_equal = None
    if args.scale == "full":
        bit_equal = _bit_equal(reference, res["env"]["fingerprint"],
                               args.workload, args.seed, res["digests"])

    def ref_median(values, speeds):
        return statistics.median(v / s for v, s in zip(values, speeds))

    end_to_end = {
        "wall_s": ref_median(res["walls"], res["speeds"]),
        "cpu_s": ref_median(res["cpus"], res["speeds"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": ref_median(setups, setup_speeds),
    }
    report = {"raw_wall_s": statistics.median(res["walls"]),
              "raw_cpu_s": statistics.median(res["cpus"]),
              "raw_setup_s": statistics.median(setups),
              "machine_slowdown": statistics.median(res["speeds"]),
              "fail_ratio": res["failed"] / res["attempted"],
              "bit_equal": bit_equal, **res["quality"]}
    if args.trace:
        declared = bench["per_layer"]
        values = {m["name"]: res.get("layers", {}).get(m["name"], 0.0)
                  for m in declared}
    else:
        declared = bench["end_to_end"]
        values = {m["name"]: end_to_end[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = dict(res["env"], seed=args.seed, workload=args.workload,
               seconds=args.seconds, trace=args.trace, scale=args.scale,
               git_sha=_git_sha(), src_sha256=_src_sha256(),
               units=len(res["walls"]), setup_samples=setups)
    record = {"env": env, "metrics": metrics, "report": report,
              "end_to_end": end_to_end, "walls": res["walls"],
              "traced_walls": res.get("traced_walls"),
              "speeds": res["speeds"], "setup_speeds": setup_speeds,
              "digests": res["digests"], "problems": res["problems"],
              "errors": res["errors"]}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = (f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
            f"-{time.time_ns()}.json")
    with open(os.path.join(RESULTS_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"sparsekm benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds} scale={args.scale} "
          f"units={len(res.get('traced_walls') or res['walls'])}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("digests: " + json.dumps(res["digests"]))
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if args.trace:
        for name, value in end_to_end.items():
            print(f"untraced {name} = {value!r}")
    for name, value in report.items():
        shown = "n/a (no reference digest)" if value is None else repr(value)
        print(f"{name} = {shown} {REPORT_UNITS[name]}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    reference = _load_json(REFERENCE)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: E3a-sized inputs, for the smoke test")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sparsekm",
                                           "__init__.py")):
            raise BenchError(f"no sparsekm package under {ROOT}/src")
        bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        result = run(args, bench, reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
