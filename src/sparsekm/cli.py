"""Command-line interface.

Subcommands: generate, cluster, tune, evaluate, experiment, sweep.
Structured results are JSON, tabular results CSV. Every command but
evaluate takes --seed and is fully deterministic given it; tune and
experiment take --threads, the number of worker processes the gap table
runs on (default 1), which only changes wall time, never output bytes or
warnings. Each cmd_* function writes its outputs and returns (manifest
path, outputs, warnings); main times the command and writes every
manifest from that.
Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from ._rng import spawn_seed
from .data import bcss_per_feature, read_csv_matrix, standardize, \
    write_csv_matrix, write_csv_rows
from .errors import DataError, SparsekmError, UsageError
from .gap import gap_statistic
from .kmeans import KmeansConfig, run_kmeans
from .lab import sweep
from .metrics import cer, ecr, feature_counts
from .sparse import SparseKmeansConfig, SparseKmeansResult, sparse_kmeans
from .synth import MixtureSpec, _three_cluster_means, experiment_spec, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text) -> int:
    """A --seed value: RNG streams are named by non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, "
                                         f"got {seed}")
    return seed


def _threads(args) -> int:
    if args.threads is None:
        return 1
    if args.threads < 1:
        raise UsageError(f"--threads {args.threads}: need at least 1 thread")
    return args.threads


def _parse_list(text, kind, flag):
    """The comma-separated values of a list flag, each converted by kind."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"malformed {flag} {text!r}")
    if not values:
        raise UsageError(f"empty {flag}")
    return values


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_generate(args):
    spec = experiment_spec(args.experiment, mu=args.mu, p=args.p,
                           rho=args.rho, seed=args.seed)
    x, truth = generate(spec)
    csv_path = f"{args.out}.csv"
    truth_path = f"{args.out}.truth.json"
    write_csv_matrix(csv_path, x)
    _write_json(truth_path, {
        "labels": truth.labels.tolist(),
        "support": truth.support.tolist(),
        "spec": {"k": spec.k, "sizes": list(spec.sizes), "p": spec.p,
                 "p_star": spec.p_star, "rho": spec.rho, "seed": spec.seed,
                 "means": np.asarray(spec.means).tolist()},
    })
    return f"{args.out}.manifest.json", [csv_path, truth_path], ()


def _inner_config(args) -> KmeansConfig:
    return KmeansConfig(k=args.k, restarts=args.restarts, seed=args.seed,
                        refine=args.refine)


def _load_input(args) -> np.ndarray:
    x = read_csv_matrix(args.input, header=args.header)
    if args.no_standardize:
        return x
    return standardize(x, allow_constant=True)


def _fit_payload(result, method, s) -> dict:
    return {
        "method": method,
        "s": s,
        "k": result.k,
        "assignments": result.labels.tolist(),
        "weights": result.weights.tolist(),
        "selected_features": result.selected_features.tolist(),
        "objective": result.objective,
        "outer_iters": result.outer_iters,
        "converged": result.converged,
        "bcss": result.bcss.tolist(),
    }


def cmd_cluster(args):
    x = _load_input(args)
    inner = _inner_config(args)
    if args.method == "kmeans":
        # plain k-means as the sparse fit that keeps every feature at weight 1
        p = x.shape[1]
        res = run_kmeans(x, np.ones(p), inner)
        bcss = bcss_per_feature(x, res.labels, args.k)
        s = None
        result = SparseKmeansResult(
            labels=res.labels, k=args.k, weights=np.ones(p),
            objective=float(np.sum(bcss)), outer_iters=1, converged=True,
            selected_features=np.arange(p), bcss=bcss, inner=res)
    else:
        if args.s is None:
            raise UsageError(f"--s is required for method {args.method}")
        s = args.s
        result = sparse_kmeans(x, SparseKmeansConfig(s=s, method=args.method,
                                                     inner=inner))
    out = f"{args.out}.json"
    _write_json(out, _fit_payload(result, args.method, s))
    return f"{args.out}.manifest.json", [out], ()


def cmd_tune(args):
    x = _load_input(args)
    inner = _inner_config(args)
    # without --grid, gap_statistic picks its default grid
    grid = None if args.grid is None else \
        _parse_list(args.grid, float, "--grid")
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        profile = gap_statistic(x, args.method, inner, grid=grid,
                                b=args.permutations, one_se=args.one_se,
                                threads=_threads(args))
        caught = [str(w.message) for w in wlist]
    at = int(np.flatnonzero(profile.grid == profile.chosen_s)[0])
    if profile.gap[at] <= 2.0 * profile.se[at]:
        caught.append(f"gap profile is flat: best gap {profile.gap[at]:.4g} "
                      f"is within 2 standard errors of 0")
    csv_path = f"{args.out}.gap.csv"
    json_path = f"{args.out}.chosen.json"
    profile.to_csv(csv_path)
    _write_json(json_path, {"chosen_s": profile.chosen_s,
                            "method": args.method})
    outputs = [csv_path, json_path]
    if args.fit:
        result = sparse_kmeans(x, SparseKmeansConfig(
            s=profile.chosen_s, method=args.method, inner=inner))
        fit_path = f"{args.out}.fit.json"
        _write_json(fit_path, _fit_payload(result, args.method,
                                           profile.chosen_s))
        outputs.append(fit_path)
    return f"{args.out}.manifest.json", outputs, caught


def _load_json(path, **dtypes):
    """Each key named in dtypes, read from a JSON object as a 1-D array."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}")
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a JSON object")
    arrays = {}
    for key, dtype in dtypes.items():
        if key not in payload:
            raise DataError(f"{path}: missing key {key!r}")
        try:
            arrays[key] = np.asarray(payload[key], dtype=dtype)
            if arrays[key].ndim != 1:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"{path}: {key} is not a flat list of "
                            f"{dtype.__name__} values")
    return arrays


def cmd_evaluate(args):
    result = _load_json(args.result, assignments=int, weights=float)
    truth = _load_json(args.truth, labels=int, support=int)
    est, tru = result["assignments"], truth["labels"]
    counts = feature_counts(result["weights"], truth["support"])
    payload = {"cer": cer(est, tru), "ecr": ecr(est, tru),
               "nw": counts.nw, "pzw": counts.pzw, "pnw": counts.pnw}
    json_path = f"{args.out}.metrics.json"
    csv_path = f"{args.out}.metrics.csv"
    _write_json(json_path, payload)
    write_csv_rows(csv_path, ("cer", "ecr", "nw", "pzw", "pnw"),
                   [(payload["cer"], payload["ecr"], *counts)])
    return f"{args.out}.manifest.json", [json_path, csv_path], ()


def _experiment_cells(exp_id):
    if exp_id == "E1":
        return [("E1", {})]
    if exp_id == "E2":
        return [("E2", {"mu": mu, "p": p})
                for mu in (0.6, 0.7) for p in (200, 500, 1000)]
    if exp_id == "E3":
        return [("E3a", {}), ("E3b", {})]
    if exp_id == "E4":
        return [("E4", {"rho": rho}) for rho in (0.1, 0.3, 0.6)]
    raise UsageError(f"unknown experiment id {exp_id!r}")


def _cell_name(cell_id, params):
    if not params:
        return cell_id
    inner = ",".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    return f"{cell_id}({inner})"


def run_experiment_cell(cell_id, params, reps, seed, restarts, tune_restarts,
                        b, threads):
    """All three methods on one benchmark cell, sparse ones gap-tuned.

    Returns a list of per-rep metric dicts.
    """
    records = []
    for rep in range(reps):
        rep_seed = spawn_seed(seed, rep)
        spec = experiment_spec(cell_id, seed=rep_seed, **params)
        x, truth = generate(spec)
        xs = standardize(x)
        k = spec.k
        rec = {"cell": _cell_name(cell_id, params), "rep": rep}
        km = run_kmeans(xs, np.ones(spec.p),
                        KmeansConfig(k=k, restarts=restarts, seed=rep_seed,
                                     refine="swap"))
        rec["cer_kmeans"] = cer(km.labels, truth.labels)
        rec["nw_kmeans"], rec["pzw_kmeans"], rec["pnw_kmeans"] = \
            feature_counts(np.ones(spec.p), truth.support)
        for method in ("l0", "l1"):
            # plain engine for the grid search, refined engine for the final
            # fit: tuning only needs objective rankings, not polished optima
            tune_inner = KmeansConfig(k=k, restarts=tune_restarts,
                                      seed=spawn_seed(rep_seed, 1))
            profile = gap_statistic(xs, method, tune_inner, b=b,
                                    threads=threads)
            fit_inner = KmeansConfig(k=k, restarts=restarts,
                                     seed=spawn_seed(rep_seed, 2), refine="swap")
            cfg = SparseKmeansConfig(s=profile.chosen_s, method=method,
                                     inner=fit_inner)
            result = sparse_kmeans(xs, cfg)
            counts = feature_counts(result.weights, truth.support)
            rec[f"s_{method}"] = profile.chosen_s
            rec[f"cer_{method}"] = cer(result.labels, truth.labels)
            rec[f"nw_{method}"] = counts.nw
            rec[f"pzw_{method}"] = counts.pzw
            rec[f"pnw_{method}"] = counts.pnw
        records.append(rec)
    return records


def _write_records_csv(path, records) -> None:
    names = sorted({name for rec in records for name in rec},
                   key=lambda s: (s not in ("cell", "rep"), s))
    write_csv_rows(path, names,
                   ([rec.get(name, "") for name in names] for rec in records))


def cmd_experiment(args):
    for flag, value, least in (("--reps", args.reps, 1),
                               ("--permutations", args.permutations, 2),
                               ("--restarts", args.restarts, 1),
                               ("--tune-restarts", args.tune_restarts, 1)):
        if value < least:
            raise UsageError(f"{flag} {value}: need at least {least}")
    threads = _threads(args)
    os.makedirs(args.outdir, exist_ok=True)
    outputs = []
    agg_rows = []
    long_rows = []
    for cell_id, params in _experiment_cells(args.id):
        records = run_experiment_cell(cell_id, params, args.reps, args.seed,
                                      args.restarts, args.tune_restarts,
                                      args.permutations, threads)
        cell = _cell_name(cell_id, params)
        stem = cell.replace("(", "_").replace(")", "").replace(",", "_") \
            .replace("=", "")
        cell_path = os.path.join(args.outdir, f"{stem}.reps.csv")
        _write_records_csv(cell_path, records)
        outputs.append(cell_path)
        names = sorted({name for rec in records
                        for name in rec if name not in ("cell", "rep")})
        for name in names:
            vals = np.array([rec[name] for rec in records if name in rec])
            sd = float(vals.std(ddof=1)) if vals.size > 1 else ""
            agg_rows.append((cell, name, float(vals.mean()), sd, vals.size))
        long_rows.extend((rec["cell"], rec["rep"], name, rec[name])
                         for rec in records for name in names if name in rec)
    agg_path = os.path.join(args.outdir, "aggregate.csv")
    write_csv_rows(agg_path, ("cell", "metric", "mean", "sd", "reps"),
                   agg_rows)
    outputs.append(agg_path)
    long_path = os.path.join(args.outdir, "long.csv")
    write_csv_rows(long_path, ("cell", "rep", "metric", "value"), long_rows)
    outputs.append(long_path)
    return os.path.join(args.outdir, "manifest.json"), outputs, ()


def cmd_sweep(args):
    n_list = _parse_list(args.n_list, int, "--n-list")
    mu = args.mu if args.mu is not None else 0.7
    p = args.p if args.p is not None else 500
    p_star = args.p_star if args.p_star is not None else 50
    base = MixtureSpec(k=3, sizes=(1, 1, 1), p=p, p_star=p_star,
                       means=_three_cluster_means(mu, p_star), rho=0.0,
                       seed=args.seed)
    report = sweep(base, n_list, args.trials)
    csv_path = f"{args.out}.sweep.csv"
    json_path = f"{args.out}.sweep.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    return f"{args.out}.manifest.json", [csv_path, json_path], ()


def build_parser() -> _Parser:
    parser = _Parser(prog="sparsekm",
                     description="sparse k-means clustering toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, each declared once
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    mu_p = argparse.ArgumentParser(add_help=False)
    mu_p.add_argument("--mu", type=float, default=None)
    mu_p.add_argument("--p", type=int, default=None)
    fit_inputs = argparse.ArgumentParser(add_help=False)
    fit_inputs.add_argument("--input", required=True)
    fit_inputs.add_argument("--k", type=int, required=True)
    fit_inputs.add_argument("--refine", choices=["none", "swap"],
                            default="none")
    fit_inputs.add_argument("--header", action="store_true")
    fit_inputs.add_argument("--no-standardize", action="store_true")
    gap = argparse.ArgumentParser(add_help=False)
    gap.add_argument("--permutations", type=int, default=10)
    gap.add_argument("--threads", type=int, default=None)

    sp = sub.add_parser("generate", parents=[mu_p, out, seed],
                        help="draw a synthetic benchmark dataset")
    sp.add_argument("--experiment", required=True,
                    choices=["E1", "E2", "E3a", "E3b", "E4"])
    sp.add_argument("--rho", type=float, default=None)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("cluster", parents=[fit_inputs, out, seed],
                        help="fit kmeans, l0, or l1 on a CSV")
    sp.add_argument("--method", required=True, choices=["kmeans", "l0", "l1"])
    sp.add_argument("--restarts", type=int, default=10)
    sp.add_argument("--s", type=float, default=None)
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("tune", parents=[fit_inputs, out, seed, gap],
                        help="choose s by the gap statistic")
    sp.add_argument("--method", required=True, choices=["l0", "l1"])
    sp.add_argument("--restarts", type=int, default=10)
    sp.add_argument("--grid", default=None,
                    help="comma-separated s values (default: built-in grid)")
    sp.add_argument("--one-se", action="store_true")
    sp.add_argument("--fit", action="store_true",
                    help="also fit at the chosen s")
    sp.set_defaults(func=cmd_tune)

    sp = sub.add_parser("evaluate", parents=[out],
                        help="score a result against its truth")
    sp.add_argument("--result", required=True)
    sp.add_argument("--truth", required=True)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("experiment", parents=[seed, gap],
                        help="run a full benchmark with all methods")
    sp.add_argument("--id", required=True, choices=["E1", "E2", "E3", "E4"])
    sp.add_argument("--reps", type=int, default=20)
    sp.add_argument("--restarts", type=int, default=20)
    sp.add_argument("--tune-restarts", type=int, default=5)
    sp.add_argument("--outdir", required=True)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("sweep", parents=[mu_p, out, seed],
                        help="trial frequencies across n")
    sp.add_argument("--p-star", type=int, default=None)
    sp.add_argument("--n-list", default="30,60,120")
    sp.add_argument("--trials", type=int, default=50)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        path, outputs, warnings_seen = args.func(args)
        _write_json(path, {
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("command", "func") and v is not None},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "duration_s": round(time.monotonic() - started, 3),
            "outputs": [str(o) for o in outputs],
            "warnings": list(warnings_seen),
        })
        return 0
    except SparsekmError as exc:
        print(f"sparsekm: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
