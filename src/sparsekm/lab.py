"""Monte Carlo checks of the large-n behavior of hard-threshold sparse
clustering: does the fitted partition separate relevant from noise
dispersion, and is the true support recovered exactly?

Each trial draws a fresh dataset from an independent-feature mixture,
fits the l0 method with s fixed at the true p_star, and records

  gap_event     min over relevant a_j  >  max over noise a_j
                at the fitted partition;
  exact_support w_j = 1 on every relevant feature and 0 elsewhere.

With s = p_star the two events coincide (hard thresholding keeps the
top-p_star set, which equals the support exactly when the gap holds);
the implication exact_support => gap_event is asserted on every trial.
Trials run on the raw generated matrix, whose noise features have unit
variance by construction, matching the model the events are stated for.
Frequencies are reported with Wilson 95% intervals over n.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from ._rng import spawn_seed
from .data import write_csv_rows
from .errors import InvalidSpec, NumericalError, UsageError, check_integer
from .kmeans import KmeansConfig
from .metrics import ecr
from .sparse import SparseKmeansConfig, l0_kmeans
from .synth import MixtureSpec, generate, with_total_n

WILSON_Z = 1.959964   # the two-sided 95% normal quantile
MIN_TRIALS = 20       # the fewest trials a sweep runs per n


@dataclass
class TrialOutcome:
    ecr: float
    gap_event: bool
    exact_support: bool
    seed: int


@dataclass
class SweepRow:
    n: int
    p: int
    p_star: int
    trials: int
    freq_gap: float
    gap_lo: float
    gap_hi: float
    freq_support: float
    support_lo: float
    support_hi: float
    mean_ecr: float


@dataclass
class SweepReport:
    rows: list

    def to_csv(self, path) -> None:
        write_csv_rows(path, [f.name for f in fields(SweepRow)],
                       map(astuple, self.rows))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(row) for row in self.rows], fh, indent=2)
            fh.write("\n")


def wilson_interval(hits: int, trials: int) -> tuple:
    """95% score interval for a binomial proportion."""
    if trials < 1:
        raise UsageError("need at least one trial")
    if not 0 <= hits <= trials:
        raise UsageError(f"need 0 <= hits <= trials={trials}, got hits={hits}")
    phat = hits / trials
    denom = 1.0 + WILSON_Z**2 / trials
    center = (phat + WILSON_Z**2 / (2 * trials)) / denom
    half = WILSON_Z * np.sqrt(phat * (1 - phat) / trials
                              + WILSON_Z**2 / (4 * trials**2)) / denom
    return max(0.0, float(center - half)), min(1.0, float(center + half))


def run_trial(spec: MixtureSpec, cfg: SparseKmeansConfig) -> TrialOutcome:
    """One seeded draw-and-fit. Requires rho=0, method l0, s = p_star."""
    spec.validated()
    if spec.rho != 0.0:
        raise InvalidSpec("trials assume independent features (rho = 0)")
    if not 1 <= spec.p_star < spec.p:
        raise InvalidSpec("trials need 1 <= p_star < p")
    if cfg.method != "l0":
        raise InvalidSpec("trials use the l0 method")
    if int(np.floor(cfg.s)) != spec.p_star:
        raise InvalidSpec(f"cfg.s must equal p_star={spec.p_star}")
    x, truth = generate(spec)
    result = l0_kmeans(x, cfg)
    a = result.bcss
    gap_event = bool(a[: spec.p_star].min() > a[spec.p_star:].max())
    w = result.weights
    exact = bool(np.all(w[: spec.p_star] == 1.0)
                 and np.all(w[spec.p_star:] == 0.0))
    if exact and not gap_event:
        raise NumericalError("exact support without the dispersion gap")
    return TrialOutcome(ecr=ecr(result.labels, truth.labels),
                        gap_event=gap_event, exact_support=exact,
                        seed=spec.seed)


def sweep(base_spec: MixtureSpec, n_list, trials: int,
          inner: KmeansConfig | None = None) -> SweepReport:
    """Trial frequencies for each n in n_list (ascending), p and p_star
    fixed. base_spec.seed names the whole sweep; per-trial seeds derive
    from (sweep seed, setting index, trial index)."""
    trials = check_integer("trials", trials, UsageError)
    if trials < MIN_TRIALS:
        raise UsageError(f"need at least {MIN_TRIALS} trials, got {trials}")
    ns = sorted(check_integer("n", v, UsageError) for v in n_list)
    if inner is None:
        inner = KmeansConfig(k=base_spec.k, restarts=10, refine="swap")
    rows = []
    for si, n in enumerate(ns):
        scaled = with_total_n(base_spec, n)
        hits_gap = hits_support = 0
        ecr_sum = 0.0
        for ti in range(trials):
            trial_seed = spawn_seed(base_spec.seed, si, ti)
            spec = replace(scaled, seed=trial_seed)
            out = run_trial(spec, SparseKmeansConfig(
                s=float(spec.p_star), method="l0",
                inner=replace(inner, seed=trial_seed)))
            hits_gap += out.gap_event
            hits_support += out.exact_support
            ecr_sum += out.ecr
        glo, ghi = wilson_interval(hits_gap, trials)
        slo, shi = wilson_interval(hits_support, trials)
        rows.append(SweepRow(n=n, p=int(base_spec.p),
                             p_star=int(base_spec.p_star), trials=trials,
                             freq_gap=hits_gap / trials, gap_lo=glo,
                             gap_hi=ghi, freq_support=hits_support / trials,
                             support_lo=slo, support_hi=shi,
                             mean_ecr=ecr_sum / trials))
    return SweepReport(rows=rows)


def nondecreasing_within_slack(values, lows, highs) -> bool:
    """True when every decrease between consecutive entries is explainable
    by interval overlap (a drop beyond the intervals fails)."""
    for i in range(len(values) - 1):
        if values[i + 1] < values[i] and highs[i + 1] < lows[i]:
            return False
    return True
