"""Synthetic Gaussian-mixture benchmarks with known labels and support.

Rows are grouped by cluster in label order. The first p_star columns are
the relevant features (cluster-dependent means); the remaining columns are
standard normal noise. With rho > 0 every row gets AR(1)-correlated noise
across all p columns, cov(col_a, col_b) = rho^|a-b|, generated by the
recursion v_1 = z_1, v_t = rho v_{t-1} + sqrt(1 - rho^2) z_t which has
unit marginal variances exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import rng_for
from .errors import InvalidSpec, UnknownExperiment, check_integer


@dataclass
class MixtureSpec:
    k: int
    sizes: tuple
    p: int
    p_star: int
    means: np.ndarray        # k x p_star, relevant-feature means per cluster
    rho: float = 0.0
    seed: int = 0

    @property
    def n(self) -> int:
        return int(sum(self.sizes))

    def validated(self) -> "MixtureSpec":
        for name, value in (("k", self.k), ("p", self.p),
                            ("p_star", self.p_star)):
            check_integer(name, value, InvalidSpec)
        if self.k < 1 or len(self.sizes) != self.k:
            raise InvalidSpec(f"need {self.k} cluster sizes, got {len(self.sizes)}")
        for c, size in enumerate(self.sizes):
            if check_integer(f"sizes[{c}]", size, InvalidSpec) < 1:
                raise InvalidSpec("every cluster size must be >= 1")
        if not 0 <= self.p_star <= self.p:
            raise InvalidSpec(f"need 0 <= p_star <= p={self.p}, "
                              f"got p_star={self.p_star}")
        means = np.asarray(self.means, dtype=float)
        if means.shape != (self.k, self.p_star):
            raise InvalidSpec(
                f"means must be {self.k} x {self.p_star}, got {means.shape}")
        if not np.isfinite(means).all():
            raise InvalidSpec("means must be finite")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidSpec(f"rho must be in [0, 1), got {self.rho}")
        return self


@dataclass
class GroundTruth:
    labels: np.ndarray
    support: np.ndarray


def generate(spec: MixtureSpec):
    """Draw one dataset. Returns (X, GroundTruth)."""
    spec.validated()
    rng = rng_for(spec.seed)
    n, p = spec.n, spec.p
    labels = np.repeat(np.arange(spec.k), spec.sizes)
    z = rng.standard_normal((n, p))
    if spec.rho > 0.0:
        x = np.empty_like(z)
        x[:, 0] = z[:, 0]
        damp = np.sqrt(1.0 - spec.rho**2)
        for t in range(1, p):
            x[:, t] = spec.rho * x[:, t - 1] + damp * z[:, t]
    else:
        x = z
    means = np.asarray(spec.means, dtype=float)
    x[:, : spec.p_star] += means[labels]
    return x, GroundTruth(labels=labels, support=np.arange(spec.p_star))


def _three_cluster_means(mu: float, p_star: int) -> np.ndarray:
    """Mean pattern +mu / -mu / 0 on the relevant features."""
    return np.array([[mu] * p_star, [-mu] * p_star, [0.0] * p_star])


# the parameters each named benchmark needs from the caller; it fixes the rest
_PRESET_PARAMS = {"E1": (), "E2": ("mu", "p"), "E3a": (), "E3b": (),
                  "E4": ("rho",)}


def experiment_spec(exp_id: str, *, mu: float | None = None,
                    p: int | None = None, rho: float | None = None,
                    seed: int = 0) -> MixtureSpec:
    """Named benchmark configurations.

    E1   : 6 clusters of 20, p=2000, p*=200, cluster c mean 0.5(c+1)
    E2   : 3 clusters of 20, p in {200, 500, 1000}, p*=50, means +mu/-mu/0
           (mu and p required)
    E3a  : E2 pattern with 3 clusters of 10, p=25, p*=5, mu=1
    E3b  : E2 pattern with 3 clusters of 20, p=500, p*=50, mu=0.7
    E4   : E1 shape with cluster c mean 1.0(c+1) and AR(1) noise
           (rho required)

    A missing required parameter, or a mu, p or rho that the preset fixes,
    raises InvalidSpec.
    """
    if exp_id not in _PRESET_PARAMS:
        raise UnknownExperiment(f"unknown experiment id {exp_id!r}")
    for name, value in (("mu", mu), ("p", p), ("rho", rho)):
        if name in _PRESET_PARAMS[exp_id] and value is None:
            raise InvalidSpec(f"{exp_id} needs {name}")
        if name not in _PRESET_PARAMS[exp_id] and value is not None:
            raise InvalidSpec(f"{exp_id} fixes {name}; got {name}={value}")
    if exp_id == "E1":
        means = np.outer(0.5 * np.arange(1, 7), np.ones(200))
        return MixtureSpec(k=6, sizes=(20,) * 6, p=2000, p_star=200,
                           means=means, rho=0.0, seed=seed)
    if exp_id == "E2":
        return MixtureSpec(k=3, sizes=(20, 20, 20),
                           p=check_integer("p", p, InvalidSpec), p_star=50,
                           means=_three_cluster_means(mu, 50), rho=0.0,
                           seed=seed)
    if exp_id == "E3a":
        return MixtureSpec(k=3, sizes=(10, 10, 10), p=25, p_star=5,
                           means=_three_cluster_means(1.0, 5), rho=0.0,
                           seed=seed)
    if exp_id == "E3b":
        return MixtureSpec(k=3, sizes=(20, 20, 20), p=500, p_star=50,
                           means=_three_cluster_means(0.7, 50), rho=0.0,
                           seed=seed)
    if exp_id == "E4":
        means = np.outer(1.0 * np.arange(1, 7), np.ones(200))
        return MixtureSpec(k=6, sizes=(20,) * 6, p=2000, p_star=200,
                           means=means, rho=float(rho), seed=seed)


def with_total_n(spec: MixtureSpec, n: int) -> MixtureSpec:
    """Same mixture with n samples split as evenly as possible."""
    base, extra = divmod(check_integer("n", n, InvalidSpec), spec.k)
    if base < 1:
        raise InvalidSpec(f"n={n} is too small for k={spec.k}")
    sizes = tuple(base + (1 if c < extra else 0) for c in range(spec.k))
    return replace(spec, sizes=sizes)
