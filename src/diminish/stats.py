"""Empirical-distribution machinery and experiment orchestration.

Every limit-law check in the package funnels through :func:`ks_stat`
(one-sample sup distance against an analytic CDF) or
:func:`envelope_check` (pointwise survival-function bounds).  Experiments
are deterministic functions of their :class:`RunConfig`: replica ``r``
always draws from stream ``(seed, r)``, so reruns are byte-identical and
independent of chunking or scheduling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cube import cube_run_batch
from .distributions import DfForm
from .errors import ConfigurationError, DomainError
from .interval import run_full_batch
from .polygon import run_polygon_batch
from .simplex import run_simplex_batch

__all__ = [
    "ScaledSample",
    "RunConfig",
    "ExperimentResult",
    "EnvelopeReport",
    "ks_stat",
    "ks_two_sample",
    "moment_estimate",
    "survival_fraction",
    "envelope_check",
    "run_experiment",
]

PROCESSES = ("interval", "cube", "simplex", "polygon")


class ScaledSample(NamedTuple):
    """One scaled end-of-run statistic of one replica (:func:`run_experiment` checks it)."""

    value: float
    n: int
    replica: int


@dataclass(frozen=True)
class RunConfig:
    """One experiment, checked when built; it fixes the output and, frozen, keys memos."""

    process: str
    n: int
    replicas: int
    seed: int
    c: float = 0.5
    delta: float = 1.0
    d: int = 2
    k: int = 5
    out: str | None = None

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise ConfigurationError(f"process must be one of {PROCESSES}, got {self.process!r}")
        for names, kind, what in (
            (("n", "replicas", "seed", "d", "k"), numbers.Integral, "an integer"),
            (("c", "delta"), numbers.Real, "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.c <= 1.0:
            raise ConfigurationError(f"c must lie in [0, 1], got {self.c}")
        if not 0.0 < self.delta < math.inf:
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        if self.process in ("cube", "simplex") and self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.process == "polygon" and self.k < 5:
            raise ConfigurationError(f"k must be >= 5, got {self.k}")


@dataclass
class ExperimentResult:
    """Scaled samples plus per-process extras (centers, heights, accumulators)."""

    config: RunConfig
    samples: list[ScaledSample]
    extras: dict = field(default_factory=dict)

    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])


def ks_stat(samples, cdf) -> float:
    """Sup distance between the empirical CDF and ``cdf``.

    Evaluated at the sample points with both one-sided gaps, so it is the
    exact Kolmogorov-Smirnov statistic for a continuous law.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise DomainError("ks_stat needs a nonempty sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - f).max())
    d_minus = float((f - (i - 1) / n).max())
    return max(d_plus, d_minus, 0.0)


def ks_two_sample(a, b) -> float:
    """Sup distance between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise DomainError("ks_two_sample needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def moment_estimate(samples, alpha: float) -> tuple[float, float]:
    """Plug-in estimate of ``E|X|**alpha`` with its CLT standard error."""
    x = np.asarray(samples, dtype=float)
    if len(x) == 0:
        raise DomainError("moment_estimate needs a nonempty sample")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    powered = np.abs(x) ** alpha
    mean = float(powered.mean())
    se = float(powered.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else math.inf
    return mean, se


def survival_fraction(values, grid) -> np.ndarray:
    """Empirical survival ``P(X > x)`` at each grid point."""
    v = np.asarray(values, dtype=float)
    return np.array([float((v > x).mean()) for x in np.atleast_1d(grid)])


@dataclass
class EnvelopeReport:
    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    empirical: np.ndarray
    tol: float
    violations: list[int]

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = []
        for i, x in enumerate(self.grid):
            flag = "ok" if i not in self.violations else "VIOLATION"
            out.append(
                f"x={x:g}: {self.lower[i]:.4f} - {self.tol:.2f} <= "
                f"{self.empirical[i]:.4f} <= {self.upper[i]:.4f} + {self.tol:.2f}  [{flag}]"
            )
        return out


def envelope_check(values, lower, upper, grid, tol: float = 0.03) -> EnvelopeReport:
    """Check pointwise survival bounds ``lower - tol <= P(X > x) <= upper + tol``."""
    if len(np.asarray(values)) == 0:
        raise DomainError("envelope_check needs a nonempty sample")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    lo = np.array([float(lower(x)) for x in grid])
    up = np.array([float(upper(x)) for x in grid])
    if np.any(lo > up + 1e-12):
        raise ConfigurationError("envelope lower bound exceeds upper bound on the grid")
    emp = survival_fraction(values, grid)
    violations = [
        int(i) for i in range(len(grid)) if emp[i] < lo[i] - tol or emp[i] > up[i] + tol
    ]
    return EnvelopeReport(grid, lo, up, emp, tol, violations)


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    """Run the configured replicas and return their scaled end statistics.

    The primary statistic per process: interval ``4 n**(1/delta) (r - 1/2)``;
    cube ``2n (max_i m_i - 1)``; simplex ``((d+1) n)**(1/d) / rho (m - rho)``;
    polygon ``sqrt(n) (m - rho)`` for odd k and ``n (m - rho)`` for even k.
    """
    extras: dict = {}
    if cfg.process == "interval":
        law = DfForm(cfg.c, cfg.delta)
        radii, centers = run_full_batch(law, cfg.n, cfg.replicas, cfg.seed)
        values = 4.0 * cfg.n ** (1.0 / cfg.delta) * (radii - 0.5)
        extras = {"radii": radii, "centers": centers}
    elif cfg.process == "cube":
        scaled_max, edge_excess, centers = cube_run_batch(cfg.d, cfg.n, cfg.replicas, cfg.seed)
        values = scaled_max
        extras = {"edge_excess": edge_excess, "centers": centers}
    elif cfg.process == "simplex":
        heights, centers = run_simplex_batch(cfg.d, cfg.n, cfg.replicas, cfg.seed)
        rho = 1.0 / cfg.d
        values = ((cfg.d + 1) * cfg.n) ** (1.0 / cfg.d) / rho * (heights - rho)
        extras = {"heights": heights, "centers": centers}
    else:
        batch = run_polygon_batch(cfg.k, cfg.n, cfg.replicas, cfg.seed)
        rho = math.cos(math.pi / cfg.k)
        excess = batch.max_height - rho
        values = cfg.n ** (0.5 if cfg.k % 2 == 1 else 1.0) * excess
        extras = {"excess": excess, "batch": batch}
    if float(np.min(values)) < -1e-9:
        raise DomainError("scaled height statistic came out negative")
    if not np.isfinite(values).all():
        raise DomainError("scaled sample must be finite")
    samples = [ScaledSample(v, cfg.n, i) for i, v in enumerate(np.maximum(values, 0.0).tolist())]
    return ExperimentResult(cfg, samples, extras)
