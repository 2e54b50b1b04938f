"""One-dimensional diminishing interval process in three equivalent forms.

The full process tracks the interval ``[Z - r, Z + r]`` inside ``[-1, 1]``:
a point is drawn through a :class:`~diminish.distributions.DfForm` law, the
interval is intersected with the unit-radius translate around the point, and
the radius shrinks toward 1/2.  The thinned process keeps only the steps
that change the interval, which factorizes into a sign ``xi`` and a
multiplier ``V`` with CDF ``x**delta``.  Iterating the thinned recursion
gives the truncated series sampler for the limiting center.

Draw discipline (replays are exact across scalar and batch runners):
the full step consumes one uniform per step.  A thinned step, series term or
perpetuity update takes a ``(2, ...)`` block, signs then multipliers, with
``xi = +1`` iff the sign uniform is below ``1 - c`` and ``V = U**(1/delta)``;
the scalar step and sampler are one-slot calls of the batch code.

The full batch runner does not evaluate every step.  A step keeps the
interval exactly when its quantile lies in ``[1 - 1/(2r), 1/(2r)]``, which
is a band of raw uniforms, so each replica screens a window of uniforms
against its band and jumps to the first one outside it; only that one goes
through the quantile and the exact update (see :func:`run_full_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DfForm, RngStream, df_form_ppf, replica_blocks, window_rounds
from .errors import DomainError, StateCorruptionError

__all__ = [
    "IntervalState",
    "ThinnedIntervalState",
    "interval_new",
    "thinned_new",
    "apply_full_step",
    "step_full",
    "apply_thinned_step",
    "step_thinned",
    "center_series_sample",
    "center_series_batch",
    "perpetuity_step",
    "run_full_batch",
]

_EPS = 1e-12
_CHUNK = 8192  # replicas per chunk of run_full_batch


@dataclass(frozen=True)
class IntervalState:
    """Current interval ``[center - radius, center + radius]`` and its law."""

    center: float
    radius: float
    law: DfForm

    def __post_init__(self):
        if not (0.5 - _EPS <= self.radius <= 1.0 + _EPS):
            raise DomainError(f"radius must lie in [1/2, 1], got {self.radius}")
        if self.center - self.radius < -1.0 - 1e-9 or self.center + self.radius > 1.0 + 1e-9:
            raise DomainError("interval must be contained in [-1, 1]")


@dataclass(frozen=True)
class ThinnedIntervalState:
    """Center and excess radius of the thinned (change-only) chain; ``c`` lies in (0, 1)."""

    center: float
    excess: float
    c: float
    delta: float

    def __post_init__(self):
        _check_thinned_law(self.c, self.delta)
        if not (0.0 <= self.excess <= 0.5 + _EPS):
            raise DomainError(f"excess must lie in (0, 1/2], got {self.excess}")
        if abs(self.center) + self.excess > 0.5 + 1e-9:
            raise DomainError("|center| + excess must not exceed 1/2")


def _check_thinned_law(c: float, delta: float, tol: float | None = None) -> None:
    """Reject ``c`` outside (0, 1), ``delta`` not positive and finite, and ``tol <= 0``.

    At ``c = 0`` or ``1`` the center degenerates to -1/2 or +1/2 and the
    thinned factorization does not apply.
    """
    if not (0.0 < c < 1.0):
        raise DomainError(f"thinned chain requires c in (0, 1); endpoint laws degenerate, got {c}")
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    if tol is not None and not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")


def _thinned_draws(u, c: float, delta: float):
    """Signs ``xi`` and multipliers ``V`` from a ``(2, ...)`` block of uniforms.

    ``np.power`` keeps zero-dimensional draws on the array kernel.
    """
    return np.where(u[0] < 1.0 - c, 1.0, -1.0), np.power(u[1], 1.0 / delta)


def _thinned_move(center, excess, xi, v):
    """One change step: center moves by ``xi * excess * (1 - v)``, excess scales by v."""
    return center + xi * excess * (1.0 - v), excess * v


def interval_new(law: DfForm) -> IntervalState:
    """Start state: the interval [-1, 1]."""
    return IntervalState(0.0, 1.0, law)


def thinned_new(c: float, delta: float) -> ThinnedIntervalState:
    return ThinnedIntervalState(0.0, 0.5, c, delta)


def apply_full_step(s: IntervalState, x: float) -> IntervalState:
    """Intersect with the unit-radius translate around the point at quantile x.

    The point is ``p = Z - r + 2 r x``; the new interval is
    ``[max(Z - r, p - 1), min(Z + r, p + 1)]``.  The new radius must agree
    with the one-line recursion ``1/2 + r min(x, 1-x)`` (no-change branch
    when ``min(x, 1-x) > 1 - 1/(2r)``); a mismatch raises
    :class:`StateCorruptionError`.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("quantile draw must lie in [0, 1]")
    z, r = s.center, s.radius
    p = z - r + 2.0 * r * x
    if p - 1.0 <= z - r and p + 1.0 >= z + r:
        return s  # translate covers the interval: no change, exactly
    lo = max(z - r, p - 1.0)
    hi = min(z + r, p + 1.0)
    new = IntervalState(0.5 * (lo + hi), 0.5 * (hi - lo), s.law)
    m = min(x, 1.0 - x)
    expected = 0.5 + r * m if m <= 1.0 - 1.0 / (2.0 * r) else r
    if not abs(new.radius - expected) <= 1e-12:
        raise StateCorruptionError("geometric step diverged from radius recursion")
    return new


def step_full(s: IntervalState, rng: RngStream) -> IntervalState:
    return apply_full_step(s, float(df_form_ppf(rng.uniform(), s.law)))


def apply_thinned_step(s: ThinnedIntervalState, xi: int, v: float) -> ThinnedIntervalState:
    """One change step: center moves by ``xi * excess * (1 - v)``, excess scales by v."""
    if xi not in (-1, 1):
        raise DomainError("xi must be +1 or -1")
    if not 0.0 <= v <= 1.0:
        raise DomainError("v must lie in [0, 1]")
    return ThinnedIntervalState(*_thinned_move(s.center, s.excess, xi, v), s.c, s.delta)


def step_thinned(s: ThinnedIntervalState, rng: RngStream) -> ThinnedIntervalState:
    """Draw ``xi`` (+1 with probability 1 - c) and ``V`` with CDF ``x**delta``."""
    xi, v = _thinned_draws(rng.uniform((2, 1)), s.c, s.delta)
    return apply_thinned_step(s, int(xi[0]), float(v[0]))


_MAX_TERMS = 100_000


def center_series_sample(rng: RngStream, c: float, delta: float, tol: float) -> float:
    """Truncated series sample of the limiting center.

    Accumulates ``(1/2) sum xi_i V_1...V_{i-1} (1 - V_i)`` and stops once the
    deterministic tail bound ``(1/2) V_1...V_n`` drops below ``tol``, so the
    absolute truncation error is below ``tol``.  A one-slot
    :func:`center_series_batch`; the thinned chain's center on the same draws.
    """
    return float(center_series_batch(rng, c, delta, tol, 1)[0])


def center_series_batch(rng: RngStream, c: float, delta: float, tol: float, size: int):
    """Vectorized series sampler drawing all replicas from one stream.

    Term-major draw order (every slot draws each term, finished slots ignore
    theirs), so the batch is deterministic but is not a per-replica replay of
    :func:`center_series_sample` beyond one slot.
    """
    _check_thinned_law(c, delta, tol)
    z = np.zeros(size)
    pref = np.full(size, 0.5)
    active = np.ones(size, dtype=bool)
    for _ in range(_MAX_TERMS):
        moved, shrunk = _thinned_move(z, pref, *_thinned_draws(rng.uniform((2, size)), c, delta))
        z = np.where(active, moved, z)
        pref = np.where(active, shrunk, pref)
        active = pref >= tol
        if not active.any():
            return z
    raise StateCorruptionError("center series failed to reach the truncation bound")


def perpetuity_step(z, rng: RngStream, c: float, delta: float):
    """One fixed-point update of the limit-center law: ``(1/2) xi (1-V) + V z``.

    Equivalent to prepending a single thinned change step to the chain whose
    limit the samples represent; a fixed point of this map is exactly the
    limiting center distribution.
    """
    _check_thinned_law(c, delta)
    z = np.asarray(z, dtype=float)
    xi, v = _thinned_draws(rng.uniform((2, *z.shape)), c, delta)
    out = 0.5 * xi * (1.0 - v) + v * z
    return float(out) if out.ndim == 0 else out


def _keep_band(r, law: DfForm):
    """Open band ``(lo, hi)`` of uniforms whose step keeps an interval of radius ``r``.

    The step keeps the interval exactly when ``x = ppf(u)`` lies in
    ``[1 - 1/(2r), 1/(2r)]``, whatever the center.  The band is that range
    pulled in by ``eta = 1e-12 max(1, 1/delta)`` in x and mapped through the
    CDF branch on its side of 1/2: ``lo = c (2 xl)^delta`` with
    ``xl = min(1 - 1/(2r) + eta, 1/2)`` and ``hi = 1 - (1-c) (2 (1 - xh))^delta``
    with ``xh = max(1/(2r) - eta, 1/2)``.  Neither power exceeds 1, so
    nothing overflows.  Within about 2 eta of r = 1 both edges clamp to 1/2:
    the band is ``(c, c)`` up to the rounding of ``1 - (1 - c)``, and a
    uniform in that sliver has the quantile 1/2 exactly, which keeps.
    """
    eta = 1e-12 * max(1.0, 1.0 / law.delta)
    half = 0.5 / r
    lo = law.c * (2.0 * np.minimum(1.0 - half + eta, 0.5)) ** law.delta
    hi = 1.0 - (1.0 - law.c) * (2.0 * (1.0 - np.maximum(half - eta, 0.5))) ** law.delta
    return lo, hi


def run_full_batch(
    law: DfForm,
    n: int,
    replicas: int,
    seed: int,
    path: tuple[int, ...] = (),
):
    """Run independent replicas of the full process, vectorized across replicas and steps.

    Replica ``r`` consumes exactly the uniforms of ``RngStream(seed, r, path)``
    in trajectory order, so each row reproduces the scalar :func:`step_full`
    trajectory for the same stream.  Returns ``(radii, centers)``.

    The engine screens steps on their raw uniforms.  A step whose uniform
    lies strictly inside its column's :func:`_keep_band` leaves the interval
    as it is; the rounds of :func:`~diminish.distributions.window_rounds`
    move each column to its first step outside the band (a candidate).  Only
    a candidate goes through :func:`df_form_ppf` and the exact update of
    :func:`apply_full_step`; a candidate that the exact test keeps is an
    unchanged step, and a change recomputes its column's band.

    The screen is sound because its margin sits in x, not in u.  A uniform
    inside the band has a quantile at least ``eta`` inside the keep range up
    to the rounding of the ppf.  That rounding is a few ulp of the power's
    argument, scaled by ``1/delta`` through the power (hence the ``1/delta``
    in eta), and the keep test ``p = z - r + 2 r x`` against ``z +- r`` adds
    a few ulp of 1; eta = 1e-12 covers both by orders of magnitude.  A fixed
    margin in u is not enough: near ``r = 1/2`` the band edges sit at
    ``x ~ 2 (r - 1/2)``, where the CDF's slope ``delta u / x`` is large, so
    1e-9 in u can shrink below the keep test's rounding in x.
    """
    radii = np.empty(replicas)
    centers = np.empty(replicas)
    for start, stop, blocks in replica_blocks(seed, replicas, n, 1, _CHUNK, path):
        z = np.zeros(stop - start)
        r = np.ones(stop - start)
        lo, hi = _keep_band(r, law)
        for w in window_rounds(blocks, stop - start):
            u = w.draws[..., 0]
            hit = (u <= lo[w.act, None]) | (u >= hi[w.act, None])
            first, moved, _ = w.advance(hit)
            rows = np.flatnonzero(moved)
            if not rows.size:
                continue
            cc = w.act[rows]
            x = df_form_ppf(u[rows, first[rows]], law)
            zc, rc = z[cc], r[cc]
            p = zc - rc + 2.0 * rc * x
            change = (p - 1.0 > zc - rc) | (p + 1.0 < zc + rc)
            cc, zc, rc, p = cc[change], zc[change], rc[change], p[change]
            a = np.maximum(zc - rc, p - 1.0)
            b = np.minimum(zc + rc, p + 1.0)
            z[cc] = 0.5 * (a + b)
            r[cc] = 0.5 * (b - a)
            lo[cc], hi[cc] = _keep_band(r[cc], law)
        radii[start:stop] = r
        centers[start:stop] = z
    return radii, centers
