"""One-dimensional diminishing interval process and its limiting center.

The full process tracks the interval ``[Z - r, Z + r]`` inside ``[-1, 1]``:
a point is drawn through a :class:`~diminish.distributions.DfForm` law, the
interval is intersected with the unit-radius translate around the point, and
the radius shrinks toward 1/2.  The steps that change the interval factorize
into a sign ``xi`` and a multiplier ``V`` with CDF ``x**delta``: summing
them gives the truncated series sampler for the limiting center
(:func:`center_series_batch`).

Draw discipline: the full step consumes one uniform per step, and batch rows
replay it exactly.  A series term takes a ``(2, ...)`` block, signs then
multipliers, with ``xi = +1`` iff the sign uniform is below ``1 - c`` and
``V = U**(1/delta)``.

The full batch runner does not evaluate every step.  A step keeps the
interval exactly when its quantile lies in ``[1 - 1/(2r), 1/(2r)]``, which
is a band of raw uniforms, so each replica screens a window of uniforms
against its band and jumps to the first one outside it; only that one goes
through the quantile and the exact update (see :func:`run_full_batch`);
:func:`~diminish.distributions.window_rounds` chunks the replicas.  A state
screens and steps itself on its own draws in the same way (``_hits``,
``_step``), and :func:`~diminish.distributions._change_walk` walks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DfForm, RngStream, df_form_ppf, window_rounds
from .errors import DomainError, StateCorruptionError

__all__ = [
    "IntervalState",
    "interval_new",
    "apply_full_step",
    "step_full",
    "center_series_batch",
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

    _draws = 1  # uniforms per step

    def __post_init__(self):
        if not (0.5 - _EPS <= self.radius <= 1.0 + _EPS):
            raise DomainError(f"radius must lie in [1/2, 1], got {self.radius}")
        if self.center - self.radius < -1.0 - 1e-9 or self.center + self.radius > 1.0 + 1e-9:
            raise DomainError("interval must be contained in [-1, 1]")

    def _hits(self, u):
        """Window steps whose uniform ``u[..., 0]`` lies outside the :func:`_keep_band`."""
        lo, hi = _keep_band(self.radius, self.law)
        return (u[..., 0] <= lo) | (u[..., 0] >= hi)

    def _step(self, u):
        """The step on the uniform ``u[0]``: :func:`df_form_ppf`, then :func:`apply_full_step`."""
        return apply_full_step(self, float(df_form_ppf(u[0], self.law)))


def _check_thinned_law(c: float, tol: float) -> None:
    """Reject ``tol <= 0`` and ``c`` outside (0, 1), where the center degenerates to -1/2
    or +1/2 and the thinned factorization does not apply; :class:`DfForm` checks the rest."""
    if not (0.0 < c < 1.0):
        raise DomainError(f"thinned chain requires c in (0, 1); endpoint laws degenerate, got {c}")
    if not tol > 0.0:
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


def _clip(z, r, x):
    """Cut ``[z - r, z + r]`` by ``[p - 1, p + 1]``, ``p = z - r + 2 r x``, elementwise.

    Returns ``(change, center, radius)``: whether the cut moves the
    interval, and the center and radius of the cut.
    """
    p = z - r + 2.0 * r * x
    lo, hi = np.maximum(z - r, p - 1.0), np.minimum(z + r, p + 1.0)
    return (p - 1.0 > z - r) | (p + 1.0 < z + r), 0.5 * (lo + hi), 0.5 * (hi - lo)


def apply_full_step(s: IntervalState, x: float) -> IntervalState:
    """Intersect with the unit-radius translate around the point at quantile x (:func:`_clip`).

    The new radius must agree with the one-line recursion
    ``1/2 + r min(x, 1-x)`` (no-change branch when
    ``min(x, 1-x) > 1 - 1/(2r)``); a mismatch raises
    :class:`StateCorruptionError`.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("quantile draw must lie in [0, 1]")
    change, center, radius = _clip(s.center, s.radius, x)
    if not change:
        return s  # translate covers the interval: no change, exactly
    new = IntervalState(float(center), float(radius), s.law)
    m, r = min(x, 1.0 - x), s.radius
    expected = 0.5 + r * m if m <= 1.0 - 1.0 / (2.0 * r) else r
    if not abs(new.radius - expected) <= 1e-12:
        raise StateCorruptionError("geometric step diverged from radius recursion")
    return new


def step_full(s: IntervalState, rng: RngStream) -> IntervalState:
    return s._step(rng.uniform(s._draws))


_MAX_TERMS = 100_000


def center_series_batch(rng: RngStream, law: DfForm, tol: float, size: int):
    """Truncated series samples of the limiting center, all drawn from one stream.

    Each slot accumulates ``(1/2) sum xi_i V_1...V_{i-1} (1 - V_i)`` and stops
    once the deterministic tail bound ``(1/2) V_1...V_n`` drops below ``tol``,
    so its absolute truncation error is below ``tol``.  Term-major draw order:
    every slot draws each term, and finished slots ignore theirs.
    """
    _check_thinned_law(law.c, tol)
    z = np.zeros(size)
    pref = np.full(size, 0.5)
    active = np.ones(size, dtype=bool)
    for _ in range(_MAX_TERMS):
        draws = _thinned_draws(rng.uniform((2, size)), law.c, law.delta)
        moved, shrunk = _thinned_move(z, pref, *draws)
        z = np.where(active, moved, z)
        pref = np.where(active, shrunk, pref)
        active = pref >= tol
        if not active.any():
            return z
    raise StateCorruptionError("center series failed to reach the truncation bound")


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
    lies strictly inside its replica's :func:`_keep_band` leaves the interval
    as it is; the rounds of :func:`~diminish.distributions.window_rounds`
    move each replica to its first step outside the band (a candidate).  Only
    a candidate goes through :func:`df_form_ppf` and :func:`_clip`, the cut
    of :func:`apply_full_step`; a candidate that the exact test keeps is an
    unchanged step, and a change recomputes its replica's band.

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
    rounds = window_rounds(seed, replicas, n, 1, _CHUNK, path)
    z = np.zeros(replicas)
    r = np.ones(replicas)
    lo, hi = _keep_band(r, law)
    for w in rounds:
        u = w.draws[..., 0]
        rows, at, _ = w.advance((u <= lo[w.act, None]) | (u >= hi[w.act, None]))
        if not rows.size:
            continue
        cc = w.act[rows]
        change, zc, rc = _clip(z[cc], r[cc], df_form_ppf(u[rows, at], law))
        cc = cc[change]
        z[cc], r[cc] = zc[change], rc[change]
        lo[cc], hi[cc] = _keep_band(r[cc], law)
    return r, z

