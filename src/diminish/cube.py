"""The d-dimensional cube process as a product of independent interval processes.

A uniform point in an axis-aligned box has independent uniform coordinates,
so each axis of the cube process evolves as a one-dimensional interval
process.  No native d-dimensional sampler exists here by design; axis ``a``
of replica stream ``rng`` always draws from ``rng.substream(a)``, which makes
axis assignment a pure relabeling of sub-streams.

:func:`cube_trajectory` walks each axis from change to change on its
sub-stream (a one-row :func:`~diminish.interval.run_full_batch` whose
candidates go through the scalar step's exact update) and repeats each
state over the steps it lasts, so every row is the state the per-step
:func:`~diminish.interval.step_full` loop reaches.  The batch runner is one
:func:`~diminish.interval.run_full_batch` call per axis on paths ``(a,)``,
so it inherits the screened window engine and its replay contract: batch
row ``r`` equals the last row of :func:`cube_trajectory` on
``RngStream(seed, r)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .distributions import DfForm, RngStream
from .errors import DomainError
from .interval import _walk, interval_new, run_full_batch

__all__ = ["UNIFORM_LAW", "cube_trajectory", "cube_run_batch"]

UNIFORM_LAW = DfForm(c=0.5, delta=1.0)


def cube_trajectory(d: int, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of every axis after steps 0..n; shape (n+1, d)."""
    if d < 1 or n < 1:
        raise DomainError("d and n must be >= 1")
    centers = np.empty((n + 1, d))
    radii = np.empty((n + 1, d))
    for a in range(d):
        start = interval_new(UNIFORM_LAW)
        steps, states = _walk(start, n, rng.substream(a))
        lasts = np.diff([0, *steps, n + 1])
        centers[:, a] = np.repeat([s.center for s in (start, *states)], lasts)
        radii[:, a] = np.repeat([s.radius for s in (start, *states)], lasts)
    return centers, radii


def cube_run_batch(d: int, n: int, replicas: int, seed: int):
    """Vectorized replicas; axis ``a`` of replica ``r`` draws stream ``(seed, r, a)``.

    Returns ``(scaled_max, edge_excess, centers)`` with shapes
    ``(replicas,)``, ``(replicas, d)``, ``(replicas, d)``.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    axes = [run_full_batch(UNIFORM_LAW, n, replicas, seed, path=(a,)) for a in range(d)]
    radii = np.column_stack([r for r, _ in axes])
    centers = np.column_stack([z for _, z in axes])
    excess = 2.0 * n * (2.0 * radii - 1.0)
    return excess.max(axis=1), excess, centers
