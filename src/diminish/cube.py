"""The d-dimensional cube process as a product of independent interval processes.

A uniform point in an axis-aligned box has independent uniform coordinates,
so each axis of the cube process evolves as a one-dimensional interval
process.  No native d-dimensional sampler exists here by design; axis ``a``
of replica stream ``rng`` always draws from ``rng.substream(a)``, which makes
axis assignment a pure relabeling of sub-streams.  The batch runner is one
:func:`~diminish.interval.run_full_batch` call per axis on paths ``(a,)``, so
it inherits the screened window engine and its replay contract:
batch row ``r`` equals :func:`cube_trajectory` on ``RngStream(seed, r)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .distributions import DfForm, RngStream
from .errors import DomainError
from .interval import interval_new, run_full_batch, step_full

__all__ = ["UNIFORM_LAW", "cube_trajectory", "cube_run_batch"]

UNIFORM_LAW = DfForm(c=0.5, delta=1.0)


def cube_trajectory(d: int, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of every axis after steps 0..n; shape (n+1, d)."""
    if d < 1 or n < 1:
        raise DomainError("d and n must be >= 1")
    centers = np.zeros((n + 1, d))
    radii = np.ones((n + 1, d))
    for a in range(d):
        axis_rng = rng.substream(a)
        state = interval_new(UNIFORM_LAW)
        for t in range(1, n + 1):
            state = step_full(state, axis_rng)
            centers[t, a] = state.center
            radii[t, a] = state.radius
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
