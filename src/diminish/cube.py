"""The d-dimensional cube process as a product of independent interval processes.

A uniform point in an axis-aligned box has independent uniform coordinates,
so each axis of the cube process evolves as a one-dimensional interval
process.  No native d-dimensional sampler exists here by design; axis ``a``
of replica stream ``rng`` always draws from ``rng.substream(a)``, which makes
axis assignment a pure relabeling of sub-streams.

A cube trajectory is the union of its axes' changes: :func:`_walk` merges
the change walks of the axes' interval states
(:func:`~diminish.distributions._change_walk`).  The batch runner is one
:func:`~diminish.interval.run_full_batch` call per axis on paths ``(a,)``,
so it inherits the screened window engine and its replay contract: batch
row ``r`` equals the last state of :func:`_walk` on ``RngStream(seed, r)``
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .distributions import DfForm, RngStream, _change_walk
from .errors import DomainError
from .interval import interval_new, run_full_batch

__all__ = ["UNIFORM_LAW", "cube_run_batch"]

UNIFORM_LAW = DfForm(c=0.5, delta=1.0)


def _walk(d: int, n: int, rng: RngStream):
    """The changes of ``n`` cube steps on ``rng``: ``(steps, states)``.

    ``states[i]`` is the tuple of the d axis states from step ``steps[i]``
    on; axes that change at the same step give one entry.
    """
    if d < 1 or n < 1:
        raise DomainError("d and n must be >= 1")
    start = interval_new(UNIFORM_LAW)
    walks = [_change_walk(start, n, rng.substream(a)) for a in range(d)]
    axes, steps, states = [start] * d, [], []
    for t, a, s in sorted((t, a, s) for a, w in enumerate(walks) for t, s in zip(*w)):
        axes[a] = s
        if steps and steps[-1] == t:
            states.pop()
        else:
            steps.append(t)
        states.append(tuple(axes))
    return steps, states


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
