"""Regular d-simplex process: full geometric chain and thinned barycentric chain.

The reference body ``K`` is the regular d-simplex with centroid at the
origin, circumradius one, first vertex ``(1, 0, ..., 0)`` and inscribed
radius ``rho = 1/d``.  Every state of the process is an exact homothet of
``K``, so it is stored as the ``d + 1`` support values ``beta_i`` of the
current body in the fixed unit outer facet normals ``-e_i``:

    K_n = { x : <x, e_i> >= -beta_i  for all i }.

Scale, center and height are linear in the offsets: the height (vertex to
opposite facet) is simply ``sum(beta)``.  One step intersects with the
translate ``p + K``, i.e. ``beta_i <- min(beta_i, rho - <p, e_i>)``.  For a
point with barycentric weights ``lambda`` over the current vertices,
``<p, e_i> = m lambda_i - beta_i`` with ``m = sum(beta)``, so the step is
the closed form ``beta_i <- beta_i - max(0, m lambda_i - rho)``.

Draw discipline: the full step consumes ``d + 1`` uniforms (exponential
spacings of the uniform point), the thinned step consumes two (vertex pick,
then height) through the draw helper and row-wise update that the batch
engine uses, so batch rows replay scalar chains bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import RngStream, replica_blocks
from .errors import DomainError, StateCorruptionError

__all__ = [
    "SimplexState",
    "SimplexThinned",
    "vertex_matrix",
    "simplex_new",
    "apply_simplex_point",
    "offsets_after_point",
    "simplex_full_step",
    "change_probability",
    "simplex_thinned_new",
    "apply_simplex_thinned",
    "simplex_thinned_step",
    "simplex_perpetuity_step",
    "to_barycentric",
    "from_barycentric",
    "run_simplex_batch",
    "run_thinned_batch",
    "heights_after_changes",
]


@functools.lru_cache(maxsize=None)
def vertex_matrix(d: int) -> np.ndarray:
    """Vertices ``e_0..e_d`` of the reference simplex as rows of a (d+1, d) matrix.

    Unit circumradius, centroid zero, pairwise inner products ``-1/d``,
    ``e_0 = (1, 0, ..., 0)``.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if d == 1:
        out = np.array([[1.0], [-1.0]])
    else:
        sub = vertex_matrix(d - 1)
        out = np.zeros((d + 1, d))
        out[0, 0] = 1.0
        out[1:, 0] = -1.0 / d
        out[1:, 1:] = np.sqrt(1.0 - 1.0 / d**2) * sub
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SimplexState:
    """Facet-offset representation of a (shrinking) homothet of the reference simplex."""

    d: int
    offsets: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        o = np.asarray(self.offsets, dtype=float)
        if o.shape != (self.d + 1,):
            raise DomainError("offsets must have d + 1 entries")
        object.__setattr__(self, "offsets", o)
        rho = 1.0 / self.d
        m = float(o.sum())
        if not (rho - 1e-9 <= m <= 2.0 * rho + 1e-9):
            raise StateCorruptionError(f"height {m} outside [rho, 2 rho]")

    @property
    def rho(self) -> float:
        return 1.0 / self.d

    @property
    def height(self) -> float:
        return float(self.offsets.sum())

    @property
    def scale(self) -> float:
        return self.height / ((self.d + 1) * self.rho)

    @property
    def center(self) -> np.ndarray:
        e = vertex_matrix(self.d)
        return -(self.d / (self.d + 1)) * (self.offsets @ e)

    def vertices(self) -> np.ndarray:
        """Current vertex positions, rows aligned with the reference vertices."""
        return self.scale * vertex_matrix(self.d) + self.center


def simplex_new(d: int) -> SimplexState:
    """Initial body: the (2/(d+1))-homothet of K, height ``2 rho``."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    rho = 1.0 / d
    return SimplexState(d, np.full(d + 1, 2.0 * rho / (d + 1)))


def apply_simplex_point(s: SimplexState, p) -> SimplexState:
    """Intersect the current body with ``p + K``."""
    p = np.asarray(p, dtype=float)
    e = vertex_matrix(s.d)
    return SimplexState(s.d, np.minimum(s.offsets, s.rho - e @ p))


def offsets_after_point(offsets: np.ndarray, lam: np.ndarray, rho: float) -> np.ndarray:
    """Offsets after intersecting with ``p + K``, one replica per row.

    ``lam`` holds the barycentric weights of ``p`` over the current
    vertices.  Facet i moves in by ``m lambda_i - rho`` when that is
    positive, ``m`` being the row's height; otherwise the row is returned
    unchanged.
    """
    return offsets - np.maximum(0.0, offsets.sum(axis=-1, keepdims=True) * lam - rho)


def _uniform_weights(u: np.ndarray) -> np.ndarray:
    """Barycentric weights of a uniform point (normalized exponentials), per row of ``u``."""
    w = -np.log1p(-u)
    return w / w.sum(axis=-1, keepdims=True)


def simplex_full_step(s: SimplexState, rng: RngStream) -> SimplexState:
    """Choose a uniform point in the current body and intersect.

    Uniformity via symmetric Dirichlet(1, ..., 1) weights over the current
    vertices (normalized exponentials).  The state goes through the batch
    kernel as a single row, so batch rows replay it exactly.
    """
    lam = _uniform_weights(rng.uniform((1, s.d + 1)))
    return SimplexState(s.d, offsets_after_point(s.offsets[None], lam, s.rho)[0])


def change_probability(s: SimplexState) -> float:
    """Probability that the next step strictly shrinks the body: ``(d+1)(1 - rho/m)**d``."""
    return (s.d + 1) * (1.0 - s.rho / s.height) ** s.d


# ---------------------------------------------------------------------------
# Thinned barycentric chain for the limiting center.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimplexThinned:
    """Barycentric center weights of the shrinking body and its excess height.

    The weights express the current center in the vertices of the limit
    container (the (1/(d+1))-homothet of K); they stay nonnegative and sum
    to one.
    """

    weights: np.ndarray
    excess: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise DomainError("thinned simplex needs its weights in one vector")
        _check_weights(w)
        d = len(w) - 1
        if not (0.0 <= self.excess <= 1.0 / d + 1e-12):
            raise DomainError(f"excess must lie in (0, rho], got {self.excess}")


def _check_weights(w: np.ndarray) -> None:
    """Require ``d + 1 >= 2`` weights per point (last axis), summing to 1, none negative."""
    if w.ndim == 0 or w.shape[-1] < 2:
        raise DomainError("barycentric weights need d + 1 >= 2 entries per point")
    if not np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-12 * (w.shape[-1] + 1)):
        raise DomainError("barycentric weights must sum to 1")
    if np.any(w < -1e-12):
        raise DomainError("barycentric weights must be nonnegative")


def simplex_thinned_new(d: int) -> SimplexThinned:
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return SimplexThinned(np.full(d + 1, 1.0 / (d + 1)), 1.0 / d)


def _vertex_pick(u, d: int):
    """Uniform vertex index in ``{0, ..., d}`` from uniforms ``u``."""
    return np.minimum((u * (d + 1)).astype(int), d)


def _thinned_draws(u, d: int):
    """Vertices ``xi`` and heights ``h = 1 - U**(1/d)`` from a ``(2, ...)`` block of uniforms."""
    return _vertex_pick(u[0], d), 1.0 - np.power(u[1], 1.0 / d)


def _thinned_update(w: np.ndarray, ell: np.ndarray, xi: np.ndarray, h: np.ndarray):
    """The update of :func:`apply_simplex_thinned`, one chain per row; ``h = 0`` is a no-op."""
    d = w.shape[1] - 1
    shift = (d / (d + 1)) * ell * h
    w = w - shift[:, None]
    w[np.arange(len(w)), xi] += (d + 1) * shift
    return w, ell * (1.0 - h)


def apply_simplex_thinned(s: SimplexThinned, xi: int, h: float) -> SimplexThinned:
    """Shift weight toward vertex ``xi`` by ``(d/(d+1)) * excess * h``; scale excess by ``1-h``."""
    if not 0 <= xi < len(s.weights):
        raise DomainError("vertex index out of range")
    if not 0.0 <= h <= 1.0:
        raise DomainError("h must lie in [0, 1]")
    w, ell = _thinned_update(s.weights[None], np.array([s.excess]), np.array([xi]), np.array([h]))
    if float(w.min()) < -1e-12:
        raise StateCorruptionError("thinned update drove a barycentric weight negative")
    return SimplexThinned(w[0], float(ell[0]))


def simplex_thinned_step(s: SimplexThinned, rng: RngStream) -> SimplexThinned:
    """Draw the target vertex uniformly and the height from the base law."""
    xi, h = _thinned_draws(rng.uniform((2, 1)), len(s.weights) - 1)
    return apply_simplex_thinned(s, int(xi[0]), float(h[0]))


def simplex_perpetuity_step(weights, rng: RngStream):
    """Fixed-point update of the limit law: ``h u_xi + (1 - h) Lambda``.

    ``weights`` has shape (d+1,) or (N, d+1), rows of barycentric weights; one update per row.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    _check_weights(w)
    xi, h = _thinned_draws(rng.uniform((2, len(w))), w.shape[1] - 1)
    out = (1.0 - h)[:, None] * w
    out[np.arange(len(w)), xi] += h
    return out[0] if np.asarray(weights).ndim == 1 else out


# ---------------------------------------------------------------------------
# Barycentric coordinates of points in the limit container.
# ---------------------------------------------------------------------------


def to_barycentric(center, d: int) -> np.ndarray:
    """Unique weights with ``center = sum w_i e_i/(d+1)``, ``sum w_i = 1``, ``w_i >= 0``.

    The reference-simplex frame makes this closed-form:
    ``w_i = 1/(d+1) + d <center, e_i>``.
    """
    center = np.asarray(center, dtype=float)
    e = vertex_matrix(d)
    w = 1.0 / (d + 1) + d * (e @ center)
    if float(w.min()) < -1e-9:
        raise DomainError("center lies outside the limit container")
    return w


def from_barycentric(weights, d: int) -> np.ndarray:
    """Point of the limit container with the given weights."""
    weights = np.asarray(weights, dtype=float)
    return (weights @ vertex_matrix(d)) / (d + 1)


# ---------------------------------------------------------------------------
# Batch engines.
# ---------------------------------------------------------------------------


_CHUNK = 4096  # replicas per chunk of run_simplex_batch
_THINNED_TOL = 1e-12
_THINNED_TERMS = 1024
_THINNED_CHUNK = 512


def run_simplex_batch(d: int, n: int, replicas: int, seed: int):
    """Vectorized full-process replicas; returns ``(heights, centers)``.

    Replica ``r`` consumes the uniforms of ``RngStream(seed, r)`` in
    trajectory order (``d + 1`` per step), matching the scalar stepper.
    """
    chunks = replica_blocks(seed, replicas, n, d + 1, _CHUNK)
    e = vertex_matrix(d)
    rho = 1.0 / d
    heights = np.empty(replicas)
    centers = np.empty((replicas, d))
    for start, stop, blocks in chunks:
        offsets = np.full((stop - start, d + 1), 2.0 * rho / (d + 1))
        for u in blocks:
            for t in range(u.shape[1]):
                offsets = offsets_after_point(offsets, _uniform_weights(u[:, t]), rho)
        heights[start:stop] = offsets.sum(axis=1)
        centers[start:stop] = -(d / (d + 1)) * (offsets @ e)
    return heights, centers


def run_thinned_batch(d: int, replicas: int, seed: int):
    """Limiting barycentric weights of independent thinned chains, shape (replicas, d+1).

    Each chain runs until its excess height is below ``1e-12`` (further
    motion of the weights is then below that), within 1024 changes; replica
    ``r`` replays the scalar stepper on ``RngStream(seed, r)`` bit for bit.
    """
    out = np.empty((replicas, d + 1))
    for start, stop, blocks in replica_blocks(seed, replicas, _THINNED_TERMS, 2, _THINNED_CHUNK):
        w = np.full((stop - start, d + 1), 1.0 / (d + 1))
        ell = np.full(stop - start, 1.0 / d)
        for ut in (u[:, t] for u in blocks for t in range(u.shape[1])):
            active = ell >= _THINNED_TOL
            if not active.any():
                break
            xi, h = _thinned_draws(ut.T, d)
            w, ell = _thinned_update(w, ell, xi, np.where(active, h, 0.0))
        if (ell >= _THINNED_TOL).any():
            raise StateCorruptionError("thinned chain failed to converge within 1024 changes")
        out[start:stop] = w
    if out.min() < -1e-12:
        raise StateCorruptionError("thinned batch drove a barycentric weight negative")
    return out


def heights_after_changes(d: int, n_changes: int, replicas: int, seed: int):
    """Full-process height right after the ``n_changes``-th strict shrink, per replica.

    Steps that change nothing leave the state untouched, so the embedded
    jump chain is simulated directly: a state of height ``m`` has ``d + 1``
    change caps, each the ``s``-homothet of the body anchored at a vertex,
    ``s = (m - rho)/m`` (equal volumes), and a changing point is uniform in
    their union.  A uniform point with weights ``lambda``, mapped into the
    cap at vertex ``j``, has weights ``s lambda`` plus ``1 - s`` on vertex
    ``j``; it then goes through the ordinary offset update, and no height
    law is assumed anywhere.  Shared-stream vectorized diagnostic.
    """
    rho = 1.0 / d
    rng = RngStream(seed)
    offsets = np.full((replicas, d + 1), 2.0 * rho / (d + 1))
    rows = np.arange(replicas)
    for _ in range(n_changes):
        corner = _vertex_pick(rng.uniform(replicas), d)
        m = offsets.sum(axis=1)
        s = (m - rho) / m
        lam = s[:, None] * _uniform_weights(rng.uniform((replicas, d + 1)))
        lam[rows, corner] += 1.0 - s
        new = offsets_after_point(offsets, lam, rho)
        if not np.all(new.sum(axis=1) < m - 1e-15):
            raise StateCorruptionError("cap point failed to shrink the body")
        offsets = new
    return offsets.sum(axis=1)
