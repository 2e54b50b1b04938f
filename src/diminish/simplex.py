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
spacings of the uniform point), and batch rows replay it bit for bit.  A
change of the thinned chain consumes two (vertex pick, then height).

The full batch runner does not evaluate every step.  With ``e = m - rho``
the excess height, a step with uniforms ``u`` surely keeps the body when
``(e + eta) (-log1p(-u_max)) (1 + eta) < rho (1 - eta) (sum(u) - u_max)``:
only the largest of the weights ``w = -log1p(-u)`` can trigger a change,
every other one obeys ``w >= u``, and ``eta = 1e-12`` covers the rounding.
Each replica screens a window of steps on that test and jumps to the first
one it does not pass; only that one goes through the scalar step's kernels
on the same draws (see :func:`run_simplex_batch`);
:func:`~diminish.distributions.window_rounds` chunks the replicas.  A state
screens and steps itself on its own draws in the same way (``_hits``,
``_step``), and :func:`~diminish.distributions._change_walk` walks it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distributions import RngStream, replica_blocks, window_rounds
from .errors import DomainError, StateCorruptionError

__all__ = [
    "SimplexState",
    "vertex_matrix",
    "simplex_new",
    "apply_simplex_point",
    "offsets_after_point",
    "simplex_full_step",
    "change_probability",
    "to_barycentric",
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

    @property
    def _draws(self) -> int:  # uniforms per step
        return self.d + 1

    def _hits(self, u: np.ndarray) -> np.ndarray:
        """Window steps that fail the :func:`run_simplex_batch` screen."""
        return _screen_hits(u, _screen_scale(self.offsets[None], self.rho))

    def _step(self, u: np.ndarray) -> SimplexState:
        """The step on the d + 1 uniforms ``u``; the state itself when no offset moves.

        The state goes through the batch kernels as a single row, so batch rows
        replay it exactly.
        """
        o = offsets_after_point(self.offsets[None], _uniform_weights(u[None]), self.rho)[0]
        return self if np.array_equal(o, self.offsets) else SimplexState(self.d, o)


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
    vertices (normalized exponentials).
    """
    return s._step(rng.uniform(s._draws))


def change_probability(s: SimplexState) -> float:
    """Probability that the next step strictly shrinks the body: ``(d+1)(1 - rho/m)**d``."""
    return (s.d + 1) * (1.0 - s.rho / s.height) ** s.d


# ---------------------------------------------------------------------------
# Thinned barycentric chain for the limiting center.  Its weights express the
# current center in the vertices of the limit container (the
# (1/(d+1))-homothet of K); they stay nonnegative and sum to one.
# ---------------------------------------------------------------------------


def _vertex_pick(u, d: int):
    """Uniform vertex index in ``{0, ..., d}`` from uniforms ``u``."""
    return np.minimum((u * (d + 1)).astype(int), d)


def _thinned_draws(u, d: int):
    """Vertices ``xi`` and heights ``h = 1 - U**(1/d)`` from a ``(2, ...)`` block of uniforms."""
    return _vertex_pick(u[0], d), 1.0 - np.power(u[1], 1.0 / d)


def _thinned_update(w: np.ndarray, ell: np.ndarray, xi: np.ndarray, h: np.ndarray):
    """Move weight toward vertex ``xi`` and scale the excess by ``1 - h``, one chain per row.

    The shift is ``(d/(d+1)) excess h``; ``h = 0`` is a no-op.
    """
    d = w.shape[1] - 1
    shift = (d / (d + 1)) * ell * h
    w = w - shift[:, None]
    w[np.arange(len(w)), xi] += (d + 1) * shift
    return w, ell * (1.0 - h)


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


# ---------------------------------------------------------------------------
# Batch engines.
# ---------------------------------------------------------------------------


_CHUNK = 4096  # replicas per chunk of run_simplex_batch and run_thinned_batch
_SCREEN_ETA = 1e-12
# A thinned chain stops once its excess is below _THINNED_TOL, within
# _THINNED_TERMS changes; the terms are drawn in blocks of _THINNED_BLOCK on
# demand, and at d <= 5 every chain of a 10**4-row run ends inside the first.
_THINNED_TOL = 1e-12
_THINNED_TERMS = 1024
_THINNED_BLOCK = 256


def _screen_scale(offsets: np.ndarray, rho: float) -> np.ndarray:
    """Per-row factor ``(e + eta)(1 + eta) / (rho (1 - eta))`` of the screen, ``e = m - rho``."""
    eta = _SCREEN_ETA
    return (offsets.sum(axis=-1) - rho + eta) * ((1.0 + eta) / (rho * (1.0 - eta)))


def _screen_hits(draws: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Steps the screen cannot pass, for draws of shape ``(columns, steps, d + 1)``.

    ``hit[i, j]`` is false when ``w_max scale[i] < sum(u) - u_max``, with
    ``w_max = -log1p(-u_max)``: the step surely keeps the body (see
    :func:`run_simplex_batch`).  The maximum and the sum run over the d + 1
    strided draw columns, since a reduction over the short last axis costs
    more than the whole screen.
    """
    u = [draws[..., i] for i in range(draws.shape[-1])]
    top, rest = np.maximum(u[0], u[1]), np.add(u[0], u[1])
    for col in u[2:]:
        np.maximum(top, col, out=top)
        np.add(rest, col, out=rest)
    np.subtract(rest, top, out=rest)
    np.log1p(np.negative(top, out=top), out=top)
    np.multiply(top, -scale[:, None], out=top)
    return np.greater_equal(top, rest)


def run_simplex_batch(d: int, n: int, replicas: int, seed: int):
    """Vectorized full-process replicas; returns ``(heights, centers)``.

    Replica ``r`` consumes the uniforms of ``RngStream(seed, r)`` in
    trajectory order (``d + 1`` per step), and every step that can change
    its row goes through the scalar stepper's kernels, so row ``r`` replays
    :func:`simplex_full_step` on that stream bit for bit.

    The engine screens steps on their raw uniforms.  With ``m`` the row's
    height, ``e = m - rho`` and ``w_i = -log1p(-u_i)``, a step changes the
    body iff ``m w_i > rho W`` for some i, ``W = sum(w)``, that is iff
    ``e w_i > rho (W - w_i)``.  Only the largest weight can pass that test,
    and every other weight obeys ``w_j >= u_j``, so the step surely keeps
    the body when

        (e + eta) (-log1p(-u_max)) (1 + eta) < rho (1 - eta) (sum(u) - u_max),

    with ``eta = 1e-12``; the engine divides both sides by ``rho (1 - eta)``
    once per row (:func:`_screen_scale`).  That costs one ``log1p``, one
    maximum and one sum per step.  The additive ``eta`` makes the test sound
    in floating point.  The exact step's roundings (``log1p``, the sum ``W``,
    the division ``w_i / W``, the product with ``m``) move its test by a few
    ulp of ``rho`` on ``e``; the screen's own (``log1p``, ``sum(u)`` and its
    difference with ``u_max``) by a few ulp of ``u_max <= w_max`` on the
    right.  ``eta w_max`` outweighs both by orders of magnitude, also when
    the other uniforms are so small that ``w_j >= u_j`` leaves no slack.

    The rounds of :func:`~diminish.distributions.window_rounds` move each
    replica to its first step the screen does not pass (a candidate).  Only
    a candidate goes through :func:`_uniform_weights` and
    :func:`offsets_after_point`, exactly as the scalar step does; a candidate
    that keeps the body is an unchanged step, and a candidate that moves the
    row refreshes its screen factor.
    """
    e = vertex_matrix(d)
    rounds = window_rounds(seed, replicas, n, d + 1, _CHUNK)
    rho = 1.0 / d
    offsets = np.full((replicas, d + 1), 2.0 * rho / (d + 1))
    scale = _screen_scale(offsets, rho)
    for w in rounds:
        rows, at, _ = w.advance(_screen_hits(w.draws, scale[w.act]))
        if rows.size:
            cc = w.act[rows]
            offsets[cc] = offsets_after_point(offsets[cc], _uniform_weights(w.draws[rows, at]), rho)
            scale[cc] = _screen_scale(offsets[cc], rho)
    return offsets.sum(axis=1), -(d / (d + 1)) * (offsets @ e)


def run_thinned_batch(d: int, replicas: int, seed: int):
    """Limiting barycentric weights of independent thinned chains, shape (replicas, d+1).

    Each chain runs until its excess height is below ``1e-12`` (further
    motion of the weights is then below that), within 1024 changes.  The
    chain of replica ``r`` draws two uniforms per change from
    ``RngStream(seed, r)``, vertex then height, so its row does not depend
    on the chunking.  The chains run in chunks of ``_CHUNK`` replicas, and
    a chunk draws its changes in :func:`~diminish.distributions.replica_blocks`
    blocks of 256, the next one only while some chain of the chunk still
    runs: a chain needs about ``d log(1e12 / d)`` changes (130 at d = 5).
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    chunks = replica_blocks(seed, replicas, _THINNED_TERMS, 2, _CHUNK, block=_THINNED_BLOCK)
    out = np.empty((replicas, d + 1))
    for start, stop, blocks in chunks:
        w = np.full((stop - start, d + 1), 1.0 / (d + 1))
        ell = np.full(stop - start, 1.0 / d)
        for ut in (u[:, t] for u in blocks for t in range(u.shape[1])):
            active = ell >= _THINNED_TOL
            if not active.any():
                break
            xi, h = _thinned_draws(ut.T, d)
            w, ell = _thinned_update(w, ell, xi, np.where(active, h, 0.0))
        blocks.close()  # release the chunk's streams before the next chunk seeds its own
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
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if replicas < 1 or n_changes < 0:
        raise DomainError("replicas must be >= 1 and n_changes >= 0")
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
