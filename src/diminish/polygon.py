"""Exact regular-k-gon diminishing process on a fixed normal fan.

The reference body ``K`` is the regular k-gon with circumradius one,
centroid at the origin and ``(0, 1)`` among its vertices.  Every state is an
intersection of translates of ``K``, hence a polygon whose sides lie on k
fixed lines ``<x, q_i> = o_i``; the state is just the offset vector ``o``.
The constraint directions ``q_i`` are the inner side normals of ``K``; for
odd k these coincide with the vertex directions (each side faces the
opposite vertex), for even k they point at side midpoints.  In both cases
the support of a translate ``p + K`` in direction ``-q_i`` is
``rho_k - <p, q_i>`` with ``rho_k = cos(pi/k)``, so one step is

    o_i <- max(o_i, <p, q_i> - rho_k),   p uniform in the current polygon.

Heights are widths along the ``q_i``: for odd k the distance from vertex
``A_i`` to the opposite side, initially ``1 + rho_k``; for even k the
opposite-side slab width, initially ``2 rho_k``.  Change-region membership
is read off the offsets: side i can move only for points with
``<p, q_i> >= o_i + rho_k``.

One kernel, :func:`_cycles`, computes the geometry of a block of offset
columns (the batch engine's replicas; a scalar state is one column): the
candidate cycle of consecutive side-line intersections, its supports, heights
and fan areas.  A column whose cycle fails feasibility (a redundant side,
possible for k >= 6) is rebuilt from its true supports, read off the feasible
side-pair vertices; the cycle then repeats a vertex at each redundant side,
and its (C,) bool mask ``tightened`` marks the rebuilt columns.  The stored
offsets stay raw.  One area-weighted fan sampler draws the points, three
uniforms per step; :func:`_lifts` tests which points raise an offset and
:func:`_raise` raises them, so scalar and batch trajectories agree bit for bit.
Cap areas and reducedness are closed forms on the same cycle columns
(:func:`_caps`), and a snapshot reads their column 0; nothing here clips.
A state owns its offsets as a read-only copy, so its cycle, its snapshot and
its inscribed circle (:func:`chebyshev_center`) are each computed once, on
first use, and cached beside it.

A state stays fixed between two changes, and late in a run almost every step
misses every cap.  The batch engine therefore runs in windows: each replica
draws a window of steps from its current geometry in one vector call and
jumps to the first step that raises an offset, with the same strict test the
scalar step applies.  Only replicas that changed recompute their geometry,
and an unchanged step adds nothing new to any accumulator.
:func:`~diminish.distributions.window_rounds` chunks the replicas.  A state
screens and steps itself on its own draws in the same way (``_hits``,
``_step``), and :func:`~diminish.distributions._change_walk` walks it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RngStream, window_rounds
from .errors import DomainError, StateCorruptionError

__all__ = [
    "PolygonState",
    "PolygonSnapshot",
    "BoundConstants",
    "polygon_new",
    "snapshot",
    "sample_point",
    "apply_polygon_point",
    "polygon_step",
    "pentagon_residual",
    "bound_constants",
    "chebyshev_center",
    "reference_directions",
    "reference_vertices",
    "run_polygon_batch",
    "PolygonBatchResult",
]

_FEAS_EPS = 1e-9
_EPS = 1e-12  # side-pair vertex feasibility; positive cap and overlap areas
_CHUNK = 16384  # replicas per chunk of run_polygon_batch

GOLDEN_LAMBDA = (math.sqrt(5.0) + 1.0) / 2.0


@functools.lru_cache(maxsize=None)
def reference_vertices(k: int) -> np.ndarray:
    """Vertices of ``K`` in counterclockwise order, ``(0, 1)`` first."""
    ang = 0.5 * math.pi + 2.0 * math.pi * np.arange(k) / k
    out = np.column_stack([np.cos(ang), np.sin(ang)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def reference_directions(k: int) -> np.ndarray:
    """Constraint directions ``q_1..q_k`` (inner side normals), CCW.

    For odd k these are the vertex directions with ``q_1`` down-left so that
    the side ``q_1 q_2`` of ``K`` is the horizontal bottom side.
    """
    if k % 2 == 1:
        ang = 1.5 * math.pi - math.pi / k + 2.0 * math.pi * np.arange(k) / k
    else:
        ang = 1.5 * math.pi + math.pi / k + 2.0 * math.pi * np.arange(k) / k
    out = np.column_stack([np.cos(ang), np.sin(ang)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _fan(k: int):
    """Kernel constants: directions, inverses of ``[[q_i], [q_{i+1}]]``, ``i + 1 mod k``."""
    dirs = np.asarray(reference_directions(k))
    inv = np.linalg.inv(np.stack([dirs, np.roll(dirs, -1, axis=0)], axis=1))
    nxt = np.roll(np.arange(k), -1)
    inv.setflags(write=False)
    nxt.setflags(write=False)
    return dirs, inv, nxt


@functools.lru_cache(maxsize=None)
def _pair_inverses(k: int):
    """Side pairs ``(i, j)`` whose lines meet, with the inverses of ``[[q_i], [q_j]]``."""
    pairs = np.array([p for p in itertools.combinations(range(k), 2) if 2 * (p[1] - p[0]) != k])
    inv = np.linalg.inv(np.asarray(reference_directions(k))[pairs])
    pairs.setflags(write=False)
    inv.setflags(write=False)
    return pairs, inv


@dataclass(frozen=True, eq=False)
class PolygonState:
    """Offset vector of the current polygon on the fixed fan of side lines."""

    k: int
    offsets: np.ndarray

    def __post_init__(self):
        if self.k < 5:
            raise DomainError(f"k must be >= 5, got {self.k}")
        o = np.array(self.offsets, dtype=float)  # the state's own copy: its caches read it
        if o.shape != (self.k,):
            raise DomainError("offsets must have k entries")
        if not np.isfinite(o).all():
            raise StateCorruptionError("offsets must be finite")
        o.setflags(write=False)
        object.__setattr__(self, "offsets", o)

    @property
    def rho(self) -> float:
        return math.cos(math.pi / self.k)

    @property
    def directions(self) -> np.ndarray:
        return reference_directions(self.k)

    _draws = 3  # uniforms per step

    def _hits(self, u: np.ndarray) -> np.ndarray:
        """Window steps whose points raise an offset (:func:`_lifts`); ``u`` is (1, W, 3)."""
        return _lifts(self.offsets[:, None], *_state_points(self, u.transpose(2, 0, 1)))

    def _step(self, u: np.ndarray) -> PolygonState:
        """The step on the three uniforms ``u``: :func:`apply_polygon_point` at their point."""
        px, py = _state_points(self, u.reshape(3, 1, 1))
        return apply_polygon_point(self, (px[0, 0], py[0, 0]))

    @functools.cached_property
    def _cycle(self) -> _Cycle:  # the state's geometry as a one-column block
        return _cycles(self.offsets[:, None])

    @functools.cached_property
    def _snapshot(self) -> PolygonSnapshot:  # column 0 of the cycle and of its caps
        g = self._cycle
        area = float(g.area[0])
        if not area > 0.0:
            raise StateCorruptionError("offset polygon degenerated to zero area")
        heights = g.heights[:, 0]
        caps, reduced = _caps(g.x, g.y)
        return PolygonSnapshot(
            k=self.k,
            boundary=np.column_stack([g.x[:, 0], g.y[:, 0]]),
            heights=heights,
            max_height=float(heights.max()),
            area=area,
            region_areas=caps[:, 0],
            change_area=float(caps[:, 0].sum()),
            reduced=bool(reduced[0]),
        )

    @functools.cached_property
    def _inscribed(self) -> tuple[np.ndarray, float]:  # see chebyshev_center
        return _inscribed_circle(self.k, self.offsets)


@dataclass(frozen=True, eq=False)
class PolygonSnapshot:
    """Derived geometry of one state.

    ``boundary`` is the CCW candidate cycle, always k entries: entry i is
    where side lines i and i+1 meet, so a degenerate state (a redundant side)
    repeats the vertex its redundant side lines pass through.
    ``region_areas[i]`` is the area of the cap above ``o_i' + rho`` and
    ``reduced`` reports pairwise disjointness of the positive caps, decided
    geometrically.
    """

    k: int
    boundary: np.ndarray
    heights: np.ndarray
    max_height: float
    area: float
    region_areas: np.ndarray
    change_area: float
    reduced: bool


def polygon_new(k: int) -> PolygonState:
    """Start from the reference polygon itself: all offsets ``-rho_k``."""
    if k < 5:
        raise DomainError(f"k must be >= 5, got {k}")
    return PolygonState(k, np.full(k, -math.cos(math.pi / k)))


class _Cycle(NamedTuple):
    """Candidate cycles of a block of offset columns; replicas along axis 1."""

    x: np.ndarray  # (k, C) candidate i: side lines i and i+1 meet
    y: np.ndarray
    slack: np.ndarray  # (C,) min over sides j, candidates i of <cand_i, q_j> - o_j
    heights: np.ndarray  # (k, C) widths along the q_j
    cum: np.ndarray  # (k - 2, C) cumulative fan-triangle areas from candidate 0
    area: np.ndarray  # (C,)
    tightened: np.ndarray  # (C,) bool: columns rebuilt from their true supports


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<cand_i, q_j>`` of cycles ``x, y`` (k, C), as (direction j, candidate i, column)."""
    k, c = x.shape
    flat = np.empty((2, k * c))
    flat[0] = x.reshape(-1)
    flat[1] = y.reshape(-1)
    return (_fan(k)[0] @ flat).reshape(k, k, c)


def _pair_vertices(a: np.ndarray) -> np.ndarray:
    """Crossings (P, 2, C) of lines ``<x, q_i> = a_i``, ``<x, q_j> = a_j``, (i, j) the side pairs."""
    pairs, inv = _pair_inverses(len(a))
    return inv[:, :, :1] * a[pairs[:, 0], None] + inv[:, :, 1:] * a[pairs[:, 1], None]


def _cycle_kernel(o: np.ndarray) -> _Cycle:
    """Candidate cycles of columns ``o`` (k, C), valid where ``slack >= -eps``; none tightened."""
    k, c = o.shape
    _, inv, nxt = _fan(k)
    o_next = o[nxt]
    cand_x = inv[:, 0, 0, None] * o + inv[:, 0, 1, None] * o_next
    cand_y = inv[:, 1, 0, None] * o + inv[:, 1, 1, None] * o_next
    dots = _dots(cand_x, cand_y)
    mind = dots.min(axis=1)
    slack = (mind - o).min(axis=0)
    heights = dots.max(axis=1) - mind
    rel_x = cand_x[1:] - cand_x[0]
    rel_y = cand_y[1:] - cand_y[0]
    # cumsum adds in index order at every width, so a column's area does not
    # depend on how many columns share the call
    cum = np.cumsum(0.5 * (rel_x[:-1] * rel_y[1:] - rel_y[:-1] * rel_x[1:]), axis=0)
    return _Cycle(cand_x, cand_y, slack, heights, cum, cum[-1], np.zeros(c, dtype=bool))


def _true_supports(o: np.ndarray) -> np.ndarray:
    """Offsets ``max(o_i, min <v, q_i>)`` of columns ``o`` (k, C), v the polygon's vertices.

    The vertices are the feasible side-pair vertices (antiparallel sides of
    even k never meet).  Every side line then touches the polygon, which
    makes its candidate cycle valid.  The arithmetic is elementwise, so a
    column's result does not depend on the block width.
    """
    dirs = _fan(len(o))[0]
    v = _pair_vertices(o)
    dots = dirs[:, 0, None, None] * v[:, 0] + dirs[:, 1, None, None] * v[:, 1]  # (side, pair, C)
    feasible = (dots - o[:, None, :]).min(axis=0) >= -_EPS
    if not feasible.any(axis=0).all():
        raise StateCorruptionError("offset polygon is empty")
    return np.maximum(o, np.where(feasible, dots, np.inf).min(axis=1))


def _cycles(o: np.ndarray) -> _Cycle:
    """The one candidate-cycle geometry, for the batch engine and scalar states alike.

    Columns whose raw cycle is infeasible are re-run on their true supports
    and scattered back; ``tightened`` marks them.
    """
    g = _cycle_kernel(o)
    bad = g.slack < -_FEAS_EPS
    if bad.any():
        fix = _cycle_kernel(_true_supports(o[:, bad]))
        if (fix.slack < -_FEAS_EPS).any():
            raise StateCorruptionError("candidate cycle infeasible on the true supports")
        for whole, part in zip(g, fix):
            whole[..., bad] = part
        g.tightened[bad] = True
    return g


def _fan_points(x, y, cum, area, u: np.ndarray):
    """Uniform points ``(px, py)``, each (C, W), of cycles from draws ``u`` (3, C, W).

    ``x, y, cum, area`` are those :class:`_Cycle` fields.  Column c draws W
    points of its own cycle.  ``u[0]`` picks a fan triangle from candidate 0
    by area; ``u[1], u[2]`` are its barycentric weights, reflected when they
    sum past one.  The arithmetic is elementwise, so a point does not depend
    on the shape of the call or on whether its columns are views.
    """
    c = x.shape[1]
    # cum[-1] is the area itself and u < 1 gives fl(u * area) <= area, so the
    # last compare never holds: the pick stops at triangle k - 3 unclamped
    idx = (cum[:-1, :, None] < u[0] * area[:, None]).sum(axis=0)
    b = idx * c + np.arange(c)[:, None]  # triangle (0, idx + 1, idx + 2) of each column
    bc = b + c
    ex, ey = (x[1:] - x[0]).ravel(), (y[1:] - y[0]).ravel()  # candidate j + 1 - candidate 0
    a2, a3 = u[1], u[2]
    refl = a2 + a3 > 1.0
    a2 = np.where(refl, 1.0 - a2, a2)
    a3 = np.where(refl, 1.0 - a3, a3)
    px = x[0, :, None] + a2 * ex.take(b) + a3 * ex.take(bc)
    return px, y[0, :, None] + a2 * ey.take(b) + a3 * ey.take(bc)


def _lifts(o: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Which points ``(px, py)`` (C, W) raise some offset of columns ``o`` (k, C).

    Point p raises side i iff ``<p, q_i> - rho > o_i``, the strict test under
    which :func:`_raise` changes ``o``.  In place, one side at a time: fresh
    (C, W) temporaries cost about as much as the arithmetic.
    """
    rho = math.cos(math.pi / len(o))
    lifts = np.zeros(px.shape, dtype=bool)
    t, s, b = np.empty_like(px), np.empty_like(px), np.empty_like(lifts)
    for (qx, qy), oi in zip(_fan(len(o))[0], o):
        np.multiply(qx, px, out=t)
        t += np.multiply(qy, py, out=s)
        t -= rho
        lifts |= np.greater(t, oi[:, None], out=b)
    return lifts


def _raise(o: np.ndarray, px, py) -> np.ndarray:
    """Offsets ``max(o_i, <p, q_i> - rho)``: ``o`` (k, C) after points (C,), or (k,) after one."""
    dirs = _fan(len(o))[0]
    lift = np.multiply.outer(dirs[:, 0], px) + np.multiply.outer(dirs[:, 1], py)
    return np.maximum(o, lift - math.cos(math.pi / len(o)))


def _caps(x: np.ndarray, y: np.ndarray):
    """Cap areas (k, C) and reducedness (C,) of cycles ``x, y`` (k, C), in closed form.

    Cap i lies above the cut line ``<x, q_i> = l_i``, ``l_i = min_j <b_j,
    q_i> + rho``.  ``d[j, i]`` is the height of vertex ``b_j`` above it, so
    edge j (``b_j`` to ``b_{j+1}``) lies in cap i for ``t`` in ``[t0, t1]``.
    With the origin at a point ``z`` on every chord of a region, the chords
    add nothing to the shoelace sum and the area is ``1/2 sum_j (t1 - t0)
    cross(b_j - z, e_j)``: ``z = l_i q_i`` for cap i, the cut lines' crossing
    for the overlap of caps i and j.  Sums run over the leading vertex axis,
    in index order at every block width.  Antiparallel caps never overlap,
    since a width never exceeds its starting value ``2 rho``.
    """
    k = len(x)
    dirs, _, nxt = _fan(k)
    dots = _dots(x, y)
    levels = dots.min(axis=1) + math.cos(math.pi / k)  # (cap i, C)
    d = dots.transpose(1, 0, 2) - levels  # (vertex j, cap i, C)
    ex, ey = x[nxt] - x, y[nxt] - y
    bxe = (x * ey - y * ex)[:, None]

    def area(t0, t1, zx, zy):
        cross = bxe - (zx * ey[:, None] - zy * ex[:, None])
        return 0.5 * (np.maximum(t1 - t0, 0.0) * cross).sum(axis=0)

    d_next = d[nxt]
    inside, inside_next = d >= 0.0, d_next >= 0.0
    t = np.divide(d, d - d_next, out=np.zeros_like(d), where=inside != inside_next)
    t0, t1 = np.where(inside, 0.0, t), np.where(inside_next, 1.0, t)
    areas = np.maximum(area(t0, t1, levels * dirs[:, :1], levels * dirs[:, 1:]), 0.0)
    i, j = _pair_inverses(k)[0].T
    z = _pair_vertices(levels)
    overlap = area(np.maximum(t0[:, i], t0[:, j]), np.minimum(t1[:, i], t1[:, j]), z[:, 0], z[:, 1])
    positive = areas > _EPS
    return areas, ~(positive[i] & positive[j] & (overlap > _EPS)).any(axis=0)


def snapshot(s: PolygonState) -> PolygonSnapshot:
    """Full derived geometry; computed once per state and cached."""
    return s._snapshot


def _state_points(s: PolygonState, u: np.ndarray):
    """Uniform points ``(px, py)`` of the state from draws ``u`` (3, 1, W); see :func:`_fan_points`."""
    g = s._cycle
    if g.area[0] <= 1e-12:
        raise DomainError("cannot sample from a zero-area region")
    return _fan_points(g.x, g.y, g.cum, g.area, u)


def sample_point(s: PolygonState, rng: RngStream) -> np.ndarray:
    """Uniform point in the current polygon (three uniforms per call)."""
    px, py = _state_points(s, rng.uniform((3, 1, 1)))
    return np.array([px[0, 0], py[0, 0]])


def apply_polygon_point(s: PolygonState, p) -> PolygonState:
    """Intersect with ``p + K``: :func:`_raise` the offsets, as the batch does.

    A point that misses every cap returns ``s`` itself, with its cached geometry.
    """
    p = np.asarray(p, dtype=float)
    o = _raise(s.offsets, p[0], p[1])
    return s if np.array_equal(o, s.offsets) else PolygonState(s.k, o)


def polygon_step(s: PolygonState, rng: RngStream) -> PolygonState:
    """One process step; the state is unchanged when the point misses all caps."""
    return s._step(rng.uniform(s._draws))


# ---------------------------------------------------------------------------
# Pentagon analytics.
# ---------------------------------------------------------------------------


def pentagon_residual(m) -> float:
    """``m_2 + lambda m_1 - m_3 - lambda m_4``; zero for every equal-angle pentagon."""
    m = np.asarray(m, dtype=float)
    if m.shape[-1] != 5:
        raise DomainError("pentagon residual needs five heights")
    out = m[..., 1] + GOLDEN_LAMBDA * m[..., 0] - m[..., 2] - GOLDEN_LAMBDA * m[..., 3]
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Rate-bound constants and envelope CDFs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the odd-k rate bounds, with the limit envelope of the excess."""

    k: int
    c1: float
    delta1: float
    c2: float
    c3: float

    def rate_envelope_upper(self, x):
        """Limit upper envelope for the survival of ``sqrt(c3 n) (m_n - rho_k)``."""
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return 1.0 - (1.0 - np.exp(-(x**2) / self.k)) ** self.k


def bound_constants(k: int) -> BoundConstants:
    if k < 5:
        raise DomainError(f"k must be >= 5, got {k}")
    c1 = math.tan((k - 2) * math.pi / (2 * k))
    delta1 = math.tan(math.asin(1.0 / 20.0))
    return BoundConstants(
        k=k, c1=c1, delta1=delta1, c2=100.0 * k * c1 / math.pi, c3=delta1 / math.pi
    )


# ---------------------------------------------------------------------------
# Largest inscribed circle (Chebyshev center of the constraint set).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _triple_inverses(k: int):
    """All side triples and the inverses of their ``[q_i q_j q_l | -1]`` systems.

    Three distinct points of the unit circle are never collinear, so no
    system is singular (the smallest |det| at k = 10 is 0.22).
    """
    triples = np.array(list(itertools.combinations(range(k), 3)))
    dirs = np.asarray(reference_directions(k))
    mats = np.concatenate([dirs[triples], -np.ones((len(triples), 3, 1))], axis=2)
    inv = np.linalg.inv(mats)
    triples.setflags(write=False)
    inv.setflags(write=False)
    return triples, inv


def _inscribed_circle(k: int, o: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest circle inside ``<x, q_i> >= o_i``.

    The LP ``max r`` subject to ``<x, q_i> - r >= o_i`` attains its optimum
    at a vertex where three constraints are active, so the center is the
    largest feasible radius among the closed-form solutions of all C(k, 3)
    triples; this holds for every k, parallel sides of even k included.
    """
    triples, inv = _triple_inverses(k)
    sol = np.einsum("tab,tb->ta", inv, o[triples])  # rows (x, y, r)
    r = sol[:, 2]
    slack = sol[:, :2] @ np.asarray(reference_directions(k)).T - o - r[:, None]
    feasible = (slack.min(axis=1) >= -_FEAS_EPS) & (r >= 0.0)
    if not feasible.any():
        raise StateCorruptionError("no feasible inscribed circle found")
    best = int(np.argmax(np.where(feasible, r, -np.inf)))
    return sol[best, :2].copy(), float(r[best])


def chebyshev_center(s: PolygonState) -> tuple[np.ndarray, float]:
    """Center and radius of the largest circle inside the constraint set.

    Solved once per state and cached (:func:`_inscribed_circle`); the center
    returned is the caller's own copy.
    """
    center, radius = s._inscribed
    return center.copy(), radius


# ---------------------------------------------------------------------------
# Vectorized batch engine.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolygonBatchResult:
    """Per-replica outcomes and whole-trajectory invariant accumulators."""

    k: int
    n: int
    final_heights: np.ndarray
    final_area: np.ndarray
    max_height: np.ndarray
    area_min: np.ndarray
    area_max: np.ndarray
    max_residual: np.ndarray | None
    min_slack: np.ndarray
    max_height_rise: np.ndarray
    fallback_steps: np.ndarray


def run_polygon_batch(k: int, n: int, replicas: int, seed: int) -> PolygonBatchResult:
    """Run independent polygon replicas, vectorized across replicas and steps.

    Replica ``r`` consumes the uniforms of ``RngStream(seed, r)`` in
    trajectory order (three per step), and every point comes from the same
    geometry kernel and fan sampler as :func:`polygon_step`, so each row
    replays the scalar trajectory bit for bit.

    The engine runs in the rounds of
    :func:`~diminish.distributions.window_rounds`.  A round draws the next
    window of steps of every replica from its current geometry and finds the
    first step whose point raises an offset (:func:`_lifts`).  A
    replica without one advances the whole window; a replica whose first
    change is window step f advances f + 1 steps, takes that point's
    offsets, and only such replicas go through :func:`_cycles` again.
    A round reads the replicas' state in place: its replica ids ascend, and
    when they run without a gap (almost every round) the cycle arrays,
    offsets and accumulators are indexed through one slice, a view.  Other
    rounds gather only the fields they read (the fan sampler's four cycle
    fields, the offsets and ``tightened``), never whole cycles.

    All n + 1 states of a row feed the accumulators.  An unchanged step
    repeats the state, so it leaves the area, slack and residual extremes as
    they are, adds 0 to ``max_height_rise`` and adds its state's flag to
    ``fallback_steps``, which counts the states whose candidate cycle had to
    be rebuilt from true supports (degenerate k-gons, k >= 6); ``min_slack``
    is taken over the cycles actually used.
    """
    if k < 5:
        raise DomainError(f"k must be >= 5, got {k}")
    is_pentagon = k == 5

    rounds = window_rounds(seed, replicas, n, 3, _CHUNK)
    area_min = np.full(replicas, np.inf)
    area_max = np.full(replicas, -np.inf)
    max_residual = np.zeros(replicas) if is_pentagon else None
    min_slack = np.full(replicas, np.inf)
    max_rise = np.full(replicas, -np.inf)
    fallback = np.zeros(replicas, dtype=int)

    def enter(cols, new: _Cycle):
        """Feed the new states of replicas ``cols`` to the accumulators."""
        fallback[cols] += new.tightened
        min_slack[cols] = np.minimum(min_slack[cols], new.slack)
        area_min[cols] = np.minimum(area_min[cols], new.area)
        area_max[cols] = np.maximum(area_max[cols], new.area)
        if is_pentagon:
            resid = np.abs(pentagon_residual(new.heights.T))
            max_residual[cols] = np.maximum(max_residual[cols], resid)

    o = np.full((k, replicas), -math.cos(math.pi / k))
    # every replica starts from K, so one column's geometry serves them all
    g = _Cycle(*(np.repeat(a, replicas, axis=-1) for a in _cycles(o[:, :1])))
    enter(slice(None), g)
    for w in rounds:
        act = w.act  # ascending: a gapless run of ids is read through views
        cols = slice(act[0], act[-1] + 1) if act[-1] - act[0] + 1 == act.size else act
        u = w.draws.transpose(2, 0, 1)
        px, py = _fan_points(g.x[:, cols], g.y[:, cols], g.cum[:, cols], g.area[cols], u)
        rows, at, kept = w.advance(_lifts(o[:, cols], px, py))  # kept: unchanged states entered
        fallback[cols] += kept * g.tightened[cols]
        max_rise[cols] = np.where(kept > 0, np.maximum(max_rise[cols], 0.0), max_rise[cols])
        if not rows.size:
            continue
        cc = act[rows]
        o[:, cc] = _raise(o[:, cc], px[rows, at], py[rows, at])
        new = _cycles(o[:, cc])
        enter(cc, new)
        max_rise[cc] = np.maximum(max_rise[cc], (new.heights - g.heights[:, cc]).max(axis=0))
        for whole, part in zip(g, new):
            whole[..., cc] = part
    final_heights = np.ascontiguousarray(g.heights.T)
    if np.any(g.area <= 0.0):
        raise StateCorruptionError("a replica degenerated to nonpositive area")
    return PolygonBatchResult(
        k=k,
        n=n,
        final_heights=final_heights,
        final_area=g.area.copy(),
        max_height=final_heights.max(axis=1),
        area_min=area_min,
        area_max=area_max,
        max_residual=max_residual,
        min_slack=min_slack,
        max_height_rise=max_rise,
        fallback_steps=fallback,
    )
