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

Vertices are computed from consecutive support-line intersections; a state
whose candidate cycle fails feasibility (a degenerate k-gon, possible for
k >= 6) falls back to half-plane clipping of ``K``.  Point sampling uses an
area-weighted triangle fan and consumes exactly three uniforms per step.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import RngStream, replica_blocks
from .errors import DomainError, StateCorruptionError

__all__ = [
    "PolygonState",
    "PolygonSnapshot",
    "PentagonConstants",
    "BoundConstants",
    "polygon_new",
    "snapshot",
    "sample_point",
    "apply_polygon_point",
    "polygon_step",
    "change_region_membership",
    "pentagon_residual",
    "pentagon_constants",
    "bound_constants",
    "chebyshev_center",
    "reference_directions",
    "reference_vertices",
    "clip_halfplane",
    "shoelace_area",
    "run_polygon_batch",
    "PolygonBatchResult",
]

_FEAS_EPS = 1e-9
_CLIP_EPS = 1e-12

GOLDEN_C = (math.sqrt(5.0) - 1.0) / 2.0
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
def _pair_inverses(k: int) -> np.ndarray:
    """Inverse of ``[[q_i], [q_{i+1}]]`` per i, for consecutive line intersections."""
    dirs = reference_directions(k)
    mats = np.stack([dirs, np.roll(dirs, -1, axis=0)], axis=1)
    out = np.linalg.inv(mats)
    out.setflags(write=False)
    return out


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def shoelace_area(verts: np.ndarray) -> float:
    """Signed area of a vertex cycle (positive for CCW)."""
    if len(verts) < 3:
        return 0.0
    return 0.5 * float(_cross(verts, np.roll(verts, -1, axis=0)).sum())


def clip_halfplane(verts: np.ndarray, normal, offset: float) -> np.ndarray:
    """Keep the part of a convex cycle with ``<x, normal> >= offset``."""
    n = len(verts)
    if n == 0:
        return verts
    d = verts @ np.asarray(normal, dtype=float) - offset
    pts = []
    for i in range(n):
        j = (i + 1) % n
        if d[i] >= -_CLIP_EPS:
            pts.append(verts[i])
        if (d[i] > _CLIP_EPS and d[j] < -_CLIP_EPS) or (d[i] < -_CLIP_EPS and d[j] > _CLIP_EPS):
            t = d[i] / (d[i] - d[j])
            pts.append(verts[i] + t * (verts[j] - verts[i]))
    return np.array(pts) if pts else np.empty((0, 2))


@dataclass(frozen=True, eq=False)
class PolygonState:
    """Offset vector of the current polygon on the fixed fan of side lines."""

    k: int
    offsets: np.ndarray

    def __post_init__(self):
        if self.k < 5:
            raise DomainError(f"k must be >= 5, got {self.k}")
        o = np.asarray(self.offsets, dtype=float)
        if o.shape != (self.k,):
            raise DomainError("offsets must have k entries")
        object.__setattr__(self, "offsets", o)
        object.__setattr__(self, "_snap", None)

    @property
    def rho(self) -> float:
        return math.cos(math.pi / self.k)

    @property
    def directions(self) -> np.ndarray:
        return reference_directions(self.k)


@dataclass(frozen=True, eq=False)
class PolygonSnapshot:
    """Derived geometry of one state.

    ``boundary`` is the raw CCW vertex cycle; ``vertices`` are the labeled
    extreme points ``A_i`` in direction ``q_i`` (meaningful for odd k, where
    repeated entries mark degenerate sides).  ``region_areas[i]`` is the area
    of the cap above ``o_i' + rho`` and ``reduced`` reports pairwise
    disjointness of the positive caps, decided geometrically.
    """

    k: int
    boundary: np.ndarray
    vertices: np.ndarray
    heights: np.ndarray
    max_height: float
    area: float
    region_areas: np.ndarray
    change_area: float
    reduced: bool
    degenerate: bool


def polygon_new(k: int) -> PolygonState:
    """Start from the reference polygon itself: all offsets ``-rho_k``."""
    if k < 5:
        raise DomainError(f"k must be >= 5, got {k}")
    return PolygonState(k, np.full(k, -math.cos(math.pi / k)))


def _boundary_geometry(k: int, offsets: np.ndarray):
    """Vertex cycle, per-direction supports and area of the offset polygon.

    Fast path: consecutive-line candidates, valid when every candidate
    satisfies all constraints.  Otherwise the reference polygon is clipped
    against every constraint (any state is contained in ``K``).
    Returns ``(boundary, sup_dots, area, fast_ok)``.
    """
    dirs = reference_directions(k)
    rhs = np.stack([offsets, np.roll(offsets, -1)], axis=1)
    cand = np.einsum("kab,kb->ka", _pair_inverses(k), rhs)
    dots = cand @ dirs.T
    if float((dots - offsets[None, :]).min()) >= -_FEAS_EPS:
        return cand, dots, 0.5 * float(_cross(cand, np.roll(cand, -1, axis=0)).sum()), True
    verts = np.asarray(reference_vertices(k))
    for i in range(k):
        verts = clip_halfplane(verts, dirs[i], offsets[i])
        if len(verts) == 0:
            raise StateCorruptionError("offset polygon is empty")
    dots = verts @ dirs.T
    return verts, dots, shoelace_area(verts), False


def snapshot(s: PolygonState) -> PolygonSnapshot:
    """Full derived geometry; computed once per state and cached."""
    cached = getattr(s, "_snap")
    if cached is not None:
        return cached
    boundary, dots, area, fast_ok = _boundary_geometry(s.k, s.offsets)
    if len(boundary) < 3 or area <= 0.0:
        raise StateCorruptionError("offset polygon degenerated to zero area")
    alpha = dots.max(axis=0)
    alpha_prime = dots.min(axis=0)
    heights = alpha - alpha_prime
    labeled = boundary[np.argmax(dots, axis=0)]
    levels = alpha_prime + s.rho
    regions = [clip_halfplane(boundary, s.directions[i], levels[i]) for i in range(s.k)]
    region_areas = np.array([max(shoelace_area(r), 0.0) for r in regions])
    positive = [i for i in range(s.k) if region_areas[i] > _CLIP_EPS]
    reduced = True
    for a, b in itertools.combinations(positive, 2):
        overlap = clip_halfplane(regions[a], s.directions[b], levels[b])
        if shoelace_area(overlap) > 1e-12:
            reduced = False
            break
    snap = PolygonSnapshot(
        k=s.k,
        boundary=boundary,
        vertices=labeled,
        heights=heights,
        max_height=float(heights.max()),
        area=area,
        region_areas=region_areas,
        change_area=float(region_areas.sum()),
        reduced=reduced,
        degenerate=not fast_ok,
    )
    object.__setattr__(s, "_snap", snap)
    return snap


def _sample_from_boundary(boundary: np.ndarray, area: float, u1: float, u2: float, u3: float):
    """Uniform point from a CCW convex cycle: area-weighted fan, reflected barycentrics."""
    if area <= 1e-12:
        raise DomainError("cannot sample from a zero-area region")
    v0 = boundary[0]
    rel = boundary - v0
    tri = 0.5 * _cross(rel[1:-1], rel[2:])
    cum = np.cumsum(tri)
    idx = int((cum < u1 * area).sum())
    idx = min(idx, len(tri) - 1)
    a, b = (u2, u3) if u2 + u3 <= 1.0 else (1.0 - u2, 1.0 - u3)
    return v0 + a * (boundary[idx + 1] - v0) + b * (boundary[idx + 2] - v0)


def sample_point(s: PolygonState, rng: RngStream) -> np.ndarray:
    """Uniform point in the current polygon (three uniforms per call)."""
    snap = snapshot(s)
    u1 = float(rng.uniform())
    u2 = float(rng.uniform())
    u3 = float(rng.uniform())
    return _sample_from_boundary(snap.boundary, snap.area, u1, u2, u3)


def apply_polygon_point(s: PolygonState, p) -> PolygonState:
    """Intersect with ``p + K``: raise each offset to ``<p, q_i> - rho_k``."""
    p = np.asarray(p, dtype=float)
    return PolygonState(s.k, np.maximum(s.offsets, s.directions @ p - s.rho))


def polygon_step(s: PolygonState, rng: RngStream) -> PolygonState:
    """One process step; the state is unchanged when the point misses all caps."""
    return apply_polygon_point(s, sample_point(s, rng))


def change_region_membership(s: PolygonState, p) -> np.ndarray:
    """Offset-based cap membership: ``<p, q_i> >= o_i + rho_k`` per side."""
    p = np.asarray(p, dtype=float)
    return s.directions @ p >= s.offsets + s.rho


# ---------------------------------------------------------------------------
# Pentagon analytics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PentagonConstants:
    """Golden-ratio coupling of pentagon heights.

    A point in cap i lowers height i by x and the two opposite heights by
    ``c x``; row i of ``update_vectors`` is that pattern (1 at i, c at i+2
    and i+3, cyclically).
    """

    c: float
    lam: float
    rho5: float
    update_vectors: np.ndarray


@functools.lru_cache(maxsize=1)
def pentagon_constants() -> PentagonConstants:
    vec = np.zeros((5, 5))
    for i in range(5):
        vec[i, i] = 1.0
        vec[i, (i + 2) % 5] = GOLDEN_C
        vec[i, (i + 3) % 5] = GOLDEN_C
    vec.setflags(write=False)
    return PentagonConstants(
        c=GOLDEN_C, lam=GOLDEN_LAMBDA, rho5=math.cos(math.pi / 5.0), update_vectors=vec
    )


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
    """Constants of the odd-k rate bounds, with their envelope CDFs."""

    k: int
    c1: float
    delta1: float
    c2: float
    c3: float

    def h_major_cdf(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.minimum(self.c1 * x**2, 1.0)

    def h_minor_cdf(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.where(x < 1.0, self.delta1 * x**2, 1.0)

    def h_tilde_cdf(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.minimum(self.c1 * self.c2 * x**2, 1.0)

    def h_bar_cdf(self, x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.minimum(self.c3 * x**2, 1.0)

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


def chebyshev_center(s: PolygonState) -> tuple[np.ndarray, float]:
    """Center and radius of the largest circle inside the constraint set.

    Odd k has no parallel constraint pair, so the optimum is determined by a
    triple of active constraints and is found by enumeration; even k falls
    back to an LP solve.
    """
    dirs = np.asarray(s.directions)
    o = s.offsets
    if s.k % 2 == 1:
        best_r = -math.inf
        best_x = None
        for tri in itertools.combinations(range(s.k), 3):
            a = np.column_stack([dirs[list(tri)], -np.ones(3)])
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            x, y, r = np.linalg.solve(a, o[list(tri)])
            if r < 0:
                continue
            if float((dirs @ (x, y) - o - r).min()) >= -_FEAS_EPS and r > best_r:
                best_r = r
                best_x = np.array([x, y])
        if best_x is None:
            raise StateCorruptionError("no feasible inscribed circle found")
        return best_x, float(best_r)
    from scipy.optimize import linprog

    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([-dirs, np.ones(s.k)]),
        b_ub=-o,
        bounds=[(None, None)] * 3,
        method="highs",
    )
    if not res.success:
        raise StateCorruptionError(f"inscribed-circle LP failed: {res.message}")
    return res.x[:2].copy(), float(res.x[2])


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


def _batch_geometry(k, o, dirs, inv):
    """Candidate cycles and their supports for a block of offset columns.

    ``o`` has shape (k, C), replicas along the contiguous axis.  Returns
    ``(cand_x, cand_y, slack, heights, tri, area)``; all but ``slack`` are
    only meaningful for columns with ``slack >= -eps`` (valid cycles).
    """
    c = o.shape[1]
    o_next = o[_next_index(k)]
    cand_x = inv[:, 0, 0, None] * o + inv[:, 0, 1, None] * o_next
    cand_y = inv[:, 1, 0, None] * o + inv[:, 1, 1, None] * o_next
    flat = np.empty((2, k * c))
    flat[0] = cand_x.reshape(-1)
    flat[1] = cand_y.reshape(-1)
    dots = (dirs @ flat).reshape(k, k, c)  # (direction j, candidate i, replica)
    maxd = dots.max(axis=1)
    mind = dots.min(axis=1)
    slack = (mind - o).min(axis=0)
    heights = maxd - mind
    rel_x = cand_x[1:] - cand_x[0]
    rel_y = cand_y[1:] - cand_y[0]
    tri = 0.5 * (rel_x[:-1] * rel_y[1:] - rel_y[:-1] * rel_x[1:])
    area = tri.sum(axis=0)
    return cand_x, cand_y, slack, heights, tri, area


@functools.lru_cache(maxsize=None)
def _next_index(k: int) -> np.ndarray:
    out = np.roll(np.arange(k), -1)
    out.setflags(write=False)
    return out


def run_polygon_batch(
    k: int, n: int, replicas: int, seed: int, chunk: int = 16384
) -> PolygonBatchResult:
    """Run independent polygon replicas, vectorized across replicas per step.

    Replica ``r`` consumes the uniforms of ``RngStream(seed, r)`` in
    trajectory order (three per step), so every row replays the scalar
    stepper.  Rows whose candidate cycle fails feasibility at some step
    (degenerate k-gons, k >= 6) are advanced through the exact clipping path
    for that step.
    """
    if k < 5:
        raise DomainError(f"k must be >= 5, got {k}")
    chunks = replica_blocks(seed, replicas, n, 3, chunk)
    dirs = np.asarray(reference_directions(k))
    inv = np.asarray(_pair_inverses(k))
    rho = math.cos(math.pi / k)
    is_pentagon = k == 5

    final_heights = np.empty((replicas, k))
    final_area = np.empty(replicas)
    area_min = np.full(replicas, np.inf)
    area_max = np.full(replicas, -np.inf)
    max_residual = np.zeros(replicas) if is_pentagon else None
    min_slack = np.full(replicas, np.inf)
    max_rise = np.full(replicas, -np.inf)
    fallback = np.zeros(replicas, dtype=int)

    lam = GOLDEN_LAMBDA
    for start, stop, blocks in chunks:
        c = stop - start
        o = np.full((k, c), -rho)
        cols = np.arange(c)
        a_min = np.full(c, np.inf)
        a_max = np.full(c, -np.inf)
        resid = np.zeros(c)
        sl_min = np.full(c, np.inf)
        rise = np.full(c, -np.inf)
        prev_heights = None
        for raw in blocks:
            u = raw.transpose(1, 2, 0).copy()  # (step, draw, replica)
            for t in range(len(u)):
                cand_x, cand_y, slack, heights, tri, area = _batch_geometry(k, o, dirs, inv)
                bad = slack < -_FEAS_EPS
                if bad.any():
                    np.minimum(sl_min, np.where(bad, np.inf, slack), out=sl_min)
                else:
                    np.minimum(sl_min, slack, out=sl_min)
                cum = np.cumsum(tri, axis=0)
                idx = np.minimum((cum < u[t, 0] * area).sum(axis=0), k - 3)
                v0x, v0y = cand_x[0], cand_y[0]
                bx, by = cand_x[idx + 1, cols], cand_y[idx + 1, cols]
                cx, cy = cand_x[idx + 2, cols], cand_y[idx + 2, cols]
                a2, a3 = u[t, 1], u[t, 2]
                refl = a2 + a3 > 1.0
                a2 = np.where(refl, 1.0 - a2, a2)
                a3 = np.where(refl, 1.0 - a3, a3)
                px = v0x + a2 * (bx - v0x) + a3 * (cx - v0x)
                py = v0y + a2 * (by - v0y) + a3 * (cy - v0y)
                if bad.any():
                    for i in np.nonzero(bad)[0]:
                        boundary, dots_i, area_i, _ = _boundary_geometry(k, o[:, i].copy())
                        q = _sample_from_boundary(
                            boundary, area_i, u[t, 0, i], u[t, 1, i], u[t, 2, i]
                        )
                        px[i], py[i] = q
                        heights[:, i] = dots_i.max(axis=0) - dots_i.min(axis=0)
                        area[i] = area_i
                        fallback[start + i] += 1
                np.minimum(a_min, area, out=a_min)
                np.maximum(a_max, area, out=a_max)
                if is_pentagon:
                    np.maximum(
                        resid,
                        np.abs(heights[1] + lam * heights[0] - heights[2] - lam * heights[3]),
                        out=resid,
                    )
                if prev_heights is not None:
                    np.maximum(rise, (heights - prev_heights).max(axis=0), out=rise)
                prev_heights = heights
                pd = dirs[:, 0, None] * px + dirs[:, 1, None] * py
                np.maximum(o, pd - rho, out=o)
        _, _, slack, heights, _, area = _batch_geometry(k, o, dirs, inv)
        bad = slack < -_FEAS_EPS
        np.minimum(sl_min, np.where(bad, np.inf, slack), out=sl_min)
        if bad.any():
            for i in np.nonzero(bad)[0]:
                _, dots_i, area_i, _ = _boundary_geometry(k, o[:, i].copy())
                heights[:, i] = dots_i.max(axis=0) - dots_i.min(axis=0)
                area[i] = area_i
                fallback[start + i] += 1
        np.minimum(a_min, area, out=a_min)
        np.maximum(a_max, area, out=a_max)
        if is_pentagon:
            np.maximum(
                resid,
                np.abs(heights[1] + lam * heights[0] - heights[2] - lam * heights[3]),
                out=resid,
            )
            max_residual[start:stop] = resid
        np.maximum(rise, (heights - prev_heights).max(axis=0), out=rise)
        final_heights[start:stop] = heights.T
        final_area[start:stop] = area
        area_min[start:stop] = a_min
        area_max[start:stop] = a_max
        min_slack[start:stop] = sl_min
        max_rise[start:stop] = rise
    if np.any(final_area <= 0.0):
        raise StateCorruptionError("a replica degenerated to nonpositive area")
    return PolygonBatchResult(
        k=k,
        n=n,
        final_heights=final_heights,
        final_area=final_area,
        max_height=final_heights.max(axis=1),
        area_min=area_min,
        area_max=area_max,
        max_residual=max_residual,
        min_slack=min_slack,
        max_height_rise=max_rise,
        fallback_steps=fallback,
    )
