"""Brute-force geometric oracles, independent of the offset-algebra engines.

The polygon clipper intersects an explicit vertex cycle with a translate by
Sutherland-Hodgman clipping against the translate's own edges; it never
touches support offsets or the ``rho_k`` shortcut.  ``shoelace_area`` is the
reference area of its vertex cycles.  The simplex oracle fits each body's
facet half-spaces to its vertices by least squares
(:func:`facet_halfspaces`) and hands a set of half-spaces to Qhull, which
returns the intersection's vertices and the half-spaces that bound it.  A
trajectory is followed incrementally, as the process itself runs: step t
intersects only the half-spaces still bounding ``P_{t-1}`` with the new
translate's.  That is exact, because a half-space redundant for ``P_{t-1}``
stays redundant for ``P_t``, a subset of ``P_{t-1}``; so each step is one
small Qhull call and a trajectory costs time linear in its length.  Both
oracles exist to cross-check the process engines.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import HalfspaceIntersection

__all__ = [
    "clip_convex_by_convex",
    "shoelace_area",
    "facet_halfspaces",
    "simplex_intersection_oracle",
    "match_point_sets",
]

_EPS = 1e-12


def _clip_edge(subject: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keep the part of ``subject`` left of the directed edge a -> b."""
    n = len(subject)
    if n == 0:
        return subject
    e = b - a
    d = e[0] * (subject[:, 1] - a[1]) - e[1] * (subject[:, 0] - a[0])
    pts = []
    for i in range(n):
        j = (i + 1) % n
        if d[i] >= -_EPS:
            pts.append(subject[i])
        if (d[i] > _EPS and d[j] < -_EPS) or (d[i] < -_EPS and d[j] > _EPS):
            t = d[i] / (d[i] - d[j])
            pts.append(subject[i] + t * (subject[j] - subject[i]))
    return np.array(pts) if pts else np.empty((0, 2))


def clip_convex_by_convex(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Intersection of two convex CCW polygons (Sutherland-Hodgman)."""
    out = np.asarray(subject, dtype=float)
    clipper = np.asarray(clipper, dtype=float)
    for i in range(len(clipper)):
        out = _clip_edge(out, clipper[i], clipper[(i + 1) % len(clipper)])
        if len(out) == 0:
            return out
    return out


def shoelace_area(verts: np.ndarray) -> float:
    """Signed area of a vertex cycle (positive for CCW; zero below three vertices)."""
    nxt = np.roll(verts, -1, axis=0)
    return 0.5 * float((verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]).sum())


def facet_halfspaces(vertices: np.ndarray) -> np.ndarray:
    """Half-spaces ``a x + b <= 0`` of a full-dimensional simplex from its vertices.

    Each facet plane is fitted to its d vertices (one batched SVD over the
    ``d + 1`` facets); orientation points away from the remaining vertex.
    """
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    others = v[np.array([[j for j in range(m) if j != i] for i in range(m)])]  # (m, d, d)
    centroid = others.mean(axis=1)
    normal = np.linalg.svd(others - centroid[:, None])[2][:, -1]
    normal *= np.where(np.vecdot(normal, v - centroid) > 0, -1.0, 1.0)[:, None]
    return np.column_stack([normal, -np.vecdot(normal, centroid)])


def simplex_intersection_oracle(halfspaces: np.ndarray, interior_point):
    """Intersection of half-spaces ``a x + b <= 0`` (Qhull): ``(vertices, bounding)``.

    ``interior_point`` is any strictly interior point, used only to seed the
    intersection.  ``bounding`` holds the rows of ``halfspaces`` that are
    not redundant, so intersecting it with further half-spaces gives the
    same body as intersecting all of ``halfspaces`` with them.
    """
    halfspaces = np.asarray(halfspaces, dtype=float)
    inter = HalfspaceIntersection(halfspaces, np.asarray(interior_point, dtype=float))
    pts = inter.intersections
    # Qhull reports one point per facet of the dual hull; where it splits the
    # facet of a vertex that more than d half-spaces meet at, the vertex comes
    # more than once.  Keep its first copy.
    near = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) < 1e-9
    vertices = pts[~np.tril(near, -1).any(axis=1)]
    # The half-spaces on a facet of the dual hull are the bounding ones.
    # ``inter.dual_vertices`` lists them too, but fails where a facet is not
    # simplicial.
    bounding = halfspaces[np.unique(np.concatenate(inter.dual_facets))]
    return vertices, bounding


def match_point_sets(a: np.ndarray, b: np.ndarray) -> float:
    """Largest nearest-neighbor distance between two point sets, both ways.

    Zero (up to round-off) exactly when the sets describe the same vertex
    collection regardless of ordering or duplicates.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
