"""Brute-force geometric oracles, independent of the offset-algebra engines.

The polygon clipper intersects an explicit vertex cycle with a translate by
Sutherland-Hodgman clipping against the translate's own edges; it never
touches support offsets or the ``rho_k`` shortcut.  ``shoelace_area`` is the
reference area of its vertex cycles.  The simplex oracle hands
the accumulated facet half-spaces (facet planes fitted to translate vertices
by least squares) to Qhull and reads the intersection vertices back.  Both
exist to cross-check the process engines.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import HalfspaceIntersection

from .simplex import vertex_matrix

__all__ = [
    "clip_convex_by_convex",
    "shoelace_area",
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


def _facet_halfspaces(vertices: np.ndarray) -> np.ndarray:
    """Half-spaces ``a x + b <= 0`` of a full-dimensional simplex from its vertices.

    Each facet plane is fitted to its d vertices; orientation points away
    from the remaining vertex.
    """
    m, d = vertices.shape
    rows = []
    for i in range(m):
        others = np.delete(vertices, i, axis=0)
        centroid = others.mean(axis=0)
        u, s, vt = np.linalg.svd(others - centroid)
        normal = vt[-1]
        if normal @ (vertices[i] - centroid) > 0:
            normal = -normal
        rows.append(np.append(normal, -(normal @ centroid)))
    return np.array(rows)


def simplex_intersection_oracle(d: int, points, interior_point) -> np.ndarray:
    """Vertices of ``K_0`` intersected with every translate ``p + K`` (Qhull).

    ``interior_point`` is any strictly interior point, used only to seed the
    half-space intersection.
    """
    e = np.asarray(vertex_matrix(d), dtype=float)
    halfspaces = [_facet_halfspaces(2.0 / (d + 1) * e)]
    for p in points:
        halfspaces.append(_facet_halfspaces(e + np.asarray(p, dtype=float)))
    hs = np.vstack(halfspaces)
    inter = HalfspaceIntersection(hs, np.asarray(interior_point, dtype=float))
    pts = inter.intersections
    # Qhull reports one point per active facet triple; merge duplicates.
    out: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) < 1e-9 for q in out):
            out.append(p)
    return np.array(out)


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
