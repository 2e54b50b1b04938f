"""The incremental simplex oracle against one Qhull call on every half-space.

``check_geometry_oracle`` follows a trajectory by intersecting the oracle's
own previous bounding half-spaces with each new translate's.  That must give
the body that all translates' half-spaces give at once, also after a step
whose translate is wholly redundant.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from diminish import oracle
from diminish.oracle import facet_halfspaces, match_point_sets, simplex_intersection_oracle
from diminish.simplex import apply_simplex_point, simplex_new, vertex_matrix


def per_facet_fit(vertices):
    """Reference fit: one SVD per facet, through its d vertices, pointing away from the last."""
    rows = []
    for i in range(len(vertices)):
        others = np.delete(vertices, i, axis=0)
        centroid = others.mean(axis=0)
        normal = np.linalg.svd(others - centroid)[2][-1]
        if normal @ (vertices[i] - centroid) > 0:
            normal = -normal
        rows.append(np.append(normal, -(normal @ centroid)))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 5),
    scale=st.floats(0.05, 3.0),
    shift=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    general=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_facet_fit_is_the_per_facet_fit(d, scale, shift, general, seed):
    e = np.asarray(vertex_matrix(d))
    v = scale * e + np.asarray(shift[:d])
    if general:  # a non-regular simplex
        v = v + np.random.default_rng(seed).normal(scale=0.2, size=v.shape)
    assert np.array_equal(facet_halfspaces(v), per_facet_fit(v))


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    weights=st.lists(
        st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4), min_size=1, max_size=10
    ),
    redundant=st.integers(0, 9),
)
def test_incremental_oracle_equals_whole_set(d, weights, redundant):
    e = np.asarray(vertex_matrix(d))
    state = simplex_new(d)
    bounding = facet_halfspaces(2.0 / (d + 1) * e)
    every = [bounding]
    redundant %= len(weights)
    for t, w in enumerate(weights):
        w = np.asarray(w[: d + 1])
        # the translate around the body's own center contains the whole body
        p = state.center if t == redundant else (w @ state.vertices()) / w.sum()
        translate = facet_halfspaces(e + p)
        every.append(translate)
        before = bounding
        state = apply_simplex_point(state, p)
        verts, bounding = simplex_intersection_oracle(np.vstack([bounding, translate]), state.center)
        whole, _ = simplex_intersection_oracle(np.vstack(every), state.center)
        assert len(verts) == len(whole) == d + 1
        assert match_point_sets(verts, whole) <= 1e-12
        assert match_point_sets(verts, state.vertices()) <= 1e-12
        assert len(bounding) == d + 1
        if t == redundant:
            assert np.array_equal(bounding, before)


def test_bounding_halfspaces_at_a_non_simplicial_vertex():
    # a square pyramid: four side planes meet at the apex, so a facet of the
    # dual hull has four vertices; z <= 2 and a repeated base are redundant
    hs = np.array(
        [[0, 0, -1, 0], [1, 0, 1, -1], [-1, 0, 1, -1], [0, 1, 1, -1], [0, -1, 1, -1.0]]
    )
    verts, bounding = simplex_intersection_oracle(
        np.vstack([hs, [[0, 0, 1, -2.0]], hs[:1]]), np.array([0.0, 0.0, 0.3])
    )
    assert np.array_equal(bounding, hs)
    apex_and_base = [[0, 0, 1], [1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]]
    assert len(verts) == 5 and match_point_sets(verts, np.array(apex_and_base)) <= 1e-12


def test_repeated_vertices_keep_their_first_copy(monkeypatch):
    class Repeating:
        """Qhull's result with every vertex reported a second time, 1e-13 away."""

        def __init__(self, halfspaces, interior_point):
            inner = HalfspaceIntersection(halfspaces, interior_point)
            self.dual_facets = inner.dual_facets
            self.intersections = np.vstack([inner.intersections, inner.intersections[::-1] + 1e-13])

    hs = facet_halfspaces(np.asarray(vertex_matrix(3)))
    expected = HalfspaceIntersection(hs, np.zeros(3)).intersections
    monkeypatch.setattr(oracle, "HalfspaceIntersection", Repeating)
    verts, _ = simplex_intersection_oracle(hs, np.zeros(3))
    assert np.array_equal(verts, expected)
