import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diminish import distributions, polygon
from diminish.distributions import RngStream, _change_walk
from diminish.errors import DomainError, StateCorruptionError
from diminish.oracle import _clip_edge, clip_convex_by_convex, match_point_sets, shoelace_area
from diminish.polygon import (
    PolygonBatchResult,
    PolygonState,
    _caps,
    _cycles,
    _fan_points,
    _lifts,
    _raise,
    _state_points,
    apply_polygon_point,
    bound_constants,
    chebyshev_center,
    pentagon_residual,
    polygon_new,
    polygon_step,
    reference_directions,
    reference_vertices,
    run_polygon_batch,
    sample_point,
    snapshot,
)

RHO5 = math.cos(math.pi / 5.0)
TAN54 = math.tan(3.0 * math.pi / 10.0)


def reduced_regular_pentagon(excess: float) -> PolygonState:
    """Homothet of the reference pentagon whose five heights are rho + excess."""
    scale = (RHO5 + excess) / (1.0 + RHO5)
    return PolygonState(5, np.full(5, -scale * RHO5))


def assert_rows_replay(k: int, n: int, replicas: int, seed: int, chunk: int):
    """Every field of each batch row equals its value recomputed from the scalar
    trajectory's n + 1 states on stream ``(seed, r)``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygon, "_CHUNK", chunk)
        res = run_polygon_batch(k, n, replicas, seed=seed)
    assert (res.max_residual is None) == (k != 5)
    for r in range(replicas):
        rng = RngStream(seed, r)
        states = [polygon_new(k)]
        for _ in range(n):
            states.append(polygon_step(states[-1], rng))
        cycles = [s._cycle for s in states]
        heights = np.array([g.heights[:, 0] for g in cycles])
        area = np.array([g.area[0] for g in cycles])
        snap = snapshot(states[-1])
        assert np.array_equal(snap.heights, res.final_heights[r]), (k, r)
        assert snap.area == res.final_area[r], (k, r)
        assert area.min() == res.area_min[r] and area.max() == res.area_max[r], (k, r)
        assert min(g.slack[0] for g in cycles) == res.min_slack[r], (k, r)
        assert np.diff(heights, axis=0).max() == res.max_height_rise[r], (k, r)
        assert sum(g.tightened[0] for g in cycles) == res.fallback_steps[r], (k, r)
        if k == 5:
            assert np.abs(pentagon_residual(heights)).max() == res.max_residual[r], r
    return res


def assert_same_batch(a: PolygonBatchResult, b: PolygonBatchResult):
    for name in PolygonBatchResult.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


def apex(snap, q) -> np.ndarray:
    """The boundary point furthest along ``q``."""
    return snap.boundary[np.argmax(snap.boundary @ np.asarray(q))]


def octagon_with_redundant_side():
    """K cut by translates along q_0 and q_2: side line 1 misses the polygon."""
    q = np.asarray(reference_directions(8))
    base = np.asarray(reference_vertices(8))
    s, oracle = polygon_new(8), base.copy()
    for p in (0.7 * q[0], 0.7 * q[2]):
        s = apply_polygon_point(s, p)
        oracle = clip_convex_by_convex(oracle, base + p)
    return s, oracle


def hexagon_with_redundant_side():
    """K cut by translates along q_0 and q_2: side line 1 misses the hexagon."""
    q = np.asarray(reference_directions(6))
    s = polygon_new(6)
    for p in (0.6 * q[0], 0.6 * q[2]):
        s = apply_polygon_point(s, p)
    return s


def redundant_middle_side(k: int) -> PolygonState:
    """K cut by translates along q_2 and q_4: side line 3 misses the polygon.

    Only fan triangle 1 of the rebuilt cycle is degenerate; the first and the
    last have positive area.
    """
    q = np.asarray(reference_directions(k))
    s = polygon_new(k)
    for p in (0.7 * q[2], 0.7 * q[4]):
        s = apply_polygon_point(s, p)
    return s


def clip_above(verts, q, level):
    """Part of a convex cycle with ``<x, q> >= level``: the oracle's edge clip."""
    a = level * q
    return _clip_edge(verts, a, a + np.array([q[1], -q[0]]))


def reference_caps(body, directions, rho):
    """Cap areas and reducedness of an explicit body, by clipping."""
    levels = (body @ directions.T).min(axis=0) + rho
    caps = [clip_above(body, q, c) for q, c in zip(directions, levels)]
    areas = np.array([max(shoelace_area(cap), 0.0) for cap in caps])
    positive = np.flatnonzero(areas > 1e-12)
    reduced = not any(
        shoelace_area(clip_above(caps[a], directions[b], levels[b])) > 1e-12
        for a in positive
        for b in positive
        if a < b
    )
    return areas, reduced


class TestConstruction:
    def test_pentagon_start(self):
        s = polygon_new(5)
        snap = snapshot(s)
        assert s.rho == pytest.approx(0.8090169943749475, abs=1e-15)
        assert np.allclose(snap.heights, 1.0 + RHO5, atol=1e-12)
        assert snap.area == pytest.approx(2.5 * math.sin(2 * math.pi / 5), abs=1e-12)

    def test_heptagon_inradius(self):
        assert polygon_new(7).rho == pytest.approx(0.9009689, abs=1e-7)

    def test_octagon_start(self):
        snap = snapshot(polygon_new(8))
        rho8 = math.cos(math.pi / 8)
        assert np.allclose(snap.heights, 2.0 * rho8, atol=1e-12)
        assert snap.area == pytest.approx(4.0 * math.sin(2 * math.pi / 8), abs=1e-12)

    def test_small_k_rejected(self):
        with pytest.raises(DomainError):
            polygon_new(4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offsets_rejected(self, bad):
        offsets = polygon_new(5).offsets.copy()
        offsets[2] = bad
        with pytest.raises(StateCorruptionError):
            PolygonState(5, offsets)
        with pytest.raises(StateCorruptionError):
            PolygonState(5, [bad] * 5)

    def test_non_finite_point_is_corruption(self):
        with pytest.raises(StateCorruptionError):
            apply_polygon_point(polygon_new(5), (math.nan, 0.0))

    def test_nan_area_snapshot_raises(self, monkeypatch):
        def nan_area(o):
            g = _cycles(o)
            return g._replace(area=np.full_like(g.area, math.nan))

        monkeypatch.setattr(polygon, "_cycles", nan_area)
        with pytest.raises(StateCorruptionError):
            snapshot(polygon_new(5))

    def test_reference_polygon_orientation(self):
        for k in (5, 7, 8):
            v = np.asarray(reference_vertices(k))
            assert v[0] == pytest.approx([0.0, 1.0], abs=1e-15)
            d = np.asarray(reference_directions(k))
            assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-14)


class TestSnapshot:
    def test_initial_not_reduced(self):
        assert not snapshot(polygon_new(5)).reduced

    def test_reduced_cap_area_formula(self):
        s = reduced_regular_pentagon(0.1)
        snap = snapshot(s)
        assert snap.reduced
        assert np.allclose(snap.heights - RHO5, 0.1, atol=1e-12)
        assert np.allclose(snap.region_areas, 0.01 * TAN54, atol=1e-12)
        assert snap.region_areas[0] == pytest.approx(0.0137638, abs=1e-6)

    def test_region_positive_iff_height_exceeds_rho(self):
        rng = RngStream(41, 0)
        s = polygon_new(7)
        for _ in range(120):
            s = polygon_step(s, rng)
        snap = snapshot(s)
        rho = s.rho
        for i in range(7):
            if snap.heights[i] > rho + 1e-9:
                assert snap.region_areas[i] > 1e-12
            if snap.heights[i] < rho - 1e-9:
                assert snap.region_areas[i] <= 1e-12

    def test_caps_match_clipping_oracle(self):
        degenerate = {}
        for k in range(5, 10):
            dirs = np.asarray(reference_directions(k))
            base = np.asarray(reference_vertices(k))
            degenerate[k] = 0
            for rep in range(6):
                rng = RngStream(60, rep, (k,))
                state, body = polygon_new(k), base.copy()
                for step in range(200):
                    p = sample_point(state, rng)
                    new = apply_polygon_point(state, p)
                    body = clip_convex_by_convex(body, base + p)
                    if step and np.array_equal(new.offsets, state.offsets):
                        state = new
                        continue
                    state = new
                    snap = snapshot(state)
                    areas, reduced = reference_caps(body, dirs, state.rho)
                    assert np.abs(snap.region_areas - areas).max() <= 1e-12, (k, rep, step)
                    assert snap.reduced == reduced, (k, rep, step)
                    degenerate[k] += state._cycle.tightened[0]
        # the closed forms are exercised on rebuilt (degenerate) cycles too
        assert degenerate[8] + degenerate[9] > 0, degenerate

    @pytest.mark.parametrize("k", range(5, 10))
    def test_block_caps_equal_one_column_calls(self, k):
        start = polygon_new(k)
        _, walked = _change_walk(start, 400, RngStream(60, 0, (k,)))
        # k >= 6 adds a state with a redundant side, so the block has rebuilt columns
        states = [start, *walked, *([redundant_middle_side(k)] if k > 5 else [])]
        g = _cycles(np.column_stack([s.offsets for s in states]))
        assert g.tightened.any() == (k > 5)
        areas, reduced = _caps(g.x, g.y)
        for c, s in enumerate(states):
            snap = snapshot(s)
            assert np.array_equal(areas[:, c], snap.region_areas), (k, c)
            assert reduced[c] == snap.reduced, (k, c)

    def test_empty_offset_polygon_raises(self):
        for k in (5, 8):
            with pytest.raises(StateCorruptionError):
                snapshot(PolygonState(k, np.full(k, 0.9)))

    def test_labeled_vertices_are_support_points(self):
        # for odd k each q_i points at its own vertex A_i, which lies m_i above side i
        rng = RngStream(42, 0)
        s = polygon_new(5)
        for _ in range(30):
            s = polygon_step(s, rng)
        snap = snapshot(s)
        dirs = np.asarray(s.directions)
        labels = np.argmax(snap.boundary @ dirs.T, axis=0)
        assert len(set(labels.tolist())) == 5
        for i in range(5):
            rise = apex(snap, dirs[i]) @ dirs[i] - s.offsets[i]
            assert rise == pytest.approx(snap.heights[i], abs=1e-12)


class TestStep:
    def test_point_outside_caps_changes_nothing(self):
        s = reduced_regular_pentagon(0.05)
        center, _ = chebyshev_center(s)
        out = apply_polygon_point(s, center)
        assert np.array_equal(out.offsets, s.offsets)

    def test_miss_returns_the_same_state_and_its_snapshot(self):
        s = reduced_regular_pentagon(0.05)
        snap = snapshot(s)
        center, _ = chebyshev_center(s)
        assert apply_polygon_point(s, center) is s
        assert snapshot(apply_polygon_point(s, center)) is snap
        q = np.asarray(s.directions[0])
        hit = apply_polygon_point(s, apex(snap, q) - 0.01 * q)
        assert hit is not s and snapshot(hit) is not snap

    def test_golden_ratio_coupling(self):
        # point in cap 1 at height fraction h drops m_1 by h*excess
        # and the two opposite heights by the golden ratio c of that
        c = (math.sqrt(5.0) - 1.0) / 2.0
        excess, h = 0.1, 0.5
        s = reduced_regular_pentagon(excess)
        snap = snapshot(s)
        dirs = np.asarray(s.directions)
        p = apex(snap, dirs[0]) - (1.0 - h) * excess * dirs[0]
        out = apply_polygon_point(s, p)
        assert out is not s
        drop = snap.heights - snapshot(out).heights
        expect = h * excess * np.array([1.0, 0.0, c, c, 0.0])
        assert np.allclose(drop, expect, atol=1e-12)
        assert drop[2] == pytest.approx(0.0309017, abs=1e-6)

    def test_steps_match_clipping_oracle(self):
        for k in (5, 7, 8):
            rng = RngStream(43, 0, (k,))
            state = polygon_new(k)
            base = np.asarray(reference_vertices(k))
            overts = base.copy()
            for _ in range(40):
                p = sample_point(state, rng)
                state = apply_polygon_point(state, p)
                overts = clip_convex_by_convex(overts, base + p)
            snap = snapshot(state)
            assert match_point_sets(snap.boundary, overts) <= 1e-10

    def test_batch_rows_replay_scalar(self):
        fallback_rows = {}
        for k in (5, 7, 8, 9):
            res = assert_rows_replay(k, 300, 12, seed=40, chunk=5)
            fallback_rows[k] = int((res.fallback_steps > 0).sum())
        assert fallback_rows[5] == 0
        # rows through the degenerate path replay too
        assert all(fallback_rows[k] > 0 for k in (7, 8, 9)), fallback_rows
        # in short rows every change can lower all heights; a row's rise of 0
        # then comes from its unchanged steps alone
        res = assert_rows_replay(5, 3, 40, seed=40, chunk=7)
        assert (res.max_height_rise == 0.0).any() and (res.max_height_rise < 0.0).any()

    @pytest.mark.parametrize("k", [5, 8, 9])
    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_batch_replays_across_block_edges(self, monkeypatch, k, width):
        # blocks of `width` steps: windows, which reach t // 8 steps, are cut at
        # every block edge, and a column's pointer restarts in each block
        n, replicas, chunk = 120, 6, 3
        monkeypatch.setattr(polygon, "_CHUNK", chunk)
        whole = run_polygon_batch(k, n, replicas, seed=44)
        assert (whole.fallback_steps.sum() > 0) == (k > 5)
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", width * chunk * 3 * 8)
        assert_same_batch(assert_rows_replay(k, n, replicas, 44, chunk), whole)

    @pytest.mark.parametrize("k", [5, 8, 9])
    def test_view_rounds_equal_gather_rounds(self, monkeypatch, k):
        # a round whose replica ids run without a gap reads its state through
        # slices, any other through gathers; chunk and block sizes mix both
        n, replicas, seed = 150, 10, 45
        kinds = set()

        def recording_rounds(*args):
            for w in distributions.window_rounds(*args):
                kinds.add(bool(w.act[-1] - w.act[0] + 1 == w.act.size))
                yield w

        monkeypatch.setattr(polygon, "window_rounds", recording_rounds)
        runs = []
        for chunk in (3, replicas, 16384):
            monkeypatch.setattr(polygon, "_CHUNK", chunk)
            for width in (None, 2):  # whole-run blocks, then blocks of 2 steps
                with pytest.MonkeyPatch.context() as mp:
                    if width:
                        mp.setattr(distributions, "_BLOCK_BYTES", width * min(chunk, replicas) * 3 * 8)
                    runs.append(run_polygon_batch(k, n, replicas, seed))
        assert kinds == {True, False}
        fields = [
            {name: v if v is None else np.asarray(v).tobytes() for name, v in vars(res).items()}
            for res in runs
        ]
        assert all(f == fields[0] for f in fields[1:])
        assert_same_batch(assert_rows_replay(k, n, replicas, seed, 3), runs[0])

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(6, 9),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        replicas=st.integers(1, 5),
        chunk=st.integers(1, 4),
    )
    def test_batch_rows_replay_scalar_property(self, k, seed, n, replicas, chunk):
        assert_rows_replay(k, n, replicas, seed, chunk)


class TestStepDecision:
    """``_lifts`` marks a point iff ``_raise`` changes its column, bit for bit."""

    STARTS = {
        **{f"k{k}": lambda k=k: polygon_new(k) for k in range(5, 10)},
        "octagon": lambda: octagon_with_redundant_side()[0],
        "hexagon": hexagon_with_redundant_side,
    }

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.sampled_from(sorted(STARTS)),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 80),
        width=st.integers(1, 64),
    )
    @example(start="octagon", seed=3, steps=0, width=16)
    @example(start="hexagon", seed=4, steps=0, width=16)
    def test_lift_iff_raise(self, start, seed, steps, width):
        rng = RngStream(seed, 0)
        s = self.STARTS[start]()
        for _ in range(steps):
            s = polygon_step(s, rng)
        inside = _state_points(s, rng.uniform((3, 1, width)))
        box = 3.0 * rng.uniform((2, 1, width)) - 1.5
        dirs = np.asarray(s.directions)
        # one point past each lift line, along its side's direction
        past = (s.offsets + s.rho + 0.25)[:, None] * dirs
        px, py = (np.hstack([a[0], b[0], c]) for a, b, c in zip(inside, box, past.T))
        o = np.repeat(s.offsets[:, None], px.size, axis=1)
        raised = _raise(o, px, py)
        lifts = _lifts(s.offsets[:, None], px[None], py[None])[0]
        assert np.array_equal(lifts, (raised != o).any(axis=0))
        assert lifts[-s.k :].all()
        applied = [apply_polygon_point(s, p).offsets for p in zip(px, py)]
        assert np.array_equal(np.array(applied).T, raised)
        # a raised column puts its point exactly on the raised sides' lift lines
        assert not _lifts(raised, px[:, None], py[:, None]).any()
        assert np.array_equal(_raise(raised, px, py), raised)


class TestDegenerate:
    def test_redundant_side_matches_clipping_oracle(self):
        s, oracle = octagon_with_redundant_side()
        snap = snapshot(s)
        assert s._cycle.tightened[0]
        assert len(snap.boundary) == 8 and len(oracle) == 7
        assert match_point_sets(snap.boundary, oracle) <= 1e-12
        dots = oracle @ np.asarray(s.directions).T
        assert np.allclose(snap.heights, dots.max(0) - dots.min(0), rtol=0, atol=1e-12)
        assert snap.area == pytest.approx(shoelace_area(oracle), abs=1e-12)

    def test_redundant_side_keeps_raw_offsets_and_samples_inside(self):
        s, _ = octagon_with_redundant_side()
        raw = s.offsets.copy()
        rng = RngStream(50, 0)
        pts = np.array([sample_point(s, rng) for _ in range(2000)])
        assert np.array_equal(s.offsets, raw)
        assert np.all(pts @ np.asarray(s.directions).T >= s.offsets - 1e-12)

    def test_regular_start_is_not_degenerate(self):
        for k in (5, 6, 7, 8, 9):
            assert not polygon_new(k)._cycle.tightened[0]


class TestSamplePoint:
    def test_containment_and_mean(self):
        s = polygon_new(5)
        rng = RngStream(45, 0)
        pts = np.array([sample_point(s, rng) for _ in range(20_000)])
        dirs = np.asarray(s.directions)
        assert np.all(pts @ dirs.T >= s.offsets - 1e-9)
        se = pts.std(axis=0) / math.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) <= 3 * se)

    def test_triangle_selection_frequencies(self):
        s = polygon_new(5)
        snap = snapshot(s)
        b = snap.boundary
        tri_areas = np.array(
            [
                0.5
                * abs(
                    (b[i][0] - b[0][0]) * (b[i + 1][1] - b[0][1])
                    - (b[i][1] - b[0][1]) * (b[i + 1][0] - b[0][0])
                )
                for i in range(1, len(b) - 1)
            ]
        )
        weights = tri_areas / tri_areas.sum()
        rng = RngStream(46, 0)
        n = 30_000
        counts = np.zeros(len(tri_areas))
        cum = np.cumsum(tri_areas)
        for _ in range(n):
            u1 = rng.uniform()
            rng.uniform()
            rng.uniform()
            counts[min(int((cum < u1 * tri_areas.sum()).sum()), len(tri_areas) - 1)] += 1
        freq = counts / n
        sigma = np.sqrt(weights * (1 - weights) / n)
        assert np.all(np.abs(freq - weights) <= 3.5 * sigma)

    @pytest.mark.parametrize("k", [8, 9])
    def test_triangle_pick_edges(self, k):
        # u0 just below one picks the last triangle k - 3 and u0 = 0 the first,
        # on a regular and a rebuilt column alike, with no clamp on the pick
        tight = redundant_middle_side(k)
        assert tight._cycle.tightened[0]
        g = _cycles(np.column_stack([polygon_new(k).offsets, tight.offsets]))
        assert g.tightened.tolist() == [False, True]
        top = np.nextafter(1.0, 0.0)
        u0 = np.array([[top, 0.0, top, 0.0]] * 2)
        a2 = np.array([[0.25, 0.25, 0.75, 0.75]] * 2)  # the last two reflect
        a3 = np.array([[0.5, 0.5, 0.625, 0.625]] * 2)
        px, py = _fan_points(g.x, g.y, g.cum, g.area, np.stack([u0, a2, a3]))
        # the clamped reference: full cumulative compare, then min with k - 3
        idx = np.minimum((g.cum[:, :, None] < u0 * g.area[:, None]).sum(axis=0), k - 3)
        assert idx.tolist() == [[k - 3, 0, k - 3, 0]] * 2
        refl = a2 + a3 > 1.0
        b2, b3 = np.where(refl, 1.0 - a2, a2), np.where(refl, 1.0 - a3, a3)
        col = np.arange(2)[:, None]
        for got, v in ((px, g.x), (py, g.y)):
            e = v[1:] - v[0]
            ref = v[0, :, None] + b2 * e[idx, col] + b3 * e[idx + 1, col]
            assert np.array_equal(got, ref)

    def test_zero_area_rejected(self):
        # all offsets zero: the polygon is the single point at the origin
        point = PolygonState(5, np.zeros(5))
        with pytest.raises(DomainError):
            sample_point(point, RngStream(45, 0))


class TestPentagonAnalytics:
    def test_residual_examples(self):
        assert pentagon_residual([1.2, 1.2, 1.2, 1.2, 1.2]) == pytest.approx(0.0, abs=1e-12)
        assert pentagon_residual([1.8, 1.8, 1.7, 1.8, 1.8]) == pytest.approx(0.1, abs=1e-12)

    def test_residual_vanishes_along_trajectories(self):
        rng = RngStream(47, 0)
        s = polygon_new(5)
        for _ in range(200):
            s = polygon_step(s, rng)
            assert abs(pentagon_residual(snapshot(s).heights)) <= 1e-9


class TestBoundConstants:
    def test_values(self):
        bc = bound_constants(5)
        assert bc.c1 == pytest.approx(1.376382, abs=1e-6)
        # independent algebra: tan(asin(x)) = x / sqrt(1 - x^2)
        assert bc.delta1 == pytest.approx(0.05 / math.sqrt(1 - 0.05**2), abs=1e-12)
        assert bc.delta1 == pytest.approx(0.0500626, abs=1e-7)
        assert bc.c2 == pytest.approx(500 * 1.3763819204711735 / math.pi, abs=1e-9)
        assert bc.c2 == pytest.approx(219.06, abs=0.01)
        assert bc.c3 == pytest.approx(0.015935, abs=1e-6)

    def test_envelopes(self):
        bc = bound_constants(7)
        assert bc.rate_envelope_upper(0.0) == pytest.approx(1.0)
        assert bc.rate_envelope_upper(50.0) == pytest.approx(0.0, abs=1e-12)


class TestChebyshev:
    def test_regular_polygon_incircle(self):
        for k in (5, 8):
            center, radius = chebyshev_center(polygon_new(k))
            assert radius == pytest.approx(math.cos(math.pi / k), abs=1e-9)
            assert np.allclose(center, 0.0, atol=1e-9)

    def test_triple_enumeration_matches_lp(self):
        from scipy.optimize import linprog

        for k in (5, 6, 7, 8, 9):
            rng = RngStream(48, 0, (k,))
            s = polygon_new(k)
            dirs = np.asarray(s.directions)
            for step in range(40):
                s = polygon_step(s, rng)
                center, radius = chebyshev_center(s)
                res = linprog(
                    c=[0.0, 0.0, -1.0],
                    A_ub=np.column_stack([-dirs, np.ones(k)]),
                    b_ub=-s.offsets,
                    bounds=[(None, None)] * 3,
                    method="highs",
                )
                assert radius == pytest.approx(res.x[2], abs=1e-9), (k, step)
                assert (dirs @ center - s.offsets - radius).min() >= -1e-9, (k, step)


class TestBatchAccumulators:
    def test_pentagon_invariant_accumulators(self):
        res = run_polygon_batch(5, 400, 50, seed=49)
        assert res.fallback_steps.sum() == 0
        assert res.min_slack.min() >= -1e-9
        assert res.max_residual.max() <= 1e-9
        assert res.max_height_rise.max() <= 1e-9
        assert res.area_min.min() >= math.pi / 100 - 1e-9
        assert res.area_max.max() <= math.pi + 1e-9
