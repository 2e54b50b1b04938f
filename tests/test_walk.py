"""The change walk behind ``diminish simulate`` replays the scalar steppers.

For every family the walk screens one stream with the state's batch-engine
test and applies the scalar step's exact kernel at every candidate.
Expanded over the steps, its states must be the per-step loop's, state by
state, and it must leave the stream where the loop leaves it: the next
uniform drawn after the walk is the same, so no draw is wasted or skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diminish import cube, interval, simplex
from diminish.cube import UNIFORM_LAW
from diminish.distributions import DfForm, RngStream, _change_walk, df_form_ppf
from diminish.interval import _keep_band, apply_full_step, interval_new, step_full
from diminish.polygon import polygon_new, polygon_step, snapshot
from diminish.simplex import simplex_full_step, simplex_new

from test_polygon import hexagon_with_redundant_side, octagon_with_redundant_side

LAWS = [DfForm(0.3, 2.0), DfForm(0.5, 1.0), DfForm(0.0, 0.5), DfForm(0.8, 0.25), DfForm(1.0, 3.0)]


FAMILIES = {
    "interval": (step_full, lambda s: (s.center, s.radius)),
    "simplex": (simplex_full_step, lambda s: s.offsets.tobytes()),
    "polygon": (polygon_step, lambda s: s.offsets.tobytes()),
}


def expand(start, steps, states, n):
    """The state of every step 0..n, as ``diminish simulate`` expands a walk."""
    assert all(a < b for a, b in zip([0, *steps], steps)) and (not steps or steps[-1] <= n)
    index = np.repeat(np.arange(len(states) + 1), np.diff([0, *steps, n + 1]))
    return [(start, *states)[i] for i in index]


def assert_walk_replays(family, start, n, stream):
    """Walk and per-step loop agree at every step, and leave the stream alike."""
    step, key = FAMILIES[family]
    scalar_rng, walk_rng = stream(), stream()
    loop = [start]
    for _ in range(n):
        loop.append(step(loop[-1], scalar_rng))
    steps, states = _change_walk(start, n, walk_rng)
    walked = expand(start, steps, states, n)
    assert [key(s) for s in walked] == [key(s) for s in loop]
    changes = [t for t in range(1, n + 1) if key(loop[t]) != key(loop[t - 1])]
    assert steps == changes
    assert walk_rng.uniform() == scalar_rng.uniform()
    return steps, states


class TestWalkReplaysScalarLoop:
    @settings(max_examples=20, deadline=None)
    @given(
        law=st.sampled_from(LAWS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
    )
    def test_interval(self, law, seed, n):
        assert_walk_replays("interval", interval_new(law), n, lambda: RngStream(seed, 0))

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_interval_endpoint_laws(self, c):
        for seed in range(5):
            steps, _ = assert_walk_replays(
                "interval", interval_new(DfForm(c, 1.5)), 2000, lambda: RngStream(seed, 3)
            )
            assert steps

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600))
    def test_simplex(self, d, seed, n):
        assert_walk_replays("simplex", simplex_new(d), n, lambda: RngStream(seed, 0))

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(5, 9), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_polygon(self, k, seed, n):
        assert_walk_replays("polygon", polygon_new(k), n, lambda: RngStream(seed, 0))

    @settings(max_examples=10, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    def test_cube_rows(self, d, seed, n):
        # the cube walk is the union of its axes' walks on their sub-streams
        start = (interval_new(UNIFORM_LAW),) * d
        steps, states = cube._walk(d, n, RngStream(seed, 0))
        walked = expand(start, steps, states, n)
        changes = set()
        for a in range(d):
            rng = RngStream(seed, 0).substream(a)
            loop = [start[a]]
            for _ in range(n):
                loop.append(step_full(loop[-1], rng))
            assert [s[a] for s in walked] == loop
            changes |= {t for t in range(1, n + 1) if loop[t] is not loop[t - 1]}
        assert steps == sorted(changes)


class ListStream:
    """A stream that hands out a fixed list of uniforms, scalar or into ``out``."""

    def __init__(self, values):
        self.values, self.pos = np.asarray(values, dtype=float), 0

    def uniform(self, size=None, out=None):
        shape = out.shape if out is not None else () if size is None else size
        k = int(np.prod(shape))
        draws = self.values[self.pos : self.pos + k]
        self.pos += k
        if out is not None:
            out[...] = draws.reshape(shape)
            return out
        return float(draws[0]) if size is None else draws.reshape(shape)


def counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestKeptCandidates:
    """Candidates that fail the screen but that the exact step keeps."""

    @pytest.mark.parametrize("law", LAWS[:4])
    def test_interval_band_edges(self, monkeypatch, law):
        first = 0.05 if law.c > 0.1 else 0.95  # a draw that moves the interval
        moved = apply_full_step(interval_new(law), float(df_form_ppf(first, law)))
        lo, hi = _keep_band(moved.radius, law)
        # steps 2 and 3 sit on the band's edges; one more draw follows the walk
        values = np.r_[first, lo, hi, RngStream(7, 0).uniform(301)]
        calls = counted(monkeypatch, interval, "apply_full_step")
        steps, _ = assert_walk_replays(
            "interval", interval_new(law), len(values) - 1, lambda: ListStream(values)
        )
        assert steps[0] == 1 and 2 not in steps and 3 not in steps
        assert len(calls) > len(steps)

    def test_simplex_screen_is_loose(self, monkeypatch):
        calls = counted(monkeypatch, simplex, "offsets_after_point")
        steps, _ = assert_walk_replays("simplex", simplex_new(3), 2000, lambda: RngStream(11, 0))
        assert len(calls) > len(steps)


class TestRedundantSides:
    """Degenerate polygons, rebuilt from their true supports (k >= 6)."""

    @pytest.mark.parametrize(
        "start,seed",
        [(octagon_with_redundant_side()[0], 2), (hexagon_with_redundant_side(), 17)],
        ids=["k8", "k6"],
    )
    def test_raw_offset_rise_on_a_redundant_side(self, start, seed):
        assert start._cycle.tightened[0]
        _, states = assert_walk_replays("polygon", start, 200, lambda: RngStream(seed, 0))
        # a new state whose raw offsets rose while the body stayed the same
        same_body = [
            np.array_equal(snapshot(a).boundary, snapshot(b).boundary)
            and snapshot(a).area == snapshot(b).area
            for a, b in zip([start, *states], states)
        ]
        assert any(same_body)
