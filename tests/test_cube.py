import tracemalloc

import numpy as np
import pytest

from diminish import interval
from diminish.cli import _trajectory
from diminish.cube import UNIFORM_LAW, _walk, cube_run_batch
from diminish.distributions import RngStream
from diminish.errors import DomainError
from diminish.interval import interval_new, step_full
from diminish.stats import RunConfig


def walked(d, n, rng):
    """Centers and radii of every state of the cube walk, the start included; shape (states, d)."""
    _, states = _walk(d, n, rng)
    axes = [(interval_new(UNIFORM_LAW),) * d, *states]
    return tuple(np.array([[getattr(a, f) for a in s] for s in axes]) for f in ("center", "radius"))


class TestCubeConstruction:
    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            _walk(0, 10, RngStream(1, 0))
        with pytest.raises(DomainError):
            cube_run_batch(0, 10, 4, 1)


class TestProductStructure:
    def test_d1_reduces_to_interval(self):
        # same stream -> identical trajectory
        centers, radii = walked(1, 300, RngStream(21, 0))
        s = interval_new(UNIFORM_LAW)
        rng = RngStream(21, 0).substream(0)
        for _ in range(300):
            s = step_full(s, rng)
        assert centers[-1, 0] == s.center
        assert radii[-1, 0] == s.radius

    def test_axis_exchangeability(self):
        # axis a always consumes sub-stream a: permuting assignment permutes outputs
        centers, radii = walked(3, 200, RngStream(22, 0))
        for a in range(3):
            s = interval_new(UNIFORM_LAW)
            rng = RngStream(22, 0).substream(a)
            for _ in range(200):
                s = step_full(s, rng)
            assert centers[-1, a] == s.center
            assert radii[-1, a] == s.radius

    def test_scaled_max_is_max(self):
        scaled_max, excess, _ = cube_run_batch(4, 150, 5, seed=23)
        assert np.array_equal(scaled_max, excess.max(axis=1))

    def test_trajectory_monotone(self):
        centers, radii = walked(2, 100, RngStream(24, 0))
        assert np.all(np.diff(radii, axis=0) <= 1e-15)
        assert radii.min() >= 0.5 - 1e-12


class TestLimitLaws:
    def test_d2_centers_arcsine_and_uncorrelated(self):
        from diminish.distributions import arcsine, cdf_callable
        from diminish.stats import ks_stat

        _, _, centers = cube_run_batch(2, 1500, 5000, seed=26)
        for a in range(2):
            assert ks_stat(centers[:, a], cdf_callable(arcsine())) <= 0.02
        corr = np.corrcoef(centers[:, 0], centers[:, 1])[0, 1]
        assert abs(corr) <= 0.02


class TestBatch:
    def test_batch_rows_replay_scalar(self, monkeypatch):
        monkeypatch.setattr(interval, "_CHUNK", 3)
        for d in (1, 2, 3, 5):
            scaled_max, excess, centers = cube_run_batch(d, 250, 4, seed=25)
            for r in range(4):
                cent, radii = walked(d, 250, RngStream(25, r))
                row_excess = 2.0 * 250 * (2.0 * radii[-1] - 1.0)
                assert np.array_equal(excess[r], row_excess)
                assert np.array_equal(centers[r], cent[-1])
                assert scaled_max[r] == row_excess.max()

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_batch_replays_across_block_edges(self, monkeypatch, width):
        from diminish import distributions

        d, n, replicas, chunk = 3, 120, 4, 3
        monkeypatch.setattr(interval, "_CHUNK", chunk)
        whole = cube_run_batch(d, n, replicas, seed=27)
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", width * chunk * 8)
        cut = cube_run_batch(d, n, replicas, seed=27)
        for a, b in zip(cut, whole):
            assert a.tobytes() == b.tobytes()
        for r in range(replicas):
            cent, radii = walked(d, n, RngStream(27, r))
            assert np.array_equal(cut[1][r], 2.0 * n * (2.0 * radii[-1] - 1.0))
            assert np.array_equal(cut[2][r], cent[-1])


class TestWalk:
    def test_trajectory_memory_is_per_change(self):
        # dense (n + 1, d) centers and radii, stacked, took 96 MB here
        cfg = RunConfig(process="cube", n=10**6, replicas=1, seed=9, d=3)
        tracemalloc.start()
        try:
            header, steps, fields = _trajectory(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fields) == len(steps) + 1 and len(header) == 7
        assert peak <= 16e6, peak
