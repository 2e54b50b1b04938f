import dataclasses
import functools
import inspect
from types import SimpleNamespace

import math

import numpy as np
import pytest

from diminish import verification as V
from diminish.distributions import RngStream
from diminish.polygon import (
    apply_polygon_point,
    bound_constants,
    chebyshev_center,
    polygon_new,
    sample_point,
    snapshot,
)
from diminish.stats import ExperimentResult, RunConfig


def test_invariant_suite_requests_published_polygon_runs(monkeypatch):
    """On an empty cache invariant-suite still checks all nine batch runs."""
    requested = []

    def fake_experiment(cfg):
        requested.append((cfg.k, cfg.n, cfg.replicas, cfg.seed - V.DEFAULT_SEED))
        batch = SimpleNamespace(
            area_min=np.array([1.0]), area_max=np.array([2.0]), max_height_rise=np.array([0.0])
        )
        return ExperimentResult(cfg, [], {"batch": batch})

    monkeypatch.setattr(V, "_run", functools.lru_cache(V._run.__wrapped__))  # an empty memo
    monkeypatch.setattr(V, "run_experiment", fake_experiment)
    # the scalar trajectories and thinned weights are not under test here
    monkeypatch.setattr(V, "_polygon_invariant_trajectories", lambda *args: {"nested": 0})
    monkeypatch.setattr(V, "_thinned", lambda d, *args: np.full((4, d + 1), 1.0 / (d + 1)))
    res = V.check_invariants()
    assert res.stats["batch_runs_checked"] == 9
    assert requested == [
        (5, 10_000, 10_000, 25),
        (7, 100, 200, 37),
        (8, 100, 200, 38),
        (7, 100, 500, 47),
        (7, 400, 500, 47),
        (7, 1600, 500, 47),
        (8, 100, 500, 48),
        (8, 400, 500, 48),
        (8, 1600, 500, 48),
    ]
    assert res.passed


def test_run_config_is_frozen_and_keys_the_memo(monkeypatch):
    calls = []

    def fake_experiment(cfg):
        calls.append(cfg)
        return ExperimentResult(cfg, [], {})

    monkeypatch.setattr(V, "_run", functools.lru_cache(V._run.__wrapped__))  # an empty memo
    monkeypatch.setattr(V, "run_experiment", fake_experiment)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig(process="interval", n=10, replicas=2, seed=1).n = 20
    first = V._experiment(process="interval", n=10, replicas=2, seed=1)
    # equal configs, one spelled with its default c, share one run
    assert V._experiment(process="interval", n=10, replicas=2, seed=1, c=0.5) is first
    assert len(calls) == 1
    assert V._experiment(process="interval", n=10, replicas=2, seed=2) is not first
    assert len(calls) == 2
    assert V._run.cache_info()[:2] == (1, 2)  # hits, misses


def test_checks_take_only_their_seed():
    for name, check in V.ALL_CHECKS.items():
        params = list(inspect.signature(check).parameters)
        assert params == (["seed", "steps"] if name == "geometry-oracle" else ["seed"]), name


def per_step_invariants(k, replicas, steps, seed):
    """Reference for ``V._polygon_invariant_trajectories``: every invariant after every step."""
    rho = math.cos(math.pi / k)
    bc = bound_constants(k)
    c1_pent = math.tan(3.0 * math.pi / 10.0)
    keys = "nested height_rise area_range area_rise incircle reduced_persist region_iff"
    v = dict.fromkeys(keys.split() + ["pent_region_formula", "area_bound"], 0)
    for rep in range(replicas):
        rng = RngStream(seed, rep, (k,))
        state = polygon_new(k)
        snap = snapshot(state)
        reduced_seen = False
        prev_heights, prev_area = snap.heights, snap.area
        for _ in range(steps):
            new_state = apply_polygon_point(state, sample_point(state, rng))
            if np.any(new_state.offsets < state.offsets - 1e-12):
                v["nested"] += 1
            state = new_state
            snap = snapshot(state)
            if np.any(snap.heights > prev_heights + 1e-9):
                v["height_rise"] += 1
            if not (V.AREA_RANGE[0] - 1e-9 <= snap.area <= V.AREA_RANGE[1] + 1e-9):
                v["area_range"] += 1
            if snap.area > prev_area + 1e-12:
                v["area_rise"] += 1
            prev_heights, prev_area = snap.heights, snap.area
            if chebyshev_center(state)[1] < 0.1 - 1e-9:
                v["incircle"] += 1
            if reduced_seen and not snap.reduced:
                v["reduced_persist"] += 1
            reduced_seen = reduced_seen or snap.reduced
            above = snap.heights > rho + 1e-9
            below = snap.heights < rho - 1e-9
            positive = snap.region_areas > 1e-12
            if np.any(above & ~positive) or np.any(below & positive):
                v["region_iff"] += 1
            if k == 5 and snap.reduced:
                for i in range(5):
                    if snap.heights[i] > rho + 1e-9:
                        expect = (snap.heights[i] - rho) ** 2 * c1_pent
                        if abs(snap.region_areas[i] - expect) > 1e-10:
                            v["pent_region_formula"] += 1
            if k % 2 == 1:
                excess = snap.max_height - rho
                if not (
                    bc.delta1 * excess**2 - 1e-12
                    <= snap.change_area
                    <= k * bc.c1 * excess**2 + 1e-12
                ):
                    v["area_bound"] += 1
    return v


@pytest.mark.parametrize("k,steps", [(5, 200), (7, 150), (8, 120)])
def test_walked_invariant_counts_weight_each_state_by_its_steps(monkeypatch, k, steps):
    # an area range that early states (above 1.1) and late states (below
    # 0.75) break: every step a breaking state lasts counts once
    monkeypatch.setattr(V, "AREA_RANGE", (0.75, 1.1))
    walked = V._polygon_invariant_trajectories(k, 3, steps, 91)
    assert walked == per_step_invariants(k, 3, steps, 91)
    assert 3 < walked["area_range"] < 3 * steps
