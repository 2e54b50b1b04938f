import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from diminish import verification as V
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

    monkeypatch.setattr(V, "_CACHE", {})
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

    monkeypatch.setattr(V, "_CACHE", {})
    monkeypatch.setattr(V, "run_experiment", fake_experiment)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig(process="interval", n=10, replicas=2, seed=1).n = 20
    first = V._experiment(process="interval", n=10, replicas=2, seed=1)
    # equal configs, one spelled with its default c, share one run
    assert V._experiment(process="interval", n=10, replicas=2, seed=1, c=0.5) is first
    assert len(calls) == 1
    assert V._experiment(process="interval", n=10, replicas=2, seed=2) is not first
    assert len(calls) == 2


def test_checks_take_only_their_seed():
    for name, check in V.ALL_CHECKS.items():
        params = list(inspect.signature(check).parameters)
        assert params == (["seed", "steps"] if name == "geometry-oracle" else ["seed"]), name
