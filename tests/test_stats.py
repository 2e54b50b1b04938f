import dataclasses
import math

import numpy as np
import pytest

from diminish.distributions import RngStream, cdf_callable, weibull
from diminish import stats
from diminish.errors import ConfigurationError, DomainError
from diminish.stats import (
    RunConfig,
    envelope_check,
    ks_stat,
    ks_two_sample,
    moment_estimate,
    run_experiment,
    survival_fraction,
)


class TestKsStat:
    def test_three_point_example(self):
        # one-sided gaps enumerated by hand
        assert ks_stat([0.25, 0.5, 0.75], lambda x: x) == pytest.approx(0.25, abs=1e-15)

    def test_single_point_example(self):
        assert ks_stat([0.5], lambda x: x) == pytest.approx(0.5, abs=1e-15)

    def test_self_consistency(self):
        # Weibull(2) by inverse CDF
        samples = (-np.log1p(-RngStream(51, 0).uniform(100_000))) ** 0.5
        assert ks_stat(samples, cdf_callable(weibull(2.0))) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_stat([], lambda x: x)

    def test_two_sample(self):
        assert ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0
        assert ks_two_sample([0, 1], [5, 6]) == 1.0


class TestMoments:
    def test_examples(self):
        mean, _ = moment_estimate([1.0, 2.0, 3.0], 1.0)
        assert mean == pytest.approx(2.0)
        mean2, _ = moment_estimate([1.0, 2.0, 3.0], 2.0)
        assert mean2 == pytest.approx(14.0 / 3.0)

    def test_weibull_moment(self):
        samples = (-np.log1p(-RngStream(52, 0).uniform(100_000))) ** 0.5  # Weibull(2)
        mean, se = moment_estimate(samples, 1.0)
        assert abs(mean - 0.5 * math.gamma(0.5)) <= 3 * se

    def test_errors(self):
        with pytest.raises(DomainError):
            moment_estimate([], 1.0)
        with pytest.raises(DomainError):
            moment_estimate([1.0], 0.0)


class TestEnvelope:
    def test_degenerate_grid_passes(self):
        rep = envelope_check([0.5, 1.5], lambda x: 0.0, lambda x: 1.0, [1.0])
        assert rep.passed

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            envelope_check([1.0], lambda x: 1.0, lambda x: 0.0, [1.0])

    def test_detects_violations(self):
        values = -np.log1p(-RngStream(53, 0).uniform(20_000))  # Exp(1)
        rep = envelope_check(
            values,
            lambda x: math.exp(-x),
            lambda x: math.exp(-x),
            [0.5, 1.0],
            tol=0.02,
        )
        assert rep.passed  # exponential survival matches its own law
        shifted = values + 0.5
        rep2 = envelope_check(
            shifted, lambda x: math.exp(-x), lambda x: math.exp(-x), [0.5, 1.0], tol=0.02
        )
        assert not rep2.passed and rep2.violations

    def test_survival_fraction(self):
        assert survival_fraction([1.0, 2.0, 3.0], [1.5]) == pytest.approx([2 / 3])

    def test_heptagon_rate_envelope_upper_bound(self):
        # On the c3 scale every excess sits below x = 0.19, where the upper
        # envelope is above 0.999999, so that criterion cannot fail on its own.
        # It is paired with one that can: on the c1 scale the excess must stay
        # within band_bound of the band exp(-x^2 / (pi/100)) .. exp(-x^2 / pi)
        # that the limit areas in [pi/100, pi] allow.
        from diminish.polygon import bound_constants, run_polygon_batch

        bc = bound_constants(7)
        n, replicas = 400, 500
        # finite-n bias plus 2.5/sqrt(R), which a sample exceeds by chance with
        # probability about 1e-5; declared before the run
        band_bound = 0.03 + 2.5 / math.sqrt(replicas)
        res = run_polygon_batch(7, n, replicas, seed=58)
        excess = res.max_height - math.cos(math.pi / 7)
        scaled = math.sqrt(bc.c3 * n) * excess
        rep = envelope_check(
            scaled,
            lower=lambda x: 0.0,
            upper=bc.rate_envelope_upper,
            grid=[0.05, 0.1, 0.2, 0.5, 1.0],
            tol=0.03,
        )
        assert rep.passed
        assert band_distance(math.sqrt(bc.c1 * n) * excess) <= band_bound
        # negative controls: an excess twice as large, and n^1 scaling in place of n^(1/2)
        assert band_distance(2.0 * math.sqrt(bc.c1 * n) * excess) > band_bound
        assert band_distance(n * math.sqrt(bc.c1) * excess) > band_bound


def band_distance(x) -> float:
    """Sup distance of the empirical CDF of ``x`` from the band between
    ``1 - exp(-x^2 / pi)`` and ``1 - exp(-100 x^2 / pi)`` (zero inside it)."""
    x = np.sort(np.asarray(x, dtype=float))
    i = np.arange(1, len(x) + 1)
    low = -np.expm1(-(x**2) / math.pi)
    high = -np.expm1(-100.0 * x**2 / math.pi)
    return max(float((low - (i - 1) / len(x)).max()), float((i / len(x) - high).max()), 0.0)


class TestRunConfig:
    def test_validation_messages_name_keys(self):
        with pytest.raises(ConfigurationError, match=r"c must lie in \[0, 1\]"):
            RunConfig(process="interval", n=10, replicas=1, seed=0, c=1.5)
        with pytest.raises(ConfigurationError, match="process must be one of"):
            RunConfig(process="disk", n=1, replicas=1, seed=0)
        with pytest.raises(ConfigurationError, match="k must be >= 5"):
            RunConfig(process="polygon", n=10, replicas=1, seed=0, k=4)
        with pytest.raises(ConfigurationError, match="replicas must be >= 1"):
            dataclasses.replace(RunConfig(process="cube", n=10, replicas=1, seed=0), replicas=0)

    @pytest.mark.parametrize(
        "key,value",
        [("n", 10.5), ("replicas", 2.0), ("d", 2.5), ("d", True), ("k", 5.5), ("seed", True), ("seed", 1.5)],
    )
    def test_sizes_must_be_integers(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be an integer, got {value!r}"):
            RunConfig(**{"process": "simplex", "n": 10, "replicas": 2, "seed": 1, key: value})

    @pytest.mark.parametrize("key,value", [("c", True), ("delta", True), ("c", "0.5"), ("delta", None)])
    def test_law_parameters_must_be_numbers(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be a number, got {value!r}"):
            RunConfig(**{"process": "interval", "n": 10, "replicas": 2, "seed": 1, key: value})

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            RunConfig(process="interval", n=10, replicas=2, seed=-1)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = RunConfig(
            process="polygon", n=np.int64(10), replicas=np.int32(2), seed=np.uint32(1), k=np.int64(7)
        )
        assert (cfg.n, cfg.replicas, cfg.seed, cfg.k) == (10, 2, 1, 7)


class TestRunExperiment:
    def test_deterministic(self):
        cfg = RunConfig(process="interval", n=200, replicas=20, seed=54)
        a = run_experiment(cfg).values()
        b = run_experiment(cfg).values()
        assert np.array_equal(a, b)

    def test_sample_metadata(self):
        cfg = RunConfig(process="polygon", k=7, n=50, replicas=5, seed=55)
        res = run_experiment(cfg)
        assert len(res.samples) == 5
        first = res.samples[0]
        assert first.replica == 0 and first.n == 50
        assert np.array_equal(res.values(), np.maximum(50**0.5 * res.extras["excess"], 0.0))
        assert res.values().min() >= 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_is_rejected(self, monkeypatch, bad):
        def engine(law, n, replicas, seed):
            radii = np.full(replicas, 0.75)
            radii[1] = bad
            return radii, np.zeros(replicas)

        monkeypatch.setattr(stats, "run_full_batch", engine)
        with pytest.raises(DomainError, match="scaled sample must be finite"):
            run_experiment(RunConfig(process="interval", n=10, replicas=3, seed=0))

    def test_even_polygon_exponent(self):
        cfg = RunConfig(process="polygon", k=8, n=50, replicas=3, seed=56)
        res = run_experiment(cfg)
        assert np.array_equal(res.values(), np.maximum(50**1.0 * res.extras["excess"], 0.0))

    def test_simplex_scaling(self):
        cfg = RunConfig(process="simplex", d=2, n=100, replicas=4, seed=57)
        res = run_experiment(cfg)
        heights = res.extras["heights"]
        expected = (3 * 100) ** 0.5 / 0.5 * (heights - 0.5)
        assert np.allclose(res.values(), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            {"process": "interval"},
            {"process": "cube", "d": 3},
            {"process": "simplex", "d": 2},
            {"process": "simplex", "d": 3},
            {"process": "polygon", "k": 5},
            {"process": "polygon", "k": 8},
        ],
        ids=lambda p: "-".join(str(v) for v in p.values()),
    )
    def test_fewer_replicas_are_a_prefix(self, params):
        """R replicas equal the first R rows of a larger run, every extra included."""
        small = run_experiment(RunConfig(n=300, replicas=40, seed=58, **params))
        big = run_experiment(RunConfig(n=300, replicas=100, seed=58, **params))
        assert np.array_equal(small.values(), big.values()[:40])
        assert small.extras.keys() == big.extras.keys()
        for key, value in small.extras.items():
            if key != "batch":
                assert np.array_equal(value, big.extras[key][:40]), key
                continue
            for f in dataclasses.fields(value):
                a, b = getattr(value, f.name), getattr(big.extras["batch"], f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b[:40]), f.name
                else:
                    assert a == b, f.name
