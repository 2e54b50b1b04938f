import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diminish
from diminish import distributions, interval
from diminish.distributions import (
    DfForm,
    df_form_ppf,
    RngStream,
    arcsine,
    beta_law,
    cdf_callable,
)
from diminish.errors import DomainError
from diminish.interval import (
    IntervalState,
    ThinnedIntervalState,
    _keep_band,
    apply_full_step,
    apply_thinned_step,
    center_series_batch,
    center_series_sample,
    interval_new,
    perpetuity_step,
    run_full_batch,
    step_full,
    step_thinned,
    thinned_new,
)
from diminish.stats import ks_stat, ks_two_sample

UNIFORM = DfForm(0.5, 1.0)


class TestFullStep:
    def test_intersection_example(self):
        s = apply_full_step(interval_new(UNIFORM), 0.1)
        assert s.center == pytest.approx(-0.4, abs=1e-15)
        assert s.radius == pytest.approx(0.6, abs=1e-15)

    def test_no_change_branch(self):
        s = IntervalState(0.0, 0.55, UNIFORM)
        out = apply_full_step(s, 0.5)
        assert out.center == 0.0 and out.radius == 0.55

    def test_absorbing_radius(self):
        s = IntervalState(0.2, 0.5, UNIFORM)
        for x in (0.0, 0.3, 0.9):
            out = apply_full_step(s, x)
            assert out.center == s.center and out.radius == s.radius

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_nestedness(self, xs):
        s = interval_new(DfForm(0.3, 2.0))
        for x in xs:
            nxt = apply_full_step(s, x)
            assert nxt.radius <= s.radius + 1e-12
            assert nxt.radius >= 0.5 - 1e-12
            assert nxt.center - nxt.radius >= s.center - s.radius - 1e-12
            assert nxt.center + nxt.radius <= s.center + s.radius + 1e-12
            s = nxt

    def test_invalid_state(self):
        with pytest.raises(DomainError):
            IntervalState(0.9, 0.9, UNIFORM)
        with pytest.raises(DomainError):
            IntervalState(0.0, 0.4, UNIFORM)

    def test_recursion_cross_check_survives_optimize(self):
        # A radius of 1.5 that escaped validation: at x = 1/2 the geometric
        # step gives radius 1 while the recursion gives 1.25.
        code = textwrap.dedent(
            """
            import sys
            from diminish.distributions import DfForm
            from diminish.errors import StateCorruptionError
            from diminish.interval import IntervalState, apply_full_step

            s = object.__new__(IntervalState)
            for key, value in (("center", 0.0), ("radius", 1.5), ("law", DfForm(0.5, 1.0))):
                object.__setattr__(s, key, value)
            try:
                apply_full_step(s, 0.5)
            except StateCorruptionError:
                sys.exit(0 if sys.flags.optimize else 3)
            sys.exit(1)
            """
        )
        src = str(Path(diminish.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()


class TestThinnedStep:
    def test_substitution_examples(self):
        s = thinned_new(0.5, 1.0)
        out = apply_thinned_step(s, 1, 0.4)
        assert out.center == pytest.approx(0.3, abs=1e-15)
        assert out.excess == pytest.approx(0.2, abs=1e-15)

        s2 = ThinnedIntervalState(0.2, 0.1, 0.5, 1.0)
        out2 = apply_thinned_step(s2, -1, 0.5)
        assert out2.center == pytest.approx(0.15, abs=1e-15)
        assert out2.excess == pytest.approx(0.05, abs=1e-15)

    def test_no_move_draw(self):
        s = thinned_new(0.3, 2.0)
        out = apply_thinned_step(s, 1, 1.0)
        assert out.center == s.center and out.excess == s.excess

    def test_degenerate_c_rejected(self):
        for c in (0.0, 1.0):
            with pytest.raises(DomainError):
                thinned_new(c, 1.0)

    def test_excess_is_exact_product(self):
        rng = RngStream(3, 0)
        s = thinned_new(0.3, 2.0)
        prod = 0.5
        for _ in range(30):
            u_sign = rng.uniform()
            u_mult = rng.uniform()
            v = u_mult ** (1.0 / 2.0)
            s = apply_thinned_step(s, 1 if u_sign < 0.7 else -1, v)
            prod = prod * v
        assert s.excess == prod  # bit-level identity

    def test_sign_probability_convention(self):
        rng = RngStream(4, 0)
        s = thinned_new(0.2, 1.0)
        ups = 0
        n = 20000
        for _ in range(n):
            nxt = step_thinned(s, rng)
            ups += nxt.center > s.center
        assert ups / n == pytest.approx(0.8, abs=0.01)


class TestCenterSeries:
    def test_telescoping_to_half(self, scripted):
        values = [0.0, 0.7] * 80
        z = center_series_sample(scripted(values), 0.5, 1.0, 1e-6)
        assert z == pytest.approx(0.5, abs=1e-6)

    def test_two_term_truncation(self, scripted):
        z = center_series_sample(scripted([0.0, 0.5, 0.9, 0.5]), 0.5, 1.0, 0.2)
        assert z == pytest.approx(0.125, abs=1e-15)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            center_series_sample(RngStream(1), 0.5, 1.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.01, 0.99),
        delta=st.floats(0.2, 5.0),
        tol=st.sampled_from([1e-3, 1e-9, 1e-12]),
    )
    def test_sample_is_one_slot_batch(self, seed, c, delta, tol):
        z = center_series_sample(RngStream(seed, 1), c, delta, tol)
        assert z == center_series_batch(RngStream(seed, 1), c, delta, tol, 1)[0]

    @pytest.mark.parametrize("c,delta", [(0.5, 1.0), (0.3, 2.0), (0.8, 0.7)])
    def test_sample_is_thinned_chain_center(self, c, delta):
        for r in range(20):
            s = thinned_new(c, delta)
            rng = RngStream(12, r)
            while s.excess >= 1e-9:
                s = step_thinned(s, rng)
            assert s.center == center_series_sample(RngStream(12, r), c, delta, 1e-9)

    def test_scalar_sampler_matches_beta(self):
        rng = RngStream(5, 0)
        z = np.array([center_series_sample(rng, 0.3, 2.0, 1e-9) for _ in range(10_000)])
        assert ks_stat(z + 0.5, cdf_callable(beta_law(1.4, 0.6))) <= 0.02

    def test_batch_sampler_matches_beta(self):
        z = center_series_batch(RngStream(6, 0), 0.3, 2.0, 1e-9, 100_000)
        assert ks_stat(z + 0.5, cdf_callable(beta_law(1.4, 0.6))) <= 0.01

    def test_output_range(self):
        z = center_series_batch(RngStream(7, 0), 0.5, 1.0, 1e-9, 10_000)
        assert np.all(np.abs(z) <= 0.5 + 1e-12)


class TestRepresentationConsistency:
    def test_full_centers_match_series_and_arcsine(self):
        _, centers = run_full_batch(UNIFORM, 1000, 10_000, seed=8)
        series = center_series_batch(RngStream(9, 0), 0.5, 1.0, 1e-9, 10_000)
        assert ks_two_sample(centers, series) <= 0.02
        assert ks_stat(centers, cdf_callable(arcsine())) <= 0.02
        assert ks_stat(series, cdf_callable(arcsine())) <= 0.02

    @pytest.mark.parametrize(
        "c,delta", [(0.5, -1.0), (0.5, 0.0), (0.5, math.inf), (0.5, math.nan), (0.0, 1.0), (1.0, 1.0)]
    )
    def test_perpetuity_rejects_bad_law(self, c, delta):
        with pytest.raises(DomainError):
            perpetuity_step(np.zeros(4), RngStream(11, 0), c, delta)

    @pytest.mark.parametrize("c,delta", [(0.5, 1.0), (0.3, 2.0)])
    def test_perpetuity_fixed_point(self, c, delta):
        z = center_series_batch(RngStream(10, 0, (int(10 * c),)), c, delta, 1e-9, 10_000)
        z_next = perpetuity_step(z, RngStream(11, 0, (int(10 * c),)), c, delta)
        assert ks_two_sample(z, z_next) <= 0.02


def assert_rows_replay(law, n, replicas, seed, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval, "_CHUNK", chunk)
        radii, centers = run_full_batch(law, n, replicas, seed=seed)
    for r in range(replicas):
        s = interval_new(law)
        rng = RngStream(seed, r)
        for _ in range(n):
            s = step_full(s, rng)
        assert (s.radius, s.center) == (radii[r], centers[r]), (law, r)
    return radii, centers


class TestRunScaled:
    def test_batch_rows_replay_scalar_trajectories(self):
        # delta = 2 takes the sqrt fast path of the power; the others take the
        # general power kernel, where a np.float64 scalar power can differ
        # from the array one in the last bit
        for law in (DfForm(0.3, 2.0), DfForm(0.5, 0.3), DfForm(0.5, 3.0), DfForm(0.5, 50.0)):
            assert_rows_replay(law, 400, 6, 13, 4)


class TestScreen:
    """The screened window engine: raw-uniform band, candidates, block edges."""

    @pytest.mark.parametrize("width", [1, 3, 7])
    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [0.01, 0.2, 1.0, 3.0, 50.0])
    def test_rows_replay_across_block_edges(self, monkeypatch, width, c, delta):
        law, n, replicas, chunk = DfForm(c, delta), 150, 5, 3
        monkeypatch.setattr(interval, "_CHUNK", chunk)
        whole = run_full_batch(law, n, replicas, seed=31)
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", width * chunk * 8)
        for a, b in zip(assert_rows_replay(law, n, replicas, 31, chunk), whole):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.sampled_from([0.0, 1e-9, 0.3, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
        log_delta=st.floats(-3.0, math.log10(500.0)),
        # log-uniform excess reaches r within 1e-16 of 1/2, where the band is
        # thinnest; the last range puts r within 1e-9 of 1
        excess=st.floats(-16.0, math.log10(0.5)).map(lambda t: 10.0**t)
        | st.sampled_from([0.0, 0.5])
        | st.floats(0.5 - 1e-9, 0.5),
        inner=st.floats(0.0, 1.0),
    )
    # a margin of 1e-9 in u instead of eta in x lets both of these change
    @example(c=0.0, log_delta=-1.0, excess=1e-12, inner=0.0)
    @example(c=0.3, log_delta=-1.0, excess=0.0, inner=0.0)
    def test_uniforms_inside_the_band_keep_the_interval(self, c, log_delta, excess, inner):
        # both edges and their next doubles inward, one interior point, and
        # centers across the whole range the radius allows
        law = DfForm(c, 10.0**log_delta)
        r = 0.5 + excess
        lo, hi = (e.item() for e in _keep_band(np.array([r]), law))
        second = np.nextafter(np.nextafter(lo, 1.0), 1.0), np.nextafter(np.nextafter(hi, 0.0), 0.0)
        us = [np.nextafter(lo, 1.0), np.nextafter(hi, 0.0), *second, lo + inner * (hi - lo)]
        xs = [df_form_ppf(u, law) for u in us if lo < u < hi]
        for center in np.linspace(-1.0, 1.0, 17) * (1.0 - r):
            s = IntervalState(center, r, law)
            for x in xs:
                assert apply_full_step(s, x) is s, (center, x)
