import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diminish.distributions import (
    DfForm,
    RngStream,
    arcsine,
    beta_law,
    cdf_callable,
    df_form_cdf,
    df_form_ppf,
    df_form_sample,
    dirichlet_pdf,
    dirichlet_sample,
    exp1,
    law_eval,
    law_sample,
    max_exp,
    simplex_height,
    simplex_height_sample,
    weibull,
    LawSpec,
    replica_blocks,
)
from diminish.errors import ConfigurationError, DomainError
from diminish.stats import ks_stat, ks_two_sample


F32 = DfForm(c=0.3, delta=2.0)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).uniform(5)
        b = RngStream(42, 3).uniform(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(RngStream(42, 0).uniform(5), RngStream(42, 1).uniform(5))

    def test_substream_deterministic(self):
        a = RngStream(7, 2).substream(1).uniform(4)
        b = RngStream(7, 2, (1,)).uniform(4)
        assert np.array_equal(a, b)

    def test_block_draws_match_scalar_draws(self):
        block = RngStream(11, 0).uniform(6)
        s = RngStream(11, 0)
        singles = [s.uniform() for _ in range(6)]
        assert np.allclose(block, singles, rtol=0, atol=0)


class TestReplicaBlocks:
    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        with pytest.raises(DomainError, match="chunk"):
            replica_blocks(1, 4, 10, 1, chunk)


class TestDfForm:
    def test_cdf_examples(self):
        assert df_form_cdf(0.5, F32) == pytest.approx(0.3, abs=1e-15)
        assert df_form_cdf(1.0, F32) == pytest.approx(1.0, abs=1e-15)
        # 1 - 0.7 * 4 * 0.0625
        assert df_form_cdf(0.75, F32) == pytest.approx(0.825, abs=1e-15)

    def test_cdf_domain_error(self):
        with pytest.raises(DomainError):
            df_form_cdf(1.2, F32)
        with pytest.raises(DomainError):
            df_form_cdf(-0.1, F32)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            DfForm(c=1.5, delta=1.0)
        with pytest.raises(DomainError):
            DfForm(c=0.5, delta=0.0)
        for c, delta in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(DomainError):
                DfForm(c=c, delta=delta)

    def test_ppf_examples(self):
        # lower branch algebra: x = (u / (c 2^delta))^(1/delta)
        assert df_form_ppf(0.15, F32) == pytest.approx(math.sqrt(0.15 / 1.2), abs=1e-15)
        assert df_form_ppf(0.3, F32) == pytest.approx(0.5, abs=1e-15)
        assert df_form_ppf(0.825, F32) == pytest.approx(0.75, abs=1e-14)

    def test_forced_sample(self, scripted):
        assert df_form_sample(scripted([0.15]), F32) == pytest.approx(
            0.35355339059327373, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(0.0, 1.0),
        delta=st.floats(0.1, 8.0),
        x=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
    )
    def test_cdf_monotone_and_limits(self, c, delta, x, y):
        f = DfForm(c, delta)
        assert df_form_cdf(0.0, f) == 0.0
        assert df_form_cdf(1.0, f) == pytest.approx(1.0, abs=1e-12)
        lo, hi = min(x, y), max(x, y)
        assert df_form_cdf(lo, f) <= df_form_cdf(hi, f) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.05, 0.95), delta=st.floats(0.2, 6.0), u=st.floats(0.0, 1.0))
    @example(c=0.5, delta=0.25, u=0.99999)
    def test_ppf_round_trip(self, c, delta, u):
        # ppf(u) is the representable quantile: u lies between the CDF at its
        # two neighbouring doubles.  cdf(ppf(u)) == u is not reachable near
        # u = 1 with small delta: at c = 0.5, delta = 0.25, u = 0.99999 the
        # exact quantile 1 - 1e-20 rounds to 1.0, whose CDF is 1.0
        f = DfForm(c, delta)
        x = df_form_ppf(u, f)
        below, above = df_form_cdf(np.nextafter(x, 0.0), f), df_form_cdf(np.nextafter(x, 1.0), f)
        assert below - 1e-12 <= u <= above + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.05, 0.95), delta=st.floats(0.5, 4.0), u=st.floats(0.05, 0.95))
    def test_ppf_round_trip_interior(self, c, delta, u):
        f = DfForm(c, delta)
        assert df_form_cdf(df_form_ppf(u, f), f) == pytest.approx(u, abs=1e-11)

    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [0.02, 0.3, 2.0, 3.0, 50.0])
    def test_scalar_is_one_element_array(self, c, delta):
        # a scalar goes through the array power kernel; np.float64 power
        # differs from it in the last bit on about 6% of draws at exponent 0.02
        f = DfForm(c, delta)
        u = RngStream(5).uniform(400)
        assert [df_form_ppf(v, f) for v in u] == list(df_form_ppf(u, f))
        x = df_form_ppf(u, f)
        assert [df_form_cdf(v, f) for v in x] == list(df_form_cdf(x, f))

    def test_unused_branch_is_not_evaluated(self):
        # the other branch would overflow (1.8**2000, (0.5 / 1e-9)**100) or
        # divide 0 by 0; RuntimeWarnings fail the tests
        assert df_form_cdf(0.9, DfForm(0.5, 2000.0)) == 1.0
        assert df_form_cdf(np.array([0.1, 0.9]), DfForm(0.5, 2000.0)).tolist() == [0.0, 1.0]
        assert 0.5 <= df_form_ppf(0.5, DfForm(1e-9, 0.01)) <= 1.0
        assert df_form_ppf(0.0, DfForm(0.0, 2.0)) == 0.5
        assert df_form_ppf(1.0, DfForm(1.0, 2.0)) == 0.5

    def test_degenerate_endpoints(self):
        rng = RngStream(1)
        low = df_form_sample(rng, DfForm(1.0, 2.0), 1000)
        high = df_form_sample(rng, DfForm(0.0, 2.0), 1000)
        assert low.max() <= 0.5 and high.min() >= 0.5

    def test_folded_law(self):
        # 2 min(X, 1-X) has CDF x^delta regardless of c
        x = df_form_sample(RngStream(5, 0), F32, 100_000)
        y = 2.0 * np.minimum(x, 1.0 - x)
        assert ks_stat(y, lambda t: t**2.0) <= 0.01

    def test_conditional_self_similarity(self):
        f = DfForm(0.3, 1.0)
        x = df_form_sample(RngStream(6, 0), f, 100_000)
        y = 2.0 * np.minimum(x, 1.0 - x)
        for a in (0.25, 0.5, 0.9):
            assert ks_two_sample(y[y <= a], a * y) <= 0.02

    def test_conditional_self_similarity_analytic(self):
        x = df_form_sample(RngStream(7, 0), F32, 100_000)
        y = 2.0 * np.minimum(x, 1.0 - x)
        for a in (0.25, 0.5, 0.9):
            cond = y[y <= a]
            assert ks_stat(cond, lambda t, a=a: (t / a) ** 2.0) <= 0.02

    def test_sign_and_magnitude_independent(self):
        x = df_form_sample(RngStream(8, 0), F32, 100_000)
        ind = (x <= 0.5).astype(float)
        mag = np.maximum(x, 1.0 - x)
        corr = np.corrcoef(ind, mag)[0, 1]
        assert abs(corr) <= 0.01


class TestSimplexHeight:
    def test_forced_draws(self, scripted):
        assert simplex_height_sample(scripted([0.37]), 1) == pytest.approx(0.63, abs=1e-15)
        h = simplex_height_sample(scripted([0.25]), 2)
        assert h == pytest.approx(0.5, abs=1e-15)
        assert 1.0 - (1.0 - h) ** 2 == pytest.approx(0.75, abs=1e-12)
        assert simplex_height_sample(scripted([0.512]), 3) == pytest.approx(0.2, abs=1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            simplex_height_sample(RngStream(1), 0)


class TestLawEval:
    def test_examples(self):
        assert law_eval(weibull(2.0), 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert law_eval(max_exp(2), math.log(2.0)) == pytest.approx(0.25, abs=1e-12)

    def test_weibull_cdf_below_shape_one_does_not_warn(self):
        # runtime warnings fail the tests: x <= 0 must not raise 0 to a negative power
        assert law_eval(weibull(0.7), 0.0) == 0.0
        assert np.array_equal(law_eval(weibull(0.7), np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_cdf_limits(self):
        for law in (weibull(2.0), exp1(), max_exp(3), beta_law(1.4, 0.6), simplex_height(2)):
            lo = law_eval(law, -1.0) if law.kind not in ("beta", "simplex_height") else law_eval(law, 0.0)
            assert lo == pytest.approx(0.0, abs=1e-12)
            assert law_eval(law, 50.0) == pytest.approx(1.0, abs=1e-9)
        assert law_eval(arcsine(), -0.5) == pytest.approx(0.0, abs=1e-12)
        assert law_eval(arcsine(), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            law_eval(LawSpec("cauchy"), 0.5)

    @pytest.mark.parametrize(
        "law",
        [weibull(2.0), weibull(0.7), exp1(), max_exp(3), beta_law(1.4, 0.6), arcsine(), simplex_height(2)],
        ids=lambda law: law.kind + str(law.params),
    )
    def test_sampler_matches_cdf(self, law):
        samples = law_sample(law, RngStream(9, 0, (hash(law.kind) % 97,)), 100_000)
        assert ks_stat(samples, cdf_callable(law)) <= 0.01

    def test_dirichlet_sampler_marginals(self):
        lam = law_sample(LawSpec("dirichlet_sym", (3.0, 2.0 / 3.0)), RngStream(10, 0), 100_000)
        marg = beta_law(2.0 / 3.0, 4.0 / 3.0)
        for i in range(3):
            assert ks_stat(lam[:, i], cdf_callable(marg)) <= 0.01


class TestDirichletPdf:
    def test_uniform_triangle(self):
        assert dirichlet_pdf([1.0, 1.0, 1.0], [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_uniform_interval(self):
        assert dirichlet_pdf([1.0, 1.0], [0.3, 0.7]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_thirds(self):
        # independent gamma-function oracle: 3 / Gamma(2/3)^3
        expected = 3.0 / math.gamma(2.0 / 3.0) ** 3
        got = dirichlet_pdf([2 / 3, 2 / 3, 2 / 3], [1 / 3, 1 / 3, 1 / 3])
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.2082, abs=5e-5)

    def test_off_simplex_rejected(self):
        with pytest.raises(DomainError):
            dirichlet_pdf([1.0, 1.0], [0.3, 0.8])
        with pytest.raises(DomainError):
            dirichlet_pdf([1.0, 1.0, 1.0], [0.5, 0.6, -0.1])

    def test_zero_coordinate_signals_infinity(self):
        assert dirichlet_pdf([0.5, 1.0, 1.5], [0.0, 0.4, 0.6]) == math.inf
        assert dirichlet_pdf([2.0, 1.0, 1.0], [0.0, 0.4, 0.6]) == 0.0

    def test_stack_matches_single_points(self):
        alpha = [0.5, 2.0, 1.0]
        points = np.array([[0.0, 0.4, 0.6], [0.4, 0.0, 0.6], [0.4, 0.6, 0.0], [0.2, 0.3, 0.5]])
        stacked = dirichlet_pdf(alpha, points.reshape(2, 2, 3))
        assert stacked.shape == (2, 2)
        singles = [dirichlet_pdf(alpha, p) for p in points]
        assert all(isinstance(v, float) for v in singles)
        assert stacked.ravel().tolist() == singles
        assert singles[:2] == [math.inf, 0.0]
        with pytest.raises(DomainError):
            dirichlet_pdf(alpha, [[0.3, 0.3, 0.4], [0.3, 0.3, 0.5]])

    @pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (2.0, 3.0, 4.0), (1.5, 1.0, 2.0)])
    def test_integrates_to_one(self, alpha):
        # midpoint rule on an exact triangulation of the simplex
        nsub = 400
        h = 1.0 / nsub
        i, j = np.meshgrid(np.arange(nsub), np.arange(nsub), indexing="ij")
        up = (i + j <= nsub - 1).ravel()
        down = (i + j <= nsub - 2).ravel()
        x_up = ((i + 1 / 3) * h).ravel()[up]
        y_up = ((j + 1 / 3) * h).ravel()[up]
        x_dn = ((i + 2 / 3) * h).ravel()[down]
        y_dn = ((j + 2 / 3) * h).ravel()[down]
        total = 0.0
        for xs, ys in ((x_up, y_up), (x_dn, y_dn)):
            total += dirichlet_pdf(alpha, np.stack([1.0 - xs - ys, xs, ys], axis=-1)).sum()
        total *= h * h / 2.0
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_gamma_normalized_sampler_valid_for_small_shapes(self):
        lam = dirichlet_sample(RngStream(11, 0), [0.75, 0.75, 0.75, 0.75], 50_000)
        assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-12)
        assert lam.min() >= 0.0
        marg = beta_law(0.75, 2.25)
        assert ks_stat(lam[:, 0], cdf_callable(marg)) <= 0.012
