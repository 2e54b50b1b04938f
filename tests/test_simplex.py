import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diminish import simplex
from diminish.distributions import RngStream
from diminish.errors import DomainError, StateCorruptionError
from diminish.simplex import (
    SimplexState,
    SimplexThinned,
    apply_simplex_point,
    apply_simplex_thinned,
    change_probability,
    from_barycentric,
    heights_after_changes,
    offsets_after_point,
    run_simplex_batch,
    run_thinned_batch,
    simplex_full_step,
    simplex_new,
    simplex_perpetuity_step,
    simplex_thinned_new,
    simplex_thinned_step,
    to_barycentric,
    vertex_matrix,
)
from diminish.stats import ks_stat, ks_two_sample


class TestReferenceSimplex:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_vertex_frame(self, d):
        e = np.asarray(vertex_matrix(d))
        gram = e @ e.T
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram - np.eye(d + 1)
        assert np.allclose(off[~np.eye(d + 1, dtype=bool)], -1.0 / d, atol=1e-12)
        assert np.allclose(e.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(e[0], np.eye(d)[0], atol=1e-15)


class TestStartState:
    def test_examples(self):
        assert simplex_new(2).height == pytest.approx(1.0, abs=1e-15)
        assert simplex_new(2).rho == pytest.approx(0.5)
        assert simplex_new(1).height == pytest.approx(2.0, abs=1e-15)  # segment case
        assert simplex_new(3).height == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_dimension(self):
        with pytest.raises(DomainError):
            simplex_new(0)

    def test_center_at_origin(self):
        assert np.allclose(simplex_new(3).center, 0.0, atol=1e-15)


class TestFullStep:
    def test_change_probability_example(self):
        assert change_probability(simplex_new(2)) == pytest.approx(0.75, abs=1e-12)

    def test_incenter_leaves_state_unchanged(self):
        s = simplex_new(3)
        out = apply_simplex_point(s, s.center)
        assert np.array_equal(out.offsets, s.offsets)

    def test_nestedness_and_height_range(self):
        rng = RngStream(31, 0)
        s = simplex_new(2)
        for _ in range(300):
            nxt = simplex_full_step(s, rng)
            assert np.all(nxt.offsets <= s.offsets + 1e-15)
            assert nxt.height >= nxt.rho - 1e-12
            s = nxt

    def test_batch_rows_replay_scalar(self, monkeypatch):
        monkeypatch.setattr(simplex, "_CHUNK", 3)
        for d in (1, 2, 3, 5):
            heights, centers = run_simplex_batch(d, 200, 4, seed=32)
            for r in range(4):
                rng = RngStream(32, r)
                s = simplex_new(d)
                for _ in range(200):
                    s = simplex_full_step(s, rng)
                assert heights[r] == s.height
                # the center read-out goes through BLAS at different shapes
                assert np.allclose(centers[r], s.center, atol=1e-15, rtol=0)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        parts=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
        weights=st.lists(st.floats(1e-6, 1.0), min_size=6, max_size=6),
        height=st.floats(1.0, 2.0),
        mix=st.floats(0.0, 1.0),
    )
    def test_closed_form_matches_point_intersection(self, d, parts, weights, height, mix):
        rho = 1.0 / d
        beta = np.array(parts[: d + 1])
        s = SimplexState(d, height * rho * beta / beta.sum())
        w = np.array(weights[: d + 1])
        centroid = np.full(d + 1, 1.0 / (d + 1))
        for lam in (w / w.sum(), mix * w / w.sum() + (1.0 - mix) * centroid, centroid):
            new = offsets_after_point(s.offsets[None], lam[None], rho)[0]
            ref = apply_simplex_point(s, lam @ s.vertices()).offsets
            assert np.abs(new - ref).max() <= 1e-15
            if np.all(s.height * lam <= rho):
                assert np.array_equal(new, s.offsets)


class TestThinnedChain:
    def test_substitution_example(self):
        s = simplex_thinned_new(2)
        out = apply_simplex_thinned(s, 0, 0.3)
        assert np.allclose(out.weights, [1 / 3 + 0.2, 1 / 3 - 0.1, 1 / 3 - 0.1], atol=1e-12)
        assert out.excess == pytest.approx(0.35, abs=1e-15)

    def test_zero_height_is_identity(self):
        s = simplex_thinned_new(3)
        out = apply_simplex_thinned(s, 1, 0.0)
        assert np.array_equal(out.weights, s.weights)
        assert out.excess == s.excess

    @settings(max_examples=60, deadline=None)
    @given(
        xi=st.integers(0, 2),
        h=st.floats(0.0, 1.0),
        steps=st.integers(1, 10),
    )
    def test_weights_stay_normalized(self, xi, h, steps):
        s = simplex_thinned_new(2)
        for _ in range(steps):
            s = apply_simplex_thinned(s, xi, h)
        assert float(s.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("weights", [[1.0], [[0.5, 0.5]]])
    def test_bad_weight_shape_rejected(self, weights):
        with pytest.raises(DomainError):
            SimplexThinned(np.array(weights), 0.0)

    @pytest.mark.parametrize(
        "weights,match",
        [
            ([1.0], "entries"),
            ([[1.0]], "entries"),
            ([0.5, 0.7], "sum"),
            ([[0.5, 0.5], [0.5, 0.7]], "sum"),
            ([0.5, np.nan], "sum"),
            ([-0.5, 1.5], "nonnegative"),
        ],
    )
    def test_perpetuity_rejects_bad_weights(self, weights, match):
        with pytest.raises(DomainError, match=match):
            simplex_perpetuity_step(np.array(weights), RngStream(1))

    def test_negative_weight_is_corruption(self):
        s = SimplexThinned(np.array([1.0, 0.0, 0.0]), 0.5)
        with pytest.raises(StateCorruptionError):
            apply_simplex_thinned(s, 0, 0.5)

    def test_step_consumes_two_uniforms(self, scripted):
        s = simplex_thinned_new(2)
        out = simplex_thinned_step(s, scripted([0.5, 0.49]))  # xi=1, h=1-0.7=0.3
        assert out.excess == pytest.approx(s.excess * (1 - (1 - 0.49**0.5)), abs=1e-12)


class TestBarycentric:
    def test_centroid(self):
        assert np.allclose(to_barycentric(np.zeros(3), 3), 0.25, atol=1e-12)

    def test_vertex(self):
        e = np.asarray(vertex_matrix(2))
        lam = to_barycentric(e[0] / 3.0, 2)
        assert np.allclose(lam, [1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip_against_linear_solve(self):
        rng = np.random.default_rng(33)
        d = 3
        e = np.asarray(vertex_matrix(d))
        hat = e / (d + 1)
        for _ in range(50):
            w = rng.dirichlet(np.ones(d + 1))
            point = w @ hat
            lam = to_barycentric(point, d)
            assert np.allclose(from_barycentric(lam, d), point, atol=1e-12)
            # independent oracle: solve the affine system directly
            a = np.vstack([hat.T, np.ones(d + 1)])
            sol, *_ = np.linalg.lstsq(a, np.append(point, 1.0), rcond=None)
            assert np.allclose(sol, lam, atol=1e-9)

    def test_outside_container_rejected(self):
        e = np.asarray(vertex_matrix(2))
        with pytest.raises(DomainError):
            to_barycentric(1.5 * e[0] / 3.0, 2)


class TestLimitLaws:
    @staticmethod
    def assert_rows_replay(lam, d, seed):
        for r in range(len(lam)):
            rng = RngStream(seed, r)
            s = simplex_thinned_new(d)
            while s.excess >= 1e-12:
                s = simplex_thinned_step(s, rng)
            assert np.array_equal(lam[r], s.weights), (d, r)

    def test_thinned_batch_matches_scalar_steps(self):
        for d in (1, 2, 3, 5):
            self.assert_rows_replay(run_thinned_batch(d, 40, seed=34), d, 34)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_thinned_batch_replays_across_chunk_edges(self, monkeypatch, chunk):
        # 20 rows in chunks of 1, 3 and 7 replicas, the last chunk short
        whole = {d: run_thinned_batch(d, 20, seed=37) for d in (1, 2, 3, 5)}
        monkeypatch.setattr(simplex, "_THINNED_CHUNK", chunk)
        for d, lam in whole.items():
            cut = run_thinned_batch(d, 20, seed=37)
            assert np.array_equal(cut, lam), d
            self.assert_rows_replay(cut, d, 37)

    def test_perpetuity_fixed_point(self):
        d = 2
        lam = run_thinned_batch(d, 10_000, seed=35)
        lam_next = simplex_perpetuity_step(lam, RngStream(36, 0))
        for i in range(d + 1):
            assert ks_two_sample(lam[:, i], lam_next[:, i]) <= 0.02

    def test_full_vs_thinned_height_after_changes(self):
        # height after the j-th shrink should follow rho (1 + prod(1 - h_i)),
        # i.e. rho (1 + exp(-Gamma(j, 1)/d)); the analytic CDF is the oracle
        from scipy.special import gammaincc

        d, j, n_rep = 2, 10, 10_000
        heights = heights_after_changes(d, j, n_rep, seed=37)
        rho = 1.0 / d

        def cdf(x):
            frac = np.clip(np.asarray(x) / rho - 1.0, 1e-300, 1.0)
            return gammaincc(j, -d * np.log(frac))

        assert ks_stat(heights, cdf) <= 0.02
        # and the same law holds for a direct product-of-heights sampler
        rng = RngStream(38, 0)
        prod = np.prod(1.0 - (1.0 - rng.uniform((n_rep, j)) ** (1.0 / d)), axis=1)
        assert ks_two_sample(heights, rho + rho * prod) <= 0.02
