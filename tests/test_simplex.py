import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from diminish import distributions, simplex
from diminish.distributions import RngStream
from diminish.errors import DomainError
from diminish.simplex import (
    SimplexState,
    apply_simplex_point,
    change_probability,
    heights_after_changes,
    offsets_after_point,
    run_simplex_batch,
    run_thinned_batch,
    simplex_full_step,
    simplex_new,
    to_barycentric,
    vertex_matrix,
)
from diminish.stats import ks_stat, ks_two_sample


def assert_rows_replay(batch, d, n, seed):
    heights, centers = batch
    for r in range(len(heights)):
        rng = RngStream(seed, r)
        s = simplex_new(d)
        for _ in range(n):
            s = simplex_full_step(s, rng)
        assert heights[r] == s.height, (d, r)
        # the center read-out goes through BLAS at different shapes
        assert np.allclose(centers[r], s.center, atol=1e-15, rtol=0), (d, r)


def lockstep(d, n, replicas, seed):
    """Reference engine: every step of every row through the exact kernels."""
    rho = 1.0 / d
    u = np.stack([RngStream(seed, r).uniform((n, d + 1)) for r in range(replicas)])
    offsets = np.full((replicas, d + 1), 2.0 * rho / (d + 1))
    for t in range(n):
        offsets = offsets_after_point(offsets, simplex._uniform_weights(u[:, t]), rho)
    return offsets.sum(axis=1), -(d / (d + 1)) * (offsets @ vertex_matrix(d))


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
        with pytest.raises(DomainError):
            run_thinned_batch(0, 3, 1)
        with pytest.raises(DomainError, match="dimension"):
            heights_after_changes(0, 3, 4, 1)

    @pytest.mark.parametrize("replicas", [0, -1])
    def test_thinned_batch_rejects_bad_replicas(self, replicas):
        with pytest.raises(DomainError, match="replicas"):
            run_thinned_batch(2, replicas, 1)
        with pytest.raises(DomainError, match="replicas"):
            heights_after_changes(2, 3, replicas, 1)

    def test_heights_after_changes_rejects_negative_changes(self):
        with pytest.raises(DomainError, match="n_changes"):
            heights_after_changes(2, -1, 4, 1)
        assert heights_after_changes(2, 0, 3, 1) == pytest.approx([1.0] * 3, abs=1e-15)

    def test_center_at_origin(self):
        assert np.allclose(simplex_new(3).center, 0.0, atol=1e-15)

    def test_state_owns_read_only_offsets(self):
        start = simplex_new(2).offsets
        o = start.copy()
        s = SimplexState(2, o)
        o[0] += 0.1
        assert np.array_equal(s.offsets, start) and s.height == simplex_new(2).height
        with pytest.raises(ValueError):
            s.offsets[0] = 0.0


class TestFullStep:
    def test_change_probability_example(self):
        assert change_probability(simplex_new(2)) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_change_probability_is_change_frequency(self, d):
        # from a state 30 steps in, the share of 20000 uniform points that shrink it
        rng = RngStream(41, d)
        s = simplex_new(d)
        for _ in range(30):
            s = simplex_full_step(s, rng)
        n = 20_000
        lam = simplex._uniform_weights(rng.uniform((n, d + 1)))
        new = offsets_after_point(np.repeat(s.offsets[None], n, axis=0), lam, s.rho)
        changed = np.mean(np.any(new != s.offsets, axis=1))
        p = change_probability(s)
        assert abs(changed - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n) + 1e-12

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
            assert_rows_replay(run_simplex_batch(d, 200, 4, seed=32), d, 200, 32)

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


class TestScreen:
    """The screened window engine: raw-uniform screen, candidates, block edges."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [42, 43])
    @pytest.mark.parametrize("replicas,n", [(300, 40), (40, 300)])
    def test_matches_lockstep(self, d, seed, replicas, n):
        for a, b in zip(run_simplex_batch(d, n, replicas, seed), lockstep(d, n, replicas, seed)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_rows_replay_across_block_edges(self, monkeypatch, width):
        n, replicas, chunk = 150, 5, 3
        monkeypatch.setattr(simplex, "_CHUNK", chunk)
        for d in (1, 2, 3, 5):
            whole = run_simplex_batch(d, n, replicas, seed=44)
            with monkeypatch.context() as mp:
                mp.setattr(distributions, "_BLOCK_BYTES", width * chunk * (d + 1) * 8)
                cut = run_simplex_batch(d, n, replicas, seed=44)
            for a, b in zip(cut, whole):
                assert a.tobytes() == b.tobytes(), d
            assert_rows_replay(cut, d, n, 44)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        parts=st.lists(st.floats(1e-3, 1.0) | st.just(0.0), min_size=6, max_size=6),
        # excess as a fraction of rho: log-uniform down to 1e-16, and heights rho and 2 rho
        excess=st.floats(-16.0, 0.0).map(lambda t: 10.0**t) | st.sampled_from([0.0, 1.0]),
        top=st.floats(-20.0, 0.0).map(lambda t: min(10.0**t, 1.0 - 2.0**-53)),
        shares=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        where=st.integers(0, 5),
    )
    # with eta = 0 the screen passes a change in each of these, and without
    # the additive eta in the first two
    @example(
        d=3, parts=[1.0, 1.0, 0.5570117198176036, 1.0, 1.0, 0.0], excess=0.0,
        top=1.0 - 2.0**-53, shares=[0.0] * 5, where=0,
    )
    @example(
        d=5, parts=[0.0, 0.622349225526389, 0.4033190101942515, 0.0, 1.0, 0.5], excess=0.0,
        top=3.1622776601683794e-15, shares=[0.0] * 5, where=3,
    )
    @example(
        d=5, parts=[1.0, 0.5, 0.0, 1.0, 1.0, 0.5], excess=1.0,
        top=1.6548170999431814e-15, shares=[0.0] * 5, where=0,
    )
    def test_uniforms_the_screen_passes_keep_the_body(self, d, parts, excess, top, shares, where):
        # the largest uniform at index `where`, the others sharing the sum that
        # puts the step on the screen edge; then the largest one and two
        # doubles lower
        rho = 1.0 / d
        beta = np.array(parts[: d + 1])
        assume(beta.sum() > 0.0)
        row = (rho + excess * rho) * beta / beta.sum()
        scale = simplex._screen_scale(row[None], rho)
        p = np.array(shares[:d])
        p = p / p.sum() if p.sum() > 0.0 else np.full(d, 1.0 / d)
        rest = -np.log1p(-top) * scale[0] * p
        assume(rest.max() < 1.0)
        for u_max in (top, np.nextafter(top, 0.0), np.nextafter(np.nextafter(top, 0.0), 0.0)):
            u = np.insert(rest, where % (d + 1), u_max)
            if not simplex._screen_hits(u[None, None], scale)[0, 0]:
                lam = simplex._uniform_weights(u[None])
                assert offsets_after_point(row[None], lam, rho)[0].tobytes() == row.tobytes(), u


class TestThinnedChain:
    def test_substitution_example(self):
        w0, ell0 = np.full((1, 3), 1 / 3), np.array([0.5])
        w, ell = simplex._thinned_update(w0, ell0, np.array([0]), np.array([0.3]))
        assert np.allclose(w[0], [1 / 3 + 0.2, 1 / 3 - 0.1, 1 / 3 - 0.1], atol=1e-12)
        assert ell[0] == pytest.approx(0.35, abs=1e-15)

    def test_zero_height_is_identity(self):
        # run_thinned_batch freezes a finished chain by giving it h = 0
        w0, ell0 = np.full((2, 4), 0.25), np.array([1 / 3, 0.1])
        w, ell = simplex._thinned_update(w0, ell0, np.array([1, 3]), np.zeros(2))
        assert np.array_equal(w, w0) and np.array_equal(ell, ell0)

    @settings(max_examples=60, deadline=None)
    @given(xi=st.integers(0, 2), h=st.floats(0.0, 1.0), steps=st.integers(1, 10))
    def test_weights_stay_normalized(self, xi, h, steps):
        w, ell = np.full((1, 3), 1 / 3), np.array([0.5])
        for _ in range(steps):
            w, ell = simplex._thinned_update(w, ell, np.array([xi]), np.array([h]))
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_step_consumes_two_uniforms(self):
        # vertex from the first uniform, height 1 - U**(1/d) from the second
        xi, h = simplex._thinned_draws(np.array([[0.5], [0.49]]), 2)
        assert xi.tolist() == [1] and h[0] == pytest.approx(0.3, abs=1e-15)
        w, ell = simplex._thinned_update(np.full((1, 3), 1 / 3), np.array([0.5]), xi, h)
        assert ell[0] == pytest.approx(0.5 * 0.49**0.5, abs=1e-15)
        assert np.allclose(w[0], [1 / 3 - 0.1, 1 / 3 + 0.2, 1 / 3 - 0.1], atol=1e-15)

    def test_forced_heights(self):
        assert simplex._thinned_draws(np.array([[0.0], [0.37]]), 1)[1][0] == pytest.approx(0.63, abs=1e-15)
        h = simplex._thinned_draws(np.array([[0.0], [0.25]]), 2)[1][0]
        assert h == pytest.approx(0.5, abs=1e-15)
        assert 1.0 - (1.0 - h) ** 2 == pytest.approx(0.75, abs=1e-12)
        assert simplex._thinned_draws(np.array([[0.0], [0.512]]), 3)[1][0] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_height_law(self, d):
        # h = 1 - U**(1/d) has CDF 1 - (1 - x)**d on [0, 1]
        _, h = simplex._thinned_draws(RngStream(39, d).uniform((2, 20000)), d)
        assert ks_stat(h, lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** d) <= 0.02

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_vertex_pick_is_uniform(self, d):
        # a midpoint grid of 100 (d + 1) uniforms lands 100 times on each vertex
        u = (np.arange(100 * (d + 1)) + 0.5) / (100 * (d + 1))
        assert np.bincount(simplex._vertex_pick(u, d)).tolist() == [100] * (d + 1)
        edges = np.array([0.0, np.nextafter(1.0 / (d + 1), 0.0), np.nextafter(1.0, 0.0)])
        assert simplex._vertex_pick(edges, d).tolist() == [0, 0, d]


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
        # one chain at a time, one change per call, until the excess is below 1e-12
        for r in range(len(lam)):
            rng = RngStream(seed, r)
            w, ell = np.full((1, d + 1), 1.0 / (d + 1)), np.array([1.0 / d])
            while ell[0] >= 1e-12:
                xi, h = simplex._thinned_draws(rng.uniform((2, 1)), d)
                w, ell = simplex._thinned_update(w, ell, xi, h)
            assert np.array_equal(lam[r], w[0]), (d, r)

    def test_thinned_batch_matches_scalar_steps(self):
        for d in (1, 2, 3, 5):
            self.assert_rows_replay(run_thinned_batch(d, 40, seed=34), d, 34)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_thinned_batch_replays_across_chunk_edges(self, monkeypatch, chunk):
        # 20 rows in chunks of 1, 3 and 7 replicas, the last chunk short
        whole = {d: run_thinned_batch(d, 20, seed=37) for d in (1, 2, 3, 5)}
        monkeypatch.setattr(simplex, "_CHUNK", chunk)
        for d, lam in whole.items():
            cut = run_thinned_batch(d, 20, seed=37)
            assert np.array_equal(cut, lam), d
            self.assert_rows_replay(cut, d, 37)
            # a chain that runs past its block reads on in the next one
            with monkeypatch.context() as mp:
                mp.setattr(distributions, "_BLOCK_BYTES", chunk * 5 * 2 * 8)
                assert np.array_equal(run_thinned_batch(d, 20, seed=37), lam), d

    def test_thinned_batch_draws_only_the_blocks_it_uses(self, monkeypatch):
        # every chain ends within the first 256-change block of its chunk, on
        # 4096-row chunks and on one 256-row chunk; 1024 changes per chain
        # drew four times as much
        drawn = []
        uniform = RngStream.uniform

        def spy(self, size=None, out=None):
            drawn.append(np.size(out) if out is not None else int(np.prod(size)))
            return uniform(self, size, out)

        monkeypatch.setattr(RngStream, "uniform", spy)
        for d, replicas in itertools.product((1, 2, 3, 5), (256, 8000)):
            drawn.clear()
            run_thinned_batch(d, replicas, seed=41)
            assert sum(drawn) <= replicas * 256 * 2, (d, replicas)

    @pytest.mark.parametrize("d", [1, 4, 5])
    def test_thinned_marginals_match_beta(self, d):
        # every weight of the limit is Beta(a, d a), a = d/(d+1); the check
        # covers d = 2, 3 and d = 1 is the arcsine law of the interval
        lam = run_thinned_batch(d, 10_000, seed=40)
        a = d / (d + 1)
        marg = stats.beta(a, d * a).cdf
        assert max(ks_stat(lam[:, i], marg) for i in range(d + 1)) <= 0.02

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
