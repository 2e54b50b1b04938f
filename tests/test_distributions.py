import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from diminish import distributions
from diminish.distributions import (
    DfForm,
    RngStream,
    arcsine,
    beta_law,
    df_form_cdf,
    df_form_ppf,
    exp1,
    law_eval,
    max_exp,
    weibull,
    LawSpec,
    replica_blocks,
    window_rounds,
)
from diminish.cube import cube_run_batch
from diminish.errors import ConfigurationError, DomainError
from diminish.interval import run_full_batch
from diminish.polygon import run_polygon_batch
from diminish.simplex import run_simplex_batch, run_thinned_batch
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

    def test_fill_in_place_draws_what_a_fresh_array_gets(self):
        buffer = np.zeros((3, 4, 5))
        s = RngStream(11, 2)
        out = s.uniform(out=buffer[1])
        assert np.shares_memory(out, buffer) and out.shape == (4, 5)
        fresh = RngStream(11, 2)
        assert buffer[1].tobytes() == fresh.uniform((4, 5)).tobytes()
        assert not buffer[0].any() and not buffer[2].any()
        assert s.uniform(3).tobytes() == fresh.uniform(3).tobytes()

    @pytest.mark.parametrize(
        "address", [(1.5,), (-1,), ("3",), (None,), (1, 2.0), (1, -2), (1, 0, (1.5,)), (1, 0, (-1,))]
    )
    def test_address_must_be_integers_at_least_zero(self, address):
        with pytest.raises(DomainError, match="integer >= 0"):
            RngStream(*address)

    def test_numpy_integers_address_the_same_stream(self):
        s = RngStream(np.int64(42), np.uint32(3), (np.int8(1),))
        assert (s.seed, s.stream_id, s.path) == (42, 3, (1,)) and type(s.seed) is int
        assert s.uniform(4).tobytes() == RngStream(42, 3, (1,)).uniform(4).tobytes()


# Seeds of one to five 32-bit words, and path entries of one and two words.
SEEDS = st.integers(0, 2**140) | st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 1])
PATHS = st.lists(st.integers(0, 2**40) | st.sampled_from([0, 2**32 - 1, 2**32]), max_size=3).map(tuple)


class TestBatchSeeding:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=SEEDS,
        path=PATHS,
        start=st.integers(0, 2**32 - 1) | st.integers(0, 20),
        width=st.integers(1, 6),
    )
    @example(seed=2**100 + 1, path=(2**32, 0, 7), start=2**32 - 3, width=3)
    def test_words_equal_seed_sequence(self, seed, path, start, width):
        ids = np.arange(start, min(start + width, 2**32))
        words = distributions._pcg64_words(seed, ids, path)
        assert words.dtype == np.uint64 and words.shape == (len(ids), 4)
        for r, row in zip(ids, words):
            ref = np.random.SeedSequence(seed, spawn_key=(int(r), *path)).generate_state(4, np.uint64)
            assert row.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, path=PATHS, replicas=st.integers(1, 9), chunk=st.integers(1, 4))
    def test_chunks_replay_scalar_streams_across_chunk_edges(self, seed, path, replicas, chunk):
        for start, stop, blocks in replica_blocks(seed, replicas, 3, 2, chunk, path):
            (u,) = blocks
            for i, r in enumerate(range(start, stop)):
                assert u[i].tobytes() == RngStream(seed, r, path).uniform((3, 2)).tobytes()

    @pytest.mark.parametrize("seed,path", [(7, ()), (2**64 + 3, (2**33, 1)), (0, (0,))])
    def test_batch_streams_draw_what_scalar_streams_draw(self, seed, path):
        for s in distributions._chunk_streams(seed, 4094, 4099, path):
            ref = RngStream(seed, s.stream_id, path)
            assert (s.seed, s.path) == (ref.seed, ref.path)
            assert s.uniform((2, 3)).tobytes() == ref.uniform((2, 3)).tobytes()
            assert s.integers(7, 5).tobytes() == ref.integers(7, 5).tobytes()
            assert s.gamma(0.4, 3).tobytes() == ref.gamma(0.4, 3).tobytes()
            assert s.uniform(2).tobytes() == ref.uniform(2).tobytes()
            sub, ref_sub = s.substream(2, 5), ref.substream(2, 5)
            assert sub.uniform(3).tobytes() == ref_sub.uniform(3).tobytes()

    def test_hash_raises_no_floating_point_warning(self):
        # numpy scalar uint32 products warn on overflow; the hash's column
        # products must wrap silently, as the C hash does
        ids = np.array([0, 1, 2**31, 2**32 - 1])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for seed, path in [(0, ()), (2**32 - 1, (2**32 - 1,)), (2**140 - 1, (2**40, 3))]:
                distributions._pcg64_words(seed, ids, path)
                distributions._pcg64_words(seed, ids[:1], path)


class TestReplicaBlocks:
    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        with pytest.raises(DomainError, match="chunk"):
            replica_blocks(1, 4, 10, 1, chunk)

    @pytest.mark.parametrize("make", [replica_blocks, window_rounds])
    @pytest.mark.parametrize("draws", [0, -1])
    def test_draws_below_one_rejected_at_the_call(self, make, draws):
        # not a ZeroDivisionError or ValueError on the first next()
        with pytest.raises(DomainError, match="draws"):
            make(1, 4, 10, draws, 2)

    @pytest.mark.parametrize("block", [0, -1])
    def test_block_below_one_rejected(self, block):
        with pytest.raises(DomainError, match="block"):
            replica_blocks(1, 4, 10, 1, 2, block=block)

    @pytest.mark.parametrize("make", [replica_blocks, window_rounds])
    @pytest.mark.parametrize(
        "seed,path,match",
        [(1.5, (), "seed"), (-1, (), "seed"), ("1", (), "seed"), (1, (2.0,), "path"), (1, (-1,), "path")],
    )
    def test_bad_address_rejected_at_the_call(self, make, seed, path, match):
        with pytest.raises(DomainError, match=match):
            make(seed, 4, 10, 1, 2, path)

    @pytest.mark.parametrize("make", [replica_blocks, window_rounds])
    def test_more_than_2_32_replicas_rejected_at_the_call(self, make):
        # raised before any buffer is allocated or stream built
        with pytest.raises(DomainError, match="2\\*\\*32"):
            make(1, 2**32 + 1, 10, 1, 4096)
        make(1, 2**32, 10, 1, 4096)  # the generator has not started: nothing allocated

    def test_every_chunk_fills_one_buffer_in_stream_order(self, monkeypatch):
        # 10 replicas in chunks of 4, 4 and 2; blocks of 2 steps
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", 4 * 2 * 3 * 8)
        first = None
        for start, stop, blocks in replica_blocks(1, 10, 5, 3, 4):
            steps = []
            for u in blocks:
                first = u if first is None else first
                assert np.shares_memory(u, first) and u.shape[::2] == (stop - start, 3)
                steps.append(u.copy())
            assert [u.shape[1] for u in steps] == [2, 2, 1]
            steps = np.concatenate(steps, axis=1)
            for i, r in enumerate(range(start, stop)):
                assert steps[i].tobytes() == RngStream(1, r).uniform((5, 3)).tobytes()


class TestBlockSizing:
    @staticmethod
    def byte_cap_block(rows, n, draws):
        # the rule before window-sized blocks: as many steps as fit in 48 MB
        return max(1, min(n, int(48e6 / (rows * draws * 8))))

    @pytest.mark.parametrize("rows", [1, 256, 4096, 8000, 10**4])
    @pytest.mark.parametrize("draws", [1, 2, 3, 4])
    def test_no_block_is_wider_than_under_the_byte_cap(self, rows, draws):
        for n in (1, 7, 200, 8000, 10**6):
            block, buffer = distributions._block_buffer(rows, n, draws)
            assert 1 <= block <= self.byte_cap_block(rows, n, draws)
            assert buffer.size == rows * block * draws

    def test_the_workload_shapes(self):
        # 256 rows: four 512-step windows; 8000 rows at n = 200: one block, as before
        assert distributions._block_buffer(256, 8000, 3)[0] == 2048
        for draws in (1, 2, 3):
            assert distributions._block_buffer(8000, 200, draws)[0] == 200
        # verify's 10**4-step runs: interval and cube on 8192-row chunks and
        # simplex d = 2, 3 on 4096 rows take the floor (732, 488 and 366 steps
        # under the byte cap alone); polygon on 10**4 rows keeps its byte cap
        for rows, draws, block in [(8192, 1, 256), (4096, 3, 256), (4096, 4, 256), (10**4, 3, 200)]:
            assert distributions._block_buffer(rows, 10**4, draws)[0] == block
        # 1000 rows: four 131-step windows, not the 2000-step byte cap
        assert distributions._block_buffer(1000, 10**4, 3)[0] == 524
        # a width the caller asks for, as the thinned chain does
        assert distributions._block_buffer(4096, 1024, 2, 256)[0] == 256
        assert distributions._block_buffer(4096, 100, 2, 256)[0] == 100

    @pytest.mark.parametrize(
        "engine",
        [lambda: run_polygon_batch(7, 8000, 256, 1), lambda: run_simplex_batch(3, 8000, 256, 1)],
        ids=["polygon-k7", "simplex-d3"],
    )
    def test_long_runs_stay_below_40_mb(self, engine):
        # a 48 MB block alone took 65.6 (polygon) and 58.7 MB (simplex)
        import tracemalloc

        tracemalloc.start()
        try:
            engine()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    @staticmethod
    def track_streams(monkeypatch):
        """Weak references to every chunk's streams, one list per chunk, as they are seeded."""

        class Tracked(RngStream):
            __slots__ = ("__weakref__",)

        chunks = []
        seed_chunk = distributions._chunk_streams

        def tracked(seed, start, stop, path):
            streams = []
            for s in seed_chunk(seed, start, stop, path):
                t = Tracked.__new__(Tracked)
                t.seed, t.stream_id, t.path, t._gen = s.seed, s.stream_id, s.path, s._gen
                streams.append(t)
            chunks.append([weakref.ref(t) for t in streams])
            return streams

        monkeypatch.setattr(distributions, "_chunk_streams", tracked)
        return chunks

    def test_streams_are_released_after_the_last_fill(self, monkeypatch):
        # 5 replicas in chunks of 3 and 2; blocks of 4 steps over n = 10
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", 3 * 4 * 2 * 8)
        chunks = self.track_streams(monkeypatch)
        for start, stop, blocks in replica_blocks(5, 5, 10, 2, 3):
            widths = []
            for u in blocks:
                widths.append(u.shape[1])
                # a chunk's streams live until its last block is filled
                alive = [ref() is not None for ref in chunks[-1]]
                assert alive == [sum(widths) < 10] * (stop - start)
            assert widths == [4, 4, 2]
        assert len(chunks) == 2

    def test_streams_are_released_when_the_blocks_are_closed(self, monkeypatch):
        chunks = self.track_streams(monkeypatch)
        ((_, _, blocks),) = replica_blocks(5, 3, 10**4, 2, 3, block=100)
        next(blocks)
        assert all(ref() is not None for ref in chunks[0])
        blocks.close()
        assert all(ref() is None for ref in chunks[0])

    def test_thinned_chunks_release_their_streams_before_the_next(self, monkeypatch):
        # the chains stop inside their first block; each chunk closes its blocks
        from diminish import simplex

        monkeypatch.setattr(simplex, "_CHUNK", 7)
        chunks = self.track_streams(monkeypatch)
        seed_chunk = distributions._chunk_streams
        alive_at_seed = []

        def seeding(*args):
            alive_at_seed.append(sum(ref() is not None for refs in chunks for ref in refs))
            return seed_chunk(*args)

        monkeypatch.setattr(distributions, "_chunk_streams", seeding)
        run_thinned_batch(3, 20, seed=41)
        assert len(chunks) == 3 and alive_at_seed == [0, 0, 0]

    def test_change_walk_leaves_the_stream_after_n_steps(self, monkeypatch):
        # 7-step blocks: the walk's stream is dropped after its last fill, not
        # the caller's, which stands where 50 steps of one draw leave it
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", 7 * 8)
        rng = RngStream(9, 2)
        steps, states = distributions._change_walk(
            0, 50, rng, 1, lambda s, u: u[..., 0] < 0.2, lambda s, u: s + 1
        )
        ref = RngStream(9, 2).uniform(51)
        assert steps == list(np.flatnonzero(ref[:50] < 0.2) + 1)
        assert states == list(range(1, len(steps) + 1))
        assert rng.uniform() == ref[50]


ENGINES = pytest.mark.parametrize(
    "engine",
    [
        lambda n, replicas, seed: run_full_batch(F32, n, replicas, seed),
        lambda n, replicas, seed: cube_run_batch(3, n, replicas, seed),
        lambda n, replicas, seed: run_simplex_batch(2, n, replicas, seed),
        lambda n, replicas, seed: run_polygon_batch(5, n, replicas, seed),
    ],
    ids=["interval", "cube", "simplex", "polygon"],
)


class TestWindowRounds:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_step_visited_once_in_order(self, monkeypatch, seed):
        # 8 replicas in chunks of 3, 3 and 2; blocks of 4 steps
        replicas, n, draws, chunk, path = 8, 30, 2, 3, (1,)
        monkeypatch.setattr(distributions, "_BLOCK_BYTES", chunk * 4 * draws * 8)
        masks = np.random.default_rng(seed)
        seen = [[] for _ in range(replicas)]
        for w in window_rounds(seed, replicas, n, draws, chunk, path):
            assert len(set(w.act // chunk)) == 1  # one chunk per round, global ids
            hit = masks.random(w.draws.shape[:2]) < 0.2
            rows, at, kept = w.advance(hit)
            moved = np.zeros(len(w.act), dtype=bool)
            moved[rows] = True
            assert np.array_equal(at, kept[rows]) and hit[rows, at].all()
            for i, r in enumerate(w.act):
                assert not hit[i, : kept[i]].any()
                seen[r].extend(w.draws[i, : kept[i] + moved[i]].copy())  # a round buffer
        for r in range(replicas):
            stream = RngStream(seed, r, path).uniform((n, draws))
            assert np.array(seen[r]).tobytes() == stream.tobytes()

    @ENGINES
    @pytest.mark.parametrize("n,replicas", [(0, 10), (10, 0), (10, -1)])
    def test_engines_reject_bad_sizes(self, engine, n, replicas):
        with pytest.raises(DomainError, match="n and replicas"):
            engine(n, replicas, 1)

    @ENGINES
    @pytest.mark.parametrize(
        "replicas,seed,match", [(10, 2.7, "seed"), (10, -1, "seed"), (2**32 + 1, 1, "2\\*\\*32")]
    )
    def test_engines_reject_bad_seeds_and_too_many_replicas(self, engine, replicas, seed, match):
        # 2**32 + 1 replicas is refused before the engine allocates its state
        with pytest.raises(DomainError, match=match):
            engine(10, replicas, seed)

    def test_thinned_engine_rejects_bad_seeds(self):
        for seed in (2.7, -1):
            with pytest.raises(DomainError, match="seed"):
                run_thinned_batch(2, 10, seed)


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
        low = df_form_ppf(rng.uniform(1000), DfForm(1.0, 2.0))
        high = df_form_ppf(rng.uniform(1000), DfForm(0.0, 2.0))
        assert low.max() <= 0.5 and high.min() >= 0.5

    def test_folded_law(self):
        # 2 min(X, 1-X) has CDF x^delta regardless of c
        x = df_form_ppf(RngStream(5, 0).uniform(100_000), F32)
        y = 2.0 * np.minimum(x, 1.0 - x)
        assert ks_stat(y, lambda t: t**2.0) <= 0.01

    def test_conditional_self_similarity(self):
        f = DfForm(0.3, 1.0)
        x = df_form_ppf(RngStream(6, 0).uniform(100_000), f)
        y = 2.0 * np.minimum(x, 1.0 - x)
        for a in (0.25, 0.5, 0.9):
            assert ks_two_sample(y[y <= a], a * y) <= 0.02

    def test_conditional_self_similarity_analytic(self):
        x = df_form_ppf(RngStream(7, 0).uniform(100_000), F32)
        y = 2.0 * np.minimum(x, 1.0 - x)
        for a in (0.25, 0.5, 0.9):
            cond = y[y <= a]
            assert ks_stat(cond, lambda t, a=a: (t / a) ** 2.0) <= 0.02

    def test_sign_and_magnitude_independent(self):
        x = df_form_ppf(RngStream(8, 0).uniform(100_000), F32)
        ind = (x <= 0.5).astype(float)
        mag = np.maximum(x, 1.0 - x)
        corr = np.corrcoef(ind, mag)[0, 1]
        assert abs(corr) <= 0.01


class TestLawEval:
    def test_examples(self):
        assert law_eval(weibull(2.0), 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert law_eval(max_exp(2), math.log(2.0)) == pytest.approx(0.25, abs=1e-12)

    def test_weibull_cdf_below_shape_one_does_not_warn(self):
        # runtime warnings fail the tests: x <= 0 must not raise 0 to a negative power
        assert law_eval(weibull(0.7), 0.0) == 0.0
        assert np.array_equal(law_eval(weibull(0.7), np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_cdf_limits(self):
        for law in (weibull(2.0), exp1(), max_exp(3), beta_law(1.4, 0.6)):
            lo = law_eval(law, -1.0) if law.kind != "beta" else law_eval(law, 0.0)
            assert lo == pytest.approx(0.0, abs=1e-12)
            assert law_eval(law, 50.0) == pytest.approx(1.0, abs=1e-9)
        assert law_eval(arcsine(), -0.5) == pytest.approx(0.0, abs=1e-12)
        assert law_eval(arcsine(), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            law_eval(LawSpec("cauchy"), 0.5)

    # scipy's CDF of each law kind, from the law's parameters
    SCIPY_CDF = {
        "weibull": lambda delta: stats.weibull_min(delta).cdf,
        "exp1": lambda: stats.expon.cdf,
        "max_exp": lambda d: lambda x: stats.expon.cdf(x) ** d,
        "beta": lambda a, b: stats.beta(a, b).cdf,
        "arcsine": lambda: stats.arcsine(loc=-0.5).cdf,
    }

    @pytest.mark.parametrize(
        "law",
        [
            weibull(2.0),
            weibull(3.0),
            weibull(0.7),
            exp1(),
            max_exp(3),
            beta_law(0.5, 0.5),
            beta_law(1.4, 0.6),
            beta_law(2 / 3, 4 / 3),
            beta_law(3 / 4, 9 / 4),
            arcsine(),
        ],
        ids=lambda law: law.kind + str(law.params),
    )
    def test_cdf_matches_scipy(self, law):
        # the laws and shapes the checks use, on a grid that also covers
        # each support's edges and both sides outside it
        x = np.linspace(-1.0, 6.0, 7001)
        reference = self.SCIPY_CDF[law.kind](*law.params)
        assert np.abs(law_eval(law, x) - reference(x)).max() <= 1e-12
