"""Random streams, the two-branch power family and the analytic limit laws.

Every draw comes from an explicit :class:`RngStream`; there is no hidden
global randomness.  :func:`replica_blocks` and :func:`window_rounds` hand the
batch engines each replica's uniforms in step order.  The general interval
process draws its points through the inverse CDF of :class:`DfForm`
(:func:`df_form_ppf`).  The named limit laws (Weibull, exponential,
max-of-exponentials, beta, arcsine) are evaluated in closed form
(:func:`law_eval`), which is what the checks test their samples against.

This module needs numpy alone until the first Beta CDF: ``law_eval`` imports
``scipy.special`` there, so ``import diminish`` loads no SciPy.  (SciPy's
Qhull loads with ``oracle``, and so with ``verification`` and ``cli``.)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, DomainError

__all__ = [
    "RngStream",
    "replica_blocks",
    "window_rounds",
    "DfForm",
    "LawSpec",
    "df_form_cdf",
    "df_form_ppf",
    "law_eval",
    "cdf_callable",
    "weibull",
    "beta_law",
    "arcsine",
    "exp1",
    "max_exp",
]


class RngStream:
    """Deterministic pseudo-random stream addressed by ``(seed, stream_id, path)``.

    Identical addresses reproduce identical draw sequences; distinct
    addresses give statistically independent streams (PCG64 seeded through
    ``numpy.random.SeedSequence`` spawn keys).  ``stream_id`` is the replica
    index; :meth:`substream` derives per-component children, e.g. one per
    cube axis.  Every part of the address is an integer >= 0 (numpy integers
    included); anything else raises :class:`DomainError`.  A stream may be
    moved between threads but must not be shared concurrently.

    This constructor seeds through numpy's own ``SeedSequence``.  The batch
    engines build the streams of a whole chunk of replicas at once
    (:func:`replica_blocks`): they compute the same PCG64 seeding words for
    every replica with the published SeedSequence hash in ``uint32`` column
    arithmetic, so each of their streams draws bit for bit what
    ``RngStream(seed, r, path)`` draws.
    """

    __slots__ = ("seed", "stream_id", "path", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, path: tuple[int, ...] = ()):
        self.seed = _address(seed, "seed")
        self.stream_id = _address(stream_id, "stream_id")
        self.path = tuple(_address(p, "path entry") for p in path)
        key = (self.stream_id, *self.path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key))
        )

    def substream(self, *path: int) -> "RngStream":
        """Child stream for a sub-process (axis, component, ...)."""
        return RngStream(self.seed, self.stream_id, self.path + path)

    def uniform(self, size=None, out=None):
        """Standard uniform draws on [0, 1), filling and returning ``out`` when given.

        ``out`` must be a C-contiguous float array; the draws are the ones a
        fresh array of its shape would get.
        """
        return self._gen.random(size, out=out)

    def integers(self, n: int, size=None):
        """Uniform integers on {0, ..., n-1}."""
        return self._gen.integers(0, n, size=size)

    def gamma(self, shape, size=None):
        """Standard gamma variates (scale 1); valid for shape < 1."""
        return self._gen.standard_gamma(shape, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, path={self.path})"


def _address(value, what: str) -> int:
    """``value`` as a stream-address integer >= 0, or :class:`DomainError`."""
    try:
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer >= 0, got {value!r}") from None
    if v < 0:
        raise DomainError(f"{what} must be an integer >= 0, got {v}")
    return v


# numpy's SeedSequence with its pool of 4 uint32 words: these constants and the
# steps of _pcg64_words are its published hash, which numpy's random-stream
# compatibility policy keeps fixed (the tests compare it with SeedSequence).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Batch stream ids stay below 2**32, so every replica's spawn key puts exactly
# one word in the same place of its entropy.
_MAX_REPLICAS = 2**32


def _uint32_words(x: int) -> list[int]:
    """Little-endian 32-bit words of ``x >= 0``; ``[0]`` for zero."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _pcg64_words(seed: int, ids: np.ndarray, path: tuple[int, ...]) -> np.ndarray:
    """PCG64 seeding words of the streams ``(seed, r, path)`` for ``r`` in ``ids``.

    Row ``i`` of the ``(len(ids), 4)`` result is
    ``SeedSequence(seed, spawn_key=(ids[i], *path)).generate_state(4, np.uint64)``.
    Each ``0 <= r < 2**32`` is one entropy word, so every replica runs the
    same data-independent schedule of the hash and only one word differs.
    The words shared by all replicas are Python ints, the ids a ``uint32``
    column, and every step reduces modulo 2**32: on a column, numpy's array
    (not scalar) arithmetic wraps without a warning, as the C hash does.
    The ids always sit past the pool's words, so the pool starts as Python
    ints; from there its four words are the rows of one ``(4, N)`` array,
    and each entropy word mixes into all four in one pass of array steps.
    """
    run = _uint32_words(seed)
    # a non-empty spawn key pads the seed's words to the pool size
    entropy = run + [0] * (_POOL - len(run)) + [ids.astype(np.uint32)]
    entropy += [w for p in path for w in _uint32_words(p)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def hashmix_rows(value, lanes, mult=_MULT_A):
        """``lanes`` successive hash calls on ``value``, one row each."""
        nonlocal const
        seq = [const]
        for _ in range(lanes):
            seq.append((seq[-1] * mult) & _MASK32)
        const = seq[-1]
        seq = np.array(seq, np.uint32)[:, None]
        value = ((value ^ seq[:-1]) * seq[1:]) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    pool = np.array(pool, np.uint32)[:, None]
    for w in entropy[_POOL:]:
        pool = mix(pool, hashmix_rows(w, _POOL))
    # generate_state(4, uint64): 8 uint32 words, cycling through the pool
    const = _INIT_B
    state = hashmix_rows(np.concatenate([pool, pool]), 2 * _POOL, _MULT_B)
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed source handing PCG64 the state words :func:`_pcg64_words` computed."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError("only PCG64's generate_state(4, np.uint64) is precomputed")
        return self._words


def _chunk_streams(seed: int, start: int, stop: int, path: tuple[int, ...]) -> list[RngStream]:
    """``RngStream(seed, r, path)`` for ``r`` in ``[start, stop)``, seeded in one hash pass."""
    streams = []
    for r, words in zip(range(start, stop), _pcg64_words(seed, np.arange(start, stop), path)):
        s = RngStream.__new__(RngStream)
        s.seed, s.stream_id, s.path = seed, r, path
        s._gen = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        streams.append(s)
    return streams


_BLOCK_BYTES = 48e6


def replica_blocks(
    seed: int,
    replicas: int,
    n: int,
    draws: int,
    chunk: int,
    path: tuple[int, ...] = (),
    *,
    block: int | None = None,
):
    """Per-replica uniforms of ``n``-step trajectories, in chunks of at most ``chunk`` replicas.

    Replica ``r`` draws ``draws`` uniforms per step from
    ``RngStream(seed, r, path)`` in step order, which is what lets a batch
    row replay the scalar stepper on that stream.  Yields
    ``(start, stop, blocks)`` per chunk;
    ``blocks`` yields arrays ``u`` of shape ``(stop - start, width, draws)``
    covering the ``n`` steps in order, ``u[i, t]`` being the draws of the
    next step of replica ``start + i``.  A block holds ``block`` steps, by
    default a few of the widest windows :func:`window_rounds` gives a row
    (:func:`_block_buffer` sizes and caps it), and one buffer serves every
    block of every chunk, so a block is only valid until the next one is
    requested; blocks are filled on demand, so an engine that stops early
    draws no further.  A chunk's streams are released once its last block
    is filled, or once its ``blocks`` is closed: a caller that stops early
    closes it before asking for the next chunk.

    A chunk's streams are seeded together: the SeedSequence hash runs once
    over the chunk's replica ids (:func:`_pcg64_words`) and gives each
    replica the PCG64 state words numpy's own ``SeedSequence`` gives
    ``RngStream(seed, r, path)``, so the draws are the same bit for bit.
    A bad size, a seed or path entry that is not an integer >= 0, or more
    than 2**32 replicas (stream ids stay one hash word wide) raises
    :class:`DomainError` at the call.
    """
    if n < 1 or replicas < 1:
        raise DomainError("n and replicas must be >= 1")
    if chunk < 1:
        raise DomainError(f"chunk must be >= 1, got {chunk}")
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    if block is not None and block < 1:
        raise DomainError(f"block must be >= 1, got {block}")
    if replicas > _MAX_REPLICAS:
        raise DomainError(f"replicas must be <= 2**32, got {replicas}")
    seed = _address(seed, "seed")
    path = tuple(_address(p, "path entry") for p in path)
    return _replica_chunks(seed, replicas, n, draws, chunk, path, block)


def _replica_chunks(seed, replicas, n, draws, chunk, path, block):
    # One buffer for every chunk.  With glibc, freeing a chunk's buffer raises
    # the mmap threshold to its size, so a fresh buffer for the next chunk came
    # from the heap and stayed resident after the engine returned.
    block, buffer = _block_buffer(min(chunk, replicas), n, draws, block)
    for start in range(0, replicas, chunk):
        stop = min(start + chunk, replicas)
        # no reference here: _stream_blocks drops the streams after its last fill
        yield start, stop, _stream_blocks(
            _chunk_streams(seed, start, stop, path), n, draws, block, buffer
        )


def _block_buffer(rows: int, n: int, draws: int, steps: int | None = None):
    """Steps per block of ``rows`` streams, and one buffer for such a block.

    By default a block holds ``_BLOCK_WINDOWS`` of the widest windows a
    round of :func:`window_rounds` can give each row (``_WINDOW_ELEMENTS //
    rows`` steps): every block end makes a round wait for the slowest row.
    It holds at least ``_BLOCK_FLOOR`` steps, so a wide chunk still fills
    each stream a few hundred steps at a time.  A block holds at most
    ``steps`` steps when they are given, and never more than ``n`` steps or
    ``_BLOCK_BYTES`` bytes.
    """
    if steps is None:
        steps = max(_BLOCK_FLOOR, _BLOCK_WINDOWS * (_WINDOW_ELEMENTS // rows))
    block = max(1, min(n, steps, int(_BLOCK_BYTES / (rows * draws * 8))))
    return block, np.empty(rows * block * draws)


def _stream_blocks(streams: list[RngStream], n: int, draws: int, block: int, buffer: np.ndarray):
    rows = len(streams)
    for done in range(0, n, block):
        width = min(block, n - done)
        u = buffer[: rows * width * draws].reshape(rows, width, draws)
        for i in range(rows):
            streams[i].uniform(out=u[i])
        if done + width == n:
            streams = None  # the last fill: release the generators before the engine runs on
        yield u


# Window rule of the windowed batch engines.  A round draws the next W steps of
# every active replica of a chunk, W = max(1, t // _WINDOW_GROWTH) with t the
# step count of the slowest one: a step changes the state with probability of
# order 1/t, so most windows pass without a change.  A replica's window ends at
# the end of its uniform block (the buffer is refilled in place), and a round
# holds at most _WINDOW_ELEMENTS replica-steps.  Uniform blocks are sized by
# _block_buffer: fewer than four windows per block, or blocks of fewer than a
# few hundred steps, cost more in rounds waiting at block ends and in fill
# calls than the smaller buffer saves.
_WINDOW_GROWTH = 8
_WINDOW_ELEMENTS = 2**17
_BLOCK_WINDOWS = 4
_BLOCK_FLOOR = 256


class Window:
    """One round of :func:`window_rounds`: the next steps of the active replicas.

    Window row ``i`` is replica ``act[i]`` (a global index), and
    ``draws[i, j]`` holds the draws of its window step ``j``.  Slots past
    its block end hold other draws; :meth:`advance` ignores them.
    ``draws`` is a round buffer, valid until the next round.
    """

    __slots__ = ("act", "draws", "_local", "_left", "_pos")

    def __init__(self, act, draws, local, left, pos):
        self.act, self.draws, self._local, self._left, self._pos = act, draws, local, left, pos

    def advance(self, hit):
        """Move every replica past its first hit, or past its whole window.

        ``hit[i, j]`` says that window step ``j`` of row ``i`` changes the
        state.  Returns ``(rows, at, kept)``: window row ``rows[m]`` hit at
        window step ``at[m]``, and ``kept[i]`` counts the unchanged steps row
        ``i`` passes, so a row moves on by ``kept`` steps plus its hit.
        """
        first = hit.argmax(axis=1)
        # a first hit past the block end means no hit inside it
        moved = hit[np.arange(first.size), first] & (first < self._left)
        kept = np.where(moved, first, np.minimum(self._left, hit.shape[1]))
        self._pos[self._local] += kept + moved
        rows = np.flatnonzero(moved)
        return rows, first[rows], kept


def window_rounds(
    seed: int, replicas: int, n: int, draws: int, chunk: int, path: tuple[int, ...] = ()
):
    """Rounds of a windowed engine over the :func:`replica_blocks` of all replicas.

    A bad size or stream address raises :class:`DomainError` at the call,
    as in :func:`replica_blocks`.  Each replica keeps
    its own step pointer.  A round yields a :class:`Window` with the next W
    steps of every replica of one chunk not yet at its block end, W set by
    ``_WINDOW_GROWTH`` and ``_WINDOW_ELEMENTS``; the engine tests them for a
    change and must call :meth:`Window.advance` before asking for the next
    round, or the replicas never move.  A replica then sees every step of
    its trajectory in order, so an engine that applies each first hit exactly
    as its scalar step would replays that step bit for bit, with its state
    in arrays over all replicas.  A block holds about ``_BLOCK_WINDOWS``
    windows of the widest kind, so every few windows a round waits for the
    slowest row to reach the block end.  The draws are gathered into
    buffers allocated once per block: fresh arrays of a round's size cost
    about as much as its arithmetic.
    """
    return _rounds(replica_blocks(seed, replicas, n, draws, chunk, path))


def _change_walk(s, n: int, rng: RngStream, draws: int, hits, step):
    """The changes of ``n`` steps of a scalar chain from ``s`` on ``rng``: ``(steps, states)``.

    ``states[i]`` is the state from step ``steps[i]`` on.  The stream is a
    one-row chunk of :func:`window_rounds`, so the walk screens its steps
    with the engines' window rule and :meth:`Window.advance`:
    ``hits(s, u)`` marks the window steps that may change ``s`` (``u`` holds
    their draws, shape ``(1, W, draws)``), and only the first of them goes
    through ``step(s, u)``, the scalar step on one step's draws, which
    returns ``s`` itself when it keeps it.  The walk draws exactly
    ``n * draws`` uniforms from ``rng`` in step order, which leaves the
    stream where ``n`` scalar steps leave it.
    """
    steps, states, t = [], [], 0
    blocks = _stream_blocks([rng], n, draws, *_block_buffer(1, n, draws))
    for w in _rounds([(0, 1, blocks)]):
        rows, at, kept = w.advance(hits(s, w.draws))
        t += int(kept[0]) + rows.size
        if rows.size and (new := step(s, w.draws[0, at[0]])) is not s:
            s = new
            steps.append(t)
            states.append(s)
    return steps, states


def _rounds(chunks):
    for start, stop, blocks in chunks:
        cap = max(_WINDOW_ELEMENTS, stop - start)
        done = 0
        for u in blocks:
            width, draws = u.shape[1:]
            steps = u.reshape(-1, draws)  # row i * width + t: step t of chunk row i
            index, gathered = np.empty(cap, dtype=np.intp), np.empty((cap, draws))
            pos = np.zeros(stop - start, dtype=np.intp)
            while (local := np.flatnonzero(pos < width)).size:
                at = pos[local]
                slowest = int(at.min())
                budget = _WINDOW_ELEMENTS // local.size
                wide = max(1, min(width - slowest, (done + slowest) // _WINDOW_GROWTH, budget))
                size = local.size * wide
                idx = index[:size].reshape(local.size, wide)
                np.add((local * width + at)[:, None], np.arange(wide), out=idx)
                out = gathered[:size].reshape(local.size, wide, draws)
                # "clip" keeps the last row's overrun inside the block
                np.take(steps, idx, axis=0, out=out, mode="clip")
                yield Window(local + start, out, local, width - at, pos)
            done += width


# ---------------------------------------------------------------------------
# The two-branch power family driving the general interval process.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DfForm:
    """Distribution on [0, 1] with CDF ``c (2x)^delta`` below 1/2 and
    ``1 - (1-c) (2(1-x))^delta`` above.

    ``c`` is the total mass of [0, 1/2] and ``delta`` the finite shape
    exponent.  The endpoints ``c = 0`` and ``c = 1`` are accepted; they
    concentrate all mass on one half and degenerate the limiting interval
    center to +-1/2.
    """

    c: float
    delta: float

    def __post_init__(self):
        if not (0.0 <= self.c <= 1.0):
            raise DomainError(f"mixture weight c must lie in [0, 1], got {self.c}")
        if not 0.0 < self.delta < math.inf:
            raise DomainError(f"shape exponent delta must be positive and finite, got {self.delta}")


def _branchwise(arg, edge: float, low, high, domain: str):
    """Evaluate ``low`` on the elements of ``arg`` up to ``edge`` and ``high`` above it.

    ``arg`` must lie in [0, 1] (else :class:`DomainError` with ``domain``).
    Each element goes through its own branch only, so the other branch can
    neither overflow nor divide by zero.  A scalar is a one-element array, so
    it takes the same power kernel as the batch engines.
    """
    if arg.ndim == 0:
        v = float(arg)
        if v < 0.0 or v > 1.0:
            raise DomainError(domain)
        return float((low if v <= edge else high)(arg.reshape(1))[0])
    if np.any((arg < 0.0) | (arg > 1.0)):
        raise DomainError(domain)
    lower = arg <= edge
    out = np.empty(arg.shape)
    out[lower] = low(arg[lower])
    upper = ~lower
    out[upper] = high(arg[upper])
    return out


def df_form_cdf(x, f: DfForm):
    """CDF of the two-branch family; both branches evaluate to ``c`` at 1/2."""
    return _branchwise(
        np.asarray(x, dtype=float),
        0.5,
        lambda a: f.c * (2.0 * a) ** f.delta,
        lambda a: 1.0 - (1.0 - f.c) * (2.0 * (1.0 - a)) ** f.delta,
        "df_form_cdf is defined on [0, 1]",
    )


def df_form_ppf(u, f: DfForm):
    """Inverse CDF.  Uniform input up to ``c`` maps to the lower branch.

    At ``c = 0`` the lower branch is empty: ``u = 0`` maps to 1/2 through the
    upper one.
    """
    inv = 1.0 / f.delta
    return _branchwise(
        np.asarray(u, dtype=float),
        f.c if f.c > 0.0 else -1.0,
        lambda a: 0.5 * (a / f.c) ** inv,
        lambda a: 1.0 - 0.5 * ((1.0 - a) / (1.0 - f.c)) ** inv,
        "quantile argument must lie in [0, 1]",
    )


# ---------------------------------------------------------------------------
# Named limit laws.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawSpec:
    """A named analytic law with positive shape parameters."""

    kind: str
    params: tuple[float, ...] = ()


def weibull(delta: float) -> LawSpec:
    """Law with survival function ``exp(-x**delta)`` on x > 0."""
    if not delta > 0:
        raise DomainError("weibull shape must be positive")
    return LawSpec("weibull", (float(delta),))


def beta_law(a: float, b: float) -> LawSpec:
    if not (a > 0 and b > 0):
        raise DomainError("beta shapes must be positive")
    return LawSpec("beta", (float(a), float(b)))


def arcsine() -> LawSpec:
    """Translated arcsine law on (-1/2, 1/2)."""
    return LawSpec("arcsine")


def exp1() -> LawSpec:
    """Standard exponential."""
    return LawSpec("exp1")


def max_exp(d: int) -> LawSpec:
    """Maximum of d independent standard exponentials: CDF ``(1-exp(-x))**d``."""
    if d < 1:
        raise DomainError("max_exp dimension must be >= 1")
    return LawSpec("max_exp", (float(d),))


def law_eval(law: LawSpec, x):
    """Analytic CDF of ``law`` at ``x``; an unknown kind raises :class:`ConfigurationError`."""
    arr = np.asarray(x, dtype=float)
    if law.kind == "weibull":
        (delta,) = law.params
        xp = np.maximum(arr, 0.0)
        out = np.where(arr > 0.0, -np.expm1(-(xp**delta)), 0.0)
    elif law.kind == "exp1":
        out = np.where(arr > 0.0, -np.expm1(-np.maximum(arr, 0.0)), 0.0)
    elif law.kind == "max_exp":
        (d,) = law.params
        out = np.where(arr > 0.0, (-np.expm1(-np.maximum(arr, 0.0))) ** d, 0.0)
    elif law.kind == "beta":
        from scipy import special  # ≈0.25 s to load: only a Beta CDF pays it

        a, b = law.params
        clipped = np.clip(arr, 0.0, 1.0)
        out = special.betainc(a, b, clipped)
    elif law.kind == "arcsine":
        clipped = np.clip(arr, -0.5, 0.5)
        out = (2.0 / math.pi) * np.arcsin(np.sqrt(clipped + 0.5))
    else:
        raise ConfigurationError(f"no CDF for law kind {law.kind!r}")
    return float(out) if out.ndim == 0 else out


def cdf_callable(law: LawSpec):
    """The law's CDF as a plain callable, for goodness-of-fit backends."""
    return lambda x: law_eval(law, x)

