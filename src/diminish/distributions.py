"""Samplers and analytic evaluators for the limit laws of diminishing processes.

Every sampler draws from an explicit :class:`RngStream`; there is no hidden
global randomness.  Closed-form inverse CDFs are used wherever they exist
(the two-branch power family, Weibull, exponential, arcsine, simplex height,
max-of-exponentials); beta and Dirichlet variates are built from gamma
variates so that shape parameters below one are handled correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError, DomainError

__all__ = [
    "RngStream",
    "replica_blocks",
    "window_rounds",
    "DfForm",
    "LawSpec",
    "df_form_cdf",
    "df_form_ppf",
    "df_form_sample",
    "simplex_height_sample",
    "law_eval",
    "law_sample",
    "cdf_callable",
    "dirichlet_pdf",
    "beta_sample",
    "dirichlet_sample",
    "weibull",
    "beta_law",
    "arcsine",
    "exp1",
    "max_exp",
    "dirichlet_sym",
    "simplex_height",
]


class RngStream:
    """Deterministic pseudo-random stream addressed by ``(seed, stream_id, path)``.

    Identical addresses reproduce identical draw sequences; distinct
    addresses give statistically independent streams (PCG64 seeded through
    ``numpy.random.SeedSequence`` spawn keys).  ``stream_id`` is the replica
    index; :meth:`substream` derives per-component children, e.g. one per
    cube axis.  A stream may be moved between threads but must not be shared
    concurrently.
    """

    __slots__ = ("seed", "stream_id", "path", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.path = tuple(int(p) for p in path)
        key = (self.stream_id, *self.path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key))
        )

    def substream(self, *path: int) -> "RngStream":
        """Child stream for a sub-process (axis, component, ...)."""
        return RngStream(self.seed, self.stream_id, self.path + path)

    def uniform(self, size=None):
        """Standard uniform draws on [0, 1)."""
        return self._gen.random(size)

    def integers(self, n: int, size=None):
        """Uniform integers on {0, ..., n-1}."""
        return self._gen.integers(0, n, size=size)

    def gamma(self, shape, size=None):
        """Standard gamma variates (scale 1); valid for shape < 1."""
        return self._gen.standard_gamma(shape, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, path={self.path})"


_BLOCK_BYTES = 48e6


def replica_blocks(
    seed: int, replicas: int, n: int, draws: int, chunk: int, path: tuple[int, ...] = ()
):
    """Per-replica uniforms of ``n``-step trajectories, for the batch engines.

    Replica ``r`` draws ``draws`` uniforms per step from
    ``RngStream(seed, r, path)`` in step order, which is what lets a batch
    row replay the scalar stepper on that stream.  Yields
    ``(start, stop, blocks)`` per chunk of at most ``chunk`` replicas;
    ``blocks`` yields arrays ``u`` of shape ``(stop - start, width, draws)``
    covering the ``n`` steps in order, ``u[i, t]`` being the draws of the
    next step of replica ``start + i``.  A block is at most 48 MB and its
    buffer is reused, so it is only valid until the next one is requested;
    blocks are filled on demand, so an engine that stops early draws no
    further.
    """
    if n < 1 or replicas < 1:
        raise DomainError("n and replicas must be >= 1")
    if chunk < 1:
        raise DomainError(f"chunk must be >= 1, got {chunk}")
    return _replica_chunks(seed, replicas, n, draws, chunk, path)


def _replica_chunks(seed, replicas, n, draws, chunk, path):
    for start in range(0, replicas, chunk):
        stop = min(start + chunk, replicas)
        streams = [RngStream(seed, r, path) for r in range(start, stop)]
        yield start, stop, _stream_blocks(streams, n, draws)


def _stream_blocks(streams: list[RngStream], n: int, draws: int):
    block = max(1, min(n, int(_BLOCK_BYTES / (len(streams) * draws * 8))))
    buffer = np.empty(len(streams) * block * draws)
    for done in range(0, n, block):
        width = min(block, n - done)
        u = buffer[: len(streams) * width * draws].reshape(len(streams), width, draws)
        for i, s in enumerate(streams):
            u[i] = s.uniform((width, draws))
        yield u


# Window rule of the windowed batch engines.  A round draws the next W steps of
# every active column, W = max(1, t // _WINDOW_GROWTH) with t the step count of
# the slowest column: a step changes the state with probability of order 1/t, so
# most windows pass without a change.  A column's window ends at the end of its
# uniform block (the buffer is refilled in place), and a round holds at most
# _WINDOW_ELEMENTS column-steps.
_WINDOW_GROWTH = 8
_WINDOW_ELEMENTS = 2**17


class Window:
    """One round of :func:`window_rounds`: the next steps of the active columns.

    ``draws[i, j]`` holds the draws of window step ``j`` of column ``act[i]``.
    Slots past the column's block end hold other draws; :meth:`advance`
    ignores them.  ``draws`` is a round buffer, valid until the next round.
    """

    __slots__ = ("act", "draws", "_left", "_pos")

    def __init__(self, act, draws, left, pos):
        self.act, self.draws, self._left, self._pos = act, draws, left, pos

    def advance(self, hit):
        """Move every column past its first hit, or past its whole window.

        ``hit[i, j]`` says that step ``j`` of column ``act[i]`` changes the
        state.  Returns ``(first, moved, kept)``: ``moved[i]`` says the column
        hit, at window step ``first[i]``; ``kept[i]`` counts the unchanged
        steps it passes, so the column moves on by ``kept + moved`` steps.
        """
        first = hit.argmax(axis=1)
        # a first hit past the block end means no hit inside it
        moved = hit[np.arange(first.size), first] & (first < self._left)
        kept = np.where(moved, first, np.minimum(self._left, hit.shape[1]))
        self._pos[self.act] += kept + moved
        return first, moved, kept


def window_rounds(blocks, columns: int):
    """Rounds of a windowed engine over the blocks of one ``replica_blocks`` chunk.

    Each column keeps its own step pointer.  A round yields a :class:`Window`
    with the next W steps of every column not yet at its block end, W set by
    ``_WINDOW_GROWTH`` and ``_WINDOW_ELEMENTS``; the engine tests them for a
    change and must call :meth:`Window.advance` before asking for the next
    round, or the columns never move.  A row then sees every step of its
    trajectory in order, so an engine that applies each first hit exactly as
    its scalar step would replays that step bit for bit.  The draws are
    gathered into buffers allocated once per block: fresh arrays of a
    round's size cost about as much as its arithmetic.
    """
    cap = max(_WINDOW_ELEMENTS, columns)
    done = 0
    for u in blocks:
        width, draws = u.shape[1:]
        steps = u.reshape(-1, draws)  # row i * width + t: step t of column i
        index, gathered = np.empty(cap, dtype=np.intp), np.empty((cap, draws))
        pos = np.zeros(columns, dtype=np.intp)
        while (act := np.flatnonzero(pos < width)).size:
            at = pos[act]
            slowest = int(at.min())
            budget = _WINDOW_ELEMENTS // act.size
            wide = max(1, min(width - slowest, (done + slowest) // _WINDOW_GROWTH, budget))
            size = act.size * wide
            idx = index[:size].reshape(act.size, wide)
            np.add((act * width + at)[:, None], np.arange(wide), out=idx)
            out = gathered[:size].reshape(act.size, wide, draws)
            # "clip" keeps the last column's overrun inside the block
            yield Window(act, np.take(steps, idx, axis=0, out=out, mode="clip"), width - at, pos)
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


def df_form_sample(rng: RngStream, f: DfForm, size=None):
    """Inverse-CDF sample(s); ``2 min(X, 1-X)`` then has CDF ``x**delta``."""
    return df_form_ppf(rng.uniform(size), f)


def simplex_height_sample(rng: RngStream, d: int, size=None):
    """Distance-from-base of a uniform point in a height-1 regular d-simplex.

    Returns ``1 - U**(1/d)``, whose CDF is ``1 - (1 - x)**d`` on [0, 1].
    """
    if d < 1:
        raise DomainError(f"simplex dimension must be >= 1, got {d}")
    u = rng.uniform(size)
    return 1.0 - u ** (1.0 / d)


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


def dirichlet_sym(dim: int, a: float) -> LawSpec:
    """Symmetric Dirichlet with ``dim`` components of common shape ``a``."""
    if dim < 2:
        raise DomainError("dirichlet_sym needs at least two components")
    if not a > 0:
        raise DomainError("dirichlet shape must be positive")
    return LawSpec("dirichlet_sym", (float(dim), float(a)))


def simplex_height(d: int) -> LawSpec:
    """Law of the distance from the base: CDF ``1 - (1-x)**d`` on [0, 1]."""
    if d < 1:
        raise DomainError("simplex dimension must be >= 1")
    return LawSpec("simplex_height", (float(d),))


def law_eval(law: LawSpec, x):
    """Analytic CDF of ``law`` at ``x``.

    The symmetric Dirichlet has no scalar CDF; it evaluates its joint
    density at a simplex point instead.
    """
    if law.kind == "dirichlet_sym":
        dim, a = int(law.params[0]), law.params[1]
        return dirichlet_pdf(np.full(dim, a), x)
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
        a, b = law.params
        clipped = np.clip(arr, 0.0, 1.0)
        out = special.betainc(a, b, clipped)
    elif law.kind == "arcsine":
        clipped = np.clip(arr, -0.5, 0.5)
        out = (2.0 / math.pi) * np.arcsin(np.sqrt(clipped + 0.5))
    elif law.kind == "simplex_height":
        (d,) = law.params
        clipped = np.clip(arr, 0.0, 1.0)
        out = 1.0 - (1.0 - clipped) ** d
    else:
        raise ConfigurationError(f"unsupported law kind: {law.kind!r}")
    return float(out) if out.ndim == 0 else out


def law_sample(law: LawSpec, rng: RngStream, size=None):
    """Draw from ``law``; the Dirichlet returns vectors on the simplex."""
    if law.kind == "weibull":
        (delta,) = law.params
        return (-np.log1p(-rng.uniform(size))) ** (1.0 / delta)
    if law.kind == "exp1":
        return -np.log1p(-rng.uniform(size))
    if law.kind == "max_exp":
        (d,) = law.params
        return -np.log1p(-rng.uniform(size) ** (1.0 / d))
    if law.kind == "beta":
        a, b = law.params
        return beta_sample(rng, a, b, size)
    if law.kind == "arcsine":
        return np.sin(0.5 * math.pi * rng.uniform(size)) ** 2 - 0.5
    if law.kind == "simplex_height":
        (d,) = law.params
        return 1.0 - rng.uniform(size) ** (1.0 / d)
    if law.kind == "dirichlet_sym":
        dim, a = int(law.params[0]), law.params[1]
        return dirichlet_sample(rng, np.full(dim, a), size)
    raise ConfigurationError(f"unsupported law kind: {law.kind!r}")


def cdf_callable(law: LawSpec):
    """The law's CDF as a plain callable, for goodness-of-fit backends."""
    return lambda x: law_eval(law, x)


# ---------------------------------------------------------------------------
# Gamma-based samplers and the Dirichlet density.
# ---------------------------------------------------------------------------


def beta_sample(rng: RngStream, a: float, b: float, size=None):
    """Beta(a, b) via normalized gamma variates; valid for shapes < 1."""
    g1 = rng.gamma(a, size)
    g2 = rng.gamma(b, size)
    return g1 / (g1 + g2)


def dirichlet_sample(rng: RngStream, alpha, size=None):
    """Dirichlet(alpha) via normalized gamma variates.

    Returns shape ``(len(alpha),)`` or ``(size, len(alpha))``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise DomainError("dirichlet shapes must be positive")
    shape = (len(alpha),) if size is None else (size, len(alpha))
    g = rng.gamma(np.broadcast_to(alpha, shape))
    return g / g.sum(axis=-1, keepdims=True)


def dirichlet_pdf(alpha, x):
    """Joint density of Dirichlet(alpha) at points of the probability simplex.

    ``x`` has shape ``(..., len(alpha))``: each point carries all coordinates
    (summing to one within 1e-12), and its value equals the density of the
    last ``d`` coordinates in the standard representation.  One point gives a
    float, a stack of points an array of shape ``x.shape[:-1]``.  A point with
    a zero coordinate of shape below one is reported as ``inf`` explicitly,
    else one with a zero coordinate of shape above one as ``0``.
    """
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x, dtype=float)
    if alpha.ndim != 1 or x.shape[-1:] != alpha.shape:
        raise DomainError("x must be a point or a stack of points of alpha's length")
    if np.any(alpha <= 0):
        raise DomainError("dirichlet shapes must be positive")
    if np.any(x < -1e-12) or np.any(np.abs(x.sum(axis=-1) - 1.0) > 1e-12):
        raise DomainError("x must lie on the probability simplex (sum 1, nonnegative)")
    x = np.clip(x, 0.0, None)
    zero = x == 0.0
    # a zero coordinate adds log(1) = 0; its point is set to 0 or inf below
    log_pdf = (
        math.lgamma(float(alpha.sum()))
        - float(np.sum([math.lgamma(a) for a in alpha]))
        + np.sum((alpha - 1.0) * np.log(np.where(zero, 1.0, x)), axis=-1)
    )
    # math.exp, not np.exp: a point's value must not depend on the stack around it
    pdf = np.vectorize(math.exp, otypes=[float])(log_pdf)
    pdf = np.where(np.any(zero & (alpha > 1.0), axis=-1), 0.0, pdf)
    pdf = np.where(np.any(zero & (alpha < 1.0), axis=-1), math.inf, pdf)
    return float(pdf) if pdf.ndim == 0 else pdf
