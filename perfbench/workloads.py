"""Operation lists of the three workloads, and the check each output must pass.

An operation is one timed call into the public API of ``diminish``; its
check runs after the clock stops.  A workload is a fixed list of operations
built from the workload seed, so the same seed gives the same inputs.  The
families are interval (c = 1/2, delta = 1), cube (d = 3), simplex (d = 2, 3)
and polygon (k = 5, 7, plus 8 on ``batch-long``).

KS bounds.  Each limit-law check bounds the KS distance by the finite-n bias
measured at the workload's n (from runs with 10^4 replicas) plus
``2.5 / sqrt(R)``; under the null the KS statistic exceeds ``2.5 / sqrt(R)``
with probability about 1e-5.  The polygon has no closed-form limit law: for
odd k the scaled excess ``sqrt(c1 n) (m - rho)`` is checked against the
analytic survival band ``exp(-x^2 / (pi / 100)) .. exp(-x^2 / pi)`` (limit
area in [pi/100, pi]), as the distance of its empirical CDF from that band.
Even k is checked by its exact invariants alone.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from diminish import cli, polygon, simplex, stats, verification
from diminish.distributions import DfForm, RngStream, beta_law, cdf_callable, exp1, max_exp, weibull
from diminish.interval import interval_new, run_full_batch, step_full

WORKLOADS = ("batch-wide", "batch-long", "scalar-snapshot")


class CheckFailed(Exception):
    """An operation returned, but its output broke the benchmark's check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call; ``check`` raises :class:`CheckFailed` on a wrong output."""

    name: str
    family: str | None
    run: Callable[[], Any]
    check: Callable[[Any], None] = lambda out: None


@dataclass
class Outcome:
    name: str
    family: str | None
    seconds: float
    ok: bool
    error: str | None = None


def execute(ops: list[Op]) -> list[Outcome]:
    """Run ``ops`` back to back, timing each call and then checking its output.

    An operation that raises, or whose output fails its check, is failed.
    Printing from the program (``cli.main`` reports what it wrote) is
    swallowed so that it cannot mix with the worker's result line.
    """
    outcomes = []
    for op in ops:
        seconds = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = op.run()
            seconds = time.perf_counter() - start
            op.check(out)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            if seconds is None:
                seconds = time.perf_counter() - start
            outcomes.append(Outcome(op.name, op.family, seconds, False, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append(Outcome(op.name, op.family, seconds, True))
    return outcomes


# ---------------------------------------------------------------------------
# Batch workloads: stats.run_experiment -> stats.ks_stat -> cli.emit_csv.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One experiment of a batch workload.

    ``ks_bias`` is the finite-n KS bias (or, for odd-k polygons, the distance
    from the analytic band) measured at the workload's n; ``None`` means the
    family has no analytic law to test against at this k.
    """

    family: str
    param: int | None
    ks_bias: float | None

    @property
    def label(self) -> str:
        if self.family == "interval":
            return "interval"
        return f"{self.family}-{'k' if self.family == 'polygon' else 'd'}{self.param}"


@dataclass(frozen=True)
class BatchShape:
    replicas: int
    n: int
    rows: tuple[Row, ...]
    toy_replicas: int
    toy_n: int


# KS bias of a thinned-chain weight marginal: the chains run to a 1e-12
# tolerance, so only sampling noise remains.
THINNED_BIAS = 0.01


# batch-wide: many replicas, short trajectories.  Per-replica RngStream set-up,
# the ScaledSample objects and CSV emission are a large share of the time,
# the vector kernels run at full width, and bodies still change often.
# Rows are repeated so that each family segment lasts about a second.
BATCH_WIDE = BatchShape(
    replicas=8_000,
    n=200,
    rows=(
        Row("interval", None, 0.01),
        Row("interval", None, 0.01),
        Row("cube", 3, 0.01),
        Row("simplex", 2, 0.07),
        Row("simplex", 3, 0.21),
        Row("polygon", 5, 0.01),
        Row("polygon", 7, 0.03),
    ),
    toy_replicas=32,
    toy_n=200,
)

# batch-long: few replicas, long trajectories.  Nearly every step changes
# nothing, so the per-step kernel dominates and RNG set-up is negligible; the
# k = 7 and k = 8 rows reach the scalar clipping fallback.  Interval and cube
# rows are repeated so that each family segment lasts about a second.
BATCH_LONG = BatchShape(
    replicas=256,
    n=8_000,
    rows=(
        Row("interval", None, 0.01),
        Row("interval", None, 0.01),
        Row("interval", None, 0.01),
        Row("interval", None, 0.01),
        Row("cube", 3, 0.01),
        Row("cube", 3, 0.01),
        Row("simplex", 2, 0.03),
        Row("simplex", 3, 0.08),
        Row("polygon", 5, 0.01),
        Row("polygon", 7, 0.03),
        Row("polygon", 8, None),
    ),
    toy_replicas=8,
    toy_n=500,
)

def ks_bound(bias: float, replicas: int) -> float:
    return bias + 2.5 / math.sqrt(replicas)


def band_distance(x) -> float:
    """Distance of the empirical CDF of ``x`` from the band between
    ``1 - exp(-x^2 / pi)`` and ``1 - exp(-100 x^2 / pi)``."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    i = np.arange(1, n + 1)
    low = -np.expm1(-(x**2) / math.pi)
    high = -np.expm1(-100.0 * x**2 / math.pi)
    return max(float((low - (i - 1) / n).max()), float((i / n - high).max()), 0.0)


def _polygon_scale(k: int) -> float:
    return math.sqrt(polygon.bound_constants(k).c1)


def _check_experiment(row: Row, replicas: int, n: int):
    def check(result):
        values = result.values()
        require(values.shape == (replicas,), f"{values.shape} samples, expected {replicas}")
        require(np.isfinite(values).all() and (values >= 0).all(), "non-finite or negative sample")
        require(result.samples[0].n == n, "sample carries the wrong n")
        ex = result.extras
        if row.family == "interval":
            r, z = ex["radii"], ex["centers"]
            require(((r >= 0.5 - 1e-12) & (r <= 1.0 + 1e-12)).all(), "radius outside [1/2, 1]")
            require((np.abs(z) + r <= 1.0 + 1e-9).all(), "interval left [-1, 1]")
        elif row.family == "cube":
            require(ex["edge_excess"].shape == (replicas, row.param), "edge excess has the wrong shape")
            require(ex["centers"].shape == (replicas, row.param), "cube centers have the wrong shape")
            require((ex["edge_excess"] >= -1e-9).all(), "negative edge excess")
            require((np.abs(ex["centers"]) <= 0.5 + 1e-9).all(), "cube center outside [-1/2, 1/2]")
        elif row.family == "simplex":
            rho = 1.0 / row.param
            h = ex["heights"]
            require(((h >= rho - 1e-9) & (h <= 2 * rho + 1e-9)).all(), "simplex height outside [rho, 2 rho]")
            require(ex["centers"].shape == (replicas, row.param), "simplex centers have the wrong shape")
            require(np.isfinite(ex["centers"]).all(), "non-finite simplex center")
        else:
            b = ex["batch"]
            k = row.param
            lo, hi = math.pi / 100.0 - 1e-9, math.pi + 1e-9
            require(b.final_heights.shape == (replicas, k), "final heights have the wrong shape")
            require(np.isfinite(b.final_heights).all(), "non-finite polygon height")
            require(float(b.area_min.min()) >= lo and float(b.area_max.max()) <= hi, "area left [pi/100, pi]")
            require(((b.final_area >= lo) & (b.final_area <= hi)).all(), "final area outside [pi/100, pi]")
            require(float(b.max_height_rise.max()) <= 1e-9, "a polygon height rose")
            require((b.max_height >= math.cos(math.pi / k) - 1e-9).all(), "max height below rho_k")
            if k == 5:
                require(float(b.max_residual.max()) <= 1e-9, "golden-ratio residual broken")

    return check


def _batch_ops(shape: BatchShape, seed: int, workdir: Path, toy: bool) -> list[Op]:
    replicas = shape.toy_replicas if toy else shape.replicas
    n = shape.toy_n if toy else shape.n
    ops: list[Op] = []
    laws = {"interval": exp1(), "cube": max_exp(3)}
    for index, row in enumerate(shape.rows):
        ctx: dict = {}
        kw = {"k": row.param} if row.family == "polygon" else {"d": row.param} if row.param else {}
        cfg = stats.RunConfig(process=row.family, n=n, replicas=replicas, seed=seed * 100 + index, **kw)

        def experiment(cfg=cfg, ctx=ctx):
            ctx["result"] = stats.run_experiment(cfg)
            return ctx["result"]

        ops.append(Op(f"{row.label}.experiment", row.family, experiment, _check_experiment(row, replicas, n)))

        if row.ks_bias is not None:
            bound = ks_bound(row.ks_bias, replicas)
            if row.family == "polygon":
                scale = _polygon_scale(row.param)
                # The timed KS is taken against the band's slow edge, the Rayleigh
                # law 1 - exp(-x^2 / pi) (Weibull(2) after dividing by sqrt(pi)).
                law_cdf = cdf_callable(weibull(2.0))

                def ks(ctx=ctx, scale=scale, law_cdf=law_cdf):
                    scaled = ctx["result"].values() * scale
                    return scaled, stats.ks_stat(scaled / math.sqrt(math.pi), law_cdf)

                def ks_check(out, bound=bound):
                    scaled, _ = out
                    dist = band_distance(scaled)
                    require(dist <= bound, f"distance from the analytic band {dist:.4f} > {bound:.4f}")

            else:
                law = laws.get(row.family) or weibull(float(row.param))
                law_cdf = cdf_callable(law)

                def ks(ctx=ctx, law_cdf=law_cdf):
                    return stats.ks_stat(ctx["result"].values(), law_cdf)

                def ks_check(out, bound=bound):
                    require(out <= bound, f"KS {out:.4f} > {bound:.4f}")

            ops.append(Op(f"{row.label}.ks", row.family, ks, ks_check))

        path = workdir / f"{index}-{row.label}.csv"

        def emit(ctx=ctx, path=path):
            return emit_samples(ctx["result"].samples, path)

        def emit_check(count, ctx=ctx, path=path, replicas=replicas):
            samples = ctx["result"].samples
            require(count == replicas, f"emit_csv wrote {count} rows, expected {replicas}")
            lines = path.read_text(encoding="utf-8").splitlines()
            require(len(lines) == replicas + 1 and lines[0] == "replica,value", "CSV has the wrong rows")
            for line, s in ((lines[1], samples[0]), (lines[-1], samples[-1])):
                rep, val = line.split(",")
                require(int(rep) == s.replica and float(val) == s.value, "CSV value does not round-trip")

        ops.append(Op(f"{row.label}.emit", row.family, emit, emit_check))

    for d in (2, 3):
        bound = ks_bound(THINNED_BIAS, replicas)
        a = d / (d + 1)
        marginal = cdf_callable(beta_law(a, d * a))
        thinned_seed = seed * 100 + 50 + d

        def thinned(d=d, thinned_seed=thinned_seed):
            return simplex.run_thinned_batch(d, replicas, thinned_seed)

        def thinned_check(w, d=d, bound=bound, marginal=marginal):
            require(w.shape == (replicas, d + 1), "thinned weights have the wrong shape")
            require(np.isfinite(w).all(), "non-finite thinned weight")
            require(float(np.abs(w.sum(axis=1) - 1.0).max()) <= 1e-12 * (d + 2), "weights do not sum to 1")
            require(float(w.min()) >= -1e-12, "negative thinned weight")
            ks = stats.ks_stat(w[:, 0], marginal)
            require(ks <= bound, f"weight marginal KS {ks:.4f} > {bound:.4f}")

        ops.append(Op(f"simplex-d{d}.thinned", "simplex", thinned, thinned_check))
    return ops


def emit_samples(samples, path) -> int:
    """The ``diminish experiment`` emission: one ``(replica, value)`` row per sample."""
    return cli.emit_csv(([s.replica, s.value] for s in samples), path, ["replica", "value"])


# ---------------------------------------------------------------------------
# scalar-snapshot: the per-state scalar path; no batch engine runs.
# ---------------------------------------------------------------------------

# (family, d or k, simulate flags, steps, toy steps).  Step counts give each
# family segment about a second.
SIMULATE = (
    ("interval", None, ["--process", "interval"], 40_000, 500),
    ("cube", 3, ["--process", "cube", "--d", "3"], 14_000, 150),
    ("simplex", 2, ["--process", "simplex", "--d", "2"], 16_000, 200),
    ("simplex", 3, ["--process", "simplex", "--d", "3"], 16_000, 200),
    ("polygon", 5, ["--process", "pentagon"], 1_200, 30),
)
# Polygon trajectories through polygon_step, snapshot and chebyshev_center
# (the invariant-suite loop): snapshot clipping, the C(k, 3) Chebyshev solves
# of odd k and the LP of even k.
TRAJECTORY_KS = (5, 7, 8)
TRAJECTORY_STEPS = 250
TRAJECTORY_TOY_STEPS = 20


def _check_trajectory_csv(family: str, d: int | None, path: Path, steps: int):
    def check(code):
        require(code == 0, f"simulate exited with {code}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        require(data.shape[0] == steps + 1, f"{data.shape[0]} trajectory rows, expected {steps + 1}")
        require(np.isfinite(data).all(), "non-finite trajectory value")
        require((np.diff(data[:, 0]) == 1).all(), "step column is not consecutive")
        if family == "interval":
            r = data[:, 2]
            require(((r >= 0.5 - 1e-12) & (r <= 1 + 1e-12)).all(), "radius outside [1/2, 1]")
            require((np.diff(r) <= 1e-12).all(), "interval radius rose")
        elif family == "cube":
            r = data[:, 1 + d :]
            require(r.shape[1] == d and (np.diff(r, axis=0) <= 1e-12).all(), "cube radius rose")
            require(((r >= 0.5 - 1e-12) & (r <= 1 + 1e-12)).all(), "cube radius outside [1/2, 1]")
        elif family == "simplex":
            h = data[:, 1]
            require(((h >= 1 / d - 1e-9) & (h <= 2 / d + 1e-9)).all(), "height outside [rho, 2 rho]")
            require((np.diff(h) <= 1e-12).all(), "simplex height rose")
        else:
            m, area = data[:, 1], data[:, 2]
            require(((area >= math.pi / 100 - 1e-9) & (area <= math.pi + 1e-9)).all(), "area outside [pi/100, pi]")
            require((np.diff(area) <= 1e-12).all() and (np.diff(m) <= 1e-9).all(), "polygon grew")

    return check


def polygon_trajectory(k: int, steps: int, seed: int):
    """Scalar trajectory with a full snapshot and inscribed circle per state."""
    rng = RngStream(seed, 0, (k,))
    state = polygon.polygon_new(k)
    records = []
    for _ in range(steps):
        state = polygon.polygon_step(state, rng)
        snap = polygon.snapshot(state)
        center, radius = polygon.chebyshev_center(state)
        records.append((state, snap.area, snap.max_height, center, radius))
    return records


def _check_polygon_trajectory(records):
    prev_area = prev_height = math.inf
    for state, area, height, center, radius in records:
        require(math.pi / 100 - 1e-9 <= area <= math.pi + 1e-9, "area outside [pi/100, pi]")
        require(area <= prev_area + 1e-12 and height <= prev_height + 1e-9, "polygon grew")
        require(radius >= 0.1 - 1e-9, f"inscribed radius {radius:.4f} below 0.1")
        slack = np.asarray(state.directions) @ center - state.offsets - radius
        require(float(slack.min()) >= -1e-9, "inscribed circle leaves the polygon")
        prev_area, prev_height = area, height


def _scalar_ops(seed: int, workdir: Path, toy: bool) -> list[Op]:
    ops: list[Op] = []
    for family, param, flags, steps, toy_steps in SIMULATE:
        n = toy_steps if toy else steps
        label = Row(family, param, None).label
        path = workdir / f"{label}.csv"
        argv = ["simulate", *flags, "--n", str(n), "--seed", str(seed), "--out", str(path)]
        check = _check_trajectory_csv(family, param, path, n)
        ops.append(Op(f"{label}.simulate", family, lambda argv=argv: cli.main(argv), check))

    def oracle_check(result):
        require(result.passed, "geometry-oracle check failed: " + "; ".join(result.lines))

    # Mixed polygon and simplex work: counted in total_s only.  The toy run
    # shortens the oracle's trajectories (its cost grows with their square).
    oracle_kwargs = {"steps": 10} if toy else {}
    ops.append(
        Op(
            "geometry-oracle",
            None,
            lambda: verification.run_check("geometry-oracle", seed=seed, **oracle_kwargs),
            oracle_check,
        )
    )
    steps = TRAJECTORY_TOY_STEPS if toy else TRAJECTORY_STEPS
    for k in TRAJECTORY_KS:
        ops.append(
            Op(f"polygon-k{k}.trajectory", "polygon", lambda k=k: polygon_trajectory(k, steps, seed), _check_polygon_trajectory)
        )
    return ops


def build(workload: str, seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    """The fixed operation list of ``workload`` for ``seed``."""
    if workload == "batch-wide":
        return _batch_ops(BATCH_WIDE, seed, workdir, toy)
    if workload == "batch-long":
        return _batch_ops(BATCH_LONG, seed, workdir, toy)
    if workload == "scalar-snapshot":
        return _scalar_ops(seed, workdir, toy)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Trace-only measurements: replayed change fractions and Baseline-shape probes.
# ---------------------------------------------------------------------------


def _replay_specs(workload: str, seed: int, toy: bool):
    """(family, d or k, stream seed, replica, steps) of the rows to replay."""
    if workload == "scalar-snapshot":
        return [
            (family, param, seed, 0, toy_steps if toy else steps)
            for family, param, _, steps, toy_steps in SIMULATE
            if family != "cube"
        ]
    shape = BATCH_WIDE if workload == "batch-wide" else BATCH_LONG
    replicas = shape.toy_replicas if toy else shape.replicas
    n = shape.toy_n if toy else shape.n
    pick = random.Random(seed)
    specs = {}
    for index, row in enumerate(shape.rows):
        if row.family != "cube" and (row.family, row.param) not in specs:
            specs[row.family, row.param] = (row.family, row.param, seed * 100 + index, pick.randrange(replicas), n)
    return list(specs.values())


def change_fractions(workload: str, seed: int, toy: bool) -> dict[str, float]:
    """Useful-to-attempted step ratio per family, from scalar replays of sampled rows.

    The replay contract makes a scalar trajectory on stream ``(seed, r)``
    identical to batch row ``r``, so these are the steps the batch engine
    spent on changes, over all the steps it simulated.  The cube is left
    out: its axes are interval processes.
    """
    changed = {"interval": 0, "simplex": 0, "polygon": 0}
    attempted = dict.fromkeys(changed, 0)
    for family, param, stream_seed, replica, steps in _replay_specs(workload, seed, toy):
        if family == "interval":
            state, step, key = interval_new(DfForm(0.5, 1.0)), step_full, lambda s: (s.center, s.radius)
        elif family == "simplex":
            state, step, key = simplex.simplex_new(param), simplex.simplex_full_step, lambda s: tuple(s.offsets)
        else:
            state, step, key = polygon.polygon_new(param), polygon.polygon_step, lambda s: tuple(s.offsets)
        rng = RngStream(stream_seed, replica)
        for _ in range(steps):
            new = step(state, rng)
            changed[family] += key(new) != key(state)
            state = new
        attempted[family] += steps
    return {f: changed[f] / attempted[f] for f in changed if attempted[f]}


# The ROADMAP Baseline shape.
BASELINE_N, BASELINE_R = 2000, 10_000
BASELINE_TOY_N, BASELINE_TOY_R = 20, 100


def baseline_probes(seed: int, toy: bool) -> tuple[list[Op], int, int]:
    """One call of each batch engine at the Baseline shape, and RngStream set-up.

    Returns the operations with the ``(n, replicas)`` they run at.
    """
    n, r = (BASELINE_TOY_N, BASELINE_TOY_R) if toy else (BASELINE_N, BASELINE_R)

    def finite_heights(d):
        def check(out):
            heights, centers = out
            rho = 1.0 / d
            require(heights.shape == (r,) and np.isfinite(centers).all(), "wrong or non-finite output")
            require(((heights >= rho - 1e-9) & (heights <= 2 * rho + 1e-9)).all(), "height outside [rho, 2 rho]")

        return check

    def interval_check(out):
        radii, centers = out
        require(radii.shape == (r,) and ((radii >= 0.5 - 1e-12) & (radii <= 1 + 1e-12)).all(), "bad radii")
        require(np.isfinite(centers).all(), "non-finite center")

    def polygon_check(b):
        require(b.final_heights.shape[0] == r and np.isfinite(b.final_heights).all(), "wrong polygon output")
        require(
            float(b.area_min.min()) >= math.pi / 100 - 1e-9 and float(b.area_max.max()) <= math.pi + 1e-9,
            "area left [pi/100, pi]",
        )

    def streams():
        return [RngStream(seed, i) for i in range(r)]

    def streams_check(out):
        require(len(out) == r, "wrong stream count")

    return [
        Op("interval", None, lambda: run_full_batch(DfForm(0.5, 1.0), n, r, seed), interval_check),
        Op("simplex.d2", None, lambda: simplex.run_simplex_batch(2, n, r, seed), finite_heights(2)),
        Op("simplex.d3", None, lambda: simplex.run_simplex_batch(3, n, r, seed), finite_heights(3)),
        Op("polygon.k5", None, lambda: polygon.run_polygon_batch(5, n, r, seed), polygon_check),
        Op("polygon.k7", None, lambda: polygon.run_polygon_batch(7, n, r, seed), polygon_check),
        Op("rngstream", None, streams, streams_check),
    ], n, r
