"""Named verification suite for the limit theorems and structural invariants.

Each check runs at its published sample sizes and tolerances (module
constants and literals, so it takes only a seed, and geometry-oracle its
trajectory length), reports its raw statistics (never just pass/fail), and
is deterministic given the seed.  A check declares each criterion once,
through :meth:`CheckResult.criterion`; the verdict, the report line, the
failure note and the ``verify --json`` threshold all come from that declaration.

Expensive simulations are memoized by :func:`functools.lru_cache` on their frozen
:class:`~diminish.stats.RunConfig`, which keys the memo itself; overlapping checks share runs.
Replica ``r`` always draws stream ``(seed, r)``, so a run with R replicas
equals the first R rows of a larger run with the same seed; pentagon-structure
takes its replicas as the first rows of the shared pentagon run.

Three criteria are out of reach at the published sizes.  They still run at
full strength and report FAIL with a note; DECISIONS.md §1-3 gives the
evidence for each.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DfForm,
    RngStream,
    _change_walk,
    arcsine,
    beta_law,
    cdf_callable,
    exp1,
    max_exp,
    weibull,
)
from .errors import ConfigurationError
from .interval import center_series_batch, interval_new
from .oracle import clip_convex_by_convex, facet_halfspaces, match_point_sets, shoelace_area
from .oracle import simplex_intersection_oracle
from .polygon import (
    apply_polygon_point,
    bound_constants,
    chebyshev_center,
    polygon_new,
    reference_vertices,
    sample_point,
    snapshot,
)
from .simplex import (
    apply_simplex_point,
    run_thinned_batch,
    simplex_new,
    vertex_matrix,
)
from .stats import (
    RunConfig,
    envelope_check,
    ks_stat,
    moment_estimate,
    run_experiment,
)

__all__ = ["CheckResult", "ALL_CHECKS", "run_check", "run_suite", "DEFAULT_SEED"]

DEFAULT_SEED = 20260810

_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, "==": operator.eq}


def _fmt(x, spec=".5g") -> str:
    return str(x) if isinstance(x, bool) else format(x, spec)


@dataclass
class CheckResult:
    """Outcome of one named check: its criteria and raw statistics.

    ``passed`` holds while every criterion declared so far holds.
    ``thresholds`` maps each criterion's statistic key to the list of its
    bounds, each ``{"op", "limit"}`` plus ``"target"`` for a criterion on
    ``|value - target|``.  ``seconds`` is the wall time set by :func:`run_check`.
    """

    name: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    seconds: float | None = None

    def criterion(self, key, label, value, op, limit, *, target=None, note=None) -> None:
        """Record ``stats[key] = value`` and require ``value op limit``.

        With ``target`` the requirement is ``|value - target| op limit``.
        ``note`` is reported only when this criterion fails.
        """
        self.stats[key] = value
        bound = {"op": op, "limit": limit}
        shown = f"{op} {_fmt(limit, 'g')}"
        if target is not None:
            bound["target"] = target
            shown = f"|x - {_fmt(target, 'g')}| {shown}"
        held = bool(_COMPARE[op](value if target is None else abs(value - target), limit))
        self.thresholds.setdefault(key, []).append(bound)
        self.lines.append(f"{label} = {_fmt(value)} ({shown})")
        self.passed = self.passed and held
        if note and not held:
            self.notes.append(note)

    @property
    def note(self) -> str | None:
        return "; ".join(self.notes) or None

    def report(self) -> str:
        out = [f"{'PASS' if self.passed else 'FAIL'}  {self.name}"]
        out += [f"    {line}" for line in self.lines]
        if self.note:
            out.append(f"    note: {self.note}")
        return "\n".join(out)


@functools.lru_cache(maxsize=None)
def _run(cfg: RunConfig):
    return run_experiment(cfg)


def _experiment(**kwargs):
    return _run(RunConfig(**kwargs))


@functools.lru_cache(maxsize=None)
def _thinned(d, seed):
    return run_thinned_batch(d, SIMPLEX_REPLICAS, seed)


# Analytic range of every polygon area along a trajectory.
AREA_RANGE = (math.pi / 100.0, math.pi)

# Published sizes of every check's runs.  invariant-suite requests the
# polygon runs and the thinned weights through the same memoized helpers,
# whatever ran before it.
INTERVAL_N, INTERVAL_REPLICAS = 10_000, 10_000
CENTER_SAMPLES = 100_000
CUBE_D, CUBE_N, CUBE_REPLICAS = 3, 10_000, 10_000
SIMPLEX_N, SIMPLEX_REPLICAS = 10_000, 10_000
PENTAGON_N, PENTAGON_REPLICAS = 10_000, 10_000
STRUCTURE_REPLICAS = 1000
FIGURE_N, FIGURE_REPLICAS = 100, 200
RATE_NS, RATE_REPLICAS = (100, 400, 1600), 500


# ---------------------------------------------------------------------------
# 1. Interval rate.
# ---------------------------------------------------------------------------


def check_interval_rate(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("interval-rate")
    ks_tol = 0.02
    sizes = {"process": "interval", "n": INTERVAL_N, "replicas": INTERVAL_REPLICAS}
    uniform = _experiment(seed=seed, c=0.5, delta=1.0, **sizes).values()
    ks = ks_stat(uniform, cdf_callable(exp1()))
    res.criterion("uniform_ks", "uniform law: KS vs Exp(1)", ks, "<=", ks_tol)
    mean, se = moment_estimate(uniform, 1.0)
    res.criterion(
        "uniform_mean", f"uniform law: mean (s.e. {_fmt(se)})", mean, "<=", 0.03, target=1.0
    )
    general = _experiment(seed=seed + 1, c=0.3, delta=2.0, **sizes).values()
    ks = ks_stat(general, cdf_callable(weibull(2.0)))
    res.criterion("general_ks", "c=0.3, delta=2: KS vs Weibull(2)", ks, "<=", ks_tol)
    return res


# ---------------------------------------------------------------------------
# 2. Interval center (series sampler).
# ---------------------------------------------------------------------------


def check_interval_center(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("interval-center")
    tol = 0.01
    for i, (c, delta) in enumerate([(0.5, 1.0), (0.3, 2.0)]):
        rng = RngStream(seed + 2, 0, (10 + i,))
        z = center_series_batch(rng, DfForm(c, delta), 1e-9, CENTER_SAMPLES)
        a, b = delta * (1.0 - c), delta * c
        ks = ks_stat(z + 0.5, cdf_callable(beta_law(a, b)))
        label = f"c={c}, delta={delta}: KS vs Beta({a:g}, {b:g}) shifted"
        res.criterion(f"beta_ks_{c}_{delta}", label, ks, "<=", tol)
        if (c, delta) == (0.5, 1.0):
            ks = ks_stat(z, cdf_callable(arcsine()))
            res.criterion("arcsine_ks", "uniform case: KS vs arcsine", ks, "<=", tol)
    return res


# ---------------------------------------------------------------------------
# 3. Cube.
# ---------------------------------------------------------------------------


def check_cube(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("cube")
    tol = 0.02
    d = CUBE_D
    run = _experiment(process="cube", n=CUBE_N, replicas=CUBE_REPLICAS, seed=seed + 4, d=d)
    ks = ks_stat(run.values(), cdf_callable(max_exp(d)))
    res.criterion("max_ks", f"scaled max edge: KS vs (1-e^-x)^{d}", ks, "<=", tol)
    centers = run.extras["centers"]
    excess = run.extras["edge_excess"]
    for a in range(d):
        ks = ks_stat(centers[:, a], cdf_callable(arcsine()))
        res.criterion(f"center_ks_{a}", f"axis {a}: center KS vs arcsine", ks, "<=", tol)
        ks = ks_stat(excess[:, a], cdf_callable(exp1()))
        res.criterion(f"edge_ks_{a}", f"axis {a}: edge KS vs Exp(1)", ks, "<=", tol)
    corrs = [
        (a, b, float(np.corrcoef(centers[:, a], centers[:, b])[0, 1]))
        for a in range(d)
        for b in range(a + 1, d)
    ]
    res.lines.append(
        "center corr: " + ", ".join(f"axes ({a},{b}) = {_fmt(r)}" for a, b, r in corrs)
    )
    corr_max = max((abs(r) for _, _, r in corrs), default=0.0)
    res.criterion("corr_max", "max |center corr|", corr_max, "<=", tol)
    return res


# ---------------------------------------------------------------------------
# 4. Simplex rate and center.
# ---------------------------------------------------------------------------


def check_simplex(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("simplex")
    for d in (2, 3):
        run = _experiment(
            process="simplex", n=SIMPLEX_N, replicas=SIMPLEX_REPLICAS, seed=seed + 5 + d, d=d
        )
        ks = ks_stat(run.values(), cdf_callable(weibull(float(d))))
        note = None
        if d == 3:
            note = (
                "the d=3 rate converges like n^(-1/3); the bare height recursion "
                "shows the same ~0.05 KS bias at n = 10^4 (DECISIONS.md §1)"
            )
        label = f"d={d}: height KS vs Weibull({d})"
        res.criterion(f"rate_ks_d{d}", label, ks, "<=", 0.03, note=note)
        a = d / (d + 1)
        marg = beta_law(a, d * a)
        lam = _thinned(d, seed + 15 + d)
        worst = max(ks_stat(lam[:, i], cdf_callable(marg)) for i in range(d + 1))
        label = f"d={d}: worst weight marginal KS vs Beta({a:.4g}, {d * a:.4g})"
        res.criterion(f"thinned_ks_d{d}", label, worst, "<=", 0.02)
        if d == 2:
            mean, se = moment_estimate(run.values(), 1.0)
            target = 0.5 * math.gamma(0.5)
            label = f"d=2: first moment (s.e. {_fmt(se)})"
            res.criterion("moment_d2", label, mean, "<=", 0.05 * target, target=target)
            res.stats["moment_d2_target"] = target
    return res


# ---------------------------------------------------------------------------
# 5. Geometry oracle equivalence.
# ---------------------------------------------------------------------------


def check_geometry_oracle(seed=DEFAULT_SEED, steps=100) -> CheckResult:
    res = CheckResult("geometry-oracle")
    tol = 1e-10
    for k in (5, 7, 8):
        rng = RngStream(seed + 20, 0, (k,))
        state = polygon_new(k)
        base = np.asarray(reference_vertices(k))
        oracle_verts = base.copy()
        worst = 0.0
        for _ in range(steps):
            p = sample_point(state, rng)
            state = apply_polygon_point(state, p)
            oracle_verts = clip_convex_by_convex(oracle_verts, base + p)
            snap = snapshot(state)
            dots = oracle_verts @ np.asarray(state.directions).T
            worst = max(worst, match_point_sets(snap.boundary, oracle_verts))
            worst = max(worst, float(np.abs((dots.max(0) - dots.min(0)) - snap.heights).max()))
            worst = max(worst, abs(shoelace_area(oracle_verts) - snap.area))
        label = f"k={k}: max |vertices/heights/area| deviation"
        res.criterion(f"polygon_k{k}", label, worst, "<=", tol)
    for d in (2, 3):
        rng = RngStream(seed + 20, 1, (d,))
        state = simplex_new(d)
        e = np.asarray(vertex_matrix(d))
        bounding = facet_halfspaces(2.0 / (d + 1) * e)
        worst = 0.0
        for _ in range(steps):
            u = rng.uniform(d + 1)
            w = -np.log1p(-u)
            p = (w @ state.vertices()) / w.sum()
            state = apply_simplex_point(state, p)
            # the oracle's own previous body, cut by the new translate
            halfspaces = np.vstack([bounding, facet_halfspaces(e + p)])
            overts, bounding = simplex_intersection_oracle(halfspaces, state.center)
            dots = overts @ e[0]
            worst = max(worst, match_point_sets(state.vertices(), overts))
            worst = max(worst, abs(float(dots.max() - dots.min()) - state.height))
            worst = max(worst, float(np.linalg.norm(overts.mean(axis=0) - state.center)))
        label = f"d={d}: max |vertices/height/center| deviation"
        res.criterion(f"simplex_d{d}", label, worst, "<=", tol)
    return res


# ---------------------------------------------------------------------------
# 6. Pentagon structure.
# ---------------------------------------------------------------------------


def _pentagon_big(seed):
    return _experiment(
        process="polygon", k=5, n=PENTAGON_N, replicas=PENTAGON_REPLICAS, seed=seed + 25
    )


def _figure_run(seed, k):
    return _experiment(
        process="polygon", k=k, n=FIGURE_N, replicas=FIGURE_REPLICAS, seed=seed + 30 + k
    )


def _rate_run(seed, k, n):
    return _experiment(process="polygon", k=k, n=n, replicas=RATE_REPLICAS, seed=seed + 40 + k)


def check_pentagon_structure(seed=DEFAULT_SEED) -> CheckResult:
    batch = _pentagon_big(seed).extras["batch"]
    rho = math.cos(math.pi / 5)
    sl = slice(0, STRUCTURE_REPLICAS)
    res = CheckResult("pentagon-structure")
    fallbacks = int(batch.fallback_steps[sl].sum())
    res.criterion("fallbacks", "equal-angle: tightened states", fallbacks, "==", 0)
    slack = float(batch.min_slack[sl].min())
    res.criterion("min_slack", "equal-angle: candidate slack min", slack, ">=", -1e-9)
    residual = float(batch.max_residual[sl].max())
    res.criterion("max_residual", "golden-ratio residual max", residual, "<=", 1e-9)

    eps = 1e-3
    counts = (batch.final_heights[sl] - rho > eps).sum(axis=1)
    res.criterion(
        "single_survivor_fraction",
        f"fraction of replicas with exactly one height excess > {eps:g}",
        float((counts == 1).mean()),
        ">=",
        0.99,
        note="with the threshold fixed at 1e-3 the single-survivor fraction peaks near "
        "0.44 at n = 10^5 and is 0 from n = 10^7 on (DECISIONS.md §2)",
    )
    min_height = float(batch.final_heights[sl].min())
    res.criterion("min_height", "final height min", min_height, ">=", 0.33688 - 1e-6)
    excess = float((batch.max_height[:100] - rho).max())
    res.criterion("max_excess_100", "max height excess, first 100 replicas", excess, "<", 0.05)
    return res


# ---------------------------------------------------------------------------
# 7. Pentagon rate envelope.
# ---------------------------------------------------------------------------


def check_pentagon_envelope(seed=DEFAULT_SEED) -> CheckResult:
    batch = _pentagon_big(seed).extras["batch"]
    rho = math.cos(math.pi / 5)
    c1 = bound_constants(5).c1
    scaled = math.sqrt(PENTAGON_N * c1) * (batch.max_height - rho)
    t_min = float(batch.final_area.min())
    t_max = float(batch.final_area.max())
    grid = [0.2, 0.5, 1.0, 1.5, 2.0]
    tol = 0.03

    def envelope(lo, hi):
        return envelope_check(
            scaled,
            lower=lambda x: math.exp(-(x**2) / lo),
            upper=lambda x: math.exp(-(x**2) / hi),
            grid=grid,
            tol=tol,
        )

    rep, coarse = envelope(t_min, t_max), envelope(*AREA_RANGE)
    res = CheckResult("pentagon-envelope")
    res.stats.update(t_min=t_min, t_max=t_max)
    res.lines.append(f"limit-area range estimated from run: [{_fmt(t_min)}, {_fmt(t_max)}]")
    res.lines += rep.lines()
    res.criterion(
        "violations",
        "grid points outside the same-run envelope",
        len(rep.violations),
        "==",
        0,
        note="finite-n survival exceeds the data-driven upper bound at small x "
        "by up to ~0.05; the coarse analytic bounds hold (DECISIONS.md §3)",
    )
    res.stats["coarse_violations"] = len(coarse.violations)
    res.lines.append(
        "analytic bounds (area in [pi/100, pi]) on the same grid: "
        + ("satisfied" if coarse.passed else "violated")
    )
    mean_scaled = float(scaled.mean())
    mean_sqrt_t = float(np.sqrt(batch.final_area).mean())
    cand_low = mean_sqrt_t / (4.0 * math.sqrt(math.pi))
    cand_high = 0.5 * math.sqrt(math.pi) * mean_sqrt_t
    closer = (
        "sqrt(pi)/2 * E sqrt(t)"
        if abs(mean_scaled - cand_high) < abs(mean_scaled - cand_low)
        else "E sqrt(t) / (4 sqrt(pi))"
    )
    res.lines.append(
        f"moment: E[scaled] = {_fmt(mean_scaled)}; candidates "
        f"E sqrt(t)/(4 sqrt(pi)) = {_fmt(cand_low)}, sqrt(pi)/2 E sqrt(t) = {_fmt(cand_high)}; "
        f"matches {closer}"
    )
    res.stats.update(mean_scaled=mean_scaled, cand_low=cand_low, cand_high=cand_high)
    return res


# ---------------------------------------------------------------------------
# 8. Heptagon/octagon figure data ranges.
# ---------------------------------------------------------------------------


def check_figure_ranges(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("figure-ranges")
    specs = [
        (7, 0.5, (0.215, 1.078), (0.05, 2.2)),
        (8, 1.0, (0.236, 5.381), (0.05, 11.0)),
    ]
    for k, expo, observed, envelope in specs:
        values = _figure_run(seed, k).values()
        lo, hi = float(values.min()), float(values.max())
        label = f"k={k}, n^{expo:g} scaling:"
        res.criterion(f"k{k}_min", f"{label} min, overlap", lo, "<=", observed[1])
        res.criterion(f"k{k}_max", f"{label} max, overlap", hi, ">=", observed[0])
        res.criterion(f"k{k}_min", f"{label} min, envelope", lo, ">=", envelope[0])
        res.criterion(f"k{k}_max", f"{label} max, envelope", hi, "<=", envelope[1])
    return res


# ---------------------------------------------------------------------------
# 9. Rate discrimination across n.
# ---------------------------------------------------------------------------


def check_rate_discrimination(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("rate-discrimination")
    ns = RATE_NS
    meds = {
        k: [float(np.median(_rate_run(seed, k, n).extras["excess"])) for n in ns]
        for k in (7, 8)
    }
    for k in (7, 8):
        scale = 0.5 if k % 2 == 1 else 1.0
        scaled_meds = [n**scale * m for n, m in zip(ns, meds[k])]
        label = (
            f"k={k}: medians of n^{scale:g} (m_n - rho) at n={ns} = "
            f"{[_fmt(v) for v in scaled_meds]}, max/min"
        )
        res.criterion(f"k{k}_ratio", label, max(scaled_meds) / min(scaled_meds), "<=", 2.0)
    sqrt_meds_8 = [math.sqrt(n) * m for n, m in zip(ns, meds[8])]
    label = f"k=8 under sqrt(n) scaling: {[_fmt(v) for v in sqrt_meds_8]}, first/last"
    res.criterion("k8_sqrt_drift", label, sqrt_meds_8[0] / sqrt_meds_8[-1], ">=", 2.5)
    monotone = all(a > b for a, b in zip(sqrt_meds_8, sqrt_meds_8[1:]))
    res.criterion("k8_sqrt_monotone", "k=8 drifts monotonically", monotone, "==", True)
    return res


# ---------------------------------------------------------------------------
# 10. Invariant suite (exact, no randomness thresholds).
# ---------------------------------------------------------------------------


def _polygon_invariant_trajectories(k, replicas, steps, seed):
    """Violation counts per invariant along walked trajectories, counted per step.

    Each trajectory is read from :func:`~diminish.distributions._change_walk`,
    so the snapshot and inscribed circle are computed once per distinct
    state.  A change is checked once, at its step; a state's own invariants
    count once for every step the state lasts, so the counts are those of
    checking the state after every step.
    """
    rho = math.cos(math.pi / k)
    bc = bound_constants(k)
    v = {
        "nested": 0,
        "height_rise": 0,
        "area_range": 0,
        "area_rise": 0,
        "incircle": 0,
        "reduced_persist": 0,
        "region_iff": 0,
        "pent_region_formula": 0,
        "area_bound": 0,
    }
    for rep in range(replicas):
        start = polygon_new(k)
        changes, states = _change_walk(start, steps, RngStream(seed, rep, (k,)))
        # the steps of 1..steps that the start state and each changed state last
        dwells = np.diff([1, *changes, steps + 1]).tolist()
        reduced_seen = False
        prev = None
        for state, w in zip([start, *states], dwells):
            snap = snapshot(state)
            if prev is not None:
                prev_snap = snapshot(prev)
                v["nested"] += bool(np.any(state.offsets < prev.offsets - 1e-12))
                v["height_rise"] += bool(np.any(snap.heights > prev_snap.heights + 1e-9))
                v["area_rise"] += snap.area > prev_snap.area + 1e-12
            prev = state
            if not w:
                continue
            v["area_range"] += w * (not AREA_RANGE[0] - 1e-9 <= snap.area <= AREA_RANGE[1] + 1e-9)
            _, radius = chebyshev_center(state)
            v["incircle"] += w * (radius < 0.1 - 1e-9)
            v["reduced_persist"] += w * (reduced_seen and not snap.reduced)
            reduced_seen = reduced_seen or snap.reduced
            above = snap.heights > rho + 1e-9
            below = snap.heights < rho - 1e-9
            positive = snap.region_areas > 1e-12
            v["region_iff"] += w * bool(np.any(above & ~positive) or np.any(below & positive))
            if k == 5 and snap.reduced:
                formula = np.abs(snap.region_areas - (snap.heights - rho) ** 2 * bc.c1) > 1e-10
                v["pent_region_formula"] += w * int((above & formula).sum())
            if k % 2 == 1:
                excess = snap.max_height - rho
                v["area_bound"] += w * (
                    not bc.delta1 * excess**2 - 1e-12
                    <= snap.change_area
                    <= k * bc.c1 * excess**2 + 1e-12
                )
    return v


def check_invariants(seed=DEFAULT_SEED) -> CheckResult:
    res = CheckResult("invariant-suite")
    for k, reps, steps in [(5, 20, 400), (7, 12, 400), (8, 8, 300)]:
        v = _polygon_invariant_trajectories(k, reps, steps, seed + 50)
        res.lines.append(
            f"polygon k={k} ({reps} x {steps} snapshot steps): "
            + ", ".join(f"{key}={val}" for key, val in v.items())
        )
        label = f"polygon k={k}: violations in total"
        res.criterion(f"polygon_k{k}_violations", label, sum(v.values()), "==", 0)

    # every check compares a state with the one before it, so only changes count
    bad = 0
    for rep in range(100):
        start = interval_new(DfForm(0.5, 1.0))
        _, states = _change_walk(start, 1000, RngStream(seed + 51, rep))
        for prev, s in zip([start, *states], states):
            if (
                s.radius > prev.radius + 1e-12
                or s.center - s.radius < prev.center - prev.radius - 1e-12
                or s.center + s.radius > prev.center + prev.radius + 1e-12
            ):
                bad += 1
    label = "interval nestedness over 100 x 1000 steps: violations"
    res.criterion("interval_violations", label, bad, "==", 0)

    for d in (2, 3):
        lam = _thinned(d, seed + 15 + d)
        sum_dev = float(np.abs(lam.sum(axis=1) - 1.0).max())
        label = f"simplex d={d} thinned weights: max |sum - 1|"
        res.criterion(f"thinned_d{d}_sum_dev", label, sum_dev, "<=", 1e-12 * (d + 2))
        label = f"simplex d={d} thinned weights: min weight"
        res.criterion(f"thinned_d{d}_min_weight", label, float(lam.min()), ">=", -1e-12)

    runs = [_pentagon_big(seed)] + [_figure_run(seed, k) for k in (7, 8)]
    runs += [_rate_run(seed, k, n) for k in (7, 8) for n in RATE_NS]
    batches = [run.extras["batch"] for run in runs]
    for run, batch in zip(runs, batches):
        res.lines.append(
            f"batch k={run.config.k} n={run.config.n} N={run.config.replicas}: "
            f"areas in [{_fmt(batch.area_min.min())}, {_fmt(batch.area_max.max())}], "
            f"max height rise = {_fmt(batch.max_height_rise.max())}"
        )
    area_min = min(float(b.area_min.min()) for b in batches)
    area_max = max(float(b.area_max.max()) for b in batches)
    rise = max(float(b.max_height_rise.max()) for b in batches)
    res.criterion("batch_area_min", "batch runs: area min", area_min, ">=", AREA_RANGE[0] - 1e-9)
    res.criterion("batch_area_max", "batch runs: area max", area_max, "<=", AREA_RANGE[1] + 1e-9)
    res.criterion("batch_max_height_rise", "batch runs: max height rise", rise, "<=", 1e-9)
    res.stats["batch_runs_checked"] = len(runs)
    return res


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "interval-rate": check_interval_rate,
    "interval-center": check_interval_center,
    "cube": check_cube,
    "simplex": check_simplex,
    "geometry-oracle": check_geometry_oracle,
    "pentagon-structure": check_pentagon_structure,
    "pentagon-envelope": check_pentagon_envelope,
    "figure-ranges": check_figure_ranges,
    "rate-discrimination": check_rate_discrimination,
    "invariant-suite": check_invariants,
}


def _check_request(names, seed) -> None:
    """Reject an unknown check name or a bad seed before any check runs.

    A seed must be an integer >= 0, numpy integers included and booleans not,
    as in :class:`~diminish.stats.RunConfig`.
    """
    for name in names:
        if name not in ALL_CHECKS:
            raise ConfigurationError(
                f"unknown check {name!r}; available: {', '.join(ALL_CHECKS)}"
            )
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")


def run_check(name: str, seed: int = DEFAULT_SEED, **kwargs) -> CheckResult:
    """Run one named check and record its wall time in ``seconds``."""
    _check_request([name], seed)
    start = time.perf_counter()
    res = ALL_CHECKS[name](seed=seed, **kwargs)
    res.seconds = time.perf_counter() - start
    return res


def run_suite(names=None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named checks (default: all), each once, in the order first named.

    Every name and the seed are checked before the first check runs.
    """
    names = list(ALL_CHECKS) if names is None else list(dict.fromkeys(names))
    _check_request(names, seed)
    return [run_check(name, seed=seed) for name in names]
