"""Named verification suite for the limit theorems and structural invariants.

Each check runs at its published sample sizes and tolerances, reports its
raw statistics (never just pass/fail), and is deterministic given the seed.
Expensive simulations are memoized per (process, parameters, n, replicas,
seed) so overlapping checks share runs; because replica ``r`` always draws
stream ``(seed, r)``, a smaller run is a prefix slice of a larger one.

Three sub-checks are known to sit beyond reach at the published sizes; they
are still executed and reported at full strength (see the FAIL notes):

* the d=3 simplex rate tolerance (KS 0.03) needs n well above 10^4 -- the
  n^(1/3) scaling leaves a ~0.05 finite-size KS bias, reproduced exactly by
  the bare height recursion with no geometry involved;
* the pentagon classification (exactly one height excess > 1e-3 in 99% of
  replicas at n = 10^4): the number of shrink events grows like log n, so
  the almost-sure single-survivor limit is approached at ~20 percentage
  points per decade of n (measured 5% / 24% / 44% at n = 10^3/10^4/10^5);
* the pentagon survival envelope with the limit-area range estimated from
  the same runs: the finite-n survival exceeds the tight data-driven upper
  bound by ~0.02-0.05 at small x (the coarse analytic bounds pi/100 and pi
  do hold, which is reported alongside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DfForm,
    RngStream,
    arcsine,
    beta_law,
    cdf_callable,
    exp1,
    max_exp,
    weibull,
)
from .errors import ConfigurationError
from .interval import center_series_batch, interval_new, step_full
from .oracle import clip_convex_by_convex, match_point_sets, shoelace_area
from .oracle import simplex_intersection_oracle
from .polygon import (
    apply_polygon_point,
    bound_constants,
    chebyshev_center,
    pentagon_constants,
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


@dataclass
class CheckResult:
    """Outcome of one named check with its raw statistics."""

    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    note: str | None = None

    def summary(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}"

    def report(self) -> str:
        out = [self.summary()] + [f"    {line}" for line in self.lines]
        if self.note:
            out.append(f"    note: {self.note}")
        return "\n".join(out)


_CACHE: dict = {}


def _experiment(**kwargs):
    cfg = RunConfig(**kwargs)
    key = (cfg.process, cfg.n, cfg.replicas, cfg.seed, cfg.c, cfg.delta, cfg.d, cfg.k)
    if key not in _CACHE:
        _CACHE[key] = run_experiment(cfg)
    return _CACHE[key]


def _thinned(d, replicas, seed):
    key = ("thinned", d, replicas, seed)
    if key not in _CACHE:
        _CACHE[key] = run_thinned_batch(d, replicas, seed)
    return _CACHE[key]


def _fmt(x) -> str:
    return f"{x:.5g}"


# ---------------------------------------------------------------------------
# 1. Interval rate.
# ---------------------------------------------------------------------------


def check_interval_rate(seed=DEFAULT_SEED, n=10_000, replicas=10_000) -> CheckResult:
    lines = []
    stats = {}

    res = _experiment(process="interval", n=n, replicas=replicas, seed=seed, c=0.5, delta=1.0)
    values = res.values()
    stats["uniform_ks"] = ks_stat(values, cdf_callable(exp1()))
    stats["uniform_mean"], se = moment_estimate(values, 1.0)
    lines.append(f"uniform law: KS vs Exp(1) = {_fmt(stats['uniform_ks'])} (<= 0.02)")
    lines.append(
        f"uniform law: mean = {_fmt(stats['uniform_mean'])} +- {_fmt(se)} (within 1 +- 0.03)"
    )

    res2 = _experiment(
        process="interval", n=n, replicas=replicas, seed=seed + 1, c=0.3, delta=2.0
    )
    stats["general_ks"] = ks_stat(res2.values(), cdf_callable(weibull(2.0)))
    lines.append(f"c=0.3, delta=2: KS vs Weibull(2) = {_fmt(stats['general_ks'])} (<= 0.02)")
    passed = (
        stats["uniform_ks"] <= 0.02
        and abs(stats["uniform_mean"] - 1.0) <= 0.03
        and stats["general_ks"] <= 0.02
    )
    return CheckResult("interval-rate", passed, lines, stats)


# ---------------------------------------------------------------------------
# 2. Interval center (series sampler).
# ---------------------------------------------------------------------------


def check_interval_center(seed=DEFAULT_SEED, samples=100_000) -> CheckResult:
    lines = []
    stats = {}
    for i, (c, delta) in enumerate([(0.5, 1.0), (0.3, 2.0)]):
        z = center_series_batch(RngStream(seed + 2, 0, (10 + i,)), c, delta, 1e-9, samples)
        law = beta_law(delta * (1.0 - c), delta * c)
        ks = ks_stat(z + 0.5, cdf_callable(law))
        stats[f"beta_ks_{c}_{delta}"] = ks
        lines.append(
            f"c={c}, delta={delta}: KS vs Beta({delta * (1 - c):g}, {delta * c:g}) shifted "
            f"= {_fmt(ks)} (<= 0.01)"
        )
        if (c, delta) == (0.5, 1.0):
            stats["arcsine_ks"] = ks_stat(z, cdf_callable(arcsine()))
            lines.append(f"uniform case: KS vs arcsine = {_fmt(stats['arcsine_ks'])} (<= 0.01)")
    passed = all(v <= 0.01 for v in stats.values())
    return CheckResult("interval-center", passed, lines, stats)


# ---------------------------------------------------------------------------
# 3. Cube.
# ---------------------------------------------------------------------------


def check_cube(seed=DEFAULT_SEED, n=10_000, replicas=10_000, d=3) -> CheckResult:
    lines = []
    stats = {}
    res = _experiment(process="cube", n=n, replicas=replicas, seed=seed + 4, d=d)
    stats["max_ks"] = ks_stat(res.values(), cdf_callable(max_exp(d)))
    lines.append(f"scaled max edge: KS vs (1-e^-x)^{d} = {_fmt(stats['max_ks'])} (<= 0.02)")
    centers = res.extras["centers"]
    excess = res.extras["edge_excess"]
    for a in range(d):
        ks_c = ks_stat(centers[:, a], cdf_callable(arcsine()))
        ks_e = ks_stat(excess[:, a], cdf_callable(exp1()))
        stats[f"center_ks_{a}"] = ks_c
        stats[f"edge_ks_{a}"] = ks_e
        lines.append(
            f"axis {a}: center KS vs arcsine = {_fmt(ks_c)}, "
            f"edge KS vs Exp(1) = {_fmt(ks_e)} (<= 0.02)"
        )
    corr_max = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            corr = float(np.corrcoef(centers[:, a], centers[:, b])[0, 1])
            corr_max = max(corr_max, abs(corr))
            lines.append(f"center corr axes ({a},{b}) = {_fmt(corr)} (|.| <= 0.02)")
    stats["corr_max"] = corr_max
    passed = all(v <= 0.02 for v in stats.values())
    return CheckResult("cube", passed, lines, stats)


# ---------------------------------------------------------------------------
# 4. Simplex rate and center.
# ---------------------------------------------------------------------------


def check_simplex(seed=DEFAULT_SEED, n=10_000, replicas=10_000) -> CheckResult:
    lines = []
    stats = {}
    for d in (2, 3):
        res = _experiment(process="simplex", n=n, replicas=replicas, seed=seed + 5 + d, d=d)
        ks = ks_stat(res.values(), cdf_callable(weibull(float(d))))
        stats[f"rate_ks_d{d}"] = ks
        lines.append(f"d={d}: height KS vs Weibull({d}) = {_fmt(ks)} (<= 0.03)")
        a = d / (d + 1)
        marg = beta_law(a, d * a)
        lam = _thinned(d, replicas, seed + 15 + d)
        worst = max(ks_stat(lam[:, i], cdf_callable(marg)) for i in range(d + 1))
        stats[f"thinned_ks_d{d}"] = worst
        lines.append(
            f"d={d}: worst weight marginal KS vs Beta({a:.4g}, {d * a:.4g}) = "
            f"{_fmt(worst)} (<= 0.02)"
        )
        if d == 2:
            mean, se = moment_estimate(res.values(), 1.0)
            target = 0.5 * math.gamma(0.5)
            stats["moment_d2"] = mean
            stats["moment_d2_target"] = target
            lines.append(
                f"d=2: first moment = {_fmt(mean)} +- {_fmt(se)} (within 5% of {_fmt(target)})"
            )
    passed = (
        stats["rate_ks_d2"] <= 0.03
        and stats["rate_ks_d3"] <= 0.03
        and stats["thinned_ks_d2"] <= 0.02
        and stats["thinned_ks_d3"] <= 0.02
        and abs(stats["moment_d2"] - stats["moment_d2_target"]) <= 0.05 * stats["moment_d2_target"]
    )
    note = None
    if stats["rate_ks_d3"] > 0.03:
        note = (
            "the d=3 rate converges like n^(-1/3); at n = 10^4 the bare height "
            "recursion itself (no geometry) already shows the same ~0.05 KS bias, "
            "so the 0.03 tolerance is unreachable at this n"
        )
    return CheckResult("simplex", passed, lines, stats, note)


# ---------------------------------------------------------------------------
# 5. Geometry oracle equivalence.
# ---------------------------------------------------------------------------


def check_geometry_oracle(seed=DEFAULT_SEED, steps=100, tol=1e-10) -> CheckResult:
    lines = []
    stats = {}
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
        stats[f"polygon_k{k}"] = worst
        lines.append(f"k={k}: max |vertices/heights/area| deviation = {worst:.2e} (<= {tol:g})")
    for d in (2, 3):
        rng = RngStream(seed + 20, 1, (d,))
        state = simplex_new(d)
        points = []
        worst = 0.0
        e0 = np.asarray(vertex_matrix(d))[0]
        for _ in range(steps):
            u = rng.uniform(d + 1)
            w = -np.log1p(-u)
            p = (w @ state.vertices()) / w.sum()
            points.append(p)
            state = apply_simplex_point(state, p)
            overts = simplex_intersection_oracle(d, points, state.center)
            dots = overts @ e0
            worst = max(worst, match_point_sets(state.vertices(), overts))
            worst = max(worst, abs(float(dots.max() - dots.min()) - state.height))
            worst = max(worst, float(np.linalg.norm(overts.mean(axis=0) - state.center)))
        stats[f"simplex_d{d}"] = worst
        lines.append(f"d={d}: max |vertices/height/center| deviation = {worst:.2e} (<= {tol:g})")
    passed = all(v <= tol for v in stats.values())
    return CheckResult("geometry-oracle", passed, lines, stats)


# ---------------------------------------------------------------------------
# 6. Pentagon structure.
# ---------------------------------------------------------------------------


# Published sizes of the polygon batch runs; invariant-suite requests them
# through the same memoized helpers, whatever ran before it.
PENTAGON_N, PENTAGON_REPLICAS = 10_000, 10_000
FIGURE_N, FIGURE_REPLICAS = 100, 200
RATE_NS, RATE_REPLICAS = (100, 400, 1600), 500


def _pentagon_big(seed, n=PENTAGON_N, replicas=PENTAGON_REPLICAS):
    return _experiment(process="polygon", k=5, n=n, replicas=replicas, seed=seed + 25)


def _figure_run(seed, k, n=FIGURE_N, replicas=FIGURE_REPLICAS):
    return _experiment(process="polygon", k=k, n=n, replicas=replicas, seed=seed + 30 + k)


def _rate_run(seed, k, n, replicas=RATE_REPLICAS):
    return _experiment(process="polygon", k=k, n=n, replicas=replicas, seed=seed + 40 + k)


def check_pentagon_structure(
    seed=DEFAULT_SEED, n=PENTAGON_N, replicas=1000, big_replicas=PENTAGON_REPLICAS
) -> CheckResult:
    res = _pentagon_big(seed, n, max(replicas, big_replicas))
    batch = res.extras["batch"]
    rho = pentagon_constants().rho5
    sl = slice(0, replicas)
    lines = []
    stats = {}

    stats["fallbacks"] = int(batch.fallback_steps[sl].sum())
    stats["min_slack"] = float(batch.min_slack[sl].min())
    lines.append(
        f"equal-angle: candidate slack min = {stats['min_slack']:.2e} (>= -1e-9), "
        f"clip fallbacks = {stats['fallbacks']} (= 0)"
    )
    stats["max_residual"] = float(batch.max_residual[sl].max())
    lines.append(f"golden-ratio residual max = {stats['max_residual']:.2e} (<= 1e-9)")

    excess = batch.final_heights[sl] - rho
    counts = (excess > 1e-3).sum(axis=1)
    stats["single_survivor_fraction"] = float((counts == 1).mean())
    lines.append(
        f"exactly one height excess > 1e-3 in {stats['single_survivor_fraction']:.3f} "
        f"of replicas (>= 0.99)"
    )

    stats["min_height"] = float(batch.final_heights[sl].min())
    lines.append(f"final height min = {_fmt(stats['min_height'])} (>= 0.33688 - 1e-6)")

    stats["max_excess_100"] = float((batch.max_height[:100] - rho).max())
    lines.append(
        f"max height excess over first 100 replicas = {_fmt(stats['max_excess_100'])} (< 0.05)"
    )
    passed = (
        stats["fallbacks"] == 0
        and stats["min_slack"] >= -1e-9
        and stats["max_residual"] <= 1e-9
        and stats["single_survivor_fraction"] >= 0.99
        and stats["min_height"] >= 0.33688 - 1e-6
        and stats["max_excess_100"] < 0.05
    )
    note = None
    if stats["single_survivor_fraction"] < 0.99:
        note = (
            "shrink events accrue like log n, so the almost-sure single-survivor limit "
            "is approached at roughly +20 percentage points per decade of n "
            "(measured ~5%/24%/44% at n = 10^3/10^4/10^5); 99% at n = 10^4 is out of "
            "reach of the process itself"
        )
    return CheckResult("pentagon-structure", passed, lines, stats, note)


# ---------------------------------------------------------------------------
# 7. Pentagon rate envelope.
# ---------------------------------------------------------------------------


def check_pentagon_envelope(
    seed=DEFAULT_SEED, n=PENTAGON_N, replicas=PENTAGON_REPLICAS
) -> CheckResult:
    res = _pentagon_big(seed, n, replicas)
    batch = res.extras["batch"]
    rho = pentagon_constants().rho5
    c1 = math.tan(3.0 * math.pi / 10.0)
    scaled = math.sqrt(n * c1) * (batch.max_height - rho)
    t_min = float(batch.final_area.min())
    t_max = float(batch.final_area.max())
    grid = [0.2, 0.5, 1.0, 1.5, 2.0]
    rep = envelope_check(
        scaled,
        lower=lambda x: math.exp(-(x**2) / t_min),
        upper=lambda x: math.exp(-(x**2) / t_max),
        grid=grid,
        tol=0.03,
    )
    coarse = envelope_check(
        scaled,
        lower=lambda x: math.exp(-(x**2) / (math.pi / 100.0)),
        upper=lambda x: math.exp(-(x**2) / math.pi),
        grid=grid,
        tol=0.03,
    )
    lines = [f"limit-area range estimated from run: [{_fmt(t_min)}, {_fmt(t_max)}]"]
    lines += rep.lines()
    lines.append(
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
    lines.append(
        f"moment: E[scaled] = {_fmt(mean_scaled)}; candidates "
        f"E sqrt(t)/(4 sqrt(pi)) = {_fmt(cand_low)}, sqrt(pi)/2 E sqrt(t) = {_fmt(cand_high)}; "
        f"matches {closer}"
    )
    stats = {
        "t_min": t_min,
        "t_max": t_max,
        "violations": len(rep.violations),
        "coarse_violations": len(coarse.violations),
        "mean_scaled": mean_scaled,
        "cand_low": cand_low,
        "cand_high": cand_high,
    }
    note = None
    if rep.violations:
        note = (
            "finite-n survival exceeds the data-driven upper bound at small x by up to "
            "~0.05; the asymptotic envelope with the coarse analytic area bounds holds"
        )
    return CheckResult("pentagon-envelope", rep.passed, lines, stats, note)


# ---------------------------------------------------------------------------
# 8. Heptagon/octagon figure data ranges.
# ---------------------------------------------------------------------------


def check_figure_ranges(seed=DEFAULT_SEED, n=FIGURE_N, replicas=FIGURE_REPLICAS) -> CheckResult:
    lines = []
    stats = {}
    passed = True
    specs = [
        (7, 0.5, (0.215, 1.078), (0.05, 2.2)),
        (8, 1.0, (0.236, 5.381), (0.05, 11.0)),
    ]
    for k, expo, observed, envelope in specs:
        values = _figure_run(seed, k, n, replicas).values()
        lo, hi = float(values.min()), float(values.max())
        overlaps = lo <= observed[1] and hi >= observed[0]
        inside = envelope[0] <= lo and hi <= envelope[1]
        passed &= overlaps and inside
        stats[f"k{k}_min"], stats[f"k{k}_max"] = lo, hi
        lines.append(
            f"k={k}, n^{expo:g} scaling: range [{_fmt(lo)}, {_fmt(hi)}] "
            f"(overlaps {list(observed)}: {overlaps}; within {list(envelope)}: {inside})"
        )
    return CheckResult("figure-ranges", bool(passed), lines, stats)


# ---------------------------------------------------------------------------
# 9. Rate discrimination across n.
# ---------------------------------------------------------------------------


def check_rate_discrimination(seed=DEFAULT_SEED, replicas=RATE_REPLICAS) -> CheckResult:
    lines = []
    stats = {}
    ns = RATE_NS
    meds = {}
    for k in (7, 8):
        meds[k] = [float(np.median(_rate_run(seed, k, n, replicas).extras["excess"])) for n in ns]
        scale = 0.5 if k % 2 == 1 else 1.0
        scaled_meds = [n**scale * m for n, m in zip(ns, meds[k])]
        ratio = max(scaled_meds) / min(scaled_meds)
        stats[f"k{k}_ratio"] = ratio
        lines.append(
            f"k={k}: medians of n^{scale:g} (m_n - rho) at n={ns} = "
            f"{[_fmt(v) for v in scaled_meds]}, max/min = {_fmt(ratio)} (<= 2)"
        )
    sqrt_meds_8 = [math.sqrt(n) * m for n, m in zip(ns, meds[8])]
    stats["k8_sqrt_drift"] = sqrt_meds_8[0] / sqrt_meds_8[-1]
    monotone = all(a > b for a, b in zip(sqrt_meds_8, sqrt_meds_8[1:]))
    stats["k8_sqrt_monotone"] = monotone
    lines.append(
        f"k=8 under sqrt(n) scaling drifts monotonically: {[_fmt(v) for v in sqrt_meds_8]}, "
        f"first/last = {_fmt(stats['k8_sqrt_drift'])} (>= 2.5)"
    )
    passed = (
        stats["k7_ratio"] <= 2.0
        and stats["k8_ratio"] <= 2.0
        and stats["k8_sqrt_drift"] >= 2.5
        and monotone
    )
    return CheckResult("rate-discrimination", passed, lines, stats)


# ---------------------------------------------------------------------------
# 10. Invariant suite (exact, no randomness thresholds).
# ---------------------------------------------------------------------------


def _polygon_invariant_trajectories(k, replicas, steps, seed):
    """Full-snapshot trajectories; returns violation counts per invariant."""
    rho = math.cos(math.pi / k)
    bc = bound_constants(k)
    c1_pent = math.tan(3.0 * math.pi / 10.0)
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
        rng = RngStream(seed, rep, (k,))
        state = polygon_new(k)
        snap = snapshot(state)
        reduced_seen = False
        prev_heights = snap.heights
        prev_area = snap.area
        for _ in range(steps):
            p = sample_point(state, rng)
            new_state = apply_polygon_point(state, p)
            if np.any(new_state.offsets < state.offsets - 1e-12):
                v["nested"] += 1
            state = new_state
            snap = snapshot(state)
            if np.any(snap.heights > prev_heights + 1e-9):
                v["height_rise"] += 1
            if not (math.pi / 100.0 - 1e-9 <= snap.area <= math.pi + 1e-9):
                v["area_range"] += 1
            if snap.area > prev_area + 1e-12:
                v["area_rise"] += 1
            prev_heights, prev_area = snap.heights, snap.area
            _, radius = chebyshev_center(state)
            if radius < 0.1 - 1e-9:
                v["incircle"] += 1
            if reduced_seen and not snap.reduced:
                v["reduced_persist"] += 1
            reduced_seen = reduced_seen or snap.reduced
            above = snap.heights > rho + 1e-9
            below = snap.heights < rho - 1e-9
            positive = snap.region_areas > 1e-12
            if np.any(above & ~positive) or np.any(below & positive):
                v["region_iff"] += 1
            if k == 5 and snap.reduced:
                for i in range(5):
                    if snap.heights[i] > rho + 1e-9:
                        expect = (snap.heights[i] - rho) ** 2 * c1_pent
                        if abs(snap.region_areas[i] - expect) > 1e-10:
                            v["pent_region_formula"] += 1
            if k % 2 == 1:
                excess = snap.max_height - rho
                if not (
                    bc.delta1 * excess**2 - 1e-12
                    <= snap.change_area
                    <= k * bc.c1 * excess**2 + 1e-12
                ):
                    v["area_bound"] += 1
    return v


def check_invariants(seed=DEFAULT_SEED) -> CheckResult:
    lines = []
    stats = {}
    passed = True

    runs = [(5, 20, 400), (7, 12, 400), (8, 8, 300)]
    for k, reps, steps in runs:
        v = _polygon_invariant_trajectories(k, reps, steps, seed + 50)
        total = sum(v.values())
        stats[f"polygon_k{k}_violations"] = total
        passed &= total == 0
        lines.append(
            f"polygon k={k} ({reps} x {steps} snapshot steps): violations "
            + ", ".join(f"{key}={val}" for key, val in v.items())
        )

    bad = 0
    for rep in range(100):
        rng = RngStream(seed + 51, rep)
        s = interval_new(DfForm(0.5, 1.0))
        for _ in range(1000):
            prev = s
            s = step_full(s, rng)
            if (
                s.radius > prev.radius + 1e-12
                or s.center - s.radius < prev.center - prev.radius - 1e-12
                or s.center + s.radius > prev.center + prev.radius + 1e-12
            ):
                bad += 1
    stats["interval_violations"] = bad
    passed &= bad == 0
    lines.append(f"interval nestedness over 100 x 1000 steps: violations = {bad}")

    for d in (2, 3):
        lam = _thinned(d, 10_000, seed + 15 + d)
        sum_dev = float(np.abs(lam.sum(axis=1) - 1.0).max())
        min_w = float(lam.min())
        stats[f"thinned_d{d}_sum_dev"] = sum_dev
        stats[f"thinned_d{d}_min_weight"] = min_w
        passed &= sum_dev <= 1e-12 * (d + 2) and min_w >= -1e-12
        lines.append(
            f"simplex d={d} thinned weights: max |sum - 1| = {sum_dev:.2e} "
            f"(<= {1e-12 * (d + 2):.0e}), min weight = {min_w:.2e} (>= -1e-12)"
        )

    runs = [_pentagon_big(seed)] + [_figure_run(seed, k) for k in (7, 8)]
    runs += [_rate_run(seed, k, n) for k in (7, 8) for n in RATE_NS]
    for res in runs:
        batch = res.extras["batch"]
        a_min, a_max = float(batch.area_min.min()), float(batch.area_max.max())
        rise = float(batch.max_height_rise.max())
        ok = a_min >= math.pi / 100.0 - 1e-9 and a_max <= math.pi + 1e-9 and rise <= 1e-9
        passed &= ok
        lines.append(
            f"batch k={res.config.k} n={res.config.n} N={res.config.replicas}: "
            f"areas in [{_fmt(a_min)}, {_fmt(a_max)}] "
            f"(within [pi/100, pi]), max height rise = {rise:.2e} (<= 1e-9)"
        )
    stats["batch_runs_checked"] = len(runs)
    return CheckResult("invariant-suite", bool(passed), lines, stats)


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


def run_check(name: str, seed: int = DEFAULT_SEED, **kwargs) -> CheckResult:
    if name not in ALL_CHECKS:
        raise ConfigurationError(
            f"unknown check {name!r}; available: {', '.join(ALL_CHECKS)}"
        )
    return ALL_CHECKS[name](seed=seed, **kwargs)


def run_suite(names=None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    names = list(ALL_CHECKS) if names is None else list(names)
    return [run_check(name, seed=seed) for name in names]
