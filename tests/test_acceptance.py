"""Acceptance suite: every published criterion at its stated size and tolerance.

Each test prints the raw statistics of its criterion (run with ``-s`` to see
them inline; the ``diminish verify`` command prints the same report).  Three
sub-criteria are strict expected failures: the simulations themselves show
the published tolerances cannot be met at the published sample sizes (see
DECISIONS.md and the notes in :mod:`diminish.verification`); they still run
at full strength and would flip the suite red if they ever started passing
silently.
"""

import pytest

from diminish import verification as V

# Every stat of the six checks that pin nothing in tests/test_cli.py, exactly,
# at the default seed; the pins change only when a run is meant to change.
PINNED = {
    "interval-rate": {
        "uniform_ks": 0.006104031808369936,
        "uniform_mean": 0.9960724599015611,
        "general_ks": 0.010696818894876503,
    },
    "cube": {
        "max_ks": 0.006330487798305737,
        "center_ks_0": 0.0066342764961550005,
        "edge_ks_0": 0.007482935456740947,
        "center_ks_1": 0.00954746006752627,
        "edge_ks_1": 0.007665960465327748,
        "center_ks_2": 0.0121487045761558,
        "edge_ks_2": 0.004973899227280559,
        "corr_max": 0.011533822702785976,
    },
    "simplex": {
        "rate_ks_d2": 0.007370851463370909,
        "thinned_ks_d2": 0.010274638996777608,
        "moment_d2": 0.8873133189640959,
        "moment_d2_target": 0.8862269254527579,
        "rate_ks_d3": 0.05974648908254809,
        "thinned_ks_d3": 0.013060491960888931,
    },
    "pentagon-structure": {
        "fallbacks": 0,
        "min_slack": -2.220446049250313e-16,
        "max_residual": 1.3322676295501878e-15,
        "single_survivor_fraction": 0.225,
        "min_height": 0.7085128047363498,
        "max_excess_100": 0.011687363256325911,
    },
    "pentagon-envelope": {
        "t_min": 0.4088378719404886,
        "t_max": 0.4845649180069069,
        "violations": 2,
        "coarse_violations": 0,
        "mean_scaled": 0.6140938952650373,
        "cand_low": 0.09686215890246379,
        "cand_high": 0.6086028936376547,
    },
    "invariant-suite": {
        "polygon_k5_violations": 0,
        "polygon_k7_violations": 0,
        "polygon_k8_violations": 0,
        "interval_violations": 0,
        "thinned_d2_sum_dev": 1.3322676295501878e-15,
        "thinned_d2_min_weight": 6.649483316490921e-09,
        "thinned_d3_sum_dev": 1.3322676295501878e-15,
        "thinned_d3_min_weight": 2.1462584392704973e-07,
        "batch_area_min": 0.4088378719404886,
        "batch_area_max": 2.82842712474619,
        "batch_max_height_rise": 4.440892098500626e-16,
        "batch_runs_checked": 9,
    },
}


def _report(res):
    print()
    print(res.report())
    return res


class TestCriterion01IntervalRate:
    def test_interval_rate(self):
        res = _report(V.check_interval_rate())
        assert res.stats["uniform_ks"] <= 0.02
        assert abs(res.stats["uniform_mean"] - 1.0) <= 0.03
        assert res.stats["general_ks"] <= 0.02
        assert res.stats == PINNED["interval-rate"]
        assert res.passed


class TestCriterion02IntervalCenter:
    def test_series_center_law(self):
        res = _report(V.check_interval_center())
        assert res.stats["beta_ks_0.5_1.0"] <= 0.01
        assert res.stats["beta_ks_0.3_2.0"] <= 0.01
        assert res.stats["arcsine_ks"] <= 0.01
        assert res.passed


class TestCriterion03Cube:
    def test_cube(self):
        res = _report(V.check_cube())
        assert res.stats["max_ks"] <= 0.02
        for a in range(3):
            assert res.stats[f"center_ks_{a}"] <= 0.02
            assert res.stats[f"edge_ks_{a}"] <= 0.02
        assert res.stats["corr_max"] <= 0.02
        assert res.stats == PINNED["cube"]
        assert res.passed


class TestCriterion04Simplex:
    def test_d2_rate_centers_and_moment(self):
        res = _report(V.check_simplex())
        assert res.stats["rate_ks_d2"] <= 0.03
        assert res.stats["thinned_ks_d2"] <= 0.02
        assert res.stats["thinned_ks_d3"] <= 0.02
        target = res.stats["moment_d2_target"]
        assert abs(res.stats["moment_d2"] - target) <= 0.05 * target
        assert res.stats == PINNED["simplex"]

    @pytest.mark.xfail(
        strict=True,
        reason="d=3 rate converges like n^(-1/3); the bare height recursion itself "
        "shows a ~0.05 KS gap at n=10^4, so KS<=0.03 is unreachable at the "
        "published n (see DECISIONS.md)",
    )
    def test_d3_rate_tolerance(self):
        res = V.check_simplex()
        assert res.stats["rate_ks_d3"] <= 0.03


class TestCriterion05GeometryOracle:
    def test_oracle_equivalence(self):
        res = _report(V.check_geometry_oracle())
        for key, value in res.stats.items():
            assert value <= 1e-10, key
        assert res.passed


class TestCriterion06PentagonStructure:
    def test_equal_angles_residual_and_height_floor(self):
        res = _report(V.check_pentagon_structure())
        assert res.stats["fallbacks"] == 0
        assert res.stats["min_slack"] >= -1e-9
        assert res.stats["max_residual"] <= 1e-9
        assert res.stats["min_height"] >= 0.33688 - 1e-6
        assert res.stats["max_excess_100"] < 0.05
        assert res.stats == PINNED["pentagon-structure"]

    @pytest.mark.xfail(
        strict=True,
        reason="with the threshold fixed at 1e-3 the single-survivor fraction peaks "
        "near 0.44 at n=10^5 and is 0 from n=10^7 on, so 99% is reached at no n, "
        "n=10^4 included (see DECISIONS.md §2)",
    )
    def test_single_survivor_classification(self):
        res = V.check_pentagon_structure()
        assert res.stats["single_survivor_fraction"] >= 0.99


class TestCriterion07PentagonEnvelope:
    @pytest.mark.xfail(
        strict=True,
        reason="finite-n survival exceeds the tight same-run upper bound at "
        "x in {0.2, 0.5} by ~0.02-0.05; the coarse analytic bounds do hold "
        "(see DECISIONS.md)",
    )
    def test_envelope_with_estimated_area_range(self):
        res = _report(V.check_pentagon_envelope())
        assert res.stats["violations"] == 0

    def test_envelope_with_analytic_area_bounds(self):
        res = V.check_pentagon_envelope()
        assert res.stats["coarse_violations"] == 0
        assert res.stats == PINNED["pentagon-envelope"]

    def test_moment_constant_resolution(self):
        res = _report(V.check_pentagon_envelope())
        mean = res.stats["mean_scaled"]
        assert abs(mean - res.stats["cand_high"]) < abs(mean - res.stats["cand_low"])
        # the matching candidate is (sqrt(pi)/2) E sqrt(t)
        assert mean == pytest.approx(res.stats["cand_high"], rel=0.05)


class TestCriterion08FigureRanges:
    def test_heptagon_and_octagon_ranges(self):
        res = _report(V.check_figure_ranges())
        assert res.stats["k7_min"] <= 1.078 and res.stats["k7_max"] >= 0.215
        assert 0.05 <= res.stats["k7_min"] and res.stats["k7_max"] <= 2.2
        assert res.stats["k8_min"] <= 5.381 and res.stats["k8_max"] >= 0.236
        assert 0.05 <= res.stats["k8_min"] and res.stats["k8_max"] <= 11.0
        assert res.passed


class TestCriterion09RateDiscrimination:
    def test_scaling_stability(self):
        res = _report(V.check_rate_discrimination())
        assert res.stats["k7_ratio"] <= 2.0
        assert res.stats["k8_ratio"] <= 2.0
        assert res.stats["k8_sqrt_drift"] >= 2.5
        assert res.stats["k8_sqrt_monotone"]
        assert res.passed


class TestCriterion10Invariants:
    def test_zero_violations(self):
        res = _report(V.check_invariants())
        for key, value in res.stats.items():
            if key.endswith("_violations"):
                assert value == 0, key
        assert res.stats["thinned_d2_sum_dev"] <= 4e-12
        assert res.stats["thinned_d3_sum_dev"] <= 5e-12
        assert res.stats["thinned_d2_min_weight"] >= -1e-12
        assert res.stats["thinned_d3_min_weight"] >= -1e-12
        assert res.stats == PINNED["invariant-suite"]
        assert res.passed
