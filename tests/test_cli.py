import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diminish.cli import emit_csv, main, parse_config
from diminish.errors import ConfigurationError
from diminish.stats import RunConfig, run_experiment
from diminish import cli, verification
from diminish.verification import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParseConfig:
    def test_flags_only(self):
        cfg = parse_config(
            {"process": "pentagon", "n": 10_000, "replicas": 1000, "seed": 42}
        )
        assert cfg.process == "polygon" and cfg.k == 5
        assert cfg.n == 10_000 and cfg.replicas == 1000 and cfg.seed == 42

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigurationError, match=r"c must lie in \[0, 1\]"):
            parse_config({"process": "interval", "n": 10, "replicas": 1, "c": 1.5})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="unknown config key: 'turbo'"):
            parse_config({"process": "interval", "n": 10, "replicas": 1, "turbo": True})

    def test_missing_required(self):
        with pytest.raises(ConfigurationError, match="'process'"):
            parse_config({"n": 10, "replicas": 1})
        with pytest.raises(ConfigurationError, match="'replicas'"):
            parse_config({"process": "interval", "n": 10})

    def test_file_and_flags_equivalent(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"process": "simplex", "d": 3, "n": 500, "replicas": 7, "seed": 9})
        )
        from_file = parse_config(str(path))
        from_flags = parse_config(
            {"process": "simplex", "d": 3, "n": 500, "replicas": 7, "seed": 9}
        )
        assert from_file == from_flags

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"process": "interval", "n": 500, "replicas": 7}))
        cfg = parse_config(str(path), {"n": 900, "seed": 3})
        assert cfg.n == 900 and cfg.replicas == 7 and cfg.seed == 3

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", "ten"),
            ("c", "half"),
            ("seed", None),
            ("n", 10.7),
            ("replicas", 2.5),
            ("seed", 1.5),
            ("d", 2.5),
            ("k", 5.5),
            ("n", True),
            ("replicas", True),
            ("seed", False),
            ("d", True),
            ("k", True),
            ("c", True),
            ("delta", False),
        ],
    )
    def test_bad_value_names_key(self, key, value):
        cfg = {"process": "interval", "n": 10, "replicas": 1, key: value}
        with pytest.raises(ConfigurationError, match=f"config key '{key}' must be"):
            parse_config(cfg)

    @pytest.mark.parametrize("key", ["c", "delta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must"):
            parse_config({"process": "interval", "n": 10, "replicas": 2, key: value})
        with pytest.raises(ConfigurationError, match=f"^{key} must"):
            RunConfig(process="interval", n=10, replicas=2, seed=1, **{key: value})

    def test_integral_float_is_accepted(self):
        cfg = parse_config(
            {"process": "simplex", "n": 10.0, "replicas": 2.0, "seed": 3.0, "d": 2.0}
        )
        assert (cfg.n, cfg.replicas, cfg.seed, cfg.d) == (10, 2, 3, 2)
        assert all(type(v) is int for v in (cfg.n, cfg.replicas, cfg.seed, cfg.d))

    @pytest.mark.parametrize("alias,k", [("pentagon", 5), ("heptagon", 7), ("octagon", 8)])
    def test_alias_with_its_own_k(self, alias, k):
        for given in (k, float(k), str(k)):
            cfg = parse_config({"process": alias, "k": given, "n": 10, "replicas": 1})
            assert cfg.process == "polygon" and cfg.k == k

    def test_alias_conflicting_with_k_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'pentagon' has k = 5, got k = 7"):
            parse_config({"process": "pentagon", "k": 7, "n": 10, "replicas": 1})

    @pytest.mark.parametrize(
        "key,value",
        [("process", ["interval"]), ("process", 5), ("out", ["a"]), ("out", 1), ("out", True)],
    )
    def test_non_string_value_names_key(self, key, value):
        cfg = {"process": "interval", "n": 3, "replicas": 1, key: value}
        with pytest.raises(ConfigurationError, match=f"config key '{key}' must be a string"):
            parse_config(cfg)

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            parse_config(str(bad))


class TestEmitCsv:
    def test_empty_records(self, tmp_path):
        dest = tmp_path / "empty.csv"
        assert emit_csv([], dest, ["replica", "value"]) == 0
        assert dest.read_text().strip() == "replica,value"

    def test_round_trip_bit_exact(self, tmp_path):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-52, 123456.789012345678]
        dest = tmp_path / "vals.csv"
        emit_csv([[i, v] for i, v in enumerate(values)], dest, ["replica", "value"])
        with open(dest) as fh:
            rows = list(csv.DictReader(fh))
        back = [float(r["value"]) for r in rows]
        assert back == values


class TestCommands:
    def test_simulate_interval(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "simulate",
                "--process",
                "interval",
                "--n",
                "50",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "center", "radius"]
        assert len(rows) == 52  # header + steps 0..50
        assert float(rows[1][2]) == 1.0

    def test_simulate_polygon_snapshot_columns(self, tmp_path):
        out = tmp_path / "pent.csv"
        rc = main(
            ["simulate", "--process", "pentagon", "--n", "20", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header[:4] == ["step", "max_height", "area", "reduced"]
        assert header[4:] == [f"height_{i}" for i in range(1, 6)]

    def test_alias_conflicting_with_k_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "pent.csv"
        argv = ["simulate", "--process", "pentagon", "--k", "7", "--n", "5", "--out", str(out)]
        assert main(argv) == 1
        assert "k = 5, got k = 7" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_deterministic(self, tmp_path):
        args = [
            "experiment",
            "--process",
            "heptagon",
            "--n",
            "60",
            "--replicas",
            "8",
            "--seed",
            "5",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_figure_fig7_shape(self, tmp_path):
        out = tmp_path / "fig7.csv"
        rc = main(["figure", "--which", "fig7", "--seed", "6", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica", "value"]
        assert len(rows) == 201  # 200 outcomes

    def test_usage_error_exit_code(self, capsys):
        rc = main(["experiment", "--process", "interval", "--n", "10", "--replicas", "2", "--c", "1.5"])
        assert rc == 1
        assert "c must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--check", "bogus"], "invalid choice: 'bogus'"),
            (["simulate", "--n", "abc"], "invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_parser_error_exit_code(self, argv, message, capsys):
        # 2 is reserved for a check that missed its threshold
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: diminish" in capsys.readouterr().out

    def test_verify_exit_codes(self, monkeypatch, tmp_path, capsys):
        calls = {}

        def fake_pass(seed):
            calls["seed"] = seed
            res = CheckResult("figure-ranges")
            res.criterion("stat", "stat", 1, "<=", 1)
            return res

        def fake_fail(seed):
            res = CheckResult("cube")
            res.criterion("stat", "stat", 9, "<=", 1)
            return res

        monkeypatch.setitem(verification.ALL_CHECKS, "figure-ranges", fake_pass)
        monkeypatch.setitem(verification.ALL_CHECKS, "cube", fake_fail)
        assert main(["verify", "--check", "figure-ranges", "--seed", "77"]) == 0
        assert calls["seed"] == 77
        json_out = tmp_path / "report.json"
        rc = main(
            ["verify", "--check", "figure-ranges", "--check", "cube", "--json", str(json_out)]
        )
        assert rc == 2
        payload = json.loads(json_out.read_text())
        assert payload["cube"]["passed"] is False
        assert payload["figure-ranges"]["passed"] is True

    def test_repeated_check_runs_once(self, monkeypatch, tmp_path, capsys):
        ran = []
        for name in ("figure-ranges", "cube"):
            monkeypatch.setitem(
                verification.ALL_CHECKS, name, lambda seed, name=name: ran.append(name) or CheckResult(name)
            )
        json_out = tmp_path / "report.json"
        checks = ["--check", "cube", "--check", "figure-ranges", "--check", "cube"]
        assert main(["verify", *checks, "--json", str(json_out)]) == 0
        assert ran == ["cube", "figure-ranges"]
        assert capsys.readouterr().out.splitlines()[-1] == "all 2 checks passed"
        assert list(json.loads(json_out.read_text())) == ran

    def test_env_seed_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DIMINISH_SEED", "123")
        out1 = tmp_path / "one.csv"
        main(["experiment", "--process", "interval", "--n", "30", "--replicas", "4", "--out", str(out1)])
        out2 = tmp_path / "two.csv"
        main(
            [
                "experiment",
                "--process",
                "interval",
                "--n",
                "30",
                "--replicas",
                "4",
                "--seed",
                "123",
                "--out",
                str(out2),
            ]
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_seed_is_used(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"process": "interval", "n": 30, "seed": 5}))
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["simulate", "--config", str(config), "--out", str(from_file)]) == 0
        flags = ["simulate", "--process", "interval", "--n", "30", "--seed", "5"]
        assert main(flags + ["--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_verify_json_carries_stats_and_note(self, tmp_path):
        json_out = tmp_path / "report.json"
        rc = main(["verify", "--check", "geometry-oracle", "--json", str(json_out)])
        assert rc == 0
        entry = json.loads(json_out.read_text())["geometry-oracle"]
        assert entry["passed"] is True and entry["note"] is None
        assert set(entry["stats"]) == {
            "polygon_k5",
            "polygon_k7",
            "polygon_k8",
            "simplex_d2",
            "simplex_d3",
        }
        assert all(0.0 <= v <= 1e-10 for v in entry["stats"].values())
        assert len(entry["statistics"]) == 5
        assert entry["thresholds"] == {
            key: [{"op": "<=", "limit": 1e-10}] for key in entry["stats"]
        }
        assert entry["seconds"] > 0.0

    def test_verify_json_stats_are_pinned(self, tmp_path):
        # exact stats of the sub-second checks at the default seed; figure-ranges
        # and rate-discrimination run the polygon batch engine end to end
        pinned = {
            "figure-ranges": {
                "k7_min": 0.15085451634218927,
                "k7_max": 1.2809581131942671,
                "k8_min": 0.25853936443143155,
                "k8_max": 5.070651852605734,
            },
            "rate-discrimination": {
                "k7_ratio": 1.063785157840976,
                "k8_ratio": 1.0400383483028566,
                "k8_sqrt_drift": 4.128432676436544,
                "k8_sqrt_monotone": True,
            },
            "interval-center": {
                "beta_ks_0.5_1.0": 0.0028945329795935226,
                "arcsine_ks": 0.0028945329795935226,
                "beta_ks_0.3_2.0": 0.002044364305371471,
            },
            "geometry-oracle": {
                "polygon_k5": 4.440892098500626e-16,
                "polygon_k7": 4.440892098500626e-16,
                "polygon_k8": 9.377312593151945e-16,
                "simplex_d2": 2.2887833992611187e-16,
                "simplex_d3": 2.3055512673781017e-16,
            },
        }
        json_out = tmp_path / "report.json"
        checks = [arg for name in pinned for arg in ("--check", name)]
        assert main(["verify", *checks, "--json", str(json_out)]) == 0
        report = json.loads(json_out.read_text())
        assert {name: report[name]["stats"] for name in pinned} == pinned

    def test_bad_env_seed_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("DIMINISH_SEED", "abc")
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--process", "interval", "--n", "5", "--out", str(out)]) == 1
        assert "DIMINISH_SEED must be an integer" in capsys.readouterr().err

    def test_bad_env_seed_is_not_read_when_a_seed_is_given(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DIMINISH_SEED", "abc")
        config = tmp_path / "run.json"
        config.write_text('{"process": "interval", "n": 10, "replicas": 2, "seed": 5}')
        runs = {
            "flag": ["experiment", "--process", "interval", "--n", "10", "--replicas", "2", "--seed", "5"],
            "config": ["experiment", "--config", str(config)],
            "figure": ["figure", "--which", "fig7", "--seed", "5"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0, name
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()

    def test_infinite_delta_in_config_file_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"process": "interval", "n": 10, "replicas": 2, "delta": Infinity}')
        out = tmp_path / "samples.csv"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
        assert "delta must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        out = tmp_path / "traj.csv"
        for value in ("ten", 10.7, True):
            config.write_text(json.dumps({"process": "interval", "n": value, "replicas": 1}))
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"error: config key 'n' must be an integer, got {value!r}" in err


    @pytest.mark.parametrize("key,value", [("out", ["a"]), ("process", ["interval"])])
    def test_non_string_config_value_is_a_usage_error(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"process": "interval", "n": 3, "replicas": 1, key: value}))
        assert main(["simulate", "--config", str(config)]) == 1
        assert f"error: config key '{key}' must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_integer_out_leaves_stdout_open(self, tmp_path):
        # open(1) would write the CSV to file descriptor 1 and close it with the file
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"process": "interval", "n": 3, "replicas": 1, "out": 1}))
        script = (
            "import os\n"
            "from diminish.cli import main\n"
            f"code = main(['simulate', '--config', {str(config)!r}])\n"
            "os.fstat(1)\n"
            "print('exit', code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert done.stdout == "exit 1\n", done.stderr
        assert "error: config key 'out' must be a string, got 1" in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


class TestFileErrors:
    """A file that cannot be read or written ends the command with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--check", "figure-ranges", "--json"],
            ["experiment", "--process", "interval", "--n", "10", "--replicas", "2", "--out"],
            ["simulate", "--process", "pentagon", "--n", "10", "--out"],
            ["figure", "--which", "fig7", "--out"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_directory(self, tmp_path, monkeypatch, capsys, argv):
        def started(*args, **kwargs):
            raise AssertionError("the work started before the output file was opened")

        for name in ("run_experiment", "_change_walk", "cube_walk"):
            monkeypatch.setattr(cli, name, started)
        monkeypatch.setattr(verification, "run_suite", started)
        dest = tmp_path / "missing" / "out"
        assert main([*argv, str(dest)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and "Traceback" not in err
        assert err.startswith(f"error: failed writing {dest} after 0 rows: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--process", "interval", "--n", "10", "--seed", "-3", "--out"],
            ["experiment", "--process", "cube", "--n", "10", "--replicas", "2", "--seed", "-3", "--out"],
            ["figure", "--which", "fig7", "--seed", "-3", "--out"],
            ["verify", "--check", "interval-rate", "--seed", "-3", "--json"],
            # this check adds 20 to its seed, so no stream of it rejects -3
            ["verify", "--check", "geometry-oracle", "--seed", "-3", "--json"],
            ["verify", "--check", "geometry-oracle", "--json"],  # the seed of $DIMINISH_SEED
        ],
        ids=["simulate", "experiment", "figure", "verify", "verify-oracle", "verify-env"],
    )
    def test_negative_seed_leaves_no_file(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("DIMINISH_SEED", "-3")
        assert main([*argv, str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["experiment", "--config", str(bad), "--n", "10", "--replicas", "2"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and "Traceback" not in err
        assert err.startswith(f"error: config file {bad} is not valid JSON: ")
        assert list(tmp_path.iterdir()) == [bad]


class TestSimulateReplaysExperimentRowZero:
    """``simulate`` writes replica 0 of its seed: its last row is ``experiment`` row 0."""

    def last_row(self, tmp_path, flags, n, seed):
        out = tmp_path / "traj.csv"
        argv = ["simulate", *flags, "--n", str(n), "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n + 1 and rows[-1]["step"] == str(n)
        return {key: float(value) for key, value in rows[-1].items()}

    def extras(self, **cfg):
        return run_experiment(parse_config({"replicas": 3, **cfg})).extras

    @pytest.mark.parametrize("c,delta", [(0.3, 2.0), (0.0, 0.5), (1.0, 3.0)])
    def test_interval(self, tmp_path, c, delta):
        flags = ["--process", "interval", "--c", str(c), "--delta", str(delta)]
        row = self.last_row(tmp_path, flags, 1500, 8)
        ex = self.extras(process="interval", c=c, delta=delta, n=1500, seed=8)
        assert row["radius"] == ex["radii"][0] and row["center"] == ex["centers"][0]

    def test_cube(self, tmp_path):
        row = self.last_row(tmp_path, ["--process", "cube", "--d", "3"], 1500, 8)
        ex = self.extras(process="cube", d=3, n=1500, seed=8)
        assert [row[f"center_{a}"] for a in range(3)] == ex["centers"][0].tolist()
        radii = np.array([row[f"radius_{a}"] for a in range(3)])
        assert np.array_equal(2.0 * 1500 * (2.0 * radii - 1.0), ex["edge_excess"][0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_simplex(self, tmp_path, d):
        row = self.last_row(tmp_path, ["--process", "simplex", "--d", str(d)], 1500, 8)
        ex = self.extras(process="simplex", d=d, n=1500, seed=8)
        assert row["height"] == ex["heights"][0]
        centers = [row[f"center_{a}"] for a in range(d)]
        assert np.allclose(centers, ex["centers"][0], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_polygon(self, tmp_path, k):
        row = self.last_row(tmp_path, ["--process", "polygon", "--k", str(k)], 800, 8)
        ex = self.extras(process="polygon", k=k, n=800, seed=8)
        assert [row[f"height_{i + 1}"] for i in range(k)] == ex["batch"].final_heights[0].tolist()
        assert row["area"] == ex["batch"].final_area[0]
        assert row["max_height"] == ex["batch"].max_height[0]
