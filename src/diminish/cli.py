"""Command-line front end: trajectories, experiments, verification, figure data.

Subcommands:

* ``simulate``    replica 0 of the seed, full state summary per step, CSV
* ``experiment``  N replicas, one scaled sample per replica, CSV
* ``verify``      named theorem suite; prints a line-oriented report
* ``figure``      reproduces the published heptagon/octagon sample CSVs

Configuration is a flat JSON document mapping the run fields; command-line
flags override file values.  All numeric CSV fields are serialized with 17
significant digits, so re-reading a file reproduces the values bit-exactly.
Exit codes: 0 success, 1 usage or configuration error, 2 verification
threshold failure (the report is still emitted).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .distributions import DfForm, RngStream
from .cube import cube_trajectory
from .errors import ConfigurationError, DiminishError
from .interval import _walk as interval_walk, interval_new
from .polygon import _walk as polygon_walk, polygon_new, snapshot
from .simplex import _walk as simplex_walk, simplex_new
from .stats import RunConfig, run_experiment
from . import verification

__all__ = ["main", "parse_config", "emit_csv"]

ALIASES = {"pentagon": 5, "heptagon": 7, "octagon": 8}
CONFIG_KEYS = ("process", "n", "replicas", "seed", "c", "delta", "d", "k", "out")
_KINDS = {**dict.fromkeys(("n", "replicas", "seed", "d", "k"), int), "c": float, "delta": float}
_KIND_NAMES = {int: "an integer", float: "a number"}


def _coerce(kind, value, name: str):
    """``kind(value)``, exactly; a boolean, a fractional integer or a value ``kind``
    rejects is a :class:`ConfigurationError` naming ``name``."""
    error = ConfigurationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise error
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise error from exc


def _default_seed() -> int:
    env = os.environ.get("DIMINISH_SEED")
    return verification.DEFAULT_SEED if env is None else _coerce(int, env, "DIMINISH_SEED")


def parse_config(source, overrides: dict | None = None) -> RunConfig:
    """Build a validated run configuration from a JSON file path or a mapping.

    ``overrides`` (flag values) take precedence over file values; unknown
    keys are rejected by name.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {source} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a flat JSON object")
    elif isinstance(source, dict):
        data = dict(source)
    elif source is None:
        data = {}
    else:
        raise ConfigurationError("config source must be a path or a mapping")
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    for key in data:
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key: {key!r}")
    process = data.get("process")
    if process is None:
        raise ConfigurationError("missing required key: 'process'")
    alias = ALIASES.get(process)
    if alias is not None:
        data.setdefault("k", alias)
        data["process"] = "polygon"
    for key in ("n", "replicas"):
        if key not in data:
            raise ConfigurationError(f"missing required key: {key!r}")
    data.setdefault("seed", _default_seed())
    kwargs = {
        key: _coerce(_KINDS[key], value, f"config key {key!r}") if key in _KINDS else value
        for key, value in data.items()
    }
    if alias is not None and kwargs["k"] != alias:
        raise ConfigurationError(f"process {process!r} has k = {alias}, got k = {kwargs['k']}")
    return RunConfig(**kwargs).validate()


def emit_csv(records, destination, header) -> int:
    """Write schema rows (17 significant digits for floats); returns the row count.

    An IO failure is reported with the number of rows already written.
    """
    count = 0
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for record in records:
                writer.writerow(
                    [f"{v:.17g}" if isinstance(v, float) else v for v in record]
                )
                count += 1
    except OSError as exc:
        raise ConfigurationError(
            f"failed writing {destination} after {count} rows: {exc}"
        ) from exc
    return count


# ---------------------------------------------------------------------------
# Trajectory emission.
# ---------------------------------------------------------------------------


def _trajectory(cfg: RunConfig):
    """Header, change steps and per-state fields of the trajectory of replica 0.

    ``fields[0]`` is the start state and ``fields[i]`` the state from step
    ``steps[i - 1]`` on: each family walks its stream from change to change.
    """
    rng = RngStream(cfg.seed, 0)
    if cfg.process == "interval":
        header = ["step", "center", "radius"]
        start = interval_new(DfForm(cfg.c, cfg.delta))
        steps, states = interval_walk(start, cfg.n, rng)
        fields = [(s.center, s.radius) for s in (start, *states)]
    elif cfg.process == "cube":
        header = (
            ["step"]
            + [f"center_{a}" for a in range(cfg.d)]
            + [f"radius_{a}" for a in range(cfg.d)]
        )
        values = np.hstack(cube_trajectory(cfg.d, cfg.n, rng))
        change = np.flatnonzero((values[1:] != values[:-1]).any(axis=1)) + 1
        steps, fields = change.tolist(), values[np.r_[0, change]].tolist()
    elif cfg.process == "simplex":
        header = ["step", "height"] + [f"center_{a}" for a in range(cfg.d)]
        start = simplex_new(cfg.d)
        steps, states = simplex_walk(start, cfg.n, rng)
        fields = [(s.height, *s.center.tolist()) for s in (start, *states)]
    else:
        header = ["step", "max_height", "area", "reduced"]
        header += [f"height_{i + 1}" for i in range(cfg.k)]
        start = polygon_new(cfg.k)
        steps, states = polygon_walk(start, cfg.n, rng)
        snaps = [snapshot(s) for s in (start, *states)]
        fields = [(p.max_height, p.area, int(p.reduced), *p.heights.tolist()) for p in snaps]
    return header, steps, fields


_ROWS_PER_WRITE = 65536


def _emit_trajectory(cfg: RunConfig, destination) -> int:
    """Write steps 0..n of the trajectory as CSV, as :func:`emit_csv` would; returns the row count.

    Each state's fields are formatted once and its rows written in joined blocks.
    """
    header, steps, fields = _trajectory(cfg)
    tails = [
        "".join(f",{v:.17g}" if isinstance(v, float) else f",{v}" for v in f) + "\r\n"
        for f in fields
    ]
    bounds = [0, *steps, cfg.n + 1]
    count = 0
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(header)
            for tail, first, stop in zip(tails, bounds, bounds[1:]):
                for lo in range(first, stop, _ROWS_PER_WRITE):
                    hi = min(lo + _ROWS_PER_WRITE, stop)
                    fh.write("".join([f"{t}{tail}" for t in range(lo, hi)]))
                    count = hi
    except OSError as exc:
        raise ConfigurationError(
            f"failed writing {destination} after {count} rows: {exc}"
        ) from exc
    return count


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    parser.add_argument(
        "--process",
        help="interval | cube | simplex | polygon (aliases: pentagon, heptagon, octagon)",
    )
    parser.add_argument("--n", type=int, help="steps per replica")
    parser.add_argument("--replicas", type=int, help="number of replicas")
    parser.add_argument("--seed", type=int, help="base seed (default: $DIMINISH_SEED)")
    parser.add_argument("--c", type=float, help="interval law mixture weight in [0, 1]")
    parser.add_argument("--delta", type=float, help="interval law shape exponent > 0")
    parser.add_argument("--d", type=int, help="cube/simplex dimension")
    parser.add_argument("--k", type=int, help="polygon vertex count >= 5")
    parser.add_argument("--out", help="output CSV path")


def _config_from_args(args, default_replicas=None) -> RunConfig:
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    if overrides.get("replicas") is None and default_replicas is not None:
        overrides["replicas"] = default_replicas
    return parse_config(args.config, overrides)


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args, default_replicas=1)
    dest = cfg.out or f"{cfg.process}_trajectory.csv"
    count = _emit_trajectory(cfg, dest)
    print(f"wrote {count} trajectory rows to {dest}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    result = run_experiment(cfg)
    dest = cfg.out or f"{cfg.process}_samples.csv"
    count = emit_csv(
        ([s.replica, s.value] for s in result.samples), dest, ["replica", "value"]
    )
    values = result.values()
    print(
        f"wrote {count} samples to {dest}: min={values.min():.6g} "
        f"median={float(np.median(values)):.6g} max={values.max():.6g}"
    )
    return 0


def _cmd_verify(args) -> int:
    names = args.check or None
    results = verification.run_suite(names, _default_seed() if args.seed is None else args.seed)
    for res in results:
        print(res.report())
    if args.json:
        payload = {
            r.name: {
                "passed": r.passed,
                "statistics": r.lines,
                "stats": r.stats,
                "thresholds": r.thresholds,
                "seconds": r.seconds,
                "note": r.note,
            }
            for r in results
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=lambda v: v.item())  # numpy scalars
        print(f"wrote JSON summary to {args.json}")
    failed = [res.name for res in results if not res.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


_FIGURES = {"fig7": 7, "fig8": 8}  # the polygon k of each published figure


def _cmd_figure(args) -> int:
    fig = {"process": "polygon", "k": _FIGURES[args.which]}
    sizes = {"n": verification.FIGURE_N, "replicas": verification.FIGURE_REPLICAS, "seed": args.seed}
    result = run_experiment(parse_config(fig, sizes))
    dest = args.out or f"{args.which}.csv"
    count = emit_csv(
        ([s.replica, s.value] for s in result.samples), dest, ["replica", "value"]
    )
    print(f"wrote {count} rows of figure data to {dest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diminish",
        description="Simulate and verify diminishing convex-body processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one trajectory, full state per step")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="independent replicas, scaled samples")
    _add_config_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="run the named theorem checks")
    p_ver.add_argument(
        "--check",
        action="append",
        choices=sorted(verification.ALL_CHECKS),
        help="check to run (repeatable; default: all)",
    )
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--json", help="write a JSON summary to this path")
    p_ver.set_defaults(func=_cmd_verify)

    p_fig = sub.add_parser("figure", help="reproduce published figure data as CSV")
    p_fig.add_argument("--which", choices=sorted(_FIGURES), required=True)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out")
    p_fig.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except DiminishError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
