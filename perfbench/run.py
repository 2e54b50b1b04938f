"""Benchmark runner for ``diminish``: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``diminish`` is imported from its
``src`` directory and nowhere else.  The runner is single-process and
single-thread and runs a closed loop: one caller runs the workload's fixed
operation list back to back, each pass in a fresh interpreter (see
``worker.py``), with OpenMP and BLAS pinned to one thread.

``--trace 0`` repeats passes for ``--seconds`` (at least three) and reports
the end-to-end metrics of ``BENCHMARK.json`` as medians over passes:
``setup_s`` (interpreter start to a warm ``import diminish``, median over
every interpreter started), ``total_s``, ``peak_rss_mb`` and the per-family
times.  ``--trace 1`` runs one untraced and one traced pass, then a probe
interpreter, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
records the machine, the library versions and the per-pass samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
MAX_PASSES = 20
# Interpreters that only import diminish, started before the passes, so that
# setup_s is a median over enough starts even when passes are few.
SETUP_ONLY = 5
CHILD_TIMEOUT_S = 170
FAMILIES = ("interval", "cube", "simplex", "polygon")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run at all (no source tree, a worker crashed)."""


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for name in PINNED_THREADS:
        env[name] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    def __init__(self, args, src: Path):
        self.args = args
        self.src = src
        self.env = _child_env(src)
        self.workdir = HERE / ".work"
        self.deadline = time.monotonic() + 175

    def spawn(self, role: str) -> tuple[dict, float]:
        """Run one worker; returns its result and the set-up time it saw."""
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--role", role,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--src", str(self.src),
            "--workdir", str(self.workdir),
        ]
        if self.args.toy:
            cmd.append("--toy")
        timeout = min(CHILD_TIMEOUT_S, max(5.0, self.deadline - time.monotonic()))
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} worker timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{role} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{role} worker printed no result:\n{proc.stderr.strip()}")
        result = json.loads(lines[-1])
        return result, result["ready"] - start


def _machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def _count(ops) -> tuple[int, int, list[str]]:
    failed = [f"{o['name']}: {o['error']}" for o in ops if not o["ok"]]
    return len(ops), len(failed), failed


def _family_times(ops) -> dict:
    out = {f"{fam}_s": sum(o["seconds"] for o in ops if o["family"] == fam) for fam in FAMILIES}
    out["total_s"] = sum(o["seconds"] for o in ops)
    return out


def timed_run(runner: Runner, seconds: float):
    """Passes for ``seconds``; end-to-end metrics as medians over passes."""
    start = time.monotonic()
    setups, passes, rss, attempted, failed, errors = [], [], [], 0, 0, []
    versions = {}
    for _ in range(SETUP_ONLY):
        res, setup = runner.spawn("setup")
        setups.append(setup)
    pass_walls = []
    while len(passes) < MAX_PASSES:
        t0 = time.monotonic()
        res, setup = runner.spawn("pass")
        pass_walls.append(time.monotonic() - t0)
        setups.append(setup)
        versions = res["versions"]
        a, f, errs = _count(res["ops"])
        attempted, failed, errors = attempted + a, failed + f, errors + errs
        passes.append(_family_times(res["ops"]))
        rss.append(res["rss_mb"])
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(rss)
    samples = {name: [p[name] for p in passes] for name in passes[0]}
    samples["setup_s"] = setups
    samples["peak_rss_mb"] = rss
    return metrics, attempted, failed, errors, {"passes": len(passes), "samples": samples, **_machine(versions)}


def traced_run(runner: Runner):
    """One untraced pass, one traced pass and one probe interpreter."""
    untraced, _ = runner.spawn("pass")
    traced, _ = runner.spawn("traced")
    probe, _ = runner.spawn("probe")
    attempted = failed = 0
    errors = []
    for res in (untraced, traced, probe):
        a, f, errs = _count(res["ops"])
        attempted, failed, errors = attempted + a, failed + f, errors + errs

    metrics = dict(traced["layers"])
    total_traced = _family_times(traced["ops"])["total_s"]
    total_untraced = _family_times(untraced["ops"])["total_s"]
    metrics["trace.overhead_s"] = total_traced - total_untraced
    for family in ("interval", "simplex", "polygon"):
        metrics[f"{family}.change_fraction"] = probe["change_fraction"].get(family, 0.0)
    work = probe["baseline"]["n"] * probe["baseline"]["replicas"]
    for o in probe["ops"]:
        if o["name"] == "rngstream":
            metrics["baseline.rngstream_us"] = o["seconds"] / probe["baseline"]["replicas"] * 1e6
        else:
            metrics[f"baseline.{o['name']}.ns_per_replica_step"] = o["seconds"] / work * 1e9
    info = {"bindings": traced["bindings"], "total_traced_s": total_traced, "total_untraced_s": total_untraced}
    return metrics, attempted, failed, errors, {**info, **_machine(traced["versions"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "diminish" / "__init__.py").is_file():
        print(f"error: no diminish source tree at {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args, src)
    try:
        runner.spawn("setup")  # warm-up: compiles bytecode, fills the file cache
        if args.trace:
            metrics, attempted, failed, errors, info = traced_run(runner)
        else:
            metrics, attempted, failed, errors, info = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: the workers did not measure {missing}", file=sys.stderr)
        return 2
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
