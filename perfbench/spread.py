"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

    python3 perfbench/spread.py --workload batch-wide --runs 10 [--first-seed 1]

Runs the benchmark ``--runs`` times with consecutive seeds (untraced, at
``run_seconds`` from ``BENCHMARK.json``) and prints, per metric, the median,
the quartile spread ``(Q3 - Q1) / median`` from ``statistics.quantiles(n=4)``
and the metric's bound.  A spread above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--samples", action="store_true", help="also print each run's per-pass samples")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations\n{proc.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        if args.samples:
            samples = json.loads(info_line)["info"]["samples"]
            print("  " + " ".join(f"{k}={[round(x, 3) for x in v]}" for k, v in samples.items()), flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else "  ABOVE bound/3"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{args.workload:16s} {m['name']:12s} median={med:.4g} {m['unit']:3s} spread={spread:.4f} bound={m['bound']}{flag}")
    print(f"{args.workload}: worst spread/bound (setup_s excluded) = {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
