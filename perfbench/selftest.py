"""Self-test of the benchmark itself (not of ``diminish``).

    python3 perfbench/selftest.py

1. A toy-size run of every workload, untraced and traced, prints a result
   line with exactly the keys of the contract, every metric that
   ``BENCHMARK.json`` names with its unit, and zero failed operations.
2. Each operation of each toy workload runs once for real; its output is
   then corrupted here, in the test, and handed back through the same
   executor, which must count it as failed.  An operation that raises is
   counted as failed too.
3. In a directory holding only ``BENCHMARK.json`` and this benchmark, the
   runner exits non-zero without printing a result.

Exits 0 when every case holds and prints one line per failed case otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(condition, message: str) -> None:
    if not condition:
        problems.append(message)


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def toy_runs(spec) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"])
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0, f"{tag}: {proc.stderr.strip()[-500:]}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{tag}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                value = m["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{tag}: {name} = {value!r}")


def _corrupt(op, out, workdir: Path):
    """A wrong version of ``out`` that the operation's check must reject."""
    kind = op.name.rsplit(".", 1)[-1]
    if kind == "experiment":
        bad = copy.copy(out)
        bad.samples = out.samples[:-1]
        return bad
    if kind == "ks":
        return (out[0] * 100.0, out[1]) if isinstance(out, tuple) else 1.0
    if kind == "emit":
        return out + 1
    if kind == "thinned":
        bad = out.copy()
        bad[0, 0] += 0.1
        return bad
    if kind == "simulate":
        path = workdir / f"{op.name.rsplit('.', 1)[0]}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        return out
    if kind == "trajectory":
        state, area, height, center, radius = out[-1]
        return out[:-1] + [(state, area, height, center, -radius)]
    if op.name == "geometry-oracle":
        return dataclasses.replace(out, passed=False)
    if op.name == "rngstream":
        return out[:-1]
    if isinstance(out, tuple):  # baseline engine probes: (heights or radii, centers)
        first = out[0].copy()
        first[0] = math.nan
        return (first, *out[1:])
    return dataclasses.replace(out, area_min=out.area_min * 0.0)


def corruption_cases() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        suites = {w: workloads.build(w, 11, workdir, toy=True) for w in workloads.WORKLOADS}
        suites["baseline-probes"] = workloads.baseline_probes(11, toy=True)[0]
        for suite, ops in suites.items():
            for op in ops:
                holder = {}

                def real(op=op, holder=holder):
                    holder["out"] = op.run()
                    return holder["out"]

                (clean,) = workloads.execute([dataclasses.replace(op, run=real)])
                expect(clean.ok, f"{suite}/{op.name}: clean output failed: {clean.error}")
                if "out" not in holder:
                    continue
                bad = _corrupt(op, holder["out"], workdir)
                (outcome,) = workloads.execute([dataclasses.replace(op, run=lambda bad=bad: bad)])
                expect(not outcome.ok, f"{suite}/{op.name}: corrupted output was counted as correct")

        def boom():
            raise RuntimeError("raised inside the operation")

        (outcome,) = workloads.execute([workloads.Op("boom", None, boom)])
        expect(not outcome.ok and "RuntimeError" in outcome.error, "an operation that raised was not failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bare_directory() -> None:
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run_bench(["--workload", "batch-wide", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0, "runner exited 0 without a source tree")
        expect('"correct"' not in proc.stdout, "runner printed a result without a source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    corruption_cases()
    bare_directory()
    toy_runs(spec)
    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
