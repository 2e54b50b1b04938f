"""One measurement in a fresh interpreter; prints one JSON line and exits.

Roles:

* ``setup``  import ``diminish`` and report when the import finished;
* ``pass``   also run the workload's operations once, untraced;
* ``traced`` run them once with every layer boundary wrapped in a span;
* ``probe``  replay sampled rows through the scalar steppers and call each
  batch engine once at the ROADMAP Baseline shape (untraced).

A fresh interpreter per measurement keeps ``verification._CACHE`` and the
``lru_cache`` tables of one pass from making the next one free.
"""

import time

import diminish  # noqa: E402  (first import: its cost is the set-up time)

READY = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def _layer_metrics(tracer) -> dict:
    t = tracer

    def ns(name):
        return t.net_of_rng[name] / t.work[name] * 1e9 if t.work[name] else 0.0

    return {
        "distributions.streams": t.count["distributions.stream_init"],
        "distributions.stream_init_s": t.total["distributions.stream_init"],
        "distributions.uniforms": int(t.counters["distributions.uniforms"]),
        "distributions.fill_s": t.total["distributions.fill"],
        "interval.ns_per_replica_step": ns("interval.engine"),
        "cube.ns_per_replica_step": ns("cube.engine"),
        "simplex.d2.ns_per_replica_step": ns("simplex.d2.engine"),
        "simplex.d3.ns_per_replica_step": ns("simplex.d3.engine"),
        "polygon.k5.ns_per_replica_step": ns("polygon.k5.engine"),
        "polygon.k7.ns_per_replica_step": ns("polygon.k7.engine"),
        "polygon.k8.ns_per_replica_step": ns("polygon.k8.engine"),
        "simplex.thinned_s": t.total["simplex.thinned"],
        "polygon.fallback_steps": int(t.counters["polygon.fallback_steps"]),
        "polygon.fallback_rows": int(t.counters["polygon.fallback_rows"]),
        "polygon.snapshot_calls": t.count["polygon.snapshot"],
        "polygon.snapshot_s": t.total["polygon.snapshot"],
        "polygon.chebyshev_calls": t.count["polygon.chebyshev"],
        "polygon.chebyshev_s": t.total["polygon.chebyshev"],
        "oracle.clip_s": t.total["oracle.clip"],
        "oracle.halfspace_s": t.total["oracle.halfspace"],
        "interval.scalar_step_s": t.total["interval.scalar_step"],
        "stats.experiment_self_s": t.self_time["stats.experiment"],
        "stats.ks_s": t.total["stats.ks"],
        "cli.emit_rows": int(t.counters["cli.emit_rows"]),
        "cli.emit_bytes": int(t.counters["cli.emit_bytes"]),
        "cli.emit_s": t.total["cli.emit"],
        "verification.check_s": t.total["verification.check"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "pass", "traced", "probe"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="source tree diminish must come from")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    if src not in Path(diminish.__file__).resolve().parents:
        print(f"diminish was imported from {diminish.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    result = {
        "ready": READY,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.role != "setup":
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=args.workdir))
        try:
            if args.role == "probe":
                ops, n, r = workloads.baseline_probes(args.seed, args.toy)
                outcomes = workloads.execute(ops)
                result["baseline"] = {"n": n, "replicas": r}
                result["change_fraction"] = workloads.change_fractions(args.workload, args.seed, args.toy)
            else:
                ops = workloads.build(args.workload, args.seed, workdir, args.toy)
                tracer = None
                if args.role == "traced":
                    import tracing

                    tracer = tracing.Tracer()
                    result["bindings"] = tracing.install(tracer)
                outcomes = workloads.execute(ops)
                if tracer is not None:
                    result["layers"] = _layer_metrics(tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["ops"] = [dataclasses.asdict(o) for o in outcomes]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
