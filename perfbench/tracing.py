"""Span tracer wired into the public functions of ``diminish`` from outside.

The program is never edited: each traced function is replaced, in every
``diminish`` module namespace that holds a reference to it, by a wrapper
that opens a span.  Callers that bound a name at import time (``from
.interval import run_full_batch`` in ``stats`` and ``cube``,
``run_experiment`` in ``verification`` and ``cli``, ...) therefore call the
wrapper too, and no call escapes its span.  ``RngStream`` methods are
wrapped on the class, so every stream built anywhere is seen.

Spans are aggregated as they close (count, total time, self time, time net
of random-stream work) instead of being stored one by one: the scalar paths
open hundreds of thousands of spans per pass.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

_RNG_SPANS = ("distributions.stream_init", "distributions.fill")


class Tracer:
    """Stack of open spans plus per-name aggregates of the closed ones."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, rng_time]
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.net_of_rng: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name_of, work_of=None, after=None):
        """Wrapper opening a span named ``name_of(args, kwargs)`` around ``fn``.

        ``work_of(args, kwargs)`` adds to the span's work count (replica
        steps, say); ``after(result, args, kwargs)`` may add to counters once
        the span has closed, so its own cost is not charged to the span.
        """
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [name, clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                rng = dur if name in _RNG_SPANS else frame[3]
                self.count[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.net_of_rng[name] += dur - rng
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] += rng
            if work_of is not None:
                self.work[name] += work_of(args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _bind_everywhere(original, make_wrapper):
    """Replace ``original`` by a wrapper in every ``diminish`` namespace holding it.

    ``make_wrapper(module_name)`` builds the wrapper for one namespace, so a
    span can be named after its caller.  Returns the namespaces touched.
    """
    touched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "diminish" or mod_name.startswith("diminish.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, make_wrapper(mod_name))
                touched.append(f"{mod_name}.{attr}")
    return touched


def install(tracer: Tracer) -> list[str]:
    """Wire ``tracer`` into the imported ``diminish`` package; returns the bindings."""
    from diminish import cli, cube, distributions, interval, oracle, polygon, simplex, stats, verification

    t = tracer
    bound: list[str] = []

    def fixed(name):
        return lambda args, kwargs: name

    def count_rows(result, args, kwargs):
        t.counters["cli.emit_rows"] += result
        t.counters["cli.emit_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "destination"))

    def count_uniforms(result, args, kwargs):
        t.counters["distributions.uniforms"] += np.size(result)

    def count_fallbacks(result, args, kwargs):
        steps = np.asarray(result.fallback_steps)
        t.counters["polygon.fallback_steps"] += int(steps.sum())
        t.counters["polygon.fallback_rows"] += int((steps > 0).sum())

    def replica_steps(n_index, r_index):
        return lambda args, kwargs: _arg(args, kwargs, n_index, "n") * _arg(args, kwargs, r_index, "replicas")

    # Batch engines.  run_full_batch serves the interval family when stats calls
    # it and one cube axis when cube does.
    def full_batch_name(caller):
        return fixed("cube.axis_engine" if caller == "diminish.cube" else "interval.engine")

    bound += _bind_everywhere(
        interval.run_full_batch,
        lambda caller: t.wrap(interval.run_full_batch, full_batch_name(caller), replica_steps(1, 2)),
    )
    bound += _bind_everywhere(
        cube.cube_run_batch,
        lambda caller: t.wrap(cube.cube_run_batch, fixed("cube.engine"), replica_steps(1, 2)),
    )
    bound += _bind_everywhere(
        simplex.run_simplex_batch,
        lambda caller: t.wrap(
            simplex.run_simplex_batch,
            lambda args, kwargs: f"simplex.d{_arg(args, kwargs, 0, 'd')}.engine",
            replica_steps(1, 2),
        ),
    )
    bound += _bind_everywhere(
        polygon.run_polygon_batch,
        lambda caller: t.wrap(
            polygon.run_polygon_batch,
            lambda args, kwargs: f"polygon.k{_arg(args, kwargs, 0, 'k')}.engine",
            replica_steps(1, 2),
            after=count_fallbacks,
        ),
    )
    bound += _bind_everywhere(
        simplex.run_thinned_batch,
        lambda caller: t.wrap(simplex.run_thinned_batch, fixed("simplex.thinned")),
    )

    # Scalar geometry and steppers.
    for fn, name in (
        (polygon.snapshot, "polygon.snapshot"),
        (polygon.chebyshev_center, "polygon.chebyshev"),
        (oracle.clip_convex_by_convex, "oracle.clip"),
        (oracle.simplex_intersection_oracle, "oracle.halfspace"),
        (interval.step_full, "interval.scalar_step"),
        (stats.ks_stat, "stats.ks"),
        (stats.run_experiment, "stats.experiment"),
        (verification.run_check, "verification.check"),
    ):
        bound += _bind_everywhere(fn, lambda caller, fn=fn, name=name: t.wrap(fn, fixed(name)))
    bound += _bind_everywhere(
        cli.emit_csv, lambda caller: t.wrap(cli.emit_csv, fixed("cli.emit"), after=count_rows)
    )

    # Random streams: wrapped on the class, so every construction and fill is seen
    # whichever module built the stream.
    cls = distributions.RngStream
    cls.__init__ = t.wrap(cls.__init__, fixed("distributions.stream_init"))
    cls.uniform = t.wrap(cls.uniform, fixed("distributions.fill"), after=count_uniforms)
    cls.integers = t.wrap(cls.integers, fixed("distributions.fill"))
    cls.gamma = t.wrap(cls.gamma, fixed("distributions.fill"))
    bound += ["RngStream.__init__", "RngStream.uniform", "RngStream.integers", "RngStream.gamma"]
    return bound
