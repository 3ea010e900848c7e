"""Run one weaver command with timing wrappers around each layer's calls.

    python -X importtime bench/traced_child.py TRACE_JSON <weaver args...>

The wrappers replace public functions on their defining modules (and
``ParentDistribution.draw`` on its class) from outside the package; the
package calls them through those attributes, so no weaver file changes.
Each call records a span (name, start, end, parent span) in memory.  When
the command returns, the spans are reduced to per-layer call counts,
total and self times, and written to TRACE_JSON with the work counts.
The wrapper's own cost per span, measured on an empty function in the
same process, is taken out of every total and self time (see
``Tracer.summary``).  Standard output is the command's own, byte for byte.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# imported first, so -X importtime reports the whole statement (numpy and
# the weaver package included) on the weaver.cli line
import weaver.cli
from weaver import analysis, cli, exact, parents, sampler


class Tracer:
    """Spans kept in parallel lists; ``parents[i]`` is -1 for a root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None):
        names, starts, ends, parent_of, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent_of.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def summary(self, inside: float, outside: float) -> dict:
        """Per-layer calls, total seconds and self seconds.

        ``inside`` and ``outside`` are the wrapper's cost per span within
        the span's own window and outside it (see ``wrapper_cost``).  A
        span's time is its window minus ``inside`` and minus the whole
        wrapper cost of every span nested in it; its self time is that
        minus the times of its direct child spans.  So the bookkeeping of
        many small calls is not charged to the layer that makes them.
        """
        count = len(self.names)
        nested = [0] * count  # spans opened inside each span
        for index in reversed(range(count)):  # a child's index exceeds its parent's
            parent = self.parents[index]
            if parent >= 0:
                nested[parent] += 1 + nested[index]
        cost = inside + outside
        durations = [
            end - start - inside - spans * cost
            for start, end, spans in zip(self.starts, self.ends, nested)
        ]
        child_time = [0.0] * count
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        layers: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["total_s"] += durations[index]
            acc["self_s"] += durations[index] - child_time[index]
        return {
            "spans": count,
            "span_cost_s": {"inside": inside, "outside": outside},
            "layers": layers,
            "counts": self.counts,
        }


def _empty(a, b):
    return None


def wrapper_cost(batches: int = 5, calls: int = 10_000) -> tuple[float, float]:
    """Seconds the wrapper adds per span, split into the part inside the
    span's own window and the part outside it, which lands in the caller.

    Times an empty loop, ``calls`` plain calls of an empty two-argument
    function and ``calls`` wrapped calls, and reads the wrapped windows
    back from the spans.  Medians over ``batches``.
    """
    # imported here, not at the top, so that it does not take modules
    # off the weaver.cli import-time line
    from statistics import median

    inside, outside = [], []
    for _ in range(batches):
        tracer = Tracer()
        plain, traced = _empty, tracer.wrap("empty", _empty)
        loop = range(calls)
        t0 = perf_counter()
        for i in loop:
            pass
        t1 = perf_counter()
        for i in loop:
            plain(i, i)
        t2 = perf_counter()
        for i in loop:
            traced(i, i)
        t3 = perf_counter()
        call = (t2 - t1 - (t1 - t0)) / calls  # one untraced call
        added = (t3 - t2 - (t2 - t1)) / calls  # all that the wrapper adds
        within = max(0.0, (sum(tracer.ends) - sum(tracer.starts)) / calls - call)
        inside.append(within)
        outside.append(added - within)
    return median(inside), median(outside)


def install(tracer: Tracer) -> None:
    def pmf_objects(args, kwargs, dist):
        tracer.count("exact.build_pmf_vector_entries", len(dist.pmf))
        tracer.count("exact.pmf_distinct_objects", len({id(m) for m in dist.pmf}))

    def rows(args, kwargs, result):
        tracer.count("cli.rows", len(args[0]))

    def draw_values(args, kwargs, result):
        tracer.count("parents.draw_values", len(result))

    targets = [
        (exact, "build_pmf_vector", "exact.build_pmf_vector", pmf_objects),
        (exact, "cdf_at_dyadic", "exact.cdf_at_dyadic", None),
        (exact, "realization_value", "exact.realization_value", None),
        (exact, "geometric_triangle_row", "exact.geometric_triangle_row", None),
        (analysis, "exact_moment", "analysis.exact_moment", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "emit_table", "cli.emit_table", rows),
        (sampler, "monte_carlo_moments", "sampler.monte_carlo_moments", None),
        (sampler, "simulate_mean_ensemble", "sampler.simulate_mean_ensemble", None),
        (sampler, "run_exponential_sample", "sampler.run_exponential_sample", None),
        (sampler, "draw_selection_path", "sampler.draw_selection_path", None),
        (sampler, "run_from_path", "sampler.run_from_path", None),
        (parents.ParentDistribution, "draw", "parents.draw", draw_values),
    ]
    for owner, attribute, name, on_result in targets:
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), on_result))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
    summary = tracer.summary(*wrapper_cost())
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
