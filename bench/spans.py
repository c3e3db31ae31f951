"""Spans around the benchmark's calls into the package, and per-layer metrics.

A span is (name, start, end, parent, op id) plus the work counts read off the
call's result.  Span names are ``<layer>.<call>``, the layer being the package
module that does the work; ``bench.*`` spans are the benchmark's own.  Spans stay in memory and are written out when the
pass ends.  A layer's self time is its span durations minus the time their
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: each call runs bare."""

    op = None

    def call(self, name, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)

    def wrapped(self, owner, stages: dict):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Tracing on: one span per call, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run fn in a span; ``count(result)`` gives the span's work counts."""
        rec = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(rec)
        if count is not None:
            rec["counts"] = count(result)
        return result

    def wrap(self, name, fn, count=None):
        """fn with every call in a span."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced

    @contextlib.contextmanager
    def wrapped(self, owner, stages: dict):
        """Within the block, each ``owner.<attr>`` named in ``stages`` (attr ->
        (span name, count)) runs in a span.  A package function that looks
        these names up in its module or class at call time, such as
        ``run_two_round`` or ``run_grid``, is then traced stage by stage
        without a copy of its body.  The originals come back afterwards."""
        originals = {attr: getattr(owner, attr) for attr in stages}
        try:
            for attr, (name, count) in stages.items():
                setattr(owner, attr, self.wrap(name, originals[attr], count))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(owner, attr, fn)

    def write(self, path, op_names: list[str]) -> None:
        """One JSON line naming the ops by id, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": op_names}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op call with a work
    count minus a bare one, the median over ``repeats`` rounds."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    traced = tracer.wrap("bench.noop", noop, count=lambda _: {})
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their cover is the sum of their durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class _Agg:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.wall_s = 0.0
        self.counts = defaultdict(int)


def _per(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), times multiplied by scale.

    A metric whose layer the workload never calls reads 0.
    """
    by_name: dict[str, _Agg] = defaultdict(_Agg)
    for s, own in zip(spans, self_times(spans)):
        agg = by_name[s["name"]]
        duration = scale * (s["end"] - s["start"])
        agg.calls += 1
        agg.self_s += scale * own
        agg.wall_s += duration
        for key, value in s["counts"].items():
            agg.counts[key] += value
        # a pool's capacity is its wall time times its worker count; unscaled,
        # like the in-search times the grid rows report
        agg.counts["worker_s"] += (s["end"] - s["start"]) * s["counts"].get("workers", 0)

    def a(name: str) -> _Agg:
        return by_name.get(name) or _Agg()

    search = a("threshold.rainbow_power_search")
    grid = a("threshold.run_grid")
    sample = a("threshold.sample_instance")
    enum = a("hampow.enumerate_family")
    audits = [a("hampow.audit_prop1"), a("hampow.audit_structure"), a("hampow.audit_prop2_reading_a")]
    audit_work = sum(x.counts["subgraphs"] for x in audits)
    audit_s = sum(x.self_s for x in audits)
    prop2b = a("hampow.audit_prop2_reading_b")
    k0 = a("hypergraph.required_k0")
    exact = a("rainbow.exact_second_moment")
    colorings = [a("rainbow.empirical_moments"), a("rainbow.random_coloring")]
    two_round = a("fragments.run_two_round")
    classify = a("fragments.classify_fragments")
    rng = a("seeding.make_rng")
    return {
        "threshold.search.nodes": (search.counts["nodes"], "count"),
        "threshold.search.nodes_per_s": (_per(search.counts["nodes"], search.self_s), "1/s"),
        "threshold.search.busy_s": (search.self_s, "s"),
        "threshold.search.zero_node_ratio": (_per(search.counts["zero_node"], search.calls), "ratio"),
        "threshold.search.unknown": (search.counts["unknown"], "count"),
        "threshold.grid.trials_per_s": (_per(grid.counts["trials"], grid.wall_s), "1/s"),
        "threshold.grid.search_share": (
            _per(grid.counts["search_ms"] / 1000.0, grid.counts["worker_s"]),
            "ratio",
        ),
        "threshold.sample.instances_per_s": (_per(sample.calls, sample.self_s), "1/s"),
        "threshold.report.busy_s": (a("threshold.emit_report").self_s, "s"),
        "hampow.enumerate.orders": (enum.counts["orders"], "count"),
        "hampow.enumerate.orders_per_s": (_per(enum.counts["orders"], enum.self_s), "1/s"),
        "hampow.audit.subgraphs": (audit_work, "count"),
        "hampow.audit.subgraphs_per_s": (_per(audit_work, audit_s), "1/s"),
        "hampow.prop2b.subsets": (prop2b.counts["subsets"], "count"),
        "hampow.prop2b.subsets_per_s": (_per(prop2b.counts["subsets"], prop2b.self_s), "1/s"),
        "hampow.prop2b.busy_s": (prop2b.self_s, "s"),
        "hypergraph.profile.pairs_per_s": (_per(k0.counts["pairs"], k0.self_s), "1/s"),
        "hypergraph.spread.busy_s": (a("hypergraph.spread_up_to").self_s, "s"),
        "hypergraph.build.busy_s": (a("hypergraph.build").self_s, "s"),
        "rainbow.exact.pairs_per_s": (_per(exact.counts["pairs"], exact.self_s), "1/s"),
        "rainbow.mc.colorings_per_s": (
            _per(sum(x.counts["colorings"] for x in colorings), sum(x.self_s for x in colorings)),
            "1/s",
        ),
        "fragments.trials_per_s": (_per(two_round.calls, two_round.wall_s), "1/s"),
        "fragments.min_fragment_scans_per_s": (_per(classify.counts["scans"], classify.self_s), "1/s"),
        "fragments.stage3.busy_s": (a("fragments.run_third_stage").self_s, "s"),
        "seeding.make_rng_per_s": (_per(rng.calls, rng.self_s), "1/s"),
        "seeding.busy_s": (rng.self_s, "s"),
    }
