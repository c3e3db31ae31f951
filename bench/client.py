"""One pass of a workload in a fresh interpreter: the closed-loop client.

    python3 bench/client.py '{"workload": ..., "seed": ..., "trace": ..., "smoke": ..., "setup_only": ...}'

``run.py`` starts one client per pass so that every pass starts cold, as a
command-line user does: the package's caches are empty and nothing is
imported yet.  The client imports the package, builds the job list from the
seed, reports the moment it is ready, then sends the ops one after another,
each only after the previous one returned.  Checks run after the timed loop.
The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from multiprocessing import resource_tracker

from checkout import OUT, import_rainbowlab
from spans import NullTracer, Tracer, layer_metrics, span_cost
from speed import SpeedLog
from workloads import plan


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def live_children() -> list[int]:
    """Pids of this process's children that are still there."""
    multiprocessing.active_children()  # joins finished pool workers
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # the spawn pool's semaphore tracker
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            pids += [int(p) for p in fh.read().split()]
    return pids


def main(args: dict) -> dict:
    rl = import_rainbowlab()
    out_dir = OUT / f"{args['workload']}-{args['seed']}-{os.getpid()}"
    traced = bool(args["trace"])
    the_plan = plan(rl, args["workload"], args["seed"], args["smoke"], out_dir, traced)
    ready = time.monotonic()
    t_ready = time.perf_counter()
    speed = SpeedLog()
    speed.sample(3)
    ready_factor = speed.factor(t_ready, t_ready)
    if args["setup_only"]:
        return {"ready": ready, "ready_factor": ready_factor}

    ops = the_plan.ops
    tracer = Tracer() if traced else NullTracer()
    results = [None] * len(ops)
    errors: dict[int, str] = {}
    intervals = []
    for i, op in enumerate(ops):
        speed.maybe_sample()
        tracer.op = i
        t0 = time.perf_counter()
        try:
            results[i] = op.run(tracer)
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            errors[i] = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        intervals.append((t0, time.perf_counter()))
    speed.sample(3)
    latencies = [t1 - t0 for t0, t1 in intervals]
    factors = [speed.factor(t0, t1) for t0, t1 in intervals]

    digests = [None] * len(ops)
    for i, op in enumerate(ops):
        if i in errors:
            continue
        try:
            err = op.check(results[i])
            digests[i] = digest(op.summary(results[i]))
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors[i] = err
    try:
        errors.update(the_plan.post_check(results))
    except Exception as exc:
        errors.update({i: f"post check raised {type(exc).__name__}: {exc}" for i in range(len(ops))})

    left = live_children()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    report = {
        "ready": ready,
        "ready_factor": ready_factor,
        "latencies_s": latencies,
        "factors": factors,
        "errors": {str(i): f"{ops[i].name}: {msg}" for i, msg in sorted(errors.items())},
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_left": left,
    }
    if traced:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args['workload']}-seed{args['seed']}.jsonl", [op.name for op in ops])
        scale = sum(t * f for t, f in zip(latencies, factors)) / sum(latencies)
        report["layers"] = layer_metrics(tracer.spans, scale)
        report["span_cost_s"] = scale * span_cost()
        report["spans"] = len(tracer.spans)
        report["layers"]["trace.overhead_s"] = (report["spans"] * report["span_cost_s"], "s")
        report["own_span_s"] = scale * sum(
            s["end"] - s["start"] for s in tracer.spans if s["parent"] is None and s["name"].startswith("bench.")
        )
    if out_dir.exists():
        shutil.rmtree(out_dir)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
