"""rainbowlab benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload search-refute --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workloads are listed in ``README.md``.
With ``--trace 0`` the run makes passes of the workload's fixed job list,
each in a fresh interpreter, starting another only while it expects it to end
within ``--seconds``, and prints the end-to-end metrics.  With ``--trace 1``
it runs one untraced and one traced pass and prints the per-layer metrics and
the tracing overhead: the number of spans times the measured cost of one span.
``--smoke`` swaps in tiny job lists, for testing the benchmark itself.

Every metric is printed by name with its unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when that line is printed and 1 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

from checkout import ROOT, SRC
from workloads import WORKLOADS

CLIENT = ROOT / "bench" / "client.py"
SETUP_PROBES = 5  # extra cold starts that only set up, for a steadier setup_s
RUN_BUDGET_S = 170.0  # a run ends well inside three minutes


def nearest_rank(sorted_values: list[float], share: float) -> float:
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()

    def client(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One fresh client interpreter; setup_s is launch to its first op."""
        cfg = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": trace,
            "smoke": self.args.smoke,
            "setup_only": setup_only,
        }
        launched = time.monotonic()
        timeout = max(1.0, RUN_BUDGET_S - (launched - self.t0))
        try:
            proc = subprocess.run(
                [sys.executable, str(CLIENT), json.dumps(cfg)],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise SystemExit(f"benchmark: a pass overran the {RUN_BUDGET_S:.0f}s budget")
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: client exited with status {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_raw_s"] = out["ready"] - launched
        out["setup_s"] = out["setup_raw_s"] * out["ready_factor"]
        out["lifetime_s"] = time.monotonic() - launched
        if not setup_only:
            out["scaled_s"] = [t * f for t, f in zip(out["latencies_s"], out["factors"])]
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "rainbowlab" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 1

    runner = Runner(args)
    setups = [runner.client(setup_only=True) for _ in range(SETUP_PROBES)]
    if args.trace:
        passes = [runner.client(), runner.client(trace=True)]
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(runner.client())
            typical = statistics.median(p["lifetime_s"] for p in passes)
            if time.monotonic() - start + typical > args.seconds:
                break
    setups += passes

    attempted = sum(len(p["digests"]) for p in passes)
    errors = [msg for p in passes for msg in p["errors"].values()]
    first = passes[0]["digests"]
    for n, p in enumerate(passes[1:], start=1):
        for i, (a, b) in enumerate(zip(first, p["digests"])):
            if a and b and a != b:
                errors.append(f"pass {n} op {i}: result differs from pass 0")
    left = [pid for p in passes for pid in p["children_left"]]
    if left:
        errors.append(f"child processes outlived a pass: {left}")
    for msg in errors[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    untraced = passes[:1] if args.trace else passes
    lat = sorted(1000.0 * x for p in untraced for x in p["scaled_s"])
    raw_lat = sorted(1000.0 * x for p in untraced for x in p["latencies_s"])
    walls = [sum(p["scaled_s"]) for p in untraced]
    raw = {
        "wall_s": statistics.median(sum(p["latencies_s"]) for p in untraced),
        "setup_s": statistics.median(p["setup_raw_s"] for p in setups),
        "op_p50_ms": nearest_rank(raw_lat, 0.5),
        "op_p90_ms": nearest_rank(raw_lat, 0.9),
    }
    print(
        f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
        f"{len(first)} ops, closed loop, 1 client; {len(setups)} cold set-ups"
    )
    if args.trace:
        traced = passes[1]
        traced_wall = sum(traced["scaled_s"]) - traced["own_span_s"]
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        print(
            f"trace.overhead_s is {traced['spans']} spans at {1e6 * traced['span_cost_s']:.3f} us each; "
            f"traced wall {traced_wall:.4f} s (without the benchmark's own spans), untraced wall {walls[0]:.4f} s"
        )
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
            "op_p50_ms": (nearest_rank(lat, 0.5), "ms"),
            "op_p90_ms": (nearest_rank(lat, 0.9), "ms"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
    notes = {
        "wall_s": f"median of {len(walls)} passes",
        "setup_s": f"median of {len(setups)} cold starts",
        "op_p50_ms": f"n={len(lat)}",
        "op_p90_ms": f"n={len(lat)}, {len(lat) - math.ceil(0.9 * len(lat))} beyond",
    }
    factors = [f for p in untraced for f in p["factors"]]
    print(f"speed probe: rescaled = unscaled x factor, median factor {statistics.median(factors):.4f}")
    for name, (value, unit) in metrics.items():
        unscaled = f"(unscaled {raw[name]:.6f}) " if name in raw and not args.trace else ""
        print(f"{name:36s} {value:16.6f} {unit:6s} {unscaled}{notes.get(name, '')}")
    print(f"{'failed_ratio':36s} {len(errors) / attempted:16.6f} ratio  ({len(errors)} of {attempted} ops)")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
