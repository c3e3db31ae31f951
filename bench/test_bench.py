"""Tests for the benchmark itself.  From the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import workloads  # noqa: E402
from checkout import import_rainbowlab  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["failed_ratio"] == "ratio"


def test_changed_reference_verdict_fails_the_op(monkeypatch):
    rl = import_rainbowlab()
    spec = instances.SEARCH_SPECS["search-refute"]
    pool = instances.load_reference(spec)
    target = instances.select(spec, pool, 3, per_run=6)[0]
    flipped = [
        dict(rec, verdict="found" if rec["verdict"] == "absent" else "absent")
        if rec["index"] == target["index"] else rec
        for rec in pool
    ]
    for reference, fails in ((pool, False), (flipped, True)):
        monkeypatch.setattr(workloads, "load_reference", lambda spec, ref=reference: ref)
        plan = workloads.search_plan(rl, "search-refute", 3, smoke=True)
        op = next(op for op in plan.ops if op.name == f"search[{target['index']}]")
        error = op.check(op.run(NullTracer()))
        assert (error is not None) == fails, error


def test_witness_check_rejects_a_broken_witness():
    rl = import_rainbowlab()
    spec = instances.SEARCH_SPECS["search-witness"]
    rec = next(r for r in instances.load_reference(spec) if r["verdict"] == "found")
    pairs = instances.edge_colors(spec, rec["index"])
    res = rl.rainbow_power_search(rl.Instance(spec.n, spec.k, spec.q, pairs))
    assert instances.witness_error(spec, pairs, res.witness) is None
    assert instances.independent_search(spec, pairs)
    broken = list(res.witness)
    broken[1], broken[5] = broken[5], broken[1]
    assert instances.witness_error(spec, pairs, tuple(broken)) is not None


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "search-refute", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    spans = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 4.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
        {"parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_traced_two_round_runs_the_package_composite_stage_by_stage(tmp_path):
    rl = import_rainbowlab()
    originals = {name: getattr(rl.fragments, name) for name in workloads.TWO_ROUND_STAGES}
    family = rl.TwoRoundConfig.family
    plan = workloads.mc_plan(rl, 3, smoke=True, out_dir=tmp_path, traced=True)
    op = next(op for op in plan.ops if op.name.startswith("two_round["))
    tracer = Tracer()
    traced = op.run(tracer)
    assert op.summary(traced) == op.summary(op.run(NullTracer()))
    names = [s["name"] for s in tracer.spans]
    assert names[:5] == [
        "fragments.run_two_round",
        "hypergraph.build",
        "hampow.enumerate_family",
        "seeding.make_rng",
        "rainbow.random_coloring",
    ]
    assert tracer.spans[2]["parent"] == 1 and tracer.spans[1]["parent"] == 0
    assert {name: getattr(rl.fragments, name) for name in originals} == originals
    assert rl.TwoRoundConfig.family is family
