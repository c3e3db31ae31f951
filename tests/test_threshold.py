"""Instances, the exact search, grid runs, and report formats.

The search is checked against an oracle written here from scratch: a plain
permutation scan that knows nothing about bitmasks, pruning, or candidate
ordering.  Golden CSV bytes pin the report format and the seeding chain.
"""

import dataclasses
import hashlib
import math
import multiprocessing
import re
import threading
import time
from itertools import permutations
from types import SimpleNamespace

import pytest

from rainbowlab.errors import InputError
from rainbowlab.hampow import PowerParams
from rainbowlab.hypergraph import pair_id, pair_of
from rainbowlab.seeding import make_rng
from rainbowlab.threshold import (
    ExperimentConfig,
    GridRow,
    Instance,
    emit_report,
    format_csv,
    format_svg,
    rainbow_power_search,
    read_instance_text,
    run_grid,
    sample_instance,
    wilson_interval,
)


FORKS = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="platform cannot fork")


def oracle_decides(inst, require_rainbow=True):
    """Reference decision by brute force over all cyclic orders."""
    n, k = inst.n, inst.k
    present = dict(inst.edge_colors)
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        order = (0,) + rest
        cols = []
        ok = True
        for i in range(n):
            for j in range(1, k + 1):
                u, v = order[i], order[(i + j) % n]
                eid = pair_id(min(u, v), max(u, v))
                if eid not in present:
                    ok = False
                    break
                cols.append(present[eid])
            if not ok:
                break
        if ok and (not require_rainbow or len(set(cols)) == len(cols)):
            return True
    return False


def check_witness(inst, order, require_rainbow):
    n, k = inst.n, inst.k
    present = dict(inst.edge_colors)
    assert sorted(order) == list(range(n))
    assert order[0] == 0
    assert order[1] < order[-1]
    cols = []
    for i in range(n):
        for j in range(1, k + 1):
            u, v = order[i], order[(i + j) % n]
            eid = pair_id(min(u, v), max(u, v))
            assert eid in present
            cols.append(present[eid])
    if require_rainbow:
        assert len(set(cols)) == len(cols)


# ----------------------------------------------------------------------------
# instances

def test_instance_validation():
    Instance(5, 1, 3, ((0, 0), (3, 2)))
    with pytest.raises(InputError):
        Instance(5, 1, 3, ((0, 0), (0, 1)))  # duplicate edge
    with pytest.raises(InputError):
        Instance(5, 1, 3, ((10, 0),))  # id out of range
    with pytest.raises(InputError):
        Instance(5, 1, 3, ((0, 3),))  # color out of range


def test_instance_sorts_edges():
    inst = Instance(5, 1, 3, ((4, 1), (0, 2)))
    assert inst.edge_colors == ((0, 2), (4, 1))
    assert inst.m == 2


def test_sample_instance_deterministic_and_in_range():
    a = sample_instance(7, 1, 5, 10, make_rng(3))
    b = sample_instance(7, 1, 5, 10, make_rng(3))
    assert a == b
    assert a.m == 10
    assert all(0 <= e < 21 and 0 <= c < 5 for e, c in a.edge_colors)
    with pytest.raises(InputError):
        sample_instance(7, 1, 5, 22, make_rng(3))


# ----------------------------------------------------------------------------
# the search against the oracle

def palette_prefilter_applies(inst):
    """Enough edges and degrees for a k-th power, but fewer than kn colors."""
    n, k = inst.n, inst.k
    degree = [0] * n
    for eid, _ in inst.edge_colors:
        for v in pair_of(eid):
            degree[v] += 1
    colors = {c for _, c in inst.edge_colors}
    return inst.m >= k * n and min(degree) >= 2 * k and len(colors) < k * n


@pytest.mark.parametrize("slack", [1.0, 1.2])
def test_search_agrees_with_oracle_small_sweep(slack):
    rng = make_rng(2024)
    cases = 0
    prefiltered = searched = 0
    for n, k in [(6, 1), (7, 1), (6, 2)]:
        big_n = n * (n - 1) // 2
        q = math.ceil(slack * k * n)
        for _ in range(15):
            m = rng.randint(max(0, k * n - 2), big_n)
            inst = sample_instance(n, k, q, m, rng)
            res = rainbow_power_search(inst, budget=10_000_000)
            assert res.found is not None
            assert res.found == oracle_decides(inst)
            if palette_prefilter_applies(inst):
                assert res.nodes == 0
                prefiltered += 1
            elif res.nodes:
                searched += 1
            if res.found:
                check_witness(inst, res.witness, require_rainbow=True)
                cases += 1
    assert cases > 0  # the sweep must exercise the found path
    assert searched > 0
    if slack == 1.0:
        assert prefiltered > 0  # a palette of exactly kn colors often misses one


def test_search_agrees_with_oracle_bare_containment():
    rng = make_rng(77)
    found_any = False
    for _ in range(15):
        m = rng.randint(6, 15)
        inst = sample_instance(6, 1, 2, m, rng)  # q=2 makes rainbow hopeless
        res = rainbow_power_search(inst, require_rainbow=False, budget=10_000_000)
        assert res.found == oracle_decides(inst, require_rainbow=False)
        if res.found:
            check_witness(inst, res.witness, require_rainbow=False)
            found_any = True
    assert found_any


def test_search_rainbow_needs_distinct_colors():
    # complete K6, all edges one color: contained but never rainbow
    inst = Instance(6, 2, 1, tuple((e, 0) for e in range(15)))
    assert rainbow_power_search(inst, require_rainbow=False).found is True
    assert rainbow_power_search(inst).found is False


def test_search_budget_exhaustion_is_unknown():
    inst = Instance(8, 1, 56, tuple((e, e) for e in range(28)))
    res = rainbow_power_search(inst, budget=3)
    assert res.found is None
    assert res.nodes == 4  # stopped at the first node past the budget
    assert res.witness is None


def test_search_validates_parameters():
    inst = Instance(5, 1, 3, ((0, 0),))
    with pytest.raises(InputError):
        rainbow_power_search(Instance(5, 2, 3, ((0, 0),)))  # n < 2k+2
    with pytest.raises(InputError):
        rainbow_power_search(inst, budget=0)


def test_search_prunes_sparse_instances_without_exploring():
    inst = sample_instance(8, 2, 20, 10, make_rng(5))  # m < kn = 16
    res = rainbow_power_search(inst)
    assert res.found is False
    assert res.nodes == 0


def test_search_prunes_short_palettes_without_exploring():
    # complete K8 (m = 28 >= kn = 16, every degree 7 >= 2k = 4) in 15 colors
    inst = Instance(8, 2, 15, tuple((e, e % 15) for e in range(28)))
    assert palette_prefilter_applies(inst)
    res = rainbow_power_search(inst)
    assert res.found is False
    assert res.nodes == 0
    # colors play no part without the rainbow requirement
    assert rainbow_power_search(inst, require_rainbow=False).found is True
    # with kn colors on hand the search runs
    res = rainbow_power_search(Instance(8, 2, 16, tuple((e, e % 16) for e in range(28))))
    assert res.found is not None
    assert res.nodes > 0


# (n, k, m, seed, budget) -> (found, nodes, witness) of searches without the
# rainbow requirement, frozen at the values of the earlier kernel that kept a
# color table, so that a kernel visiting other nodes shows here
FROZEN_PLAIN_SEARCHES = [
    ((8, 1, 14, 7, 10_000_000), (True, 45, (0, 2, 5, 6, 1, 3, 4, 7))),
    ((9, 2, 26, 3, 10_000_000), (True, 17, (0, 2, 3, 4, 8, 1, 7, 5, 6))),
    ((10, 2, 32, 4, 10_000_000), (False, 2576, None)),
    ((10, 2, 34, 5, 10_000_000), (True, 1728, (0, 4, 5, 1, 6, 3, 7, 2, 8, 9))),
    ((11, 3, 45, 8, 10_000_000), (False, 15517, None)),
    ((11, 3, 45, 8, 1000), (None, 1001, None)),
    ((12, 2, 44, 11, 10_000_000), (True, 821, (0, 1, 10, 3, 4, 8, 2, 7, 11, 5, 9, 6))),
]


@pytest.mark.parametrize("params, expected", FROZEN_PLAIN_SEARCHES)
def test_search_without_rainbow_visits_frozen_nodes(params, expected):
    n, k, m, seed, budget = params
    inst = sample_instance(n, k, 3, m, make_rng(seed))
    res = rainbow_power_search(inst, require_rainbow=False, budget=budget)
    assert (res.found, res.nodes, res.witness) == expected


# (n, k, q, m, seed, budget) -> (found, nodes, witness) of rainbow searches,
# frozen at the values of the kernel that tested each candidate's colors
# against a used-color mask: a (12, 2, 27) refutation, a (12, 2, 36) witness,
# a k = 3 witness (its last level links 2k placed vertices), a k = 3
# refutation, a complete K8 whose verdict turns on two link edges sharing a
# color, and a budget stop
FROZEN_RAINBOW_SEARCHES = [
    ((12, 2, 27, 55, 2, 10_000_000), (False, 19840, None)),
    ((12, 2, 36, 64, 2, 10_000_000), (True, 14207, (0, 1, 4, 8, 3, 2, 6, 7, 10, 5, 9, 11))),
    ((10, 3, 90, 42, 0, 10_000_000), (True, 1801, (0, 1, 5, 7, 3, 2, 8, 9, 4, 6))),
    ((9, 3, 60, 36, 7, 10_000_000), (False, 8749, None)),
    ((8, 2, 20, 28, 0, 10_000_000), (False, 639, None)),
    ((12, 2, 27, 55, 2, 5000), (None, 5001, None)),
]


@pytest.mark.parametrize("params, expected", FROZEN_RAINBOW_SEARCHES)
def test_rainbow_search_visits_frozen_nodes(params, expected):
    n, k, q, m, seed, budget = params
    res = rainbow_power_search(sample_instance(n, k, q, m, make_rng(seed)), budget=budget)
    assert (res.found, res.nodes, res.witness) == expected


@pytest.mark.parametrize("params, expected", FROZEN_RAINBOW_SEARCHES)
def test_rainbow_search_sees_color_classes_not_color_ids(params, expected):
    # color c becomes c * 10**6 + 7.  One label bit per color id made each
    # node cost O(q) bits: the first pin, a 19,840-node refutation, took 134 s
    n, k, q, m, seed, budget = params
    colors = sample_instance(n, k, q, m, make_rng(seed)).edge_colors
    inst = Instance(n, k, (q - 1) * 10**6 + 8, tuple((e, c * 10**6 + 7) for e, c in colors))
    t0 = time.perf_counter()
    res = rainbow_power_search(inst, budget=budget)
    assert time.perf_counter() - t0 < 2.0
    assert (res.found, res.nodes, res.witness) == expected


# ----------------------------------------------------------------------------
# Wilson intervals

def test_wilson_frozen_value():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.236593090512564)
    assert hi == pytest.approx(0.7634069094874361)


def test_wilson_endpoints_clamped():
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0
    assert hi > 0.0
    lo, hi = wilson_interval(20, 20)
    assert lo < 1.0
    assert hi == 1.0


def test_wilson_validates():
    with pytest.raises(InputError):
        wilson_interval(1, 0)
    with pytest.raises(InputError):
        wilson_interval(5, 3)


# ----------------------------------------------------------------------------
# grids

def test_config_requires_exactly_one_grid():
    with pytest.raises(InputError):
        ExperimentConfig(n=6, k=1, q=8, trials=5, seed=1)
    with pytest.raises(InputError):
        ExperimentConfig(n=6, k=1, q=8, trials=5, seed=1, c_grid=(1.0,), m_grid=(5,))


def test_config_points_mapping():
    cfg = ExperimentConfig(n=12, k=2, q=27, trials=1, seed=1, c_grid=(0.5, 1.0, 2.0, 4.0))
    # m = min(66, ceil(C * 66 / sqrt(12)))
    assert cfg.points() == [(0.5, 10), (1.0, 20), (2.0, 39), (4.0, 66)]


def test_exposure_size_matches_the_ceiling_then_min_formula():
    # the min comes first in PowerParams.exposure; for every finite product
    # the two orders agree
    for n, k in [(6, 1), (12, 2), (9, 3), (40, 1)]:
        big_n = n * (n - 1) // 2
        for c in [1e-9, 0.1, 0.5, 1.0, 1 / 3, 2.0, 4.0, 7.5, 1e6, 1e300]:
            assert PowerParams(n, k).exposure(c) == min(big_n, math.ceil(c * big_n / n ** (1 / k))), (n, k, c)
    assert PowerParams(12, 2).exposure(1e308) == 66  # C * N overflows to inf


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_exposure_size_rejects_c_outside_the_positive_floats(c):
    with pytest.raises(InputError, match="must be positive and finite"):
        PowerParams(12, 2).exposure(c)
    with pytest.raises(InputError, match="must be positive and finite"):
        ExperimentConfig(n=12, k=2, q=27, trials=1, seed=1, c_grid=(1.0, c))


def test_sample_instance_checks_q_before_drawing():
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew {name} before validating")

    with pytest.raises(InputError, match="palette size q"):
        sample_instance(6, 1, 0, 15, NoDraws())
    # k comes first: at k = 0 the default palette ceil(1.1kn) is 0 as well
    with pytest.raises(InputError, match="power k must be >= 1, got 0"):
        sample_instance(6, 0, 0, 15, NoDraws())
    # an instance the search would refuse is refused before it is drawn
    with pytest.raises(InputError, match="need n >= 2k\\+2 = 6"):
        sample_instance(5, 2, 11, 8, NoDraws())


def test_config_points_from_m_grid_sorted_and_deduped():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=1, seed=1, m_grid=(10, 5, 10))
    points = cfg.points()
    assert [m for _, m in points] == [5, 10]
    assert points[0][0] == pytest.approx(5 * 6 / 15)


def test_config_validation_errors():
    with pytest.raises(InputError):
        ExperimentConfig(n=6, k=1, q=8, trials=0, seed=1, c_grid=(1.0,))
    with pytest.raises(InputError):
        ExperimentConfig(n=6, k=1, q=8, trials=5, seed=1, c_grid=(-1.0,))
    with pytest.raises(InputError):
        ExperimentConfig(n=6, k=1, q=8, trials=5, seed=1, m_grid=(99,))
    with pytest.raises(InputError):
        ExperimentConfig(n=5, k=2, q=8, trials=5, seed=1, c_grid=(1.0,))
    # k = 0 is named before q and before the grid divides by k
    for grid in ({"c_grid": (1.0,)}, {"m_grid": (3,)}):
        with pytest.raises(InputError, match="power k must be >= 1, got 0"):
            ExperimentConfig(n=6, k=0, q=0, trials=1, seed=1, **grid)


def test_run_grid_row_bookkeeping():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=6, seed=2, m_grid=(6, 10), budget=200)
    res = run_grid(cfg)
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.decided + row.unknown == row.trials == 6
    assert [r.m for r in res.rows] == [6, 10]
    assert res.config["grid"] == [{"C": 2.4, "m": 6}, {"C": 4.0, "m": 10}]


def test_run_grid_worker_count_does_not_change_bytes():
    cfg1 = ExperimentConfig(n=6, k=1, q=8, trials=8, seed=5, m_grid=(8, 12), workers=1)
    cfg2 = ExperimentConfig(n=6, k=1, q=8, trials=8, seed=5, m_grid=(8, 12), workers=2)
    assert format_csv(run_grid(cfg1)) == format_csv(run_grid(cfg2))


def test_run_grid_bytes_at_criterion_9_size_do_not_depend_on_workers():
    grid = dict(n=12, k=2, q=27, trials=20, seed=9, c_grid=(0.5, 1.0, 2.0))
    one = format_csv(run_grid(ExperimentConfig(workers=1, **grid)))
    assert one.encode() == format_csv(run_grid(ExperimentConfig(workers=2, **grid))).encode()


@FORKS
def test_run_grid_forks_its_workers_where_the_platform_can(monkeypatch):
    asked = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        asked.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    run_grid(ExperimentConfig(n=6, k=1, q=8, trials=2, seed=5, m_grid=(8,), workers=2))
    assert asked == ["fork"]


def test_run_grid_leaves_no_worker_running():
    run_grid(ExperimentConfig(n=6, k=1, q=8, trials=4, seed=5, m_grid=(8, 12), workers=2))
    assert multiprocessing.active_children() == []


class _InProcessContext:
    """A start-method context whose pool records its size and maps here."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map_async(self, fn, blocks):
        results = [fn(b) for b in blocks]
        return SimpleNamespace(get=lambda: results)


@FORKS
def test_run_grid_starts_no_more_workers_than_tasks(monkeypatch):
    # the caller runs one of the three tasks, two workers run the others
    ctx = _InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: ctx)
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=3, seed=5, m_grid=(8,), workers=8)
    res = run_grid(cfg)
    assert ctx.sizes == [2]
    assert res.config["workers"] == 8
    assert format_csv(res) == format_csv(run_grid(dataclasses.replace(cfg, workers=1)))


def test_run_grid_runs_in_process_beside_a_thread(monkeypatch):
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=4, seed=5, m_grid=(8, 12), workers=2)
    want = format_csv(run_grid(dataclasses.replace(cfg, workers=1)))
    asked = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: asked.append(method))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        got = format_csv(run_grid(cfg))
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert asked == []
    assert got == want


def test_rate_is_none_until_something_is_decided():
    row = GridRow(n=6, k=1, q=8, m=15, C=6.0, trials=2, decided=0, successes=0,
                  unknown=2, mean_nodes=2.0, mean_ms=0.1, seed=2)
    assert row.rate is None
    assert row.wilson() == (None, None)


# ----------------------------------------------------------------------------
# reports

GOLDEN_CSV = (
    "n,k,q,m,C,trials,decided,successes,rate,wilson_lo,wilson_hi,"
    "unknown,mean_nodes,mean_ms,seed\n"
    "6,1,8,6,2.4,6,6,0,0.000000,0.000000,0.390334,0,0.000,0.000,2\n"
    "6,1,8,10,4,6,6,1,0.166667,0.030053,0.563503,0,22.167,0.000,2\n"
)


def test_csv_golden_bytes():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=6, seed=2, m_grid=(6, 10), budget=200)
    assert format_csv(run_grid(cfg)) == GOLDEN_CSV


# SHA-256 of results.csv, summary.json and curves.svg for a c-grid and an
# m-grid (with a budget that leaves some verdicts unknown) at (8, 1), q = 9;
# summary.json echoes the worker count, so it has one pin per count
REPORT_GRIDS = {
    "c": dict(c_grid=(2.0, 4.0, 6.0, 8.0)),
    "m": dict(m_grid=(9, 14, 20, 28), budget=60),
}
REPORT_DIGESTS = {
    ("c", 1): ("30bae269b5162a4f15afff9a1b51b3894808804f8bd595cf013a71dcaa24d7c1",
               "cbce7a03577b2294bb9c2c8dac68ce7f35ef07ca91c5de052560fd9aad2c747e",
               "9b7fd39e4f5b3ffe388b384ec56f7ecd1a48751f50d734db8c6529470460feb3"),
    ("c", 2): ("30bae269b5162a4f15afff9a1b51b3894808804f8bd595cf013a71dcaa24d7c1",
               "02dc1b64ecb163afa111ecc9656baa270e347f041fced96e8aa7e72d3163002d",
               "9b7fd39e4f5b3ffe388b384ec56f7ecd1a48751f50d734db8c6529470460feb3"),
    ("m", 1): ("684f46d377ee5ca6e970b5501adf5014b4891fd770cf613665398723dacd5c80",
               "13f2373161a285175022f404de1467d003d3fb4f1bec8a27a9f5ad28e8688dad",
               "b9cdb3f4e9234e06523323042a3099596a0e9cf4cf445a00587f64ebda1c2c83"),
    ("m", 2): ("684f46d377ee5ca6e970b5501adf5014b4891fd770cf613665398723dacd5c80",
               "aca955d5ec333a47cac13961610af17d28968af60e867ea3fa856252dfcc72fc",
               "b9cdb3f4e9234e06523323042a3099596a0e9cf4cf445a00587f64ebda1c2c83"),
}


@pytest.mark.parametrize("grid,workers", list(REPORT_DIGESTS))
def test_report_files_are_pinned(tmp_path, grid, workers):
    cfg = ExperimentConfig(n=8, k=1, q=9, trials=12, seed=19, workers=workers, **REPORT_GRIDS[grid])
    paths = emit_report(run_grid(cfg), tmp_path)
    assert [p.name for p in paths] == ["results.csv", "summary.json", "curves.svg"]
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == REPORT_DIGESTS[grid, workers]


def test_csv_blank_cells_when_nothing_decided():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=2, seed=2, m_grid=(15,), budget=1)
    got = format_csv(run_grid(cfg))
    assert got.splitlines()[1] == "6,1,8,15,6,2,0,0,,,,2,2.000,0.000,2"


def test_csv_timing_flag_changes_only_mean_ms():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=3, seed=2, m_grid=(6,), budget=200)
    res = run_grid(cfg)
    plain = format_csv(res).splitlines()[1].split(",")
    timed = format_csv(res, timing=True).splitlines()[1].split(",")
    assert plain[:13] == timed[:13]
    assert plain[14] == timed[14]
    assert plain[13] == "0.000"


def test_summary_json_mirrors_rows():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=6, seed=2, m_grid=(6, 10), budget=200)
    res = run_grid(cfg)
    data = res.to_json()
    assert data["rows"][1]["successes"] == 1
    assert data["rows"][1]["rate"] == pytest.approx(1 / 6)
    assert data["rows"][0]["mean_ms"] == 0.0
    assert data["config"]["seed"] == 2


def test_svg_is_deterministic_and_well_formed():
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=6, seed=2, m_grid=(6, 10), budget=200)
    res = run_grid(cfg)
    svg = format_svg(res)
    assert svg == format_svg(res)
    assert svg.startswith("<svg ")
    assert "<polyline" in svg
    assert "n=6 k=1 q=8" in svg


def test_emit_report_writes_files(tmp_path):
    cfg = ExperimentConfig(n=6, k=1, q=8, trials=3, seed=2, m_grid=(6,), budget=200)
    res = run_grid(cfg)
    paths = emit_report(res, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["curves.svg", "results.csv", "summary.json"]
    assert (tmp_path / "results.csv").read_text().startswith("n,k,q,m,C")
    paths = emit_report(res, tmp_path / "nosvg", svg=False)
    assert sorted(p.name for p in paths) == ["results.csv", "summary.json"]


def test_emit_report_names_the_file_it_cannot_write(tmp_path):
    res = run_grid(ExperimentConfig(n=6, k=1, q=8, trials=3, seed=2, m_grid=(6,), budget=200))
    (tmp_path / "summary.json").mkdir()
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(tmp_path / 'summary.json'))}: "):
        emit_report(res, tmp_path)
    # the file before the refused one stays, and none after it is written
    assert (tmp_path / "results.csv").read_text().startswith("n,k,q,m,C")
    assert not (tmp_path / "curves.svg").exists()


# ----------------------------------------------------------------------------
# instance files

def format_instance_text(inst):
    """The instance file that read_instance_text reads back as inst."""
    out = [f"{inst.n} {inst.k} {inst.q}"]
    for eid, c in inst.edge_colors:
        u, v = pair_of(eid)
        out.append(f"{u} {v} {c}")
    return "\n".join(out) + "\n"


def test_instance_text_roundtrip():
    inst = sample_instance(7, 2, 6, 12, make_rng(9))
    back = read_instance_text(format_instance_text(inst))
    assert back == inst


def test_instance_text_header_line():
    inst = Instance(5, 1, 3, ((0, 1),))
    assert format_instance_text(inst).splitlines()[0] == "5 1 3"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "header"),
        ("5 1\n", "header"),
        ("5 1 3\n0 1\n", "line 2"),
        ("5 1 3\n0 9 0\n", "line 2"),
        ("5 1 3\n2 2 0\n", "line 2"),
        ("5 1 3\na b c\n", "line 2"),
        ("5 1 3\n0 1 0\n1 0 2\n", "invalid instance"),
    ],
)
def test_instance_text_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InputError) as err:
        read_instance_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# instance\n\n5 1 3\n  0 1 z \n", "line 4: non-integer token in '0 1 z'"),
        ("\nn k q\n", "line 2: non-integer token in 'n k q'"),
        ("5 1 3\n# edge\n0 1\n", "line 3: expected 'u v color', got '0 1'"),
    ],
)
def test_instance_reader_messages_count_skipped_lines(text, message):
    with pytest.raises(InputError) as err:
        read_instance_text(text)
    assert str(err.value) == message
