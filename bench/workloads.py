"""The four workloads: fixed job lists of ops, each with its correctness check.

An op is one closed-loop call (or short chain of calls) into the package.
``run`` is the timed part; ``check`` runs after the timed loop and compares
the result with an answer computed apart from the code under test; ``summary``
is what must come out identical in every pass of the same seed, traced or
not.  With tracing on, a composite op calls the package's own composite with
its public stages wrapped in spans (``Tracer.wrapped``), one span per stage.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import answers
from instances import (
    SEARCH_SPECS,
    SplitMix64,
    edge_colors,
    fingerprint,
    fold,
    load_reference,
    select,
    witness_error,
)


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    summary: Callable[[Any], Any] = repr


@dataclass
class Plan:
    ops: list[Op]
    # checks across ops, after the timed loop: op index -> error
    post_check: Callable[[list], dict[int, str]] = lambda results: {}


class FamilyCounter:
    """Work count for enumerate_family spans: the orders of each family the
    call returns for the first time.  A family served again from a cache
    counts no orders.  References are held so object ids stay unique."""

    def __init__(self):
        self.seen: dict[int, Any] = {}

    def __call__(self, fam) -> dict:
        if id(fam) in self.seen:
            return {"orders": 0}
        self.seen[id(fam)] = fam
        return {"orders": len(fam.orders)}


def _search_counts(res) -> dict:
    return {
        "nodes": res.nodes,
        "zero_node": int(res.nodes == 0),
        "unknown": int(res.found is None),
    }


# ----------------------------------------------------------------------------
# search-refute, search-witness


def search_plan(rl, name: str, seed: int, smoke: bool) -> Plan:
    spec = SEARCH_SPECS[name]
    chosen = select(spec, load_reference(spec), seed, per_run=6 if smoke else None)
    ops = []
    for rec in chosen:
        pairs = edge_colors(spec, rec["index"])
        if fingerprint(pairs) != rec["fingerprint"]:
            raise SystemExit(f"benchmark: {name} instance {rec['index']} no longer matches its reference")
        inst = rl.Instance(spec.n, spec.k, spec.q, pairs)

        def run(tr, inst=inst):
            return tr.call(
                "threshold.rainbow_power_search", rl.rainbow_power_search, inst, count=_search_counts
            )

        def check(res, rec=rec, pairs=pairs):
            if res.found is None:
                return f"instance {rec['index']}: node budget exhausted"
            verdict = "found" if res.found else "absent"
            if verdict != rec["verdict"]:
                return f"instance {rec['index']}: verdict {verdict}, reference {rec['verdict']}"
            if res.found:
                return witness_error(spec, pairs, res.witness)
            return None

        ops.append(
            Op(f"search[{rec['index']}]", run, check, lambda r: (r.found, r.nodes, r.witness))
        )
    return Plan(ops)


# ----------------------------------------------------------------------------
# exact-audit


def exact_plan(rl, seed: int, smoke: bool) -> Plan:
    """Enumeration ops first, then the audits, moments, spread and K0 ops in
    one fixed interleaved order.  The seed picks the kappas of the K0 ops,
    which change the answers but not the work."""
    enum_count = FamilyCounter()
    rng = SplitMix64(fold(0xE7AC7, seed))
    if smoke:
        enum_sizes = [(5, 1), (6, 1), (6, 2)]
        audit_sizes = {1: range(4, 7), 2: range(6, 7)}
        structure_sizes = audit_sizes
        b_sizes = {1: range(4, 12), 2: range(6, 12)}
        moment_sizes = [(6, 2)]
        spread_cases = [(5, 1, 2), (6, 2, 1)]
        k0_sizes = [(5, 1), (6, 2)]
    else:
        enum_sizes = [(n, 1) for n in range(4, 11)] + [(n, 2) for n in range(6, 11)]
        audit_sizes = {1: range(4, 10), 2: range(6, 9)}  # criteria 3 and 5
        structure_sizes = {1: range(4, 10), 2: range(6, 10)}  # criterion 4
        b_sizes = {1: range(4, 23), 2: range(6, 25)}
        moment_sizes = [(5, 1), (6, 1), (7, 1), (6, 2), (7, 2)]
        spread_cases = [(n, 1, s) for n in (5, 6, 7, 8) for s in (1, 2)] + [
            (n, 2, s) for n in (6, 7) for s in (1, 2)
        ]
        k0_sizes = [(5, 1), (6, 1), (7, 1), (6, 2), (7, 2)]
    # Many cheap moment and K0 ops: they put the 90th percentile among a
    # dozen ops of 100-200 ms instead of on a single 0.6 s op.  The palette
    # sizes stay fixed because the cost of the exact sums grows with q.
    moment_cases = [(5, 1, 6)] + [(n, k, k * n + j) for n, k in moment_sizes for j in range(2, 12)]
    k0_cases = [
        (n, k, n ** (1 / k) * (1 + rng.below(1000) / 2000)) for n, k in k0_sizes for _ in range(4)
    ]

    def enumerate_(tr, n, k):
        return tr.call("hampow.enumerate_family", rl.enumerate_family, rl.PowerParams(n, k), count=enum_count)

    def family(tr, n, k):
        return tr.call("hypergraph.build", enumerate_(tr, n, k).hypergraph)

    phase1 = []
    for n, k in enum_sizes:

        def run(tr, n=n, k=k):
            return enumerate_(tr, n, k)

        def check(fam, n=n, k=k):
            want = math.factorial(n - 1) // 2
            if len(fam.orders) != want:
                return f"({n},{k}): {len(fam.orders)} orders, expected (n-1)!/2 = {want}"
            if k == 1 and len(fam.edge_sets) != want:
                return f"({n},1): {len(fam.edge_sets)} edge sets, a cycle's edges fix its order"
            return None

        phase1.append(
            Op(f"enumerate({n},{k})", run, check, lambda f: (len(f.orders), len(f.edge_sets), f.collisions))
        )

    phase2 = []
    for audit, span, sizes in (
        (rl.audit_prop1, "hampow.audit_prop1", audit_sizes),
        (rl.audit_structure, "hampow.audit_structure", structure_sizes),
        (rl.audit_prop2_reading_a, "hampow.audit_prop2_reading_a", audit_sizes),
    ):
        for k, ns in sizes.items():
            for n in ns:

                def run(tr, audit=audit, span=span, n=n, k=k):
                    return tr.call(span, audit, n, k, count=lambda rep: {"subgraphs": rep.checked})

                def check(rep, n=n, k=k):
                    if not rep.ok or rep.checked < 1:
                        return f"{rep.name}({n},{k}): {len(rep.violations)} violations, {rep.checked} checked"
                    return None

                phase2.append(Op(f"{span.split('.')[1]}({n},{k})", run, check, lambda r: r.to_json()))

    for k, ns in b_sizes.items():
        for n in ns:

            def run(tr, n=n, k=k):
                return tr.call(
                    "hampow.audit_prop2_reading_b",
                    rl.audit_prop2_reading_b,
                    [n],
                    k,
                    count=lambda rep: {"subsets": rep.checked},
                )

            phase2.append(Op(f"prop2b({n},{k})", run, _reading_b_check(n, k), lambda r: r.to_json()))

    for n, k, q in moment_cases:

        def run(tr, n=n, k=k, q=q):
            hg = family(tr, n, k)
            m = len(hg.edges)
            return tr.call(
                "rainbow.exact_second_moment",
                rl.exact_second_moment,
                hg,
                q,
                count=lambda _: {"pairs": m * (m - 1) // 2},
            )

        def check(st, n=n, k=k, q=q):
            if (n, k, q) == (5, 1, 6):
                e_z, e_z2 = Fraction(10, 9), Fraction(670, 243)  # criterion 6
            else:
                e_z, e_z2 = answers.rainbow_moments(n, k, q)
            if not st.exact or st.e_z != e_z or st.e_z2 != e_z2:
                return f"moments({n},{k},q={q}): got {st.e_z}, {st.e_z2}; expected {e_z}, {e_z2}"
            return None

        phase2.append(Op(f"moments({n},{k},q={q})", run, check, lambda st: st.to_json()))

    for n, k, s in spread_cases:

        def run(tr, n=n, k=k, s=s):
            return tr.call("hypergraph.spread_up_to", rl.spread_up_to, family(tr, n, k), s)

        def check(rep, n=n, k=k, s=s):
            want = answers.spread(n, k, s)
            if not answers.close(rep.kappa_s, want):
                return f"spread({n},{k},s={s}): kappa_s {rep.kappa_s}, expected {want}"
            return None

        phase2.append(Op(f"spread({n},{k},s={s})", run, check))

    for n, k, kappa in k0_cases:

        def run(tr, n=n, k=k, kappa=kappa):
            hg = family(tr, n, k)
            m = len(hg.edges)
            return tr.call(
                "hypergraph.required_k0",
                rl.required_k0,
                hg,
                kappa,
                1 / 3,
                count=lambda _: {"pairs": m * m},
            )

        def check(rep, n=n, k=k, kappa=kappa):
            fmax = answers.profile(n, k)
            if rep.fmax != fmax:
                return f"required_k0({n},{k}): fmax {rep.fmax}, expected {fmax}"
            big_m = len(answers.power_family(n, k))
            for t, need in rep.k0_min.items():
                want = kappa * (fmax[t] / big_m) ** (1 / t) if fmax[t] else None
                if (need is None) != (want is None) or (want is not None and not answers.close(need, want, 1e-9)):
                    return f"required_k0({n},{k}): K0 at t={t} is {need}, expected {want}"
            return None

        phase2.append(Op(f"required_k0({n},{k})", run, check))

    # a fixed interleaving spreads each size class over the pass, so that
    # neighbouring ranks of the latency distribution meet different moments
    # of machine noise
    SplitMix64(0xE7AC7).shuffle(phase2)
    return Plan(phase1 + phase2)


def _reading_b_check(n: int, k: int):
    def check(rep):
        tmax = n // (3 * k)
        cells = {(row.t, row.c): row for row in rep.rows}
        if rep.checked != sum(math.comb(k * n, t) for t in range(1, tmax + 1)):
            return f"prop2b({n},{k}): {rep.checked} subsets checked, expected sum_t C(kn, t)"
        for t in range(1, tmax + 1):
            if sum(row.exact for (tt, _), row in cells.items() if tt == t) != math.comb(k * n, t):
                return f"prop2b({n},{k}): cells at t={t} do not add up to C(kn, t)"
        for (t, c), row in cells.items():
            if not answers.close(row.bound, answers.prop2_bound(k, t, c)):
                return f"prop2b({n},{k}): bound at t={t} c={c} is {row.bound}"
            if k == 1 and row.exact != answers.cycle_component_count(n, t, c):
                return f"prop2b({n},1): cell t={t} c={c} is {row.exact}, closed form differs"
        if k == 1:
            want = [(22, 1, 1, 1, 22)] if n == 22 else []
        else:
            want = [(n, k, t, c, row.exact) for (t, c), row in sorted(cells.items())
                    if row.exact > answers.prop2_bound(k, t, c)]
        got = [(v.n, v.k, v.t, v.c, v.exact) for v in rep.violations]
        if got != want:
            return f"prop2b({n},{k}): violations {got}, expected {want}"
        return None

    return check


# ----------------------------------------------------------------------------
# mc-sampling

MC_FAMILY = (5, 1, 6)  # empirical moments: n, k, q
TWO_ROUND = dict(q=9, C=4.0, epsilon1=0.5)  # over the (7, 1) family
# criterion-9 reference size; the pool never gets more workers than cores
GRID = dict(n=12, k=2, q=27, trials=200, c_grid=(0.5, 1.0, 2.0), workers=min(2, os.cpu_count() or 1))


# stages that run_two_round and TwoRoundConfig.family look up in
# rainbowlab.fragments when they run: attr -> (span name, work count)
TWO_ROUND_STAGES = {
    "make_rng": ("seeding.make_rng", None),
    "random_coloring": ("rainbow.random_coloring", lambda _: {"colorings": 1}),
    "rainbow_subfamily": ("rainbow.rainbow_subfamily", None),
    "sample_w0": ("fragments.sample_w0", None),
    "classify_fragments": ("fragments.classify_fragments", lambda o: {"scans": len(o.records)}),
    "run_third_stage": ("fragments.run_third_stage", None),
}
# stages of run_grid's task, looked up in rainbowlab.threshold
GRID_STAGES = {
    "make_rng": ("seeding.make_rng", None),
    "sample_instance": ("threshold.sample_instance", None),
    "rainbow_power_search": ("threshold.rainbow_power_search", _search_counts),
}


def _grid_rows(res) -> list[tuple]:
    return [(r.m, r.trials, r.decided, r.successes, r.unknown, r.mean_nodes) for r in res.rows]


def mc_plan(rl, seed: int, smoke: bool, out_dir, traced: bool) -> Plan:
    enum_count = FamilyCounter()
    n_emp, emp_trials = (1, 2000) if smoke else (2, 20_000)
    n_seeds = 2 if smoke else 30
    grid = dict(GRID, trials=10) if smoke else GRID
    n_grids = 1 if smoke else 3
    ops = []

    e_z, e_z2 = Fraction(10, 9), Fraction(670, 243)  # criterion 6
    n, k, q = MC_FAMILY
    for i in range(n_emp):

        def run(tr, i=i):
            fam = tr.call("hampow.enumerate_family", rl.enumerate_family, rl.PowerParams(n, k), count=enum_count)
            hg = tr.call("hypergraph.build", fam.hypergraph)
            # fixed seeds, so the 4-standard-error check is decided once and
            # does not fail by chance on a fraction of workload seeds
            return tr.call("rainbow.empirical_moments", rl.empirical_moments, hg, q, emp_trials,
                           2026 + i, count=lambda rep: {"colorings": rep.trials})

        def check(rep):
            if abs(rep.mc_mean - e_z) > 4 * rep.mc_se or abs(rep.mc_mean_z2 - e_z2) > 4 * rep.mc_se_z2:
                return (f"empirical moments {rep.mc_mean:.5f} (se {rep.mc_se:.5f}), {rep.mc_mean_z2:.5f} "
                        f"(se {rep.mc_se_z2:.5f}) not within 4 se of {float(e_z):.5f}, {float(e_z2):.5f}")
            return None

        ops.append(Op(f"empirical_moments[{i}]", run, check, lambda rep: rep.to_json()))

    # family() enumerates in its own span, so hypergraph.build's self time
    # is the hypergraph it builds and validates
    stages = dict(TWO_ROUND_STAGES, enumerate_family=("hampow.enumerate_family", enum_count))
    params = rl.PowerParams(7, 1)
    family_size = math.factorial(6) // 2
    expected = float(Fraction(family_size * answers.falling(9, 7), 9**7))
    groups = []
    for j in range(n_seeds):
        s = fold(seed, 2, j) & 0x7FFFFFFF
        for mode in (rl.UPFRONT, rl.STAGED):
            group = []
            for omega in (1, 2, 3):
                cfg = rl.TwoRoundConfig(seed=s, params=params, omega=omega, coloring_mode=mode, **TWO_ROUND)

                def run(tr, cfg=cfg):
                    with (
                        tr.wrapped(rl.fragments, stages),
                        tr.wrapped(rl.TwoRoundConfig, {"family": ("hypergraph.build", None)}),
                    ):
                        return tr.call("fragments.run_two_round", rl.run_two_round, cfg)

                def check(rec, omega=omega):
                    if rec.family_size != family_size or not math.isclose(rec.expected_rainbow, expected):
                        return f"two-round: family {rec.family_size}, E(Z) {rec.expected_rainbow}"
                    if rec.degenerate != (rec.rainbow_size == 0):
                        return "two-round: degenerate flag disagrees with the rainbow count"
                    if rec.degenerate:
                        return None
                    if sum(rec.histogram.values()) != rec.rainbow_size:
                        return "two-round: fragment histogram does not cover H*"
                    if rec.bad_count != sum(c for ell, c in rec.histogram.items() if ell >= omega):
                        return "two-round: bad count is not the members with ell >= omega"
                    if rec.success != (2 * rec.bad_count <= rec.rainbow_size):
                        return "two-round: success flag disagrees with the bad count"
                    return None

                group.append(len(ops))
                ops.append(Op(f"two_round[{s},{mode},{omega}]", run, check, lambda r: r.to_json()))
            groups.append(group)

    grid_ops = []  # (op index, config, report directory)
    for j in range(n_grids):
        cfg = rl.ExperimentConfig(seed=fold(seed, 3, j) & 0x7FFFFFFF, **grid)
        report_dir = out_dir / f"grid{j}"
        grid_ops.append((len(ops), cfg, report_dir))

        def run(tr, cfg=cfg, report_dir=report_dir):
            res = tr.call(
                "threshold.run_grid", rl.run_grid, cfg,
                count=lambda r, cfg=cfg: {
                    "trials": sum(row.trials for row in r.rows),
                    "search_ms": sum(row.mean_ms * row.trials for row in r.rows),
                    "workers": cfg.workers,
                },
            )
            paths = tr.call("threshold.emit_report", rl.emit_report, res, report_dir)
            if not traced:
                return res, paths, None
            # the pool's tasks run in other processes; run_grid runs the same
            # tasks in this one with a single worker, and there they are traced
            with tr.wrapped(rl.threshold, GRID_STAGES):
                one = tr.call("bench.grid_one_worker", rl.run_grid, dataclasses.replace(cfg, workers=1))
            return res, paths, _grid_rows(one)

        def check(out, cfg=cfg):
            res, _, one_worker = out
            for row in res.rows:
                if row.decided + row.unknown != row.trials:
                    return f"grid m={row.m}: decided {row.decided} + unknown {row.unknown} != {row.trials}"
                if row.unknown:
                    return f"grid m={row.m}: {row.unknown} trials ran out of node budget"
                if row.m < cfg.k * cfg.n and row.successes:
                    return f"grid m={row.m}: fewer than kn edges yet {row.successes} found"
            rows = _grid_rows(res)
            if one_worker is not None and one_worker != rows:
                return f"grid: traced one-worker rows {one_worker} differ from run_grid's {rows}"
            return None

        ops.append(Op(f"grid[{cfg.seed}]", run, check, lambda out: [p.read_bytes() for p in out[1]]))

    def post_check(results):
        errors = {}
        for group in groups:
            bads = [results[i].bad_count for i in group if results[i] is not None]
            if len(bads) == len(group) and any(a < b for a, b in zip(bads, bads[1:])):
                errors.update({i: f"bad counts {bads} increase with omega" for i in group})
        # outside the timed loop: one worker gives the same bytes as two
        for i, cfg, report_dir in grid_ops:
            if results[i] is None:
                continue
            one = rl.threshold.format_csv(rl.run_grid(dataclasses.replace(cfg, workers=1)))
            if one.encode() != (report_dir / "results.csv").read_bytes():
                errors[i] = f"grid CSV bytes differ between 1 and {cfg.workers} workers"
        return errors

    return Plan(ops, post_check)


WORKLOADS = ("search-refute", "search-witness", "exact-audit", "mc-sampling")


def plan(rl, workload: str, seed: int, smoke: bool, out_dir, traced: bool) -> Plan:
    if workload in SEARCH_SPECS:
        return search_plan(rl, workload, seed, smoke)
    if workload == "exact-audit":
        return exact_plan(rl, seed, smoke)
    return mc_plan(rl, seed, smoke, out_dir, traced)
