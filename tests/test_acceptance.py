"""Acceptance suite: ten checks, one pass/fail line each.

Run as part of the normal test suite, or alone:

    pytest tests/test_acceptance.py -v

Each criterion prints a single PASS/FAIL line (visible with -s, and in the
captured-output section on failure) and then asserts.
"""

import math
import time
from fractions import Fraction
from itertools import permutations

import rainbowlab as rl
from rainbowlab.seeding import make_rng
from tests.test_fragments import expected_nu_r_oracle, min_fragment_oracle


def report(number: int, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number}: {detail} ({time.perf_counter() - t0:.2f}s)")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_family_enumeration():
    t0 = time.perf_counter()
    f51 = rl.enumerate_family(rl.PowerParams(5, 1))
    f62 = rl.enumerate_family(rl.PowerParams(6, 2))
    f61 = rl.enumerate_family(rl.PowerParams(6, 1))
    counts = (
        len(f51.orders), len(f51.edge_sets),
        len(f62.orders), len(f62.edge_sets),
        len(f61.orders), len(f61.edge_sets),
    )
    ok = counts == (12, 12, 60, 15, 60, 60) and time.perf_counter() - t0 < 1.0
    report(1, ok, f"family counts orders/sets = {counts}, expected (12,12,60,15,60,60)", t0)


def test_criterion_02_spread_constant():
    t0 = time.perf_counter()
    k5 = rl.spread_up_to(rl.enumerate_family(rl.PowerParams(5, 1)).hypergraph(), 1).kappa_s
    k7 = rl.spread_up_to(rl.enumerate_family(rl.PowerParams(7, 1)).hypergraph(), 1).kappa_s
    ok = k5 == 2.0 and k7 == 3.0 and time.perf_counter() - t0 < 1.0
    report(2, ok, f"kappa_s(n=5)={k5} kappa_s(n=7)={k7}, expected 2 and 3", t0)


def test_criterion_03_extension_bound_audit():
    t0 = time.perf_counter()
    bad = []
    for k, n_hi in ((1, 9), (2, 8)):
        for n in range(2 * k + 2, n_hi + 1):
            rep = rl.audit_prop1(n, k)
            if not rep.ok:
                bad.append((n, k, len(rep.violations)))
    ok = not bad and time.perf_counter() - t0 < 300
    report(3, ok, f"extension-count audit violations: {bad or 'none'} over k=1 n<=9, k=2 n<=8", t0)


def test_criterion_04_structure_audit():
    t0 = time.perf_counter()
    bad = []
    for k in (1, 2):
        for n in range(2 * k + 2, 10):
            rep = rl.audit_structure(n, k)
            if not rep.ok:
                bad.append((n, k, len(rep.violations)))
    ok = not bad and time.perf_counter() - t0 < 300
    report(4, ok, f"per-component density audit violations: {bad or 'none'} over n<=9, k<=2", t0)


def test_criterion_05_component_bound_audit_both_readings():
    t0 = time.perf_counter()
    bad_a = []
    for k, n_hi in ((1, 9), (2, 8)):
        for n in range(2 * k + 2, n_hi + 1):
            rep = rl.audit_prop2_reading_a(n, k)
            if not rep.ok:
                bad_a.append((n, k))
    rep_b = rl.audit_prop2_reading_b(range(4, 23), 1)
    hits = [(v.n, v.k, v.t, v.c, v.exact) for v in rep_b.violations]
    ok = (
        not bad_a
        and hits == [(22, 1, 1, 1, 22)]
        and rep_b.violations[0].bound == 8 * math.e
        and time.perf_counter() - t0 < 60
    )
    report(5, ok, f"reading (a) clean: {not bad_a}; reading (b) found exactly {hits} "
                  f"(count 22 > 8e = {8 * math.e:.3f})", t0)


def test_criterion_06_moments_exact_and_sampled():
    t0 = time.perf_counter()
    hg = rl.enumerate_family(rl.PowerParams(5, 1)).hypergraph()
    stats = rl.exact_second_moment(hg, 6)
    exact_ok = (
        stats.exact
        and stats.e_z == Fraction(10, 9)
        and stats.e_z2 == Fraction(670, 243)
        and abs(float(stats.e_z2) - 2.757) < 1e-3
    )
    rep = rl.empirical_moments(hg, 6, trials=100_000, seed=2026)
    mc_ok = (
        abs(rep.mc_mean - float(stats.e_z)) <= 3 * rep.mc_se
        and abs(rep.mc_mean_z2 - float(stats.e_z2)) <= 3 * rep.mc_se_z2
    )
    ok = exact_ok and mc_ok and time.perf_counter() - t0 < 60
    report(6, ok, f"E(Z)={stats.e_z} E(Z2)={stats.e_z2} ~ {float(stats.e_z2):.4f}; "
                  f"MC mean {rep.mc_mean:.4f} (se {rep.mc_se:.4f}), "
                  f"MC second {rep.mc_mean_z2:.4f} (se {rep.mc_se_z2:.4f})", t0)


def test_criterion_07_fragment_process():
    t0 = time.perf_counter()
    base = dict(q=9, C=4.0, epsilon1=0.5, params=rl.PowerParams(7, 1),
                coloring_mode=rl.STAGED)

    # (a) per sample, the fragments of the one-pass scan match the scan of
    # all of H* per member, bad counts are the members with ell >= omega,
    # and they are non-increasing in omega
    violations = 0
    for s in range(100):
        cfg = rl.TwoRoundConfig(seed=s, omega=1, **base)
        coloring = rl.random_coloring(cfg.n_elements, cfg.q, make_rng(s, 1))
        hstar = rl.rainbow_subfamily(cfg.family(), coloring)
        w0 = rl.sample_w0(cfg.n_elements, cfg.m, make_rng(s, 2))
        out = rl.classify_fragments(hstar, w0)
        want = min_fragment_oracle(hstar, w0)
        assert [(rec.source_index, rec.t_star, rec.ell) for rec in out.records] == want, s
        bads = [out.bad_count(omega) for omega in (1, 2, 3)]
        assert bads == [sum(1 for _, _, ell in want if ell >= omega) for omega in (1, 2, 3)], s
        if not bads[0] >= bads[1] >= bads[2]:
            violations += 1

    # (b) nu_R Monte Carlo against the staged expectation
    cfg = rl.TwoRoundConfig(seed=5, omega=3, **base)
    coloring = rl.random_coloring(cfg.n_elements, cfg.q, make_rng(cfg.seed, 1))
    hstar = rl.rainbow_subfamily(cfg.family(), coloring)
    w0 = rl.sample_w0(cfg.n_elements, cfg.m, make_rng(cfg.seed, 2))
    out = rl.classify_fragments(hstar, w0)
    tallies = {ell: count for ell, count in out.histogram.items() if 1 <= ell < 3}
    assert tallies, "third-stage pool must be nonempty for the comparison to bite"
    trials = 10_000
    total, total_sq = 0, 0
    for i in range(trials):
        stage = rl.run_third_stage(cfg, out.records, w0, coloring,
                                   make_rng(cfg.seed, 3, i), hstar=hstar)
        total += stage.nu_r
        total_sq += stage.nu_r * stage.nu_r
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0) * trials / (trials - 1)
    se = math.sqrt(var / trials)
    want = expected_nu_r_oracle(tallies, cfg.q, cfg.r, cfg.p1, cfg.epsilon1, 3)
    mc_ok = abs(mean - want) <= 3 * max(se, 1e-12)
    ok = violations == 0 and mc_ok and time.perf_counter() - t0 < 300
    report(7, ok, f"bad-count monotonicity violations {violations}/100; "
                  f"nu_R MC mean {mean:.5f} vs expected {want:.5f} (se {se:.5f})", t0)


def test_criterion_08_search_oracle_equivalence():
    t0 = time.perf_counter()

    def oracle(inst):
        present = dict(inst.edge_colors)
        n, k = inst.n, inst.k
        for rest in permutations(range(1, n)):
            if rest[0] > rest[-1]:
                continue
            order = (0,) + rest
            cols = []
            ok = True
            for i in range(n):
                for j in range(1, k + 1):
                    u, v = order[i], order[(i + j) % n]
                    eid = rl.pair_id(min(u, v), max(u, v))
                    if eid not in present:
                        ok = False
                        break
                    cols.append(present[eid])
                if not ok:
                    break
            if ok and len(set(cols)) == len(cols):
                return True
        return False

    rng = make_rng(808)
    combos = [(n, k) for n in (6, 7, 8) for k in (1, 2)]
    disagreements = 0
    found = 0
    for i in range(200):
        n, k = combos[i % len(combos)]
        big_n = n * (n - 1) // 2
        m = rng.randint(max(0, k * n - 2), big_n)
        q = math.ceil(1.2 * k * n)
        inst = rl.sample_instance(n, k, q, m, rng)
        res = rl.rainbow_power_search(inst, budget=10_000_000)
        if res.found != oracle(inst):
            disagreements += 1
        if res.found:
            found += 1
            present = dict(inst.edge_colors)
            cols = []
            for idx in range(n):
                for j in range(1, k + 1):
                    eid = rl.pair_id(*sorted((res.witness[idx], res.witness[(idx + j) % n])))
                    assert eid in present
                    cols.append(present[eid])
            assert len(set(cols)) == len(cols)
    ok = disagreements == 0 and found > 0 and time.perf_counter() - t0 < 120
    report(8, ok, f"200 instances, {disagreements} disagreements, {found} witnesses re-validated", t0)


def test_criterion_09_threshold_curves():
    t0 = time.perf_counter()
    cfg = rl.ExperimentConfig(
        n=12, k=2, q=math.ceil(1.1 * 24), trials=200, seed=1729,
        c_grid=(0.5, 1.0, 2.0, 4.0), workers=2,
    )
    rows = rl.run_grid(cfg).rows
    monotone = True
    for a, b in zip(rows, rows[1:]):
        ra = a.rate if a.rate is not None else 0.0
        rb = b.rate if b.rate is not None else 0.0
        ha = (a.wilson()[1] - a.wilson()[0]) / 2 if a.decided else 0.0
        hb = (b.wilson()[1] - b.wilson()[0]) / 2 if b.decided else 0.0
        if rb < ra - 2 * (ha + hb):
            monotone = False
    rates = [round(r.rate, 3) if r.rate is not None else None for r in rows]
    ok = monotone and time.perf_counter() - t0 < 600
    report(9, ok, f"success rates over C=(0.5,1,2,4): {rates}, non-decreasing within "
                  f"twice the Wilson half-widths", t0)


def test_criterion_10_worker_determinism():
    t0 = time.perf_counter()
    def csv_for(workers):
        cfg = rl.ExperimentConfig(
            n=8, k=1, q=9, trials=30, seed=404, c_grid=(1.0, 2.0, 3.0), workers=workers,
        )
        from rainbowlab.threshold import format_csv
        return format_csv(rl.run_grid(cfg))

    one, four = csv_for(1), csv_for(4)
    ok = one == four and time.perf_counter() - t0 < 120
    report(10, ok, f"grid CSV bytes identical for 1 vs 4 workers: {one == four}", t0)
