"""Two-round exposure process: fragments, classification, acceptance."""

import dataclasses
import hashlib
import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab.cli import main
from rainbowlab.errors import InputError
from rainbowlab.fragments import (
    STAGED,
    UPFRONT,
    TwoRoundConfig,
    classify_fragments,
    default_omega,
    fit_failure_constant,
    omega_sweep,
    run_third_stage,
    run_two_round,
    sample_w0,
)
from rainbowlab.hampow import PowerParams
from rainbowlab.hypergraph import DISTINCT_SETS, GroundSet, Hypergraph
from rainbowlab.rainbow import Coloring, falling, random_coloring, rainbow_subfamily
from rainbowlab.seeding import make_rng, mix


def toy_hstar():
    """Four 3-element members on 6 ground elements, overlaps by design."""
    g = GroundSet(6)
    edges = ((0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 2, 4))
    return Hypergraph(g, edges, r=3, semantics=DISTINCT_SETS)


def staged_config(seed=7, omega=3, c=4.0):
    return TwoRoundConfig(
        q=9,
        C=c,
        epsilon1=0.5,
        seed=seed,
        params=PowerParams(7, 1),
        omega=omega,
        coloring_mode=STAGED,
    )


# ----------------------------------------------------------------------------
# configuration

def test_default_omega():
    assert default_omega(1) == 1
    assert default_omega(2) == 2  # ceil(2^(1/3))
    assert default_omega(8) == 2
    assert default_omega(27) == 3
    assert default_omega(28) == 4


def test_config_m_and_p1():
    cfg = staged_config()
    # N = 21 slots, kappa_hat = 7: m = min(21, ceil(4 * 21 / 7)) = 12
    assert cfg.n_elements == 21
    assert cfg.m == 12
    assert cfg.p1 == pytest.approx(12 / 21)
    assert cfg.r == 7
    assert cfg.omega_resolved == 3


def test_config_m_clamps_at_full_ground_set():
    cfg = staged_config(c=100.0)
    assert cfg.m == 21
    assert staged_config(c=1e308).m == 21  # C * N passes the float range


@pytest.mark.parametrize(
    "field,value",
    [("C", math.inf), ("C", math.nan), ("C", 0.0), ("epsilon1", math.nan), ("epsilon1", math.inf)],
)
def test_config_rejects_c_and_slack_outside_the_positive_floats(field, value):
    kwargs = dict(q=9, C=4.0, epsilon1=0.5, seed=1, params=PowerParams(7, 1))
    kwargs[field] = value
    with pytest.raises(InputError, match=f"{field} must be positive and finite"):
        TwoRoundConfig(**kwargs)


def test_config_family_builds_its_hypergraph_once(monkeypatch):
    # every trial over one PowerParams shares one frozen view of the family
    import rainbowlab.hampow as hampow

    built = []
    view = hampow._view

    def counting(*args, **kwargs):
        built.append(args)
        return view(*args, **kwargs)

    monkeypatch.setattr(hampow, "_family_cache", {})
    monkeypatch.setattr(hampow, "_view", counting)
    views = [staged_config(seed=s, omega=1 + s % 3).family() for s in range(180)]
    assert len(built) == 1
    assert all(hg is views[0] for hg in views)
    assert len(views[0]) == 360 and views[0].transitive


def test_omega_below_one_is_refused_by_config_and_cli(capsys):
    with pytest.raises(InputError, match="omega must be >= 1, got 0"):
        TwoRoundConfig(q=9, C=4.0, epsilon1=0.5, seed=1, params=PowerParams(7, 1), omega=0)
    assert main(["fragment", "--n", "7", "--q", "9", "--seed", "1", "--omega", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: omega must be >= 1, got 0"


def test_config_rejects_bad_mode_and_slack():
    with pytest.raises(InputError):
        staged_config().__class__(
            q=9, C=4.0, epsilon1=0.5, seed=1, params=PowerParams(7, 1),
            coloring_mode="later",
        )
    with pytest.raises(InputError):
        # epsilon1 * p1 > 1 is not a probability
        TwoRoundConfig(q=9, C=4.0, epsilon1=5.0, seed=1, params=PowerParams(7, 1))


def test_sample_w0_sorted_and_deterministic():
    a = sample_w0(21, 12, make_rng(3, 2))
    b = sample_w0(21, 12, make_rng(3, 2))
    assert a == b
    assert list(a) == sorted(set(a))
    assert len(a) == 12
    with pytest.raises(InputError):
        sample_w0(5, 6, make_rng(0))


# ----------------------------------------------------------------------------
# minimum fragments

def min_fragment_oracle(hstar, w0):
    """(source_index, t_star, ell) for each member A* by a scan of all of H*:
    of the members inside A* u W0, the first with the fewest elements outside
    W0."""
    w0 = set(w0)
    out = []
    for a in hstar.edges:
        best = None
        for idx, b in enumerate(hstar.edges):
            left = tuple(x for x in b if x not in w0)
            if set(b) <= set(a) | w0 and (best is None or len(left) < best[2]):
                best = (idx, left, len(left))
        out.append(best)
    return out


def expected_nu_r_oracle(tallies, q, r, p1, epsilon1, omega, mode=STAGED):
    """Exact expectation of the accepted-fragment count for given tallies,
    the fragment counts by ell over the pool 1 <= ell < omega:

        E(nu_R) = sum_ell |R_ell| p1^ell ((q-r+ell)_ell / q^ell) (eps1*p1)^(omega-ell)

    Staged mode carries the fresh-color factor (q-r+ell)_ell / q^ell; upfront
    mode drops it.  Tally keys must lie in 1..omega-1.
    """
    if mode not in (UPFRONT, STAGED):
        raise InputError(f"unknown coloring mode {mode!r}")
    if omega < 1:
        raise InputError(f"omega must be >= 1, got {omega}")
    total = 0.0
    for ell, count in tallies.items():
        if not 1 <= ell < omega:
            raise InputError(f"tally index ell={ell} out of range 1..{omega - 1}")
        if count < 0:
            raise InputError(f"negative tally at ell={ell}")
        term = count * p1**ell * (epsilon1 * p1) ** (omega - ell)
        if mode == STAGED:
            term *= falling(q - r + ell, ell) / q**ell if q - r + ell >= 0 else 0.0
        total += term
    return total


@st.composite
def families_and_exposures(draw):
    """A small distinct-sets family with many equal-sized residues, and a W0."""
    size = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=1, max_value=min(size, 4)))
    edge = st.lists(st.integers(0, size - 1), min_size=r, max_size=r, unique=True).map(sorted).map(tuple)
    edges = draw(st.lists(edge, max_size=20, unique=True))
    w0 = draw(st.lists(st.integers(0, size - 1), unique=True))
    return Hypergraph(GroundSet(size), tuple(edges), r=r, semantics=DISTINCT_SETS), w0


@settings(max_examples=300, deadline=None)
@given(families_and_exposures())
def test_classification_matches_the_oracle_and_the_literal_rule(case):
    hstar, w0 = case
    out = classify_fragments(hstar, w0)
    want = min_fragment_oracle(hstar, w0)
    assert [(rec.source_index, rec.t_star, rec.ell) for rec in out.records] == want
    ells = [ell for _, _, ell in want]
    assert out.histogram == {ell: ells.count(ell) for ell in sorted(set(ells))}
    for omega in range(1, hstar.r + 2):
        bad = sum(1 for ell in ells if ell >= omega)
        assert out.bad_count(omega) == bad
        assert out.success(omega) == (len(ells) > 0 and not 2 * bad > len(ells))


def test_min_fragment_picks_smallest_leftover():
    hstar = toy_hstar()
    # W0 = {1, 2, 3}: member 0 leaves {0}, member 1 leaves {}, member 2 leaves
    # {4, 5}, member 3 leaves {0, 4}.  For A* = member 0 the candidates are
    # those inside A* u W0 = {0,1,2,3}: members 0 and 1; member 1 wins with 0
    rec = classify_fragments(hstar, (1, 2, 3)).records[0]
    assert rec.source_index == 1
    assert rec.ell == 0
    assert rec.t_star == ()


def test_min_fragment_self_when_nothing_better():
    hstar = toy_hstar()
    # A* = member 2 = {3,4,5}, W0 = {3}: only member 2 fits inside A* u W0
    rec = classify_fragments(hstar, (3,)).records[2]
    assert rec.source_index == 2
    assert rec.ell == 2
    assert rec.t_star == (4, 5)


def test_min_fragment_tie_goes_to_smallest_index():
    hstar = toy_hstar()
    # A* = member 1, W0 = {0,3}: members 0 and 1 both fit inside {0,1,2,3}
    # with leftover {1,2}; the scan keeps the first
    rec = classify_fragments(hstar, (0, 3)).records[1]
    assert rec.ell == 2
    assert rec.source_index == 0
    assert rec.t_star == (1, 2)


def test_min_fragment_fragment_avoids_w0():
    hstar = toy_hstar()
    for idx, rec in enumerate(classify_fragments(hstar, (0, 3)).records):
        assert not set(rec.t_star) & {0, 3}
        assert rec.ell == len(rec.t_star)
        assert rec.ell <= len(set(hstar.edges[idx]) - {0, 3})


def test_min_fragment_validates_inputs():
    with pytest.raises(InputError):
        classify_fragments(toy_hstar(), (17,))
    # W0 is checked before the family is looked at
    with pytest.raises(InputError):
        classify_fragments(Hypergraph(GroundSet(6), (), r=3, semantics=DISTINCT_SETS), (17,))


# ----------------------------------------------------------------------------
# classification

def test_classify_checks_w0_once_per_call(monkeypatch):
    import rainbowlab.fragments as fragments

    hstar = toy_hstar()
    with pytest.raises(InputError):
        classify_fragments(hstar, (0, 17))
    with pytest.raises(InputError):
        classify_fragments(hstar, (0, -1))
    calls = []
    mask_of = fragments._mask_of

    def counting(*args):
        calls.append(args)
        return mask_of(*args)

    monkeypatch.setattr(fragments, "_mask_of", counting)
    out = classify_fragments(hstar, (2, 3))
    assert len(out.records) == 4
    assert [tuple(w0) for w0, _ in calls] == [(2, 3)]


def test_classify_counts_and_histogram():
    hstar = toy_hstar()
    out = classify_fragments(hstar, (2, 3))
    # best leftovers per A*: member 0 via member 1 ({1}), member 1 via itself
    # ({1}), members 2 and 3 via themselves ({4,5} and {0,4})
    assert out.histogram == {1: 2, 2: 2}
    assert out.bad_count(2) == 2
    assert out.success(2)  # 2 * 2 <= 4
    assert out.bad_count(1) == 4 and not out.success(1)
    assert out.bad_count(3) == 0 and out.success(3)


def test_classify_w0_covering_a_member_resolves_everything():
    hstar = toy_hstar()
    # W0 = {1,2,3} contains member 1 entirely, and member 1 sits inside every
    # A* u W0, so every minimum fragment is empty
    out = classify_fragments(hstar, (1, 2, 3))
    assert out.histogram == {0: 4}
    assert out.bad_count(1) == 0


def test_classify_failure_when_bad_majority():
    hstar = toy_hstar()
    out = classify_fragments(hstar, ())
    # nothing exposed: every member leaves all 3 elements
    assert out.bad_count(1) == 4
    assert not out.success(1)
    assert out.histogram == {3: 4}


def test_classify_empty_family_is_degenerate():
    g = GroundSet(6)
    empty = Hypergraph(g, (), r=3, semantics=DISTINCT_SETS)
    out = classify_fragments(empty, (0, 1))
    assert out.records == () and out.histogram == {}
    # no member, so nothing is bad, and still the round fails
    assert out.bad_count(1) == 0
    assert not out.success(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bad_counts_non_increasing_in_omega(seed):
    cfg = staged_config(seed=seed)
    hstar = rainbow_subfamily(
        cfg.family(), random_coloring(cfg.n_elements, cfg.q, make_rng(seed, 1))
    )
    w0 = sample_w0(cfg.n_elements, cfg.m, make_rng(seed, 2))
    out = classify_fragments(hstar, w0)
    bads = [out.bad_count(omega) for omega in (1, 2, 3, 4)]
    assert bads == sorted(bads, reverse=True)


# ----------------------------------------------------------------------------
# acceptance expectation

def test_expected_nu_r_hand_value():
    # single tally at ell=1, omega=2: p1 * (q-r+1)/q * (eps1 p1)
    got = expected_nu_r_oracle({1: 2}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=2)
    want = 2 * 0.5 * (10 - 7 + 1) / 10 * (0.4 * 0.5)
    assert got == pytest.approx(want)


def test_expected_nu_r_upfront_drops_color_factor():
    # tally 3 at ell=2, omega=3: 3 p1^2 (eps1 p1); staged mode adds (5)_2 / 10^2
    got = expected_nu_r_oracle({2: 3}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=3, mode=UPFRONT)
    assert got == pytest.approx(3 * 0.5**2 * (0.4 * 0.5))
    staged = expected_nu_r_oracle({2: 3}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=3)
    assert staged == pytest.approx(got * 5 * 4 / 10**2)


def test_expected_nu_r_validates_tally_range():
    with pytest.raises(InputError):
        expected_nu_r_oracle({0: 1}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=2)
    with pytest.raises(InputError):
        expected_nu_r_oracle({3: 1}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=2)
    # the third-stage pool is 1 <= ell < omega, so a tally at ell = omega is refused
    with pytest.raises(InputError, match=r"ell=2 out of range 1\.\.1"):
        expected_nu_r_oracle({2: 1}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=2)
    with pytest.raises(InputError):
        expected_nu_r_oracle({1: 1}, q=10, r=7, p1=0.5, epsilon1=0.4, omega=2, mode="other")


def test_third_stage_monte_carlo_matches_expectation():
    cfg = staged_config(seed=5)
    coloring = random_coloring(cfg.n_elements, cfg.q, make_rng(cfg.seed, 1))
    hstar = rainbow_subfamily(cfg.family(), coloring)
    w0 = sample_w0(cfg.n_elements, cfg.m, make_rng(cfg.seed, 2))
    out = classify_fragments(hstar, w0)
    tallies = {ell: count for ell, count in out.histogram.items() if 1 <= ell < cfg.omega_resolved}
    assert tallies, "pool must be nonempty for this seed"

    trials = 3000
    total = 0
    for i in range(trials):
        stage = run_third_stage(cfg, out.records, w0, coloring, make_rng(cfg.seed, 3, i), hstar=hstar)
        total += stage.nu_r
    want = expected_nu_r_oracle(tallies, cfg.q, cfg.r, cfg.p1, cfg.epsilon1, cfg.omega_resolved)
    mean = total / trials
    se = math.sqrt(max(want, 1e-9) / trials)  # Poisson-scale dispersion guard
    assert abs(mean - want) <= 4 * max(se, 1e-4)


def test_third_stage_accepts_only_fragments_below_omega():
    # the pool is the fragments with 1 <= ell < omega: empty at omega 1, and
    # at omega 3 it leaves out this seed's fragments of 3 or more elements
    cfg = staged_config(seed=11)
    coloring = random_coloring(cfg.n_elements, cfg.q, make_rng(cfg.seed, 1))
    hstar = rainbow_subfamily(cfg.family(), coloring)
    w0 = sample_w0(cfg.n_elements, cfg.m, make_rng(cfg.seed, 2))
    out = classify_fragments(hstar, w0)
    assert any(ell >= 3 for ell in out.histogram)
    pool = sum(count for ell, count in out.histogram.items() if 1 <= ell < 3)
    for omega in (1, 3):
        cfg = staged_config(seed=11, omega=omega)
        for i in range(200):
            stage = run_third_stage(cfg, out.records, w0, coloring, make_rng(cfg.seed, 3, i), hstar=hstar)
            assert stage.nu_r <= (pool if omega == 3 else 0)


# ----------------------------------------------------------------------------
# the full pipeline

def test_run_two_round_is_reproducible():
    a = run_two_round(staged_config(seed=3))
    b = run_two_round(staged_config(seed=3))
    assert a == b
    c = run_two_round(staged_config(seed=4))
    assert a != c


def test_run_two_round_json_shape():
    rec = run_two_round(staged_config(seed=3))
    data = rec.to_json()
    for key in ("config", "family_size", "rainbow_size", "success", "bad_count",
                "histogram", "nu_R", "found_rainbow", "mode", "degenerate"):
        assert key in data
    assert all(isinstance(k, str) for k in data["histogram"])
    assert data["mode"] == STAGED
    assert data["config"]["m"] == 12


def test_run_two_round_full_exposure_exits_early():
    rec = run_two_round(staged_config(seed=3, c=100.0))
    # W0 is everything, so any rainbow member sits inside it with ell = 0
    assert rec.early_exit
    assert rec.found_rainbow
    assert rec.nu_r == 0


def test_run_two_round_degenerate_when_no_rainbow_possible():
    cfg = TwoRoundConfig(
        q=2, C=4.0, epsilon1=0.5, seed=3, params=PowerParams(6, 1), omega=2,
        coloring_mode=STAGED,
    )
    # q = 2 < r = 6: no member can be rainbow
    rec = run_two_round(cfg)
    assert rec.degenerate
    assert not rec.success
    assert rec.rainbow_size == 0


def test_run_two_round_upfront_mode_runs():
    cfg = TwoRoundConfig(
        q=9, C=4.0, epsilon1=0.5, seed=6, params=PowerParams(7, 1), omega=3,
        coloring_mode=UPFRONT,
    )
    rec = run_two_round(cfg)
    assert rec.mode == UPFRONT
    assert rec.nu_r >= 0


# sha256 of the JSON records at each omega, one line per record
TWO_ROUND_PINS = {
    1: "41fac3ec244ec46b1743905c52888afe284709bd08c2eb6bfd40a816a96f6ccf",
    2: "cc950f3847ddab34b0ab089cd8ce2c1872a4d6fc573c265e53ccda59d50b66fc",
    3: "4c5a454f292a85fe9c62131b21a5f443a8cf22e3c0f7cbb902f7929e20d8f403",
}


def test_two_round_records_are_pinned():
    """1,800 records at (7, 1), C 4, epsilon1 0.5 for each omega 1, 2 and 3:
    seeds 0..299 in both modes at q = 7, 8 and 9, of which 300 are
    degenerate and 88 exit early."""
    digests = {}
    for omega in TWO_ROUND_PINS:
        digest = hashlib.sha256()
        degenerate = early = 0
        for q in (7, 8, 9):
            for mode in (UPFRONT, STAGED):
                for seed in range(300):
                    cfg = TwoRoundConfig(q=q, C=4.0, epsilon1=0.5, seed=seed, params=PowerParams(7, 1),
                                         omega=omega, coloring_mode=mode)
                    rec = run_two_round(cfg)
                    degenerate += rec.degenerate
                    early += rec.early_exit
                    digest.update(json.dumps(rec.to_json(), sort_keys=True).encode() + b"\n")
        assert (degenerate, early) == (300, 88)
        digests[omega] = digest.hexdigest()
    assert digests == TWO_ROUND_PINS


# ----------------------------------------------------------------------------
# the omega sweep and its failure fit

def test_fit_recovers_synthetic_constant():
    c = 0.3
    points = [(w, 2 * c**w) for w in range(1, 5)]
    fit = fit_failure_constant(points)
    assert fit.available
    assert fit.c == pytest.approx(c, rel=1e-12)


def test_fit_filters_degenerate_rates():
    fit = fit_failure_constant([(1, 1.0), (2, 0.0), (3, 0.5), (4, 0.25)])
    assert not fit.available
    assert fit.c is None
    assert "3" in fit.reason
    assert fit.reason.endswith("have 2")  # the rates 0.5 and 0.25


def sweep_oracle(config, omegas, trials):
    """The sweep rows the slow way: one full run_two_round per (omega, trial),
    trial i seeded by mix(seed, 0x7377_6565, i) at every omega, and the
    degenerate records set apart."""
    rows = []
    for omega in sorted(set(omegas)):
        recs = [
            run_two_round(dataclasses.replace(config, seed=mix(config.seed, 0x7377_6565, i), omega=omega))
            for i in range(trials)
        ]
        live = [rec for rec in recs if not rec.degenerate]
        failures = sum(1 for rec in live if not rec.success)
        rows.append(
            {
                "omega": omega,
                "trials": trials,
                "degenerate": trials - len(live),
                "failures": failures,
                "failure_rate": failures / len(live) if live else None,
                "mean_bad": sum(rec.bad_count for rec in live) / len(live) if live else None,
            }
        )
    return rows


@pytest.mark.parametrize("mode", [UPFRONT, STAGED])
@pytest.mark.parametrize("n, q", [(7, 8), (7, 9), (8, 9)])
def test_sweep_rows_match_one_run_per_omega(n, q, mode):
    cfg = TwoRoundConfig(q=q, C=4.0, epsilon1=0.5, seed=11, params=PowerParams(n, 1), coloring_mode=mode)
    got = omega_sweep(cfg, [5, 1, 3, 2, 3], 30)
    want = sweep_oracle(cfg, [1, 2, 3, 5], 30)
    assert got["rows"] == want
    fit = fit_failure_constant((row["omega"], row["failure_rate"]) for row in want)
    assert got["fit"] == {"c": fit.c, "available": fit.available, "reason": fit.reason}


def test_sweep_counts_degenerate_trials_apart():
    # (8, 2) at q = 18, C = 3: 95 of the 100 colorings leave no rainbow member
    cfg = TwoRoundConfig(q=18, C=3.0, epsilon1=0.1, seed=3, params=PowerParams(8, 2))
    got = omega_sweep(cfg, [2, 4, 6, 8, 10, 12], 100)
    assert {row["degenerate"] for row in got["rows"]} == {95}
    assert got["rows"] == sweep_oracle(cfg, [2, 4, 6, 8, 10, 12], 100)
    assert all(row["failure_rate"] == row["failures"] / 5 for row in got["rows"])
    # counted as failures, the empty colorings fitted c = 0.918 to a flat 0.95
    assert not got["fit"]["available"]


def test_sweep_of_degenerate_trials_has_no_rates_and_no_fit():
    # q = 6 < r = 7: no coloring leaves a rainbow member
    cfg = TwoRoundConfig(q=6, C=4.0, epsilon1=0.5, seed=3, params=PowerParams(7, 1))
    got = omega_sweep(cfg, [1, 2, 3], 12)
    assert got["rows"] == [
        {"omega": w, "trials": 12, "degenerate": 12, "failures": 0, "failure_rate": None, "mean_bad": None}
        for w in (1, 2, 3)
    ]
    assert got["fit"] == {
        "c": None,
        "available": False,
        "reason": "all 12 trials are degenerate: no coloring left a rainbow member",
    }


def test_sweep_refuses_empty_or_bad_omegas_and_trials():
    for omegas, trials in (([], 5), ([0, 1], 5), ([1, 2], 0)):
        with pytest.raises(InputError):
            omega_sweep(staged_config(), omegas, trials)


def test_sweep_failures_match_the_exact_average_over_w0():
    """Given trial i's coloring, its first round fails at omega with
    probability p_i(omega), the share of all m-subsets W0 that fail.  The
    sweep's failure count over the live trials then has mean sum p_i and
    variance sum p_i (1 - p_i), so its z-score is about standard normal when
    sample_w0, classification and the rule are right.  (6, 1), q = 7, C = 4:
    m = 10 of N = 15, 3,003 exposures per coloring; 19 of the 30 trials are
    live.  The size catches a W0 that is always the m lowest elements, not a
    W0 that never holds element 0."""
    cfg = TwoRoundConfig(q=7, C=4.0, epsilon1=0.1, seed=3, params=PowerParams(6, 1))
    omegas, trials = (1, 2, 3), 30
    hg = cfg.family()
    exposures = list(combinations(range(cfg.n_elements), cfg.m))
    assert len(exposures) == 3003
    probs = {omega: [] for omega in omegas}
    for i in range(trials):
        rng = make_rng(mix(cfg.seed, 0x7377_6565, i), 1)
        hstar = rainbow_subfamily(hg, random_coloring(cfg.n_elements, cfg.q, rng))
        if not hstar.edges:
            continue
        fails = dict.fromkeys(omegas, 0)
        for w0 in exposures:
            ells = [ell for _, _, ell in min_fragment_oracle(hstar, w0)]
            for omega in omegas:
                fails[omega] += 2 * sum(1 for ell in ells if ell >= omega) > len(ells)
        for omega in omegas:
            probs[omega].append(fails[omega] / len(exposures))
    rows = omega_sweep(cfg, omegas, trials)["rows"]
    assert len(probs[1]) == 19 and {row["degenerate"] for row in rows} == {11}
    for row in rows:
        p = probs[row["omega"]]
        var = sum(x * (1 - x) for x in p)
        assert var > 0
        z = (row["failures"] - sum(p)) / math.sqrt(var)
        assert abs(z) <= 4, (row["omega"], z)
