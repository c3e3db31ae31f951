"""Rainbow-count moments, exact and sampled.

The anchor oracle enumerates every coloring of a four-element ground set and
computes the moments by direct counting; the larger cycle-family values are
frozen constants recomputed here per ordered pair with local arithmetic.
"""

import json
import math
import multiprocessing
import threading
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import pytest

import rainbowlab.rainbow as rainbow
from rainbowlab.errors import BudgetError, InputError
from rainbowlab.hampow import PowerParams, enumerate_family
from rainbowlab.hypergraph import (
    DISTINCT_SETS,
    LABELED_ORDERS,
    Hypergraph,
    format_hypergraph_text,
    read_hypergraph_text,
    required_k0,
)
from rainbowlab.rainbow import (
    Coloring,
    default_color_count,
    empirical_moments,
    exact_second_moment,
    expected_rainbow_count,
    falling,
    rainbow_subfamily,
    random_coloring,
)
from rainbowlab.seeding import make_rng
from rainbowlab.threshold import ExperimentConfig, format_csv, run_grid
from tests.test_hypergraph import cycle_family
from tests.test_threshold import FORKS


def tiny_family():
    g = 4
    return Hypergraph(g, ((0, 1), (1, 2), (2, 3)), r=2, semantics=DISTINCT_SETS)


def ff(a, b):
    out = 1
    for i in range(b):
        out *= a - i
    return out


# ----------------------------------------------------------------------------
# falling factorial and palette sizing

def test_falling_known_values():
    assert falling(6, 3) == 120
    assert falling(6, 0) == 1
    assert falling(3, 5) == 0
    assert falling(0, 0) == 1


def test_falling_rejects_negative_depth():
    with pytest.raises(InputError):
        falling(5, -1)


def test_default_color_count():
    assert default_color_count(10, 0.1) == 11
    assert default_color_count(5, 0.5) == 8
    assert default_color_count(5, 1e-9) == 6  # strictly more than r
    # 1.1 * 50 is 55.00000000000001 and 1.1 * 90 is 99.00000000000001
    assert default_color_count(50, 0.1) == 55
    assert default_color_count(90, 0.1) == 99


def test_default_color_count_is_the_exact_ceiling_at_a_tenth():
    assert [default_color_count(r, 0.1) for r in range(5001)] == [-(-11 * r // 10) for r in range(5001)]


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
def test_default_color_count_needs_a_positive_finite_slack(eps):
    with pytest.raises(InputError, match="epsilon1 must be positive and finite"):
        default_color_count(5, eps)


# ----------------------------------------------------------------------------
# colorings and the rainbow subfamily

def test_coloring_validation():
    Coloring((0, 1, 2), 3)
    with pytest.raises(InputError):
        Coloring((0, 3), 3)
    with pytest.raises(InputError):
        Coloring((0, -1), 3)


def test_random_coloring_is_seed_deterministic():
    a = random_coloring(10, 4, make_rng(3))
    b = random_coloring(10, 4, make_rng(3))
    assert a.colors == b.colors
    assert len(a) == 10


def test_rainbow_subfamily_by_hand():
    hg = tiny_family()
    col = Coloring((0, 1, 1, 0), 2)
    sub = rainbow_subfamily(hg, col)
    # (0,1): colors 0,1 ok; (1,2): 1,1 no; (2,3): 1,0 ok
    assert sub.edges == ((0, 1), (2, 3))


def test_rainbow_subfamily_checks_length():
    hg = tiny_family()
    with pytest.raises(InputError):
        rainbow_subfamily(hg, Coloring((0, 1), 2))


def test_rainbow_subfamily_keeps_duplicates_under_labeled_orders():
    g = 4
    hg = Hypergraph(g, ((0, 1), (0, 1), (2, 3)), r=2, semantics=LABELED_ORDERS)
    sub = rainbow_subfamily(hg, Coloring((0, 1, 0, 1), 2))
    assert sub.edges == ((0, 1), (0, 1), (2, 3))


# ----------------------------------------------------------------------------
# exact moments: exhaustive oracle on the tiny family

def test_moments_match_exhaustive_enumeration():
    hg = tiny_family()
    q = 3
    z_sum, z2_sum, total = 0, 0, 0
    for colors in product(range(q), repeat=4):
        z = sum(1 for e in hg.edges if colors[e[0]] != colors[e[1]])
        z_sum += z
        z2_sum += z * z
        total += 1
    want_ez = Fraction(z_sum, total)
    want_ez2 = Fraction(z2_sum, total)

    assert expected_rainbow_count(3, q, 2) == want_ez
    stats = exact_second_moment(hg, q)
    assert stats.e_z == want_ez
    assert stats.e_z2 == want_ez2
    assert stats.exact
    assert stats.ratio == pytest.approx(float(want_ez2 / want_ez**2))


def test_moments_cycle_family_frozen_values():
    hg = cycle_family(5)
    stats = exact_second_moment(hg, 6)
    assert stats.e_z == Fraction(10, 9)
    assert stats.e_z2 == Fraction(670, 243)
    assert stats.ratio == pytest.approx(float(Fraction(67, 30)))


def test_second_moment_recomputed_per_pair():
    # independent route: sum P(both rainbow) over all ordered member pairs
    hg = cycle_family(5)
    q, r = 6, 5
    masks = hg.masks
    want = Fraction(0)
    for mi in masks:
        for mj in masks:
            t = (mi & mj).bit_count()
            want += Fraction(ff(q, t) * ff(q - t, r - t) ** 2, q ** (2 * r - t))
    assert exact_second_moment(hg, q).e_z2 == want


def test_expected_rainbow_count_validation():
    with pytest.raises(InputError):
        expected_rainbow_count(-1, 3, 2)
    with pytest.raises(InputError):
        expected_rainbow_count(3, 0, 2)


def test_pair_budget_is_enforced():
    with pytest.raises(BudgetError):
        exact_second_moment(cycle_family(5), 6, pair_budget=10)


def test_large_palette_falls_back_to_float_path(monkeypatch):
    hg = tiny_family()
    exact = exact_second_moment(hg, 7)
    monkeypatch.setattr(rainbow, "_MAX_DENOMINATOR_BITS", 4)
    approx = exact_second_moment(hg, 7)
    assert not approx.exact
    assert float(approx.e_z2) == pytest.approx(float(exact.e_z2), rel=1e-9)


def test_float_path_writes_no_exact_second_moment(monkeypatch):
    hg = tiny_family()
    exact = exact_second_moment(hg, 7).to_json()
    monkeypatch.setattr(rainbow, "_MAX_DENOMINATOR_BITS", 4)
    approx = exact_second_moment(hg, 7).to_json()
    assert exact["exact"] is True
    assert exact["E_Z2_exact"] is not None
    assert approx["exact"] is False
    assert approx["E_Z2_exact"] is None
    assert approx["E_Z_exact"] == exact["E_Z_exact"]  # E(Z) stays exact


# ----------------------------------------------------------------------------
# power families: one base row stands for every pair

# n = 2k+2 (6,2) and (8,3) are the collision-heavy sizes
TRANSITIVE_SIZES = [(n, 1) for n in range(4, 9)] + [(6, 2), (7, 2), (8, 2), (8, 3)]


@pytest.mark.parametrize("semantics", [DISTINCT_SETS, LABELED_ORDERS])
@pytest.mark.parametrize("n,k", TRANSITIVE_SIZES)
def test_one_row_matches_the_pair_scan(n, k, semantics, monkeypatch):
    from rainbowlab import hypergraph

    marked = enumerate_family(PowerParams(n, k)).hypergraph(semantics)
    plain = Hypergraph(marked.n_elements, marked.edges, marked.r, semantics)
    assert marked.transitive and not plain.transitive
    # the marked view takes one profile row per call, the unmarked copy |H|
    rows = []
    row_of = hypergraph.intersection_profile

    def counting(hg, base_index):
        rows.append(hg.transitive)
        return row_of(hg, base_index)

    monkeypatch.setattr(hypergraph, "intersection_profile", counting)

    def rows_taken():
        taken = rows[:]
        rows.clear()
        return taken

    budget = len(plain) ** 2
    q = k * n + 2
    got = exact_second_moment(marked, q, pair_budget=budget).to_json()
    assert rows_taken() == [True]
    assert got == exact_second_moment(plain, q, pair_budget=budget).to_json()
    assert rows_taken() == [False] * len(plain)
    kappa = n ** (1 / k)
    got = asdict(required_k0(marked, kappa, 1 / 3, pair_budget=budget))
    assert rows_taken() == [True]
    want = asdict(required_k0(plain, kappa, 1 / 3, pair_budget=budget))
    assert rows_taken() == [False] * len(plain)
    assert json.dumps(got) == json.dumps(want)


def test_one_row_budget_counts_the_pairs_intersected():
    marked = enumerate_family(PowerParams(6, 1)).hypergraph(DISTINCT_SETS)
    assert exact_second_moment(marked, 8, pair_budget=60).e_z2
    with pytest.raises(BudgetError, match="needs 60 pair"):
        exact_second_moment(marked, 8, pair_budget=59)
    with pytest.raises(BudgetError, match="needs 3600 pair"):
        exact_second_moment(
            Hypergraph(marked.n_elements, marked.edges, marked.r, DISTINCT_SETS), 8, pair_budget=3599
        )


def test_subfamilies_and_text_input_are_not_marked():
    marked = enumerate_family(PowerParams(6, 2)).hypergraph(LABELED_ORDERS)
    coloring = random_coloring(marked.n_elements, 13, make_rng(5))
    assert not rainbow_subfamily(marked, coloring).transitive
    assert not read_hypergraph_text(format_hypergraph_text(marked), LABELED_ORDERS).transitive


@pytest.mark.parametrize("semantics", [DISTINCT_SETS, LABELED_ORDERS])
@pytest.mark.parametrize("n,k", TRANSITIVE_SIZES)
def test_view_equals_the_checked_hypergraph(n, k, semantics):
    view = enumerate_family(PowerParams(n, k)).hypergraph(semantics)
    assert view == Hypergraph(view.n_elements, view.edges, view.r, semantics)


@pytest.mark.parametrize("semantics", [DISTINCT_SETS, LABELED_ORDERS])
@pytest.mark.parametrize("n,k,q", [(7, 1, 14), (6, 2, 60)])
def test_rainbow_subfamily_matches_the_checked_filter(n, k, q, semantics):
    fam = enumerate_family(PowerParams(n, k))
    hg = fam.hypergraph(semantics)
    sizes, repeated = set(), False
    for seed in range(20):
        coloring = random_coloring(hg.n_elements, q, make_rng(seed))
        cols = coloring.colors
        kept = tuple(e for e in hg.edges if len({cols[x] for x in e}) == hg.r)
        got = rainbow_subfamily(hg, coloring)
        assert got == Hypergraph(hg.n_elements, kept, hg.r, semantics)
        assert not got.transitive
        sizes.add(len(got))
        repeated |= len(set(got.edges)) < len(got)
    assert len(sizes) > 2  # the colorings keep varied subfamilies
    # labeled orders keep every copy of a power that several orders share
    assert repeated == (semantics == LABELED_ORDERS and fam.collisions > 0)


def rainbow_by_hand(hg, colors):
    """The members whose r elements carry r distinct colors, one by one."""
    return tuple(e for e in hg.edges if len({colors[x] for x in e}) == hg.r)


def sampled_zs(hg, q, trials, seed):
    """Each trial's Z, read off the running sums of empirical_moments run
    for 1, 2, ..., trials trials."""
    sums = [round(empirical_moments(hg, q, t, seed).mc_mean * t) for t in range(1, trials + 1)]
    return [b - a for a, b in zip([0] + sums, sums)]


def zs_by_hand(hg, q, trials, seed):
    """Each trial's Z from its own make_rng(seed, stream, i) and the filter."""
    stream = rainbow._STREAM_COLORS
    colorings = (random_coloring(hg.n_elements, q, make_rng(seed, stream, i)) for i in range(trials))
    return [len(rainbow_by_hand(hg, c.colors)) for c in colorings]


@pytest.mark.parametrize("semantics", [DISTINCT_SETS, LABELED_ORDERS])
@pytest.mark.parametrize("n,k", [(6, 2), (7, 1), (8, 2)])
def test_the_mask_kernel_matches_a_per_member_filter(n, k, semantics):
    hg = enumerate_family(PowerParams(n, k)).hypergraph(semantics)
    # palettes below r, around r, and larger than the ground set
    for q in (hg.r - 1, hg.r + 1, 2 * hg.r, 3 * hg.n_elements):
        for seed in range(8):
            coloring = random_coloring(hg.n_elements, q, make_rng(seed, q))
            sub = rainbow_subfamily(hg, coloring)
            assert sub.edges == rainbow_by_hand(hg, coloring.colors)
            if q < hg.r:  # too few colors: the coloring leaves no member
                assert sub.edges == ()
        assert sampled_zs(hg, q, 12, 17 + q) == zs_by_hand(hg, q, 12, 17 + q)


TEXT_FAMILY = "7 5 3\n0 1 2\n1 2 3\n0 4 5\n2 3 5\n1 5 6\n"


@pytest.mark.parametrize(
    "hg,q",
    [
        (read_hypergraph_text(TEXT_FAMILY), 3),
        (read_hypergraph_text(TEXT_FAMILY), 40),
        (read_hypergraph_text(TEXT_FAMILY, LABELED_ORDERS), 4),
        # r = 1: every member is rainbow, even with one color
        (Hypergraph(5, ((0,), (2,), (3,), (4,)), r=1), 1),
        (Hypergraph(5, ((0,), (2,), (3,), (2,)), r=1, semantics=LABELED_ORDERS), 2),
        # one color leaves no member of a family with r >= 2
        (read_hypergraph_text(TEXT_FAMILY), 1),
        (read_hypergraph_text("4 0 2\n"), 2),
    ],
)
def test_the_mask_kernel_on_small_families(hg, q):
    for seed in range(10):
        coloring = random_coloring(hg.n_elements, q, make_rng(seed))
        sub = rainbow_subfamily(hg, coloring)
        assert sub.edges == rainbow_by_hand(hg, coloring.colors)
        if hg.r == 1:
            assert sub.edges == hg.edges
    if hg.edges:  # moments are undefined for an empty family
        assert sampled_zs(hg, q, 10, 5) == zs_by_hand(hg, q, 10, 5)


# ----------------------------------------------------------------------------
# Monte Carlo against the exact values

def test_empirical_moments_hit_exact_within_three_se():
    hg = cycle_family(5)
    rep = empirical_moments(hg, 6, trials=20_000, seed=101)
    assert abs(rep.mc_mean - float(rep.e_z)) <= 3 * rep.mc_se
    assert abs(rep.mc_mean_z2 - float(rep.e_z2)) <= 3 * rep.mc_se_z2


def test_empirical_moments_refuse_a_negative_pair_budget_before_sampling(monkeypatch):
    def no_sampling(*key):
        raise AssertionError("sampled before checking the pair budget")

    monkeypatch.setattr(rainbow, "trial_rngs", no_sampling)
    hg = cycle_family(6)
    with pytest.raises(InputError, match="pair budget must be >= 0, got -1"):
        empirical_moments(hg, 6, 50_000, 1, pair_budget=-1)


def test_empirical_moments_too_small_a_pair_budget_drops_only_the_exact_values():
    hg = cycle_family(5)
    small = empirical_moments(hg, 6, trials=200, seed=3, pair_budget=1)
    full = empirical_moments(hg, 6, trials=200, seed=3)
    assert small.e_z is None and small.e_z2 is None
    assert full.e_z is not None
    assert (small.mc_mean, small.mc_mean_z2) == (full.mc_mean, full.mc_mean_z2)


def test_empirical_moments_are_reproducible():
    hg = tiny_family()
    a = empirical_moments(hg, 3, trials=500, seed=7)
    b = empirical_moments(hg, 3, trials=500, seed=7)
    assert a.mc_mean == b.mc_mean
    assert a.mc_mean_z2 == b.mc_mean_z2
    c = empirical_moments(hg, 3, trials=500, seed=8)
    assert (a.mc_mean, a.mc_mean_z2) != (c.mc_mean, c.mc_mean_z2)


# ----------------------------------------------------------------------------
# sampling split over forked workers


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(rainbow, "_sampling_workers", lambda trials: workers)


def recorded_contexts(monkeypatch):
    """The start methods asked of multiprocessing.get_context from now on."""
    asked = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: asked.append(method) or get_context(method))
    return asked


def both_callers(monkeypatch, workers):
    """Sampled moments and a grid's CSV, each cut into `workers` blocks: the
    two callers of seeding._fan_out."""
    force_workers(monkeypatch, workers)
    grid = ExperimentConfig(n=6, k=1, q=8, trials=4, seed=5, m_grid=(8, 12), workers=workers)
    return empirical_moments(cycle_family(5), 6, 400, seed=3), format_csv(run_grid(grid))


@FORKS
@pytest.mark.parametrize(
    "n,k,semantics,q,trials",
    [
        (5, 1, DISTINCT_SETS, 6, 20_001),  # no worker count divides it
        (6, 2, LABELED_ORDERS, 13, 3_001),
        (5, 1, DISTINCT_SETS, 1000, 4_000),  # q above the ground set: _repeats' dict
        (5, 1, DISTINCT_SETS, 6, 2),  # fewer trials than workers
    ],
)
def test_the_worker_count_changes_no_output(monkeypatch, n, k, semantics, q, trials):
    hg = enumerate_family(PowerParams(n, k)).hypergraph(semantics)
    asked = recorded_contexts(monkeypatch)
    reports = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        reports.append(empirical_moments(hg, q, trials, seed=11).to_json())
    assert reports[1] == reports[0] == reports[2]
    assert asked == ["fork", "fork"]


@FORKS
def test_a_forked_sampling_run_leaves_no_worker_or_thread(monkeypatch):
    threads = threading.active_count()
    asked = recorded_contexts(monkeypatch)
    force_workers(monkeypatch, 2)
    empirical_moments(cycle_family(5), 6, 400, seed=3)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    # so the grid that follows still forks
    run_grid(ExperimentConfig(n=6, k=1, q=8, trials=2, seed=5, m_grid=(8,), workers=2))
    assert asked == ["fork", "fork"]


def test_empirical_moments_sample_in_process_beside_a_thread(monkeypatch):
    want = both_callers(monkeypatch, 1)
    asked = recorded_contexts(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        got = both_callers(monkeypatch, 2)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert asked == []
    assert got == want


@FORKS
def test_empirical_moments_sample_in_process_inside_a_daemon(monkeypatch):
    want = both_callers(monkeypatch, 1)
    fork = multiprocessing.get_context("fork")
    asked = recorded_contexts(monkeypatch)
    receive, send = fork.Pipe(duplex=False)

    def run():
        # the daemon inherits the recorder; it sends back its own copy of
        # asked, or what a pool refused it
        try:
            send.send((asked, both_callers(monkeypatch, 2)))
        except Exception as exc:
            send.send(repr(exc))

    child = fork.Process(target=run, daemon=True)
    child.start()
    try:
        assert receive.poll(30)
        got = receive.recv()
    finally:
        child.join(10)
        receive.close()
        send.close()
    assert not child.is_alive()
    assert got == ([], want)


def test_moment_report_json_shape():
    hg = tiny_family()
    rep = empirical_moments(hg, 3, trials=100, seed=1)
    data = rep.to_json()
    for key in ("M", "q", "r", "E_Z", "E_Z2", "ratio", "mc_mean", "mc_se", "trials", "seed"):
        assert key in data
