"""Ground-set indexing, spread, intersection profiles, and the text format.

Expected values are either recomputed in-test by brute force over explicit
permutations, or frozen small constants checked by hand.
"""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab.errors import InputError
from rainbowlab.hypergraph import (
    DISTINCT_SETS,
    LABELED_ORDERS,
    GroundSet,
    Hypergraph,
    _mask_of,
    alpha_cut,
    format_hypergraph_text,
    intersection_profile,
    max_profile,
    pair_id,
    pair_of,
    read_hypergraph_text,
    required_k0,
    spread_up_to,
)


def count_superedges(hg, elements):
    """Number of members containing every given element (multiplicity
    counted): the oracle for spread witnesses.  The empty set is contained
    in everything, so count_superedges(hg, ()) is the family size."""
    smask = _mask_of(elements, hg.ground)
    return sum(1 for m in hg.masks if m & smask == smask)


def cycle_edge_sets(n):
    """All Hamilton cycle edge sets of K_n, by brute force over permutations."""
    seen = set()
    for perm in permutations(range(n)):
        edges = frozenset(
            pair_id(min(perm[i], perm[(i + 1) % n]), max(perm[i], perm[(i + 1) % n]))
            for i in range(n)
        )
        seen.add(edges)
    return sorted(tuple(sorted(e)) for e in seen)


def cycle_family(n):
    ground = GroundSet(n * (n - 1) // 2)
    return Hypergraph(ground, tuple(cycle_edge_sets(n)), r=n, semantics=DISTINCT_SETS)


# ----------------------------------------------------------------------------
# pair indexing

def test_pair_id_is_colex():
    assert pair_id(0, 1) == 0
    assert pair_id(0, 2) == 1
    assert pair_id(1, 2) == 2
    assert pair_id(0, 3) == 3


def test_pair_id_symmetric():
    assert pair_id(4, 2) == pair_id(2, 4)


@given(st.integers(min_value=0, max_value=5000))
def test_pair_roundtrip(eid):
    u, v = pair_of(eid)
    assert u < v
    assert pair_id(u, v) == eid


def test_pair_id_rejects_loops():
    with pytest.raises(InputError):
        pair_id(3, 3)


# ----------------------------------------------------------------------------
# construction

def test_edges_are_sorted_and_deduplicated_drops_nothing_silently():
    g = GroundSet(6)
    hg = Hypergraph(g, ((2, 0, 1), (3, 4, 5)), r=3, semantics=DISTINCT_SETS)
    assert hg.edges[0] == (0, 1, 2)
    with pytest.raises(InputError):
        Hypergraph(g, ((0, 1, 2), (2, 1, 0)), r=3, semantics=DISTINCT_SETS)


def test_edge_arity_checked():
    g = GroundSet(6)
    with pytest.raises(InputError):
        Hypergraph(g, ((0, 1),), r=3, semantics=DISTINCT_SETS)


def test_masks_match_edges():
    hg = cycle_family(5)
    for edge, mask in zip(hg.edges, hg.masks):
        assert mask == sum(1 << e for e in edge)


@pytest.mark.parametrize(
    "hg",
    [
        cycle_family(5),
        read_hypergraph_text("6 3 2\n0 1\n0 1\n4 5\n", LABELED_ORDERS),
        read_hypergraph_text("4 0 2\n"),
    ],
)
def test_incidence_is_the_transpose_of_masks(hg):
    assert len(hg.incidence) == hg.ground.size
    for x, inc in enumerate(hg.incidence):
        assert inc == sum(1 << j for j, edge in enumerate(hg.edges) if x in edge)


# ----------------------------------------------------------------------------
# counting and spread

def test_count_superedges_empty_set_is_family_size():
    hg = cycle_family(5)
    assert count_superedges(hg, ()) == 12


def test_count_superedges_single_element_n5():
    # 12 cycles, 5 edges each, 10 slots: every slot lies in 12*5/10 = 6
    hg = cycle_family(5)
    for e in range(10):
        assert count_superedges(hg, (e,)) == 6


def test_count_superedges_path_of_two_edges_n7():
    # orders fixing 0-1-2 as a path: remaining 4 vertices in any order on one
    # side, times 2 directions, counted on distinct sets: 4! = 24
    hg = cycle_family(7)
    s = (pair_id(0, 1), pair_id(1, 2))
    assert count_superedges(hg, s) == 24


def test_count_superedges_brute_force_cross_check_n6():
    hg = cycle_family(6)
    for s_size in (1, 2, 3):
        for s in combinations(range(15), s_size):
            expected = sum(1 for edge in hg.edges if set(s) <= set(edge))
            assert count_superedges(hg, s) == expected


@settings(max_examples=40)
@given(st.data())
def test_count_superedges_antitone_in_s(data):
    hg = cycle_family(6)
    small = data.draw(st.sets(st.integers(0, 14), max_size=3))
    extra = data.draw(st.sets(st.integers(0, 14), max_size=3))
    big = small | extra
    assert count_superedges(hg, tuple(big)) <= count_superedges(hg, tuple(small))


def test_spread_n5_cycles():
    rep = spread_up_to(cycle_family(5), 1)
    assert rep.kappa_s == pytest.approx(2.0)
    assert rep.family_size == 12
    assert rep.witness_count == 6


def test_spread_n7_cycles():
    rep = spread_up_to(cycle_family(7), 1)
    assert rep.kappa_s == pytest.approx(3.0)  # 360 / 120


def test_spread_single_edge_family_is_one():
    g = GroundSet(4)
    hg = Hypergraph(g, ((0, 1, 2, 3),), r=4, semantics=DISTINCT_SETS)
    rep = spread_up_to(hg, 4)
    assert rep.kappa_s == pytest.approx(1.0)


def test_spread_considers_only_covered_subsets():
    # element 5 lies in no member: it must not produce a zero-count constraint
    g = GroundSet(6)
    hg = Hypergraph(g, ((0, 1), (0, 2), (3, 4)), r=2, semantics=DISTINCT_SETS)
    rep = spread_up_to(hg, 2)
    assert rep.kappa_s > 0


def test_spread_smax_zero_rejected():
    with pytest.raises(InputError):
        spread_up_to(cycle_family(5), 0)


def test_spread_witness_attains_kappa():
    hg = cycle_family(6)
    rep = spread_up_to(hg, 2)
    count = count_superedges(hg, rep.witness)
    assert count == rep.witness_count
    assert (rep.family_size / count) ** (1 / len(rep.witness)) == pytest.approx(rep.kappa_s)


# ----------------------------------------------------------------------------
# intersection profiles

def test_profile_n5_matches_hand_count():
    hg = cycle_family(5)
    for i in range(12):
        prof = intersection_profile(hg, i)
        assert prof == (1, 0, 5, 5, 0, 1)
        assert sum(prof) == 12
        assert sum(t * f for t, f in enumerate(prof)) == 30


def test_profile_single_edge():
    g = GroundSet(4)
    hg = Hypergraph(g, ((0, 1, 2, 3),), r=4, semantics=DISTINCT_SETS)
    assert intersection_profile(hg, 0) == (0, 0, 0, 0, 1)


def test_profile_two_disjoint_edges():
    g = GroundSet(6)
    hg = Hypergraph(g, ((0, 1, 2), (3, 4, 5)), r=3, semantics=DISTINCT_SETS)
    assert intersection_profile(hg, 0) == (1, 0, 0, 1)


def test_max_profile_is_pointwise_max():
    hg = cycle_family(6)
    fmax = max_profile(hg)
    for t in range(hg.r + 1):
        assert fmax[t] == max(intersection_profile(hg, i)[t] for i in range(len(hg.edges)))


def test_alpha_cut_handles_float_boundaries():
    assert alpha_cut(1 / 3, 6) == 2  # (1/3)*6 rounds down to 1 without the nudge
    assert alpha_cut(1 / 3, 5) == 1
    assert alpha_cut(0.5, 7) == 3


def test_required_k0_n5():
    hg = cycle_family(5)
    rep = required_k0(hg, kappa=2.0, alpha=1 / 3)
    # t runs to alpha_cut(1/3, 5) = 1; fmax_1 = 0 so no constraint from t=1
    assert rep.t_cut == 1
    assert rep.k0_min == {1: None}
    assert rep.fmax[2] == 5


def test_required_k0_constraint_binds():
    hg = cycle_family(6)
    rep = required_k0(hg, kappa=2.5, alpha=0.5)
    assert rep.t_cut == 3
    m = rep.family_size
    for t in range(1, rep.t_cut + 1):
        if rep.fmax[t] == 0:
            assert rep.k0_min[t] is None
        else:
            # exact reconstruction: K0_min(t) = kappa * (fmax_t / M)^(1/t)
            assert rep.k0_min[t] == pytest.approx(2.5 * (rep.fmax[t] / m) ** (1 / t))


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
def test_required_k0_rejects_kappa_outside_the_positive_floats(kappa):
    with pytest.raises(InputError, match="kappa must be positive and finite"):
        required_k0(cycle_family(5), kappa=kappa, alpha=0.5)


def test_required_k0_rejects_empty_family():
    g = GroundSet(4)
    hg = Hypergraph(g, (), r=2, semantics=DISTINCT_SETS)
    with pytest.raises(InputError):
        required_k0(hg, kappa=1.0, alpha=0.5)


# ----------------------------------------------------------------------------
# text format

def test_text_roundtrip():
    hg = cycle_family(5)
    text = format_hypergraph_text(hg)
    back = read_hypergraph_text(text, semantics=DISTINCT_SETS)
    assert back.edges == hg.edges
    assert back.r == hg.r
    assert back.ground.size == hg.ground.size


def test_text_header():
    hg = cycle_family(5)
    first = format_hypergraph_text(hg).splitlines()[0]
    assert first == "10 12 5"


def test_reader_skips_comments_and_blanks():
    text = "# family\n\n4 2 2\n0 1\n\n2 3\n"
    hg = read_hypergraph_text(text, semantics=DISTINCT_SETS)
    assert hg.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line"),
        ("4 1\n0 1", "header"),
        ("4 1 2\n0 1 2", "line 2"),
        ("4 1 2\n0 9", "line 2"),
        ("4 1 2\n1 0", "line 2"),
        ("4 2 2\n0 1", "expected 2"),
        ("4 1 2\nzero one", "line 2"),
    ],
)
def test_reader_rejects_malformed_with_line_numbers(text, fragment):
    with pytest.raises(InputError) as err:
        read_hypergraph_text(text, semantics=DISTINCT_SETS)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# family\n\n4 1 2\n  0 x \n", "line 4: non-integer token in '0 x'"),
        ("\nN M r\n", "line 2: non-integer token in 'N M r'"),
        ("4 1 2\n# edge\n0 1 2\n", "line 3: expected 2 ids, got 3"),
    ],
)
def test_reader_messages_count_skipped_lines(text, message):
    with pytest.raises(InputError) as err:
        read_hypergraph_text(text)
    assert str(err.value) == message
