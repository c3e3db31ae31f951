"""Hamilton-power families, subgraph structure, and the counting bounds.

Every expected number here is recomputed in the test body from first
principles (raw permutation scans, BFS component counts, direct formula
evaluation) or is a frozen constant cross-checked by two routes.
"""

import hashlib
import json
import math
from itertools import combinations, permutations

import pytest

from rainbowlab.errors import BudgetError, InputError
from rainbowlab.hampow import (
    PowerFamily,
    PowerParams,
    _structure_report,
    audit_prop1,
    audit_prop2_reading_a,
    audit_prop2_reading_b,
    audit_structure,
    canonical_orders,
    component_tally,
    components_of,
    count_extensions,
    enumerate_family,
    f_chain_bound,
    order_count,
    power_edge_set,
    prop1_bound,
    prop2_bound,
    structure_check,
)
from rainbowlab.hypergraph import (
    DISTINCT_SETS,
    LABELED_ORDERS,
    format_hypergraph_text,
    pair_id,
    pair_of,
)


def raw_power_edges(order, k):
    """The defining edge set: all pairs at cyclic distance <= k."""
    n = len(order)
    out = set()
    for i in range(n):
        for j in range(1, k + 1):
            out.add(pair_id(order[i], order[(i + j) % n]))
    return tuple(sorted(out))


def bfs_components(edge_ids):
    adj = {}
    for e in edge_ids:
        u, v = pair_of(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, verts = [start], set()
        while stack:
            x = stack.pop()
            if x in verts:
                continue
            verts.add(x)
            stack.extend(adj[x] - verts)
        seen |= verts
        edges = sum(1 for e in edge_ids if set(pair_of(e)) <= verts)
        comps.append((edges, len(verts)))
    return sorted(comps)


# ----------------------------------------------------------------------------
# parameters and enumeration

def test_params_validation():
    PowerParams(6, 2)
    with pytest.raises(InputError):
        PowerParams(5, 2)  # n < 2k+2
    with pytest.raises(InputError):
        PowerParams(6, 0)


def test_order_count():
    assert order_count(5) == 12
    assert order_count(6) == 60
    assert order_count(7) == 360


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_canonical_orders_are_canonical_and_complete(n):
    orders = list(canonical_orders(n))
    assert len(orders) == order_count(n)
    assert len(set(orders)) == len(orders)
    for o in orders:
        assert o[0] == 0
        assert o[1] < o[-1]
        assert sorted(o) == list(range(n))


def test_power_edge_set_matches_definition():
    for n, k in [(5, 1), (6, 2), (8, 3)]:
        for order in list(canonical_orders(n))[:20]:
            got = power_edge_set(order, k)
            assert got == raw_power_edges(order, k)
            assert len(got) == k * n


def test_power_edge_set_rejects_non_permutations():
    with pytest.raises(InputError):
        power_edge_set((0, 1, 2, 2, 4, 5), 1)
    with pytest.raises(InputError):
        power_edge_set((0, 1, 2), 1)  # n < 2k+2


def test_family_counts():
    assert len(enumerate_family(PowerParams(5, 1)).orders) == 12
    fam = enumerate_family(PowerParams(6, 2))
    assert len(fam.orders) == 60
    assert len(fam.edge_sets) == 15
    assert fam.collisions == 45
    fam61 = enumerate_family(PowerParams(6, 1))
    assert len(fam61.orders) == 60
    assert len(fam61.edge_sets) == 60


def test_n6_k2_sets_are_matching_complements():
    # K6 squared-cycle edge sets are exactly the 15 complements of perfect
    # matchings, an independent description of the collision structure
    def matchings(verts):
        if not verts:
            yield frozenset()
            return
        a = verts[0]
        for i in range(1, len(verts)):
            b = verts[i]
            rest = verts[1:i] + verts[i + 1 :]
            for m in matchings(rest):
                yield m | {pair_id(a, b)}

    complements = {
        frozenset(range(15)) - m for m in matchings(tuple(range(6)))
    }
    fam = enumerate_family(PowerParams(6, 2))
    assert {frozenset(s) for s in fam.edge_sets} == complements


def test_enumeration_budget_is_checked_up_front():
    with pytest.raises(BudgetError):
        enumerate_family(PowerParams(12, 1), budget=1000)


def test_hypergraph_views():
    fam = enumerate_family(PowerParams(6, 2))
    assert len(fam.hypergraph(DISTINCT_SETS).edges) == 15
    assert len(fam.hypergraph(LABELED_ORDERS).edges) == 60
    want = [power_edge_set(o, 2) for o in fam.orders]
    assert list(fam.hypergraph(LABELED_ORDERS).edges) == want
    assert list(fam.order_masks) == [sum(1 << x for x in e) for e in want]


def test_hypergraph_rejects_unknown_semantics():
    fam = enumerate_family(PowerParams(6, 2))
    with pytest.raises(InputError):
        fam.hypergraph("distinct")


def test_each_order_power_is_computed_once(monkeypatch):
    import rainbowlab.hampow as hampow

    calls = []

    def counting(order, k):
        calls.append(order)
        return power_edge_set(order, k)

    monkeypatch.setattr(hampow, "_family_cache", {})
    monkeypatch.setattr(hampow, "power_edge_set", counting)
    fam = enumerate_family(PowerParams(7, 1))
    fam.hypergraph(LABELED_ORDERS)
    fam.order_masks
    audit_prop1(7, 1)
    assert len(calls) == len(fam.orders) == 360


# ----------------------------------------------------------------------------
# component structure

def test_components_against_bfs():
    cases = [
        (pair_id(0, 1),),
        (pair_id(0, 1), pair_id(2, 3)),
        (pair_id(0, 1), pair_id(1, 2), pair_id(3, 4), pair_id(4, 5)),
        tuple(pair_id(i, i + 1) for i in range(5)),
    ]
    for ids in cases:
        stats, per_comp = components_of(ids)
        assert per_comp == bfs_components(ids)
        assert stats.t == len(ids)
        assert stats.c == len(per_comp)
        assert stats.v == sum(v for _, v in per_comp)


def test_components_random_subsets():
    import random

    rng = random.Random(42)
    for _ in range(50):
        ids = tuple(rng.sample(range(28), rng.randint(1, 10)))  # slots of K8
        _, per_comp = components_of(ids)
        assert per_comp == bfs_components(ids)


# ----------------------------------------------------------------------------
# bounds

def test_prop1_bound_formula():
    # log((2k)^{2t} (n - ceil((t+(2k-1)c)/k) + c - 1)!)
    for n, k, t, c in [(6, 1, 1, 1), (9, 1, 3, 2), (12, 2, 2, 1), (15, 2, 2, 2)]:
        d = math.ceil((t + (2 * k - 1) * c) / k)
        want = 2 * t * math.log(2 * k) + math.lgamma(n - d + c - 1 + 1)
        assert prop1_bound(n, k, t, c) == pytest.approx(want)


def test_prop1_bound_hand_value():
    # n=6 k=1 t=1 c=1: 4 * 4! = 96
    assert math.exp(prop1_bound(6, 1, 1, 1)) == pytest.approx(96.0)


def test_prop1_bound_range_checks():
    with pytest.raises(InputError):
        prop1_bound(6, 1, 3, 1)  # t > n/3k
    with pytest.raises(InputError):
        prop1_bound(6, 1, 2, 3)  # c > t
    with pytest.raises(InputError):
        prop1_bound(6, 1, 0, 1)


def test_prop2_bound_values():
    assert prop2_bound(1, 1, 1) == pytest.approx(8 * math.e)
    assert prop2_bound(1, 2, 1) == pytest.approx((4 * math.e) ** 2 * 4)
    assert prop2_bound(2, 1, 2) == pytest.approx(8 * math.e)  # C(2,2) = 1
    assert prop2_bound(1, 1, 3) == 0.0  # c > 2t


# ----------------------------------------------------------------------------
# extension counts

def test_count_extensions_single_edge_n9():
    fam = enumerate_family(PowerParams(9, 1))
    ec = count_extensions(fam, (pair_id(0, 1),))
    assert ec.orders == 5040  # (n-2)! orders of the rest
    assert ec.distinct_sets == 5040  # k=1: sets and orders coincide for n >= 5


def test_count_extensions_brute_force_n6():
    fam = enumerate_family(PowerParams(6, 1))
    orders = list(canonical_orders(6))
    for t_ids in list(combinations(range(15), 2))[:40]:
        want = sum(1 for o in orders if set(t_ids) <= set(power_edge_set(o, 1)))
        assert count_extensions(fam, t_ids).orders == want


def test_count_extensions_distinct_vs_orders_n6_k2():
    fam = enumerate_family(PowerParams(6, 2))
    ec = count_extensions(fam, (pair_id(0, 1),))
    # every one of the 15 sets uses 12 of the 15 slots: each slot is in 12 sets
    assert ec.distinct_sets == 12
    assert ec.orders == 48  # 60 orders spread 4-to-1 over the 15 sets


def test_count_extensions_empty_subgraph_counts_everything():
    fam = enumerate_family(PowerParams(6, 2))
    ec = count_extensions(fam, ())
    assert ec.orders == 60
    assert ec.distinct_sets == 15


# ----------------------------------------------------------------------------
# component tallies (the two readings)

def test_component_tally_reading_a_matches_brute_force():
    order = next(canonical_orders(7))
    member = power_edge_set(order, 1)
    t_set = member[:3]
    tally = component_tally(t_set, 3, reading="a")
    want = {}
    for size in range(1, 4):
        for sub in combinations(t_set, size):
            c = components_of(sub)[0].c
            want[c] = want.get(c, 0) + 1
    assert tally == want


def test_component_tally_reading_a_requires_exact_size():
    with pytest.raises(InputError):
        component_tally((0, 1, 2), 2, reading="a")


def test_component_tally_reading_b_matches_brute_force():
    order = next(canonical_orders(6))
    member = power_edge_set(order, 1)
    tally = component_tally(member, 2, reading="b")
    want = {}
    for sub in combinations(member, 2):
        c = components_of(sub)[0].c
        want[c] = want.get(c, 0) + 1
    assert tally == want
    assert sum(tally.values()) == math.comb(6, 2)


# ----------------------------------------------------------------------------
# structure checks

def test_structure_check_passes_for_member_subsets():
    params = PowerParams(7, 1)
    fam = enumerate_family(params)
    member = fam.edge_sets[0]
    for size in (1, 2):
        for sub in list(combinations(member, size))[:10]:
            rep = structure_check(sub, params, family=fam)
            assert rep.ok


def test_structure_check_rejects_non_extendable():
    params = PowerParams(6, 1)
    fam = enumerate_family(params)
    triangle = (pair_id(0, 1), pair_id(1, 2), pair_id(0, 2))
    with pytest.raises(InputError):
        structure_check(triangle, params, family=fam)


def test_structure_report_flags_dense_component():
    # triangle at k=1: one component with e=3 > kv - (2k-1) = 2
    triangle = (pair_id(0, 1), pair_id(1, 2), pair_id(0, 2))
    rep = _structure_report(triangle, 1)
    assert not rep.ok
    assert tuple(rep.per_component) == ((3, 3),)


def test_structure_report_bound_is_tight_for_paths():
    # a path with e edges spans e+1 vertices: e = kv - (2k-1) exactly at k=1
    path = tuple(pair_id(i, i + 1) for i in range(4))
    rep = _structure_report(path, 1)
    assert rep.ok


# ----------------------------------------------------------------------------
# chain bound

def test_f_chain_bound_recomputed_directly():
    for n, k, t in [(9, 1, 2), (12, 2, 2), (10, 1, 3)]:
        want = 0.0
        for c in range(1, t + 1):
            d = math.ceil((t + (2 * k - 1) * c) / k)
            m_ = n - d + c - 1
            term = (
                (16 * k**3 * math.e) ** t
                * math.comb(2 * t, c)
                * (math.e / (n - 1)) ** (d - c)
            )
            if m_ > 0:
                term *= (m_ / (n - 1)) ** m_
            want += term
        got = f_chain_bound(n, k, t, budget=None)
        assert got.value == pytest.approx(2 * want)
        assert got.exact_ratio is None


def test_f_chain_exact_ratio_matches_profile():
    got = f_chain_bound(7, 1, 2, budget=10_000)
    fam = enumerate_family(PowerParams(7, 1))
    base = set(fam.edge_sets[0])
    hits = sum(1 for o in fam.orders if len(base & set(power_edge_set(o, 1))) == 2)
    assert got.exact_ratio == pytest.approx(hits / 360)


# ----------------------------------------------------------------------------
# audits

def test_audit_prop1_clean_small():
    rep = audit_prop1(6, 1)
    assert rep.ok
    assert rep.checked == 120  # 15 single slots + 105 co-extendable pairs
    assert rep.violations == ()


def test_audit_prop1_row_contents():
    rep = audit_prop1(6, 1)
    row = next(r for r in rep.rows if r.t == 1)
    assert row.c == 1
    assert row.exact == 24  # (n-2)! orders through a fixed edge
    assert row.bound == pytest.approx(96.0)
    assert row.passed


def test_audit_structure_clean_small():
    assert audit_structure(7, 1).ok
    assert audit_structure(7, 2).ok


def test_audit_prop2_reading_a_clean_small():
    assert audit_prop2_reading_a(7, 1).ok
    assert audit_prop2_reading_a(8, 2).ok


def test_audit_prop2_reading_b_finds_the_t1_breakdown():
    rep = audit_prop2_reading_b(range(4, 23), 1)
    assert not rep.ok
    assert len(rep.violations) == 1
    row = rep.violations[0]
    assert (row.n, row.k, row.t, row.c) == (22, 1, 1, 1)
    assert row.exact == 22
    assert row.bound == pytest.approx(8 * math.e)


def test_audit_prop2_reading_b_clean_below_22():
    rep = audit_prop2_reading_b(range(4, 22), 1)
    assert rep.ok


def test_audit_report_json_shape():
    rep = audit_prop1(6, 1)
    data = rep.to_json()
    assert data["ok"] is True
    assert {"n", "k", "t", "c", "exact", "bound", "pass"} <= set(data["rows"][0])


# ----------------------------------------------------------------------------
# frozen output bytes: SHA-256 of the canonical JSON, so a reordered row or
# violation list fails even where every cell still passes

def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


AUDIT_DIGESTS = {
    ("prop1", 8, 1): "5af97a5983078503de8e59ff9a039cdab13e7800f0f7c0a9cb754f30a923370a",
    ("prop1", 9, 1): "07851279e00835fe26dc9943ce25f10b7bd911e2635466c2da319a1096dba711",
    ("prop1", 7, 2): "6ededf051b0feb4928d9f630e1916d0d9c661dc85552f2b25391970a1cb122b1",
    ("prop1", 8, 2): "ecd894d43ee729b9efdb36ef7b94774be142a231bfcaf53176806303e39a499a",
    ("structure", 8, 1): "2a5aa5099e50c4a79641409b79a1ac8b0e4ccfb32d04b7cde4f0184623c93f28",
    ("structure", 9, 1): "a604382e4e036e056c57374a0db6e9364e8ed6a99c45029ae29c95845cb82439",
    ("structure", 7, 2): "8beceb1bf15d2bc466579393cc294ba670b06e8bd7ff54461ee9b4a703f60c45",
    ("structure", 8, 2): "dd108e3576f7948cbc36a421dc4909b3480cb52382a5749fe643a49b6035f3ee",
    ("prop2a", 8, 1): "5cb9225dee54341467679bf138bfeddb313f9982e053cab4c17a56bdd0840d3c",
    ("prop2a", 9, 1): "f19c680697684a7fe9d150421373a4b64e5f1b148a2e8ef57e1b7a27111a28be",
    ("prop2a", 7, 2): "cb9709d9f8cd58016ba46d0f92f8a5285a57d714d5cae8e8d88866b4db613400",
    ("prop2a", 8, 2): "ff05c1f2f1ce4a09c94686bd8def1676edee206e71e178e2edf2ace1bdfad266",
}

AUDITS = {"prop1": audit_prop1, "structure": audit_structure, "prop2a": audit_prop2_reading_a}


@pytest.mark.parametrize("name,n,k", sorted(AUDIT_DIGESTS))
def test_audit_json_is_frozen(name, n, k):
    data = AUDITS[name](n, k).to_json()
    assert data["audit"] == name
    assert _digest(json.dumps(data, sort_keys=True)) == AUDIT_DIGESTS[(name, n, k)]


def test_labeled_family_text_is_frozen():
    fam = enumerate_family(PowerParams(6, 2))
    text = format_hypergraph_text(fam.hypergraph(LABELED_ORDERS))
    assert _digest(text) == "70aba3499e41df6d36d8e0e0892d54b8cd4957204708da59bd5d5e53f27e1543"
