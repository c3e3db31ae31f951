"""Hamilton-power families, subgraph structure, and the counting bounds.

Every expected number here is recomputed in the test body from first
principles (raw permutation scans, BFS component counts, direct formula
evaluation) or is a frozen constant cross-checked by two routes.
"""

import hashlib
import json
import math
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from rainbowlab.errors import BudgetError, InputError
from rainbowlab.hampow import (
    AuditReport,
    AuditRow,
    PowerFamily,
    PowerParams,
    _batch_powers,
    _ends,
    _ExtensionCounter,
    _member_tallies,
    _merge,
    _order_bytes,
    _positions,
    _prop2_rows,
    _shape,
    audit_prop1,
    audit_prop2_reading_a,
    audit_prop2_reading_b,
    audit_structure,
    component_tally,
    enumerate_family,
    f_chain_bound,
    order_count,
    prop1_bound,
    prop2_bound,
)
from rainbowlab.hypergraph import (
    DISTINCT_SETS,
    LABELED_ORDERS,
    GroundSet,
    format_hypergraph_text,
    pair_id,
    pair_of,
)
from tests.test_hypergraph import count_superedges


def power_edge_set(order, k):
    """Sorted element ids of the k-th power of the given cyclic order, one
    order at a time: the oracle for the batch kernels."""
    n = len(order)
    PowerParams(n, k)
    if sorted(order) != list(range(n)):
        raise InputError("order must be a permutation of 0..n-1")
    ids = {pair_id(order[i], order[(i + j) % n]) for i in range(n) for j in range(1, k + 1)}
    assert len(ids) == k * n, "power must have exactly kn edges for n >= 2k+2"
    return tuple(sorted(ids))


def reading_b_tally(member, t):
    """The t-edge subgraphs of a member by component count, by brute force
    over its t-subsets: reading (b), the oracle of _member_tallies."""
    return dict(Counter(len(_merge(sub)) for sub in combinations(_ends(member), t)))


def itertools_orders(n):
    """The canonical cyclic orders of [n] by definition: first entry 0 and
    second entry < last entry, from raw permutations in lexicographic order."""
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


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
    assert order_count(2) == 0 and list(itertools_orders(2)) == []


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_canonical_orders_are_canonical_and_complete(n):
    orders = list(itertools_orders(n))
    assert len(orders) == order_count(n)
    assert len(set(orders)) == len(orders)
    for o in orders:
        assert o[0] == 0
        assert o[1] < o[-1]
        assert sorted(o) == list(range(n))


@pytest.mark.parametrize("n", range(3, 11))
def test_order_bytes_match_the_itertools_definition(n):
    assert _order_bytes(n) == bytes(x for order in itertools_orders(n) for x in order)


@pytest.mark.parametrize("n", range(11, 17))
def test_power_kernels_match_power_edge_set_up_to_16_vertices(n):
    # random canonical orders reach the byte limits the full families of
    # n <= 10 cannot: a*n + b up to 255 and pair_id + 1 up to 120
    rng = random.Random(n)
    orders = []
    for _ in range(300):
        rest = rng.sample(range(1, n), n - 1)
        orders.append((0, *(rest if rest[0] < rest[-1] else rest[::-1])))
    pos = _positions(bytes(x for order in orders for x in order), n)
    assert pos == [bytes(o.index(v) for o in orders) for v in range(n)]
    for k in range(1, (n - 2) // 2 + 1):
        assert _batch_powers(pos, n, k) == tuple(power_edge_set(o, k) for o in orders)


@pytest.mark.parametrize("k", [1, 2])
def test_ten_vertex_powers_match_power_edge_set_on_a_sample(k):
    fam = enumerate_family(PowerParams(10, k))
    for i in random.Random(10 + k).sample(range(len(fam.orders)), 2000):
        assert fam.order_sets[i] == power_edge_set(fam.orders[i], k)


def test_power_edge_set_matches_definition():
    for n, k in [(5, 1), (6, 2), (8, 3)]:
        for order in list(itertools_orders(n))[:20]:
            got = power_edge_set(order, k)
            assert got == raw_power_edges(order, k)
            assert len(got) == k * n


def test_power_edge_set_rejects_non_permutations():
    with pytest.raises(InputError):
        power_edge_set((0, 1, 2, 2, 4, 5), 1)
    with pytest.raises(InputError):
        power_edge_set((0, 1, 2), 1)  # n < 2k+2


@pytest.mark.parametrize("k", [0, -1])
def test_power_edge_set_refuses_k_below_one(k):
    with pytest.raises(InputError, match=f"power k must be >= 1, got {k}"):
        power_edge_set((0, 1, 2, 3), k)


def test_family_counts():
    assert len(enumerate_family(PowerParams(5, 1)).orders) == 12
    fam = enumerate_family(PowerParams(6, 2))
    assert len(fam.orders) == 60
    assert len(fam.edge_sets) == 15
    assert fam.collisions == 45
    fam61 = enumerate_family(PowerParams(6, 1))
    assert len(fam61.orders) == 60
    assert len(fam61.edge_sets) == 60


@pytest.mark.parametrize("n,k", [(7, 1), (7, 2), (8, 3), (10, 4)])
def test_edge_sets_are_the_sorted_distinct_powers(n, k):
    fam = enumerate_family(PowerParams(n, k))
    assert fam.edge_sets == tuple(sorted(set(fam.order_sets)))
    assert {id(e) for e in fam.edge_sets} <= {id(o) for o in fam.order_sets}


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
    assert list(fam.hypergraph(LABELED_ORDERS).masks) == [sum(1 << x for x in e) for e in want]
    for semantics in (DISTINCT_SETS, LABELED_ORDERS):  # each view is built once
        hg = fam.hypergraph(semantics)
        assert fam.hypergraph(semantics) is hg
        assert hg.transitive and hg.semantics == semantics


def test_views_share_the_family_tuples_unchecked(monkeypatch):
    # enumeration built and checked the powers, so a view takes them as they are
    import rainbowlab.hampow as hampow

    checked = []
    check_element = GroundSet.check_element

    def counting(self, x):
        checked.append(x)
        return check_element(self, x)

    monkeypatch.setattr(hampow, "_family_cache", {})
    fam = enumerate_family(PowerParams(7, 2))
    monkeypatch.setattr(GroundSet, "check_element", counting)
    assert fam.hypergraph(DISTINCT_SETS).edges is fam.edge_sets
    assert fam.hypergraph(LABELED_ORDERS).edges is fam.order_sets
    assert checked == []


def test_hypergraph_rejects_unknown_semantics():
    fam = enumerate_family(PowerParams(6, 2))
    for _ in range(2):  # the first refusal leaves nothing behind
        with pytest.raises(InputError):
            fam.hypergraph("distinct")


def test_each_order_power_is_computed_once(monkeypatch):
    # one batch-kernel call computes every order's power of a family
    import rainbowlab.hampow as hampow

    calls = []
    batch_powers = hampow._batch_powers

    def counting(buf, n, k):
        calls.append((n, k))
        return batch_powers(buf, n, k)

    monkeypatch.setattr(hampow, "_family_cache", {})
    monkeypatch.setattr(hampow, "_batch_powers", counting)
    fam = enumerate_family(PowerParams(7, 1))
    fam.hypergraph(LABELED_ORDERS).masks
    assert enumerate_family(PowerParams(7, 1)) is fam
    assert calls == [(7, 1)]
    assert len(fam.orders) == 360


BATCH_SIZES = (
    [(n, 1) for n in range(4, 10)] + [(n, 2) for n in range(6, 10)] + [(8, 3), (9, 3)]
)


@pytest.mark.parametrize("n,k", BATCH_SIZES)
def test_batch_kernel_matches_power_edge_set(n, k):
    fam = enumerate_family(PowerParams(n, k))
    assert fam.orders == tuple(itertools_orders(n))
    assert fam.order_sets == tuple(power_edge_set(o, k) for o in fam.orders)


def test_orders_are_shared_across_k():
    assert enumerate_family(PowerParams(7, 1)).orders is enumerate_family(PowerParams(7, 2)).orders


def test_enumeration_stops_past_16_vertices_whatever_the_budget(monkeypatch):
    import rainbowlab.hampow as hampow

    def enumerating(*args, **kwargs):
        raise AssertionError("enumeration started past its byte range")

    monkeypatch.setattr(hampow, "_order_bytes", enumerating)
    with pytest.raises(BudgetError, match="n <= 16"):
        enumerate_family(PowerParams(17, 1), budget=10**20)


def test_audits_never_enumerate_orders(monkeypatch):
    import rainbowlab.hampow as hampow

    def enumerating(*args, **kwargs):
        raise AssertionError("an audit enumerated the canonical orders")

    monkeypatch.setattr(hampow, "enumerate_family", enumerating)
    monkeypatch.setattr(hampow, "_order_bytes", enumerating)
    audit_prop1(7, 1)
    assert audit_structure(8, 2).ok
    assert audit_prop2_reading_a(9, 1).ok


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
        shape = _shape(_ends(set(ids)))
        assert shape == bfs_components(ids)
        assert sum(e for e, _ in shape) == len(ids)
        assert len(shape) == len(bfs_components(ids))
        assert sum(v for _, v in shape) == len({x for e in ids for x in pair_of(e)})


def test_components_random_subsets():
    rng = random.Random(42)
    for n in (8, *range(12, 21)):  # edge slots of K_8 and of K_12..K_20
        for _ in range(50):
            ids = rng.sample(range(n * (n - 1) // 2), rng.randint(1, n))
            ids += rng.choices(ids, k=rng.randint(0, 3))  # a repeated id counts once
            shape = _shape(_ends(set(ids)))
            assert shape == bfs_components(set(ids))
            assert sum(e for e, _ in shape) == len(set(ids))
            assert len(shape) == len(bfs_components(set(ids)))
            assert sum(v for _, v in shape) == len({x for e in ids for x in pair_of(e)})


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


def test_prop2_bound_past_the_float_range_is_inf():
    # (4e)^300 is about 10^311: the power itself overflows, and at t = 200,
    # c = 200 the product does
    assert prop2_bound(1, 300, 1) == math.inf
    assert prop2_bound(1, 200, 200) == math.inf
    assert prop2_bound(1, 200, 1) == pytest.approx((4 * math.e) ** 200 * 400)


def test_prop2_rows_past_the_float_range_decide_on_logs():
    # the bound at t = 300, c = 1 is (4e)^300 * 600, about 10^313.7
    log_bound = 300 * math.log(4 * math.e) + math.log(600)
    under, over = 10**313, 10**314
    assert math.log(under) < log_bound < math.log(over)
    rows = [row for cnt in (under, over) for row in _prop2_rows(894, 1, 300, {1: cnt})]
    assert [(r.c, r.bound, r.passed) for r in rows] == [(1, math.inf, True), (1, math.inf, False)]
    data = [r.to_json() for r in rows]
    assert [d["bound"] for d in data] == [None, None]
    assert json.loads(json.dumps(data)) == data  # plain JSON, no Infinity token
    # a finite bound keeps its float and the exact comparison
    (row,) = _prop2_rows(22, 1, 1, {1: 22})
    assert row.to_json()["bound"] == 8 * math.e and not row.passed


def test_prop1_audit_past_the_float_range():
    # the t = 1 bound (2k)^2 (n-2)! passes the float range at n = 171
    rep = audit_prop1(171, 57)
    (row,) = rep.rows
    assert row.bound == math.inf and row.to_json()["bound"] is None
    assert row.passed and rep.ok
    assert rep.checked == math.comb(171, 2)  # every pair lies within distance 57 somewhere


# ----------------------------------------------------------------------------
# extension counts

def test_count_extensions_single_edge_n9():
    fam = enumerate_family(PowerParams(9, 1))
    edge = (pair_id(0, 1),)
    assert count_superedges(fam.hypergraph(LABELED_ORDERS), edge) == 5040  # (n-2)! orders of the rest
    assert count_superedges(fam.hypergraph(DISTINCT_SETS), edge) == 5040  # k=1: sets and orders coincide for n >= 5


def test_count_extensions_brute_force_n6():
    labeled = enumerate_family(PowerParams(6, 1)).hypergraph(LABELED_ORDERS)
    orders = list(itertools_orders(6))
    for t_ids in list(combinations(range(15), 2))[:40]:
        want = sum(1 for o in orders if set(t_ids) <= set(power_edge_set(o, 1)))
        assert count_superedges(labeled, t_ids) == want


def test_count_extensions_distinct_vs_orders_n6_k2():
    fam = enumerate_family(PowerParams(6, 2))
    edge = (pair_id(0, 1),)
    # every one of the 15 sets uses 12 of the 15 slots: each slot is in 12 sets
    assert count_superedges(fam.hypergraph(DISTINCT_SETS), edge) == 12
    assert count_superedges(fam.hypergraph(LABELED_ORDERS), edge) == 48  # 60 orders spread 4-to-1 over the 15 sets


def test_count_extensions_empty_subgraph_counts_everything():
    fam = enumerate_family(PowerParams(6, 2))
    assert count_superedges(fam.hypergraph(LABELED_ORDERS), ()) == 60
    assert count_superedges(fam.hypergraph(DISTINCT_SETS), ()) == 15


# ----------------------------------------------------------------------------
# component tallies (the two readings)

def test_component_tally_reading_a_matches_brute_force():
    for n, k in [(7, 1), (9, 2), (10, 3)]:
        member = power_edge_set(next(itertools_orders(n)), k)
        for t_set in (member[:3], member[-4:], member[::3][:4]):
            t = len(t_set)
            tally = component_tally(t_set)
            want = {}
            for size in range(1, t + 1):
                for sub in combinations(t_set, size):
                    c = len(bfs_components(sub))
                    want[c] = want.get(c, 0) + 1
            assert tally == want, (n, k, t_set)
            assert sum(tally.values()) == 2**t - 1


def dihedral_class(sub, n):
    """The least sorted image of sub under every rotation and reflection of Z_n."""
    pairs = [pair_of(e) for e in sub]
    return min(
        tuple(sorted(pair_id((s * a + x) % n, (s * b + x) % n) for a, b in pairs))
        for x in range(n)
        for s in (1, -1)
    )


@pytest.mark.parametrize("n,k", [(12, 1), (9, 2), (12, 2)])
def test_reading_a_tallies_once_per_class(monkeypatch, n, k):
    # a class is a linear forest's path lengths at k = 1, else a dihedral
    # orbit; each is tallied once, on its first subset in walk order
    import rainbowlab.hampow as hampow

    calls = []

    def counting(*args):
        calls.append(args)
        return component_tally(*args)

    monkeypatch.setattr(hampow, "component_tally", counting)
    audit_prop2_reading_a(n, k)
    member = power_edge_set(tuple(range(n)), k)
    firsts = {}
    for t in range(1, n // (3 * k) + 1):
        for sub in combinations(member, t):
            key = tuple(bfs_components(sub)) if k == 1 else dihedral_class(sub, n)
            firsts.setdefault(key, sub)
    assert len(firsts) > 1
    assert calls == [(sub,) for sub in firsts.values()]


def test_component_tally_reading_b_matches_brute_force():
    cases = [
        (next(itertools_orders(6)), 1, 2),
        ((0, 2, 4, 1, 6, 3, 5), 1, 3),
        ((0, 3, 1, 6, 2, 5, 4), 2, 3),
        (tuple(range(8)), 3, 2),
    ]
    for order, k, t in cases:
        member = power_edge_set(order, k)
        tally = reading_b_tally(member, t)
        want = {}
        for sub in combinations(member, t):
            c = len(bfs_components(sub))
            want[c] = want.get(c, 0) + 1
        assert tally == want, (order, k, t)
        assert sum(tally.values()) == math.comb(k * len(order), t)


def test_member_tallies_match_brute_force():
    # every t <= min(5, kn), past t_max, so that the sweep meets more states
    for k in (1, 2, 3):
        for n in range(2 * k + 2, 2 * k + 11):
            member = power_edge_set(tuple(range(n)), k)
            t_top = min(5, k * n)
            tallies = _member_tallies(n, k, t_top)
            assert tallies[0] == {}
            for t in range(1, t_top + 1):
                assert tallies[t] == reading_b_tally(member, t), (n, k, t)


def test_member_tallies_match_the_cycle_closed_form():
    # k=1: t edges of C_n with c components in (n/c) C(t-1, c-1) C(n-t-1, c-1) ways
    for n in range(4, 61):
        tallies = _member_tallies(n, 1, n // 3)
        for t in range(1, n // 3 + 1):
            want = {
                c: n * math.comb(t - 1, c - 1) * math.comb(n - t - 1, c - 1) // c
                for c in range(1, t + 1)
            }
            assert tallies[t] == {c: cnt for c, cnt in want.items() if cnt}, (n, t)


@pytest.mark.parametrize("n,cells", [(50, 2), (100, 5)])
def test_audit_prop2_reading_b_scales_to_n_100(n, cells):
    rep = audit_prop2_reading_b([n], 1)
    assert len(rep.violations) == cells
    assert rep.checked == sum(math.comb(n, t) for t in range(1, n // 3 + 1))


# ----------------------------------------------------------------------------
# structure checks

def structure_rows(monkeypatch, sub, k):
    """audit_structure's rows for one subgraph, from the rows_of it hands _audit."""
    import rainbowlab.hampow as hampow

    monkeypatch.setattr(hampow, "_audit", lambda name, n, k, budget, rows_of: rows_of)
    return audit_structure(3 * k + 4, k)(sub, bfs_components(sub), 1)


def test_structure_check_flags_dense_component(monkeypatch):
    # triangle at k=1: one component with e=3 > kv - (2k-1) = 2
    triangle = (pair_id(0, 1), pair_id(1, 2), pair_id(0, 2))
    (row,) = structure_rows(monkeypatch, triangle, 1)
    assert not row.passed
    assert (row.t, row.c, row.exact, row.bound) == (3, 1, 3, 2.0)


def test_structure_check_bound_is_tight_for_paths(monkeypatch):
    # a path with e edges spans e+1 vertices: e = kv - (2k-1) exactly at k=1
    path = tuple(pair_id(i, i + 1) for i in range(4))
    (row,) = structure_rows(monkeypatch, path, 1)
    assert row.passed
    assert (row.t, row.c, row.exact, row.bound) == (4, 1, 4, 4.0)


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
        assert f_chain_bound(n, k, t) == pytest.approx(2 * want)


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


def test_audit_budget_caps_the_work():
    # (8, 1) walks C(8,1) + C(8,2) = 36 subgraphs of a member
    assert audit_prop1(8, 1, budget=36).ok
    with pytest.raises(BudgetError, match="walks 36"):
        audit_prop1(8, 1, budget=35)
    # (12, 2) walks 24 + 276 = 300; the placement search needs more than 1 node
    with pytest.raises(BudgetError, match="placement search"):
        audit_prop1(12, 2, budget=301)


# ----------------------------------------------------------------------------
# the audits against enumeration

def enumerating_audit(name, n, k, budget, rows_of):
    """The audit loop as it was before placement counting, kept as the
    oracle: count the members over every small subset of every member
    (orders for prop1, distinct edge sets otherwise), keep the first row of
    largest exact per (t, c) and every failing row, in discovery order."""
    params = PowerParams(n, k)
    family = enumerate_family(params, budget=budget)
    counts = {}
    for edge_set in family.order_sets if name == "prop1" else family.edge_sets:
        for t in range(1, params.t_max + 1):
            for sub in combinations(edge_set, t):
                counts[sub] = counts.get(sub, 0) + 1
    worst = {}
    violations = []
    for sub, cnt in counts.items():
        for row in rows_of(sub, bfs_components(sub), cnt):
            if not row.passed:
                violations.append(row)
            prev = worst.get((row.t, row.c))
            if prev is None or row.exact > prev.exact:
                worst[(row.t, row.c)] = row
    rows = tuple(worst[key] for key in sorted(worst))
    return AuditReport(name=name, rows=rows, violations=tuple(violations), checked=len(counts))


ORACLE_SIZES = [(n, 1) for n in range(4, 10)] + [(n, 2) for n in range(6, 10)]


@pytest.mark.parametrize("n,k", ORACLE_SIZES)
def test_audits_match_enumeration(monkeypatch, n, k):
    import rainbowlab.hampow as hampow

    for audit in (audit_prop1, audit_structure, audit_prop2_reading_a):
        got = audit(n, k).to_json()
        with monkeypatch.context() as m:
            m.setattr(hampow, "_audit", enumerating_audit)
            want = audit(n, k).to_json()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), (audit, n, k)


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(6, 9)])
def test_violations_keep_their_multiplicity(monkeypatch, n, k):
    # without the (2k)^{2t} factor the bound fails: at k=1 on every
    # subgraph with c >= 2 components, at k=2 already on single edges
    import rainbowlab.hampow as hampow

    bound = hampow.prop1_bound

    def tightened(n, k, t, c):
        return bound(n, k, t, c) - 2 * t * math.log(2 * k)

    monkeypatch.setattr(hampow, "prop1_bound", tightened)
    got = audit_prop1(n, k)
    monkeypatch.setattr(hampow, "_audit", enumerating_audit)
    want = audit_prop1(n, k)
    assert want.violations
    assert Counter(got.violations) == Counter(want.violations)
    assert got.rows == want.rows and got.checked == want.checked


def test_audit_row_rule_largest_exact_then_smallest_bound():
    import rainbowlab.hampow as hampow

    def rows_of(sub, *_):
        return [AuditRow(7, 1, 1, 1, len(sub), float(sum(sub)), True)]

    rep = hampow._audit("rule", 7, 1, 10**6, rows_of)
    member = power_edge_set(tuple(range(7)), 1)
    assert rep.rows == (AuditRow(7, 1, 1, 1, 2, float(min(map(sum, combinations(member, 2)))), True),)


def test_k1_walk_reads_each_shape_off_its_key(monkeypatch):
    # a k = 1 class is keyed by its paths' vertex counts, which fix its
    # shape, so _shape never runs; count runs once per class: at (15, 1)
    # the classes are the 18 partitions of t = 1..5 into path lengths
    import rainbowlab.hampow as hampow

    def shaping(ends):
        raise AssertionError("the k = 1 walk ran _shape")

    counted = []
    count = hampow._ExtensionCounter.__call__

    def counting(self, sub, *rest):
        counted.append(sub)
        return count(self, sub, *rest)

    monkeypatch.setattr(hampow, "_shape", shaping)
    monkeypatch.setattr(hampow._ExtensionCounter, "__call__", counting)
    audit_prop1(15, 1)
    assert len(counted) == len(set(counted)) == 18


def test_k2_walk_shapes_each_class_once(monkeypatch):
    # at k >= 2 the dihedral key does not fix the shape; _shape runs once
    # per class, on the class's first subset in walk order
    import rainbowlab.hampow as hampow

    calls = []
    shape = hampow._shape

    def counting(ends):
        calls.append(sorted(ends))
        return shape(ends)

    monkeypatch.setattr(hampow, "_shape", counting)
    audit_prop1(12, 2)
    member = power_edge_set(tuple(range(12)), 2)
    firsts = {}
    for t in range(1, 3):
        for sub in combinations(member, t):
            firsts.setdefault(dihedral_class(sub, 12), sub)
    masks = [sorted((1 << u) | (1 << v) for u, v in map(pair_of, sub)) for sub in firsts.values()]
    assert len(masks) > 1
    assert calls == masks


@pytest.mark.parametrize("n,k", [(18, 2), (27, 3)])
def test_placement_budget_stops_the_walk(monkeypatch, n, k):
    # three-component subgraphs pass the default budget; the walk must stop
    # at the first class whose count does, not key every subset first
    import rainbowlab.hampow as hampow

    keyed = []
    key = hampow._dihedral_key

    def counting(*args):
        keyed.append(1)
        return key(*args)

    monkeypatch.setattr(hampow, "_dihedral_key", counting)
    with pytest.raises(BudgetError, match="placement search"):
        audit_prop1(n, k)
    walk = sum(math.comb(k * n, t) for t in range(1, n // (3 * k) + 1))
    assert 0 < len(keyed) < walk


def _random_member_subsets(n, k, sizes, draws, seed):
    member = power_edge_set(tuple(range(n)), k)
    rng = random.Random(seed)
    for _ in range(draws):
        yield tuple(sorted(rng.sample(member, rng.choice(sizes))))


@pytest.mark.parametrize("n,k", [(8, 1), (9, 1), (7, 2), (8, 2), (9, 2)])
def test_extension_counts_match_enumeration(n, k):
    labeled = enumerate_family(PowerParams(n, k)).hypergraph(LABELED_ORDERS)
    count = _ExtensionCounter(n, k, budget=10**7)
    sizes = range(1, n - 1) if k == 1 else range(1, 5)
    for sub in _random_member_subsets(n, k, sizes, 60, seed=n * 10 + k):
        assert count(sub, bfs_components(sub)) == count_superedges(labeled, sub), sub


def test_k1_closed_form_matches_placement_search():
    for n in range(4, 13):
        count = _ExtensionCounter(n, 1, budget=10**8)
        for sub in _random_member_subsets(n, 1, range(1, n), 40, seed=n):
            shape = bfs_components(sub)
            searched = count._pinned_placements([pair_of(e) for e in sub])
            v = sum(v for _, v in shape)
            assert count(sub, shape) == searched * math.factorial(n - v) // 2, (n, sub)


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
    # past enumeration, where one class of subsets under the automorphisms
    # of the identity power holds many subsets
    ("prop1", 15, 1): "adf755563c2faef05fffb9505385463aed741b89f5519633d80f3d1e5b5837ee",
    ("structure", 15, 1): "16b28c6b231f93a1b6545ae006abbc0c366a66e3be180ae1dfb264810080463c",
    ("prop2a", 15, 1): "e1a2fc704ad5470790745d27f0dd38dc3542c25adcd1a50e68bcd0de02abdfb6",
    ("prop1", 12, 2): "04bea4f8874f97c543fa8331dbec36c7e59dc44999f875aa4263f0384ce93da8",
    ("structure", 12, 2): "d83d7bdc7e3ea7719ac002f6e3cae496e5e87b5a2969ba768bf528f4da1c1184",
    ("prop2a", 12, 2): "4f5612ebb98e4631f1753afbc219765101af87fd61f38273baef42bbaee62658",
    ("prop1", 17, 2): "9145260b796578690264c02cd7b27f85166fa5e6635381deb6827c8f2f6dcb43",
    ("structure", 17, 2): "16cf7f914ee106ff5508349597210b814056dac706e52162eab758e8f8a6897a",
    ("prop2a", 17, 2): "8ccfaac56284fe39da647f57d12b7fb5e6f021cec75cedd2308f343e8c08a041",
    ("prop1", 18, 3): "e9475bd1dc4a65c587d81693058c38f4de6b634d34d4b8a15ca2e5ecad7ec872",
    ("structure", 18, 3): "1395a11823649bdb6a2835d84d2d5b5ab66787864065e20c99ab4e88a077c281",
    ("prop2a", 18, 3): "73c55ab753b2d8cd23d5399a0113a886c37afb253c060db2278b9f2bcd29ef8b",
}

READING_B_DIGESTS = {
    (range(4, 23), 1): "639888c7e3e67128d6973e5c124f219776ef99d23a8b9a436489e64ec482b1d6",
    (range(6, 25), 2): "54cd3337e56ca89dd41739ebb225f173c644962f78ac21a44d158c8d5aa79ce8",
}

AUDITS = {"prop1": audit_prop1, "structure": audit_structure, "prop2a": audit_prop2_reading_a}


@pytest.mark.parametrize("name,n,k", sorted(AUDIT_DIGESTS))
def test_audit_json_is_frozen(name, n, k):
    data = AUDITS[name](n, k).to_json()
    assert data["audit"] == name
    assert _digest(json.dumps(data, sort_keys=True)) == AUDIT_DIGESTS[(name, n, k)]


@pytest.mark.parametrize("n_values,k", list(READING_B_DIGESTS), ids=["k1", "k2"])
def test_audit_prop2_reading_b_json_is_frozen(n_values, k):
    data = audit_prop2_reading_b(n_values, k).to_json()
    assert data["checked"] == sum(
        math.comb(k * n, t) for n in n_values for t in range(1, n // (3 * k) + 1)
    )
    assert _digest(json.dumps(data, sort_keys=True)) == READING_B_DIGESTS[(n_values, k)]


def test_labeled_family_text_is_frozen():
    fam = enumerate_family(PowerParams(6, 2))
    text = format_hypergraph_text(fam.hypergraph(LABELED_ORDERS))
    assert _digest(text) == "70aba3499e41df6d36d8e0e0892d54b8cd4957204708da59bd5d5e53f27e1543"


FAMILY_TEXT_DIGESTS = {
    (9, 1, DISTINCT_SETS): "a0304dab484890afc1595f5e607a1f3808d6e2a3a5b9bc90cc0a2e7eab643df2",
    (9, 1, LABELED_ORDERS): "2b3aee5d8d5dbe8a0eb6c141649264443725206bc02dad55c9d5e96f673dbbba",
    (9, 2, DISTINCT_SETS): "b0fd68de5b329775561e87c3467cabcd2b991a75eec7dd96042c7ca90b2c9ec8",
    (9, 2, LABELED_ORDERS): "12d29ded842b70ad3444cb5953cb83b80be5abef7a67b326330f271dea2169ff",
    (8, 3, DISTINCT_SETS): "f37c67c411555a29ad1dfeaeeedca4d0882a64ba48cb00c7de933dcda2855963",
    (8, 3, LABELED_ORDERS): "0a4868c078b03c85fca15b0a176b7de8d79ae247b0c9de23f441dce3b459a079",
}


@pytest.mark.parametrize("n,k,semantics", list(FAMILY_TEXT_DIGESTS))
def test_family_text_is_frozen(n, k, semantics):
    text = format_hypergraph_text(enumerate_family(PowerParams(n, k)).hypergraph(semantics))
    assert _digest(text) == FAMILY_TEXT_DIGESTS[(n, k, semantics)]
