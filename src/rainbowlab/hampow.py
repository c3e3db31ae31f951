"""k-th powers of Hamilton cycles: enumeration, counting bounds, structure audits.

The k-th power of a cyclic order (v_0, ..., v_{n-1}) of [n] joins each vertex
to its k nearest successors around the cycle, giving exactly kn edges once
n >= 2k+2 (below that the power degenerates toward K_n).  Cyclic orders are
canonicalized up to rotation and reflection: first entry 0, second entry less
than last.  There are (n-1)!/2 canonical orders; distinct orders can generate
the same edge set (a collision), so the family carries both the labeled
multiset of orders and the deduplicated edge sets.

The bound functions (prop1_bound, prop2_bound, f_chain_bound) are the
desk-scale evaluations of the extension-count bound, the component-count
bound, and the intersection-ratio chain that combines them; the audit drivers
compare each against exhaustive exact counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, InputError
from .hypergraph import (
    DISTINCT_SETS,
    GroundSet,
    Hypergraph,
    pair_id,
    pair_of,
)

DEFAULT_ORDER_BUDGET = 1_000_000

__all__ = [
    "DEFAULT_ORDER_BUDGET",
    "PowerParams",
    "PowerFamily",
    "SubgraphStats",
    "ExtensionCount",
    "StructureReport",
    "ChainBound",
    "AuditRow",
    "AuditReport",
    "order_count",
    "canonical_orders",
    "power_edge_set",
    "enumerate_family",
    "components_of",
    "prop1_bound",
    "prop2_bound",
    "count_extensions",
    "component_tally",
    "structure_check",
    "f_chain_bound",
    "audit_prop1",
    "audit_structure",
    "audit_prop2_reading_a",
    "audit_prop2_reading_b",
]


@dataclass(frozen=True)
class PowerParams:
    """Vertex count n and power k, with r = kn edges per member."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"power k must be >= 1, got {self.k}")
        if self.n < 2 * self.k + 2:
            raise InputError(
                f"need n >= 2k+2 = {2 * self.k + 2} so the power is not complete, got n={self.n}"
            )

    @property
    def r(self) -> int:
        return self.k * self.n

    @property
    def ground_size(self) -> int:
        return self.n * (self.n - 1) // 2

    def ground(self) -> GroundSet:
        return GroundSet(self.ground_size, n_vertices=self.n)

    @property
    def t_max(self) -> int:
        """Largest subgraph size admitted by the counting bounds: floor(n/3k)."""
        return self.n // (3 * self.k)


def order_count(n: int) -> int:
    """Number of canonical cyclic orders of [n]: (n-1)!/2."""
    return math.factorial(n - 1) // 2


def canonical_orders(n: int) -> Iterator[tuple[int, ...]]:
    """All cyclic orders with first entry 0 and second entry < last entry."""
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


def power_edge_set(order: Sequence[int], k: int) -> tuple[int, ...]:
    """Sorted element ids of the k-th power of the given cyclic order."""
    n = len(order)
    if n < 2 * k + 2:
        raise InputError(f"need n >= 2k+2 = {2 * k + 2}, got n={n}")
    if sorted(order) != list(range(n)):
        raise InputError("order must be a permutation of 0..n-1")
    ids = set()
    for i in range(n):
        a = order[i]
        for j in range(1, k + 1):
            ids.add(pair_id(a, order[(i + j) % n]))
    assert len(ids) == k * n, "power must have exactly kn edges for n >= 2k+2"
    return tuple(sorted(ids))


@dataclass(frozen=True)
class PowerFamily:
    """All canonical orders of [n] together with their (deduplicated) powers.

    order_sets[i] is the power of orders[i]; edge_sets holds each distinct
    power once, sorted, sharing its tuple with order_sets.
    """

    params: PowerParams
    orders: tuple[tuple[int, ...], ...]
    order_sets: tuple[tuple[int, ...], ...]
    edge_sets: tuple[tuple[int, ...], ...]
    collisions: int

    @cached_property
    def order_masks(self) -> tuple[int, ...]:
        return tuple(_mask(e) for e in self.order_sets)

    @cached_property
    def set_masks(self) -> tuple[int, ...]:
        return tuple(_mask(e) for e in self.edge_sets)

    def hypergraph(self, semantics: str = DISTINCT_SETS) -> Hypergraph:
        edges = self.edge_sets if semantics == DISTINCT_SETS else self.order_sets
        return Hypergraph(self.params.ground(), edges, self.params.r, semantics)


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for x in ids:
        m |= 1 << x
    return m


_family_cache: dict[tuple[int, int], PowerFamily] = {}


def enumerate_family(params: PowerParams, budget: int = DEFAULT_ORDER_BUDGET) -> PowerFamily:
    """Enumerate every canonical order and its power, deduplicating edge sets.

    Results for small (n, k) are memoized; the budget guards the (n-1)!/2
    blowup before any work happens.
    """
    total = order_count(params.n)
    if total > budget:
        raise BudgetError(
            f"family ({params.n}, {params.k}) has {total} canonical orders, "
            f"over the enumeration budget {budget}"
        )
    key = (params.n, params.k)
    cached = _family_cache.get(key)
    if cached is not None:
        return cached

    orders = tuple(canonical_orders(params.n))
    order_sets = tuple(power_edge_set(o, params.k) for o in orders)
    distinct = sorted(set(order_sets))
    fam = PowerFamily(
        params=params,
        orders=orders,
        order_sets=order_sets,
        edge_sets=tuple(distinct),
        collisions=total - len(distinct),
    )
    if total <= 400_000:
        _family_cache[key] = fam
    return fam


# ----------------------------------------------------------------------------
# subgraph structure

@dataclass(frozen=True)
class SubgraphStats:
    """Edge count, component count (isolated vertices ignored), vertex support."""

    t: int
    c: int
    v: int


def components_of(edge_ids: Iterable[int]) -> tuple[SubgraphStats, list[tuple[int, int]]]:
    """Component stats of the graph formed by the given K_n edge slots.

    Returns the overall stats and a per-component list of (edges, vertices).
    """
    ids = sorted(set(edge_ids))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_edges: dict[int, int] = {}
    pairs = [pair_of(e) for e in ids]
    for u, v in pairs:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    for u, v in pairs:
        root = find(u)
        comp_edges[root] = comp_edges.get(root, 0) + 1
    comp_verts: dict[int, int] = {}
    for x in parent:
        comp_verts[find(x)] = comp_verts.get(find(x), 0) + 1

    per_comp = sorted((comp_edges[root], comp_verts[root]) for root in comp_edges)
    stats = SubgraphStats(t=len(ids), c=len(per_comp), v=len(parent))
    return stats, per_comp


# ----------------------------------------------------------------------------
# bounds

def _check_t_range(params_n: int, k: int, t: int) -> None:
    if t < 1:
        raise InputError(f"subgraph size t must be >= 1, got {t}")
    if 3 * k * t > params_n:
        raise InputError(f"t={t} exceeds n/3k = {params_n}/{3 * k}")


def prop1_bound(n: int, k: int, t: int, c: int) -> float:
    """Log of the extension-count bound (2k)^{2t} * (n - ceil((t+(2k-1)c)/k) + c - 1)!.

    Bounds how many cyclic orders have a power containing a fixed t-edge
    subgraph with c components.  Valid for t <= n/3k.
    """
    PowerParams(n, k)  # validates n, k
    _check_t_range(n, k, t)
    if not 1 <= c <= t:
        raise InputError(f"component count c must be in 1..t={t}, got {c}")
    d = -((t + (2 * k - 1) * c) // -k)  # ceil division
    arg = n - d + c - 1
    if arg < 0:
        raise InputError(f"factorial argument negative at n={n} k={k} t={t} c={c}")
    return 2 * t * math.log(2 * k) + math.log(math.factorial(arg))


def prop2_bound(k: int, t: int, c: int) -> float:
    """Component-count bound (4ke)^t * C(2t, c); zero when c > 2t."""
    if k < 1:
        raise InputError(f"power k must be >= 1, got {k}")
    if t < 1:
        raise InputError(f"subgraph size t must be >= 1, got {t}")
    if c < 1:
        raise InputError(f"component count c must be >= 1, got {c}")
    return (4 * k * math.e) ** t * math.comb(2 * t, c)


@dataclass(frozen=True)
class ExtensionCount:
    """Exact counts of members containing a fixed subgraph, both semantics.

    orders counts canonical cyclic orders (the labeled multiset the bound
    audits divide by); distinct_sets counts deduplicated edge sets.
    """

    orders: int
    distinct_sets: int


def count_extensions(family: PowerFamily, edge_ids: Iterable[int]) -> ExtensionCount:
    tmask = 0
    ground = family.params.ground()
    for x in edge_ids:
        ground.check_element(x)
        tmask |= 1 << x
    orders = sum(1 for m in family.order_masks if m & tmask == tmask)
    distinct = sum(1 for m in family.set_masks if m & tmask == tmask)
    return ExtensionCount(orders=orders, distinct_sets=distinct)


def component_tally(edge_ids: Sequence[int], t: int, reading: str) -> dict[int, int]:
    """Tally subgraph counts by component count under the chosen reading.

    reading "a": edge_ids is itself the fixed t-edge subgraph; tally its
    nonempty edge-subsets (any size) by component count.
    reading "b": edge_ids is the host member; tally its t-edge subgraphs by
    component count.
    """
    ids = tuple(sorted(set(edge_ids)))
    tally: dict[int, int] = {}
    if reading == "a":
        if len(ids) != t:
            raise InputError(
                f"reading (a) takes the t-edge subgraph itself; got {len(ids)} edges for t={t}"
            )
        for size in range(1, t + 1):
            for sub in combinations(ids, size):
                stats, _ = components_of(sub)
                tally[stats.c] = tally.get(stats.c, 0) + 1
    elif reading == "b":
        if t < 1 or t > len(ids):
            raise InputError(f"t={t} out of range for a host with {len(ids)} edges")
        for sub in combinations(ids, t):
            stats, _ = components_of(sub)
            tally[stats.c] = tally.get(stats.c, 0) + 1
    else:
        raise InputError(f"reading must be 'a' or 'b', got {reading!r}")
    return tally


@dataclass(frozen=True)
class StructureReport:
    """Per-component edge/vertex balance for a subgraph of a member.

    Each component with e edges and v vertices must satisfy
    e <= k*v - (2k-1), and summing gives t <= k*v_total - (2k-1)*c.
    """

    stats: SubgraphStats
    per_component: tuple[tuple[int, int], ...]
    component_ok: tuple[bool, ...]
    overall_ok: bool

    @property
    def ok(self) -> bool:
        return self.overall_ok and all(self.component_ok)


def structure_check(
    edge_ids: Sequence[int],
    params: PowerParams,
    family: PowerFamily | None = None,
    budget: int = DEFAULT_ORDER_BUDGET,
) -> StructureReport:
    """Verify the edge/vertex balance for a subgraph of some member power.

    Raises InputError when the subgraph extends to no member (the balance is
    only claimed for genuine subgraphs of k-th powers).
    """
    ids = tuple(sorted(set(edge_ids)))
    if not ids:
        raise InputError("structure check needs at least one edge")
    _check_t_range(params.n, params.k, len(ids))
    if family is None:
        family = enumerate_family(params, budget=budget)
    if count_extensions(family, ids).orders == 0:
        raise InputError(f"edges {ids} extend to no member of the ({params.n}, {params.k}) family")
    return _structure_report(ids, params.k)


def _structure_report(ids: Sequence[int], k: int) -> StructureReport:
    stats, per_comp = components_of(ids)
    comp_ok = tuple(e <= k * v - (2 * k - 1) for e, v in per_comp)
    overall = stats.t <= k * stats.v - (2 * k - 1) * stats.c
    return StructureReport(
        stats=stats,
        per_component=tuple(per_comp),
        component_ok=comp_ok,
        overall_ok=overall,
    )


@dataclass(frozen=True)
class ChainBound:
    """Closed-form chain value for the intersection ratio f_t / |H|, with the
    exact labeled-orders ratio alongside when enumeration is affordable."""

    n: int
    k: int
    t: int
    value: float
    exact_ratio: float | None


def f_chain_bound(
    n: int,
    k: int,
    t: int,
    budget: int | None = DEFAULT_ORDER_BUDGET,
) -> ChainBound:
    """Evaluate 2 * sum_c (16k^3 e)^t C(2t,c) (e/(n-1))^{d-c} ((n-d+c-1)/(n-1))^{n-d+c-1}
    with d = ceil((t+(2k-1)c)/k), summed over c = 1..t, in log space.

    This is the closed-form bound on the share of members meeting a fixed
    member in exactly t elements.  When the family fits in the order budget
    the exact share is computed from labeled-order enumeration for comparison
    (the bound can be off by a large factor at small t; both numbers are
    reported and interpretation is left to the caller).
    """
    PowerParams(n, k)
    _check_t_range(n, k, t)
    total = 0.0
    for c in range(1, t + 1):
        d = -((t + (2 * k - 1) * c) // -k)
        m_ = n - d + c - 1
        log_term = (
            t * math.log(16 * k**3 * math.e)
            + math.log(math.comb(2 * t, c))
            + (d - c) * (1 - math.log(n - 1))
        )
        if m_ > 0:
            log_term += m_ * math.log(m_ / (n - 1))
        total += math.exp(log_term)
    value = 2 * total

    exact = None
    if budget is not None and order_count(n) <= budget:
        fam = enumerate_family(PowerParams(n, k), budget=budget)
        base = fam.order_masks[0]
        hits = sum(1 for m in fam.order_masks if (m & base).bit_count() == t)
        exact = hits / len(fam.orders)
    return ChainBound(n=n, k=k, t=t, value=value, exact_ratio=exact)


# ----------------------------------------------------------------------------
# audits

@dataclass(frozen=True)
class AuditRow:
    n: int
    k: int
    t: int
    c: int
    exact: int
    bound: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "c": self.c,
            "exact": self.exact,
            "bound": self.bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class AuditReport:
    """Aggregated audit rows (worst exact count per cell) plus raw violations."""

    name: str
    rows: tuple[AuditRow, ...]
    violations: tuple[AuditRow, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "audit": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "rows": [r.to_json() for r in self.rows],
            "violations": [r.to_json() for r in self.violations],
        }


def _audit(
    name: str,
    n: int,
    k: int,
    budget: int,
    labeled: bool,
    rows_of: Callable[[tuple[int, ...], int], Iterable[AuditRow]],
) -> AuditReport:
    """Shared skeleton of the subgraph audits.

    Counts, for every subgraph T of a member with |T| <= floor(n/3k), the
    members containing it (orders when labeled, else edge sets), and asks
    rows_of(T, count) for T's rows.  The report keeps the worst (largest
    exact) row per (t, c) cell and every failing row, in discovery order.
    """
    params = PowerParams(n, k)
    family = enumerate_family(params, budget=budget)
    counts: dict[tuple[int, ...], int] = {}
    for edge_set in family.order_sets if labeled else family.edge_sets:
        for t in range(1, params.t_max + 1):
            for sub in combinations(edge_set, t):
                counts[sub] = counts.get(sub, 0) + 1
    worst: dict[tuple[int, int], AuditRow] = {}
    violations: list[AuditRow] = []
    for sub, cnt in counts.items():
        for row in rows_of(sub, cnt):
            if not row.passed:
                violations.append(row)
            prev = worst.get((row.t, row.c))
            if prev is None or row.exact > prev.exact:
                worst[(row.t, row.c)] = row
    rows = tuple(worst[key] for key in sorted(worst))
    return AuditReport(name=name, rows=rows, violations=tuple(violations), checked=len(counts))


def _prop2_rows(n: int, k: int, t: int, tally: dict[int, int]) -> Iterator[AuditRow]:
    """One row per component count c of a tally, against the component-count bound."""
    for c, cnt in sorted(tally.items()):
        bound = prop2_bound(k, t, c)
        yield AuditRow(n, k, t, c, cnt, bound, cnt <= bound)


def audit_prop1(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Exhaustively compare extension counts against the extension-count bound.

    Covers every subgraph T of the ground set with |T| <= floor(n/3k): those
    contained in no member have count 0 and pass vacuously, so only subgraphs
    of members need exact counting.
    """

    def rows_of(sub, cnt):
        stats, _ = components_of(sub)
        bound = math.exp(prop1_bound(n, k, stats.t, stats.c))
        return [AuditRow(n, k, stats.t, stats.c, cnt, bound, cnt <= bound)]

    return _audit("prop1", n, k, budget, True, rows_of)


def audit_structure(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Exhaustive edge/vertex balance check over all subgraphs of all members."""

    def rows_of(sub, _cnt):
        rep = _structure_report(sub, k)
        stats = rep.stats
        # "exact" records the subgraph size, "bound" the balance ceiling.
        bound = float(k * stats.v - (2 * k - 1) * stats.c)
        return [AuditRow(n, k, stats.t, stats.c, stats.t, bound, rep.ok)]

    return _audit("structure", n, k, budget, False, rows_of)


def audit_prop2_reading_a(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Reading (a): for each subgraph T of a member, every tally of T's own
    edge-subsets by component count must sit under the bound at t = |T|."""

    def rows_of(sub, _cnt):
        return _prop2_rows(n, k, len(sub), component_tally(sub, len(sub), "a"))

    return _audit("prop2a", n, k, budget, False, rows_of)


def audit_prop2_reading_b(n_values: Iterable[int], k: int) -> AuditReport:
    """Reading (b): count t-edge subgraphs of one member by component count.

    Member powers are vertex-transitive, so one member per (n, k) represents
    them all; the identity order's power is used.  All (t, c) cells are
    reported and violations listed -- this reading genuinely fails at desk
    scale (first at n=22, k=1, t=1, c=1, where a cycle has n single-edge
    subgraphs against a bound just under 22).
    """
    n_values = sorted(set(n_values))
    if not n_values:
        raise InputError("reading (b) needs at least one n to audit")
    rows: list[AuditRow] = []
    checked = 0
    for n in n_values:
        params = PowerParams(n, k)
        member = power_edge_set(tuple(range(n)), k)
        for t in range(1, params.t_max + 1):
            tally = component_tally(member, t, "b")
            checked += sum(tally.values())
            rows.extend(_prop2_rows(n, k, t, tally))
    violations = [row for row in rows if not row.passed]
    return AuditReport(
        name="prop2b", rows=tuple(rows), violations=tuple(violations), checked=checked
    )
