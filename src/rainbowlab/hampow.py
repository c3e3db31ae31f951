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
import struct
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress, islice, permutations
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, InputError
from .hypergraph import DISTINCT_SETS, GroundSet, Hypergraph, _view, pair_id, pair_of

DEFAULT_ORDER_BUDGET = 1_000_000

__all__ = [
    "DEFAULT_ORDER_BUDGET",
    "PowerParams",
    "PowerFamily",
    "AuditRow",
    "AuditReport",
    "order_count",
    "orders_fit",
    "enumerate_family",
    "prop1_bound",
    "prop2_bound",
    "component_tally",
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
        return GroundSet(self.ground_size)

    @property
    def t_max(self) -> int:
        """Largest subgraph size admitted by the counting bounds: floor(n/3k)."""
        return self.n // (3 * self.k)

    @property
    def kappa_hat(self) -> float:
        """The nominal spread n^(1/k)."""
        return self.n ** (1 / self.k)

    def exposure(self, C: float) -> int:
        """m = min(N, ceil(C * N / kappa_hat)) over the N = n(n-1)/2 edge slots
        of K_n.  The min comes before the ceiling, so a C whose product passes
        the float range gives m = N."""
        if not 0 < C < math.inf:
            raise InputError(f"exposure multiplier C must be positive and finite, got {C}")
        return math.ceil(min(self.ground_size, C * self.ground_size / self.kappa_hat))


def order_count(n: int) -> int:
    """Number of canonical cyclic orders of [n]: (n-1)!/2."""
    return math.factorial(n - 1) // 2


def orders_fit(n: int, budget: int) -> bool:
    """Whether enumerate_family can take the canonical orders of [n] within an
    enumeration budget >= 0: n is small enough and (n-1)!/2 <= budget."""
    if budget < 0:
        raise InputError(f"enumeration budget must be >= 0, got {budget}")
    return n <= _MAX_ENUMERATION_N and order_count(n) <= budget


@dataclass(frozen=True)
class PowerFamily:
    """All canonical orders of [n] together with their (deduplicated) powers.

    order_sets[i] is the power of orders[i]; edge_sets holds each distinct
    power once, sorted, sharing its tuple with order_sets.  Each hypergraph
    view is built once per family, and every caller shares it.
    """

    params: PowerParams
    orders: tuple[tuple[int, ...], ...]
    order_sets: tuple[tuple[int, ...], ...]
    edge_sets: tuple[tuple[int, ...], ...]
    collisions: int
    _views: dict[str, Hypergraph] = field(default_factory=dict, init=False, repr=False, compare=False)

    def hypergraph(self, semantics: str = DISTINCT_SETS) -> Hypergraph:
        """The family as a hypergraph, marked transitive: relabelling [n]
        carries any order, hence any power, to any other, under both
        semantics.  Its edges are edge_sets or order_sets itself, unchecked.
        Built on the first call per semantics; later calls return the same
        frozen object, and a bad semantics caches nothing."""
        if semantics not in self._views:
            edges = self.edge_sets if semantics == DISTINCT_SETS else self.order_sets
            self._views[semantics] = _view(self.params.ground(), edges, self.params.r, semantics, transitive=True)
        return self._views[semantics]


# the byte kernels need a vertex or position (< n) to leave room for the
# reject flag 128, a*n + b < n*n <= 256 for positions a, b, and pair_id + 1
# <= n(n-1)/2 <= 120 for an edge: so n <= 16
_MAX_ENUMERATION_N = 16

# families, and the orders every k of one n shares, are memoized where they
# fit the default enumeration budget (n <= 10)
_family_cache: dict[tuple[int, int], PowerFamily] = {}
_orders_cache: dict[int, tuple[tuple[tuple[int, ...], ...], list[bytes]]] = {}


def _order_bytes(n: int) -> bytes:
    """The canonical orders of [n] back to back, n bytes each: first entry 0
    and second entry < last entry, in lexicographic order (none for n = 2).

    Block s holds the orders 0, s, ...: a template of the records 0, n-1, p
    for the permutations p of 1..n-2 in lexicographic order, translated by
    x -> x + (x >= s) on 1..n-2 and n-1 -> s.  A record whose last entry is
    <= s is not canonical: a big-integer multiply spreads its flag 128 over
    its n bytes, an add sets it (entries are < n <= 16, so no byte carries),
    and one translate deletes every byte >= 128.
    """
    template = bytes(chain.from_iterable(map((0, n - 1).__add__, permutations(range(1, n - 1)))))
    blocks = []
    for s in range(1, n):
        block = template.translate(bytes([0, *range(1, s), *range(s + 1, n), s, *range(n, 256)]))
        flags = bytearray(len(block))
        flags[n - 1::n] = block[n - 1::n].translate(b"\x80" * (s + 1) + bytes(255 - s))
        flagged = int.from_bytes(block, "big") + int.from_bytes(flags, "big") * int.from_bytes(b"\1" * n, "big")
        blocks.append(flagged.to_bytes(len(block), "big"))
    return b"".join(blocks).translate(None, bytes(range(128, 256)))


def _positions(buf: bytes, n: int) -> list[bytes]:
    """pos[v] holds the position of vertex v in each order of buf, one byte
    per order.  Translating column i of buf by v -> i, else 0, marks where it
    holds v; each order holds v in one column, so the big-integer sum of the
    marks over the columns i >= 1 (column 0 holds 0) is the position, < n."""
    cols = [buf[i::n] for i in range(1, n)]
    return [
        sum(int.from_bytes(col.translate(bytes(v) + bytes([i]) + bytes(255 - v)), "big")
            for i, col in enumerate(cols, 1)).to_bytes(len(buf) // n, "big")
        for v in range(n)
    ]


def _batch_powers(pos: list[bytes], n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The sorted power of every order of [n], from its inverse positions.

    For each pair {a, b}, one big-integer add gives pos[a]*n + pos[b] < n*n
    <= 256 in each byte (no carry); a translate maps it to pair_id(a, b) + 1
    <= 120 where a and b lie within cyclic distance k, else to 0, as column
    pair_id of an indicator with n(n-1)/2 bytes per order.  Deleting its zeros
    and subtracting 1 leaves each order's power ascending, kn bytes each.
    """
    m = len(pos[0])
    pairs = n * (n - 1) // 2
    scale = bytes(range(0, n * n, n)) + bytes(256 - n)
    head = [int.from_bytes(p.translate(scale), "big") for p in pos]
    tail = [int.from_bytes(p, "big") for p in pos]
    near = bytes(0 < min((b - a) % n, (a - b) % n) <= k for a in range(n) for b in range(n)) + bytes(256 - n * n)
    indicator = bytearray(pairs * m)
    for pid in range(pairs):
        a, b = pair_of(pid)
        table = near.replace(b"\1", bytes([pid + 1]))
        indicator[pid::pairs] = (head[a] + tail[b]).to_bytes(m, "big").translate(table)
    ids = indicator.translate(bytes([0, *range(255)]), b"\0")
    del indicator, head, tail  # before the tuples, which set the peak
    assert len(ids) == k * n * m, "power must have exactly kn edges for n >= 2k+2"
    return tuple(struct.iter_unpack(f"{k * n}B", ids))


def enumerate_family(params: PowerParams, budget: int = DEFAULT_ORDER_BUDGET) -> PowerFamily:
    """Enumerate every canonical order and its power, deduplicating edge sets.

    Results for small (n, k) are memoized, and every k shares the orders of
    one n.  The budget guards the (n-1)!/2 blowup, and n <= 16 the byte
    kernels, before any work happens.
    """
    n, k = params.n, params.k
    if not orders_fit(n, budget):
        if n > _MAX_ENUMERATION_N:
            raise BudgetError(
                f"family ({n}, {k}): enumeration handles n <= {_MAX_ENUMERATION_N} only "
                f"(a*n + b must fit in a byte); n = {_MAX_ENUMERATION_N} already has "
                f"{order_count(_MAX_ENUMERATION_N)} canonical orders"
            )
        raise BudgetError(
            f"family ({n}, {k}) has {order_count(n)} canonical orders, "
            f"over the enumeration budget {budget}"
        )
    cached = _family_cache.get((n, k))
    if cached is not None:
        return cached

    shared = _orders_cache.get(n)
    if shared is None:
        buf = _order_bytes(n)
        shared = tuple(struct.iter_unpack(f"{n}B", buf)), _positions(buf, n)
    orders, pos = shared
    order_sets = _batch_powers(pos, n, k)
    # timsort rides the runs of the enumeration order; equal powers end up
    # adjacent, and compress keeps the first of each run
    ranked = sorted(order_sets)
    distinct = tuple(compress(ranked, chain((True,), map(ne, ranked, islice(ranked, 1, None)))))
    fam = PowerFamily(
        params=params,
        orders=orders,
        order_sets=order_sets,
        edge_sets=distinct,
        collisions=len(orders) - len(distinct),
    )
    if orders_fit(n, DEFAULT_ORDER_BUDGET):
        _orders_cache[n] = shared
        _family_cache[(n, k)] = fam
    return fam


# ----------------------------------------------------------------------------
# subgraph structure

def _merge(ends: Iterable[int]) -> list[int]:
    """One vertex bitmask per component of the graph whose edges have the
    given endpoint masks (1 << u) | (1 << v): each edge absorbs every
    component it touches."""
    comps: list[int] = []
    for m in ends:
        rest = []
        for x in comps:
            if x & m:
                m |= x
            else:
                rest.append(x)
        rest.append(m)
        comps = rest
    return comps


def _ends(edge_ids: Iterable[int]) -> list[int]:
    """Each K_n edge slot as its endpoint mask (1 << u) | (1 << v)."""
    return [(1 << u) | (1 << v) for u, v in map(pair_of, edge_ids)]


def _shape(ends: Sequence[int]) -> list[tuple[int, int]]:
    """The sorted (edges, vertices) of each component of _merge(ends)."""
    return sorted((sum(1 for m in ends if m & x), x.bit_count()) for x in _merge(ends))


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
    """Component-count bound (4ke)^t * C(2t, c); zero when c > 2t, and inf
    where the value passes the float range (at k = 1, from t = 189 for
    c near t, and for every c from t = 295)."""
    if k < 1:
        raise InputError(f"power k must be >= 1, got {k}")
    if t < 1:
        raise InputError(f"subgraph size t must be >= 1, got {t}")
    if c < 1:
        raise InputError(f"component count c must be >= 1, got {c}")
    try:
        return (4 * k * math.e) ** t * math.comb(2 * t, c)
    except OverflowError:
        return math.inf


def component_tally(edge_ids: Sequence[int]) -> dict[int, int]:
    """Reading (a): tally the nonempty edge-subsets (any size) of the
    subgraph edge_ids by component count."""
    ends = _ends(sorted(set(edge_ids)))
    subs = chain.from_iterable(combinations(ends, size) for size in range(1, len(ends) + 1))
    return dict(Counter(map(len, map(_merge, subs))))


def _canonical(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Renumber nonzero block labels 1, 2, ... by first appearance."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(x, len(seen) + 1) if x else 0 for x in labels)


def _join(labels: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Labels after an edge joins the vertices at positions a and b."""
    la, lb = labels[a], labels[b]
    if la and lb:
        return labels if la == lb else tuple(la if x == lb else x for x in labels)
    out = list(labels)
    out[a] = out[b] = la or lb or max(labels) + 1
    return tuple(out)


def _member_tallies(n: int, k: int, t_max: int) -> list[dict[int, int]]:
    """tallies[t][c] = number of t-edge subgraphs of C_n^k with c components
    (isolated vertices ignored), for every t <= t_max; tallies[0] is empty.

    Transfer-matrix sweep over the vertices v = 0..n-1 of the identity
    power.  Step v decides the edges {v-j, v} (v-j >= 0) and the wrap edges
    {v, v+j-n} (v+j >= n), j = 1..k, so every power edge is decided once.  A
    state is the tuple of block labels of the active vertices -- 0..k-1,
    which the wrap edges need until the end, and the last k swept -- with 0
    for a vertex no chosen edge touches.  Vertex u >= k retires after step
    u+k; a label that leaves the active set is a finished component.

    Each state carries its generating polynomial sum count * x^t * y^c (c
    counting finished components) packed into one integer, a slot of `bits`
    bits per (t, c) at offset bits * (t * (t_max+1) + c): choosing an edge
    shifts by one t row and masks off t > t_max, finishing a component
    shifts by one slot (c <= t, so it never spills into the next row), and
    merging states adds.  No slot exceeds C(kn, t), so none carries.
    """
    width = t_max + 1
    bits = max(math.comb(k * n, t) for t in range(width)).bit_length()
    row = bits * width
    keep = (1 << row * width) - 1
    active: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    for v in range(n):
        active.append(v)
        states = {s + (0,): p for s, p in states.items()}
        here = len(active) - 1
        partners = [v - j for j in range(1, min(k, v) + 1)] + list(range(v + k - n + 1))
        for u in partners:
            a = active.index(u)
            grown = dict(states)
            for s, p in states.items():
                s2 = _join(s, a, here)
                grown[s2] = grown.get(s2, 0) + ((p << row) & keep)
            states = grown
        gone = active.index(v - k) if v - k >= k else None
        merged: dict[tuple[int, ...], int] = {}
        for s, p in states.items():
            if gone is not None:
                label, s = s[gone], s[:gone] + s[gone + 1:]
                if label and label not in s:
                    p <<= bits
            s = _canonical(s)
            merged[s] = merged.get(s, 0) + p
        states = merged
        if gone is not None:
            del active[gone]
    # every label still present is a component; canonical labels run 1..max
    total = sum(p << bits * max(s) for s, p in states.items())
    slot = (1 << bits) - 1
    return [
        {c: cnt for c in range(1, t + 1) if (cnt := total >> bits * (t * width + c) & slot)}
        for t in range(width)
    ]


def f_chain_bound(n: int, k: int, t: int) -> float:
    """Evaluate 2 * sum_c (16k^3 e)^t C(2t,c) (e/(n-1))^{d-c} ((n-d+c-1)/(n-1))^{n-d+c-1}
    with d = ceil((t+(2k-1)c)/k), summed over c = 1..t, in log space.

    This is the closed-form bound on the share f_t / |H| of members meeting a
    fixed member in exactly t elements.  It can be off from the exact share
    by a large factor at small t.
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
    return 2 * total


# ----------------------------------------------------------------------------
# audits

@dataclass(frozen=True)
class AuditRow:
    """One audited cell.  `bound` is inf where the bound passes the float
    range; JSON writes it as null, and `pass` is then decided on logs."""

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
            "bound": self.bound if math.isfinite(self.bound) else None,
            "pass": self.passed,
        }


def _bound_row(n: int, k: int, t: int, c: int, exact: int, bound: float, log_bound: float) -> AuditRow:
    """exact against a bound: an exact int-float comparison while the bound's
    float is finite, and its log against log_bound once it is inf."""
    passed = exact <= bound if bound < math.inf else math.log(exact) <= log_bound
    return AuditRow(n, k, t, c, exact, bound, passed)


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


def _dihedral_key(pairs: Sequence[tuple[int, int]], n: int, pid: list[list[int | None]]) -> tuple[int, ...]:
    """The least sorted pair-id tuple among the images of the edges under
    rotation and reflection of Z_n, which are automorphisms of the identity
    power: equal keys mean isomorphic subgraphs."""
    # the least image puts a vertex of S at 0: were none there, turning one
    # step back would lower every pair id
    return min(
        tuple(sorted(pid[(s * (a - x)) % n][(s * (b - x)) % n] for a, b in pairs))
        for x in {x for pair in pairs for x in pair}
        for s in (1, -1)
    )


class _ExtensionCounter:
    """count(S, shape): the canonical orders of [n] whose k-th power contains
    S, for a subgraph S of the identity power with the given component shape
    (_shape), by placement counting.

    An order puts S in its power iff it puts every edge of S at cyclic
    distance <= k.  Of the n! bijections [n] -> Z_n, those that do are the
    P_S(n) placements of S's v support vertices times the (n-v)! ways to
    place the rest, and each canonical order is 2n of them (rotations and
    reflections), so count(S) = P_S(n) (n-v)! / (2n).

    k = 1: S is a linear forest of c paths.  Gluing each path into one
    oriented block leaves n - t blocks around a cycle, so
    count(S) = (n-t-1)! 2^(c-1).
    k >= 2: P_S(n) = n * (placements with S's first vertex at 0), counted by
    backtracking.  `nodes` counts the placements the search tries; passing
    `budget` raises BudgetError.
    """

    def __init__(self, n: int, k: int, budget: int):
        self.n, self.k, self.budget = n, k, budget
        self.nodes = 0
        # near[p]: bitmask of the positions at cyclic distance 1..k from p
        self.near = [
            sum(1 << (p + d) % n for d in range(-k, k + 1) if d) for p in range(n)
        ]

    def __call__(self, sub: tuple[int, ...], shape: Sequence[tuple[int, int]]) -> int:
        n = self.n
        if self.k == 1:
            return math.factorial(n - len(sub) - 1) << (len(shape) - 1)
        pinned = self._pinned_placements([pair_of(e) for e in sub])
        return pinned * math.factorial(n - sum(v for _, v in shape)) // 2

    def _pinned_placements(self, pairs: list[tuple[int, int]]) -> int:
        """Placements of the edges' vertices with the least of them at 0."""
        adj: dict[int, list[int]] = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        # each component depth first, so every vertex but a component's first
        # has a neighbour placed before it
        order: list[int] = []
        for root in sorted(adj):
            stack = [root]
            while stack:
                x = stack.pop()
                if x not in order:
                    order.append(x)
                    stack.extend(adj[x])
        back = [[order.index(y) for y in adj[x] if order.index(y) < i] for i, x in enumerate(order)]
        near, last = self.near, len(order) - 1
        free_all = (1 << self.n) - 1
        pos = [0] * len(order)

        def place(i: int, used: int) -> int:
            free = free_all & ~used
            for j in back[i]:
                free &= near[pos[j]]
            self.nodes += free.bit_count()
            if self.nodes > self.budget:
                raise BudgetError(
                    f"audit ({self.n}, {self.k}): placement search passed the work budget"
                )
            if i == last:
                return free.bit_count()
            total = 0
            while free:
                low = free & -free
                pos[i] = low.bit_length() - 1
                total += place(i + 1, used | low)
                free ^= low
            return total

        return place(1, 1)


def _audit(
    name: str,
    n: int,
    k: int,
    budget: int,
    rows_of: Callable[[tuple[int, ...], list[tuple[int, int]], int], Iterable[AuditRow]],
) -> AuditReport:
    """Shared skeleton of the subgraph audits, walking the subsets of one member.

    Every member is the image of the identity power M = C_n^k under a
    relabelling of [n], which keeps a subgraph's extension count and its
    rows.  So the subsets S of M with 1 <= |S| <= floor(n/3k) stand for every
    subgraph of every member: rows_of(S, shape, count) gives S's rows, where
    shape is the sorted (edges, vertices) of S's components and count, the
    canonical orders whose power contains S, comes from placement counting
    (_ExtensionCounter), with no order enumerated.

    The walk groups the subsets into classes by a key that the
    automorphisms of M keep: at k = 1 the sorted vertex counts of S's
    components, which are paths as t <= n/3 < n, each with one edge fewer
    than its vertices, so the key fixes S's shape and is its isomorphism
    class; at k >= 2 the dihedral key, S's class under rotation and
    reflection of Z_n.  When the walk first meets a class it records the
    subset, its shape (read off the key at k = 1, one _shape at k >= 2) and
    its count, so a placement search past the budget stops the walk there.
    rows_of runs once per class on that record, so it may depend on S only
    through its class.

    `checked` is the number of distinct subgraphs of members, an orbit sum:
    each such T lies in count(T) of the N = (n-1)!/2 order powers, and each
    power holds the images of M's subsets, so checked = sum_S N / count(S),
    one term N * size / count per class, summed as a Fraction and always an
    integer.  In the same way a failing row stands for sum N / count(S) over
    the S that give it, and is listed that many times, in the order rows
    first fail in the walk.  Per (t, c) the report keeps the row with the
    largest exact, ties going to the smallest bound.

    `budget` caps the work: subsets walked plus placement-search nodes.
    """
    params = PowerParams(n, k)
    if budget < 0:
        raise InputError(f"work budget must be >= 0, got {budget}")
    # the identity power M, and the pair ids that _dihedral_key reads
    pid = [[pair_id(a, b) if a != b else None for b in range(n)] for a in range(n)]
    member = tuple(sorted(pid[i][(i + j) % n] for i in range(n) for j in range(1, k + 1)))
    sizes = range(1, params.t_max + 1)
    walked = sum(math.comb(len(member), t) for t in sizes)
    if walked > budget:
        raise BudgetError(
            f"audit ({n}, {k}) walks {walked} subgraphs of a member, over the work budget {budget}"
        )
    count = _ExtensionCounter(n, k, budget - walked)
    # each subset's endpoint masks (k = 1) or vertex pairs (k >= 2), walked
    # in step with its pair ids
    marks = _ends(member) if k == 1 else [pair_of(e) for e in member]
    # class key -> [first subset in walk order, its shape, its count, subsets
    # in the class]
    classes: dict[tuple, list] = {}
    for t in sizes:
        for sub, part in zip(combinations(member, t), combinations(marks, t)):
            if k == 1:
                key = tuple(sorted(map(int.bit_count, _merge(part))))
            else:
                key = _dihedral_key(part, n, pid)
            cls = classes.get(key)
            if cls is None:
                shape = [(v - 1, v) for v in key] if k == 1 else _shape(_ends(sub))
                classes[key] = [sub, shape, count(sub, shape), 1]
            else:
                cls[3] += 1
    total = order_count(n)
    worst: dict[tuple[int, int], AuditRow] = {}
    failing: dict[AuditRow, Fraction] = {}
    checked = Fraction(0)
    for sub, shape, cnt, size in classes.values():
        times = Fraction(total * size, cnt)
        checked += times
        for row in rows_of(sub, shape, cnt):
            if not row.passed:
                failing[row] = failing.get(row, 0) + times
            prev = worst.get((row.t, row.c))
            if prev is None or (row.exact, -row.bound) > (prev.exact, -prev.bound):
                worst[(row.t, row.c)] = row
    assert all(x.denominator == 1 for x in (checked, *failing.values())), "orbit sums count whole subgraphs"
    violations = tuple(row for row, times in failing.items() for _ in range(int(times)))
    rows = tuple(worst[key] for key in sorted(worst))
    return AuditReport(name=name, rows=rows, violations=violations, checked=int(checked))


def _prop2_rows(n: int, k: int, t: int, tally: dict[int, int]) -> Iterator[AuditRow]:
    """One row per component count c of a tally, against the component-count bound."""
    for c, cnt in sorted(tally.items()):
        log_bound = t * math.log(4 * k * math.e) + math.log(math.comb(2 * t, c))
        yield _bound_row(n, k, t, c, cnt, prop2_bound(k, t, c), log_bound)


def audit_prop1(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Exhaustively compare extension counts against the extension-count bound.

    Covers every subgraph T of the ground set with |T| <= floor(n/3k): those
    contained in no member have count 0 and pass vacuously, so only subgraphs
    of members need exact counting.
    """

    def rows_of(sub, shape, cnt):
        t, c = len(sub), len(shape)
        log_bound = prop1_bound(n, k, t, c)
        try:
            bound = math.exp(log_bound)
        except OverflowError:
            bound = math.inf
        return [_bound_row(n, k, t, c, cnt, bound, log_bound)]

    return _audit("prop1", n, k, budget, rows_of)


def audit_structure(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Exhaustive edge/vertex balance check over all subgraphs of all members:
    each component with e edges and v vertices must have e <= k*v - (2k-1)."""

    def rows_of(sub, shape, _cnt):
        t, c = len(sub), len(shape)
        # "exact" records the subgraph size, "bound" the balance ceiling,
        # the sum of the per-component ceilings k*v - (2k-1)
        bound = float(k * sum(v for _, v in shape) - (2 * k - 1) * c)
        ok = all(e <= k * v - (2 * k - 1) for e, v in shape)
        return [AuditRow(n, k, t, c, t, bound, ok)]

    return _audit("structure", n, k, budget, rows_of)


def audit_prop2_reading_a(n: int, k: int, budget: int = DEFAULT_ORDER_BUDGET) -> AuditReport:
    """Reading (a): for each subgraph T of a member, every tally of T's own
    edge-subsets by component count must sit under the bound at t = |T|."""

    def rows_of(sub, *_):
        return _prop2_rows(n, k, len(sub), component_tally(sub))

    return _audit("prop2a", n, k, budget, rows_of)


def audit_prop2_reading_b(n_values: Iterable[int], k: int) -> AuditReport:
    """Reading (b): count t-edge subgraphs of one member by component count.

    Member powers are vertex-transitive, so one member per (n, k) represents
    them all: the identity order's power.  Every (t, c) cell for t <= n/3k
    comes from one transfer-matrix sweep around it (_member_tallies), so n
    in the hundreds is cheap; brute force over t-subsets is left to the
    tests, as its oracle.  `checked` counts the tallied subgraphs,
    sum_t C(kn, t).  All cells are reported and violations listed -- this
    reading genuinely fails at desk scale (first at n=22, k=1, t=1, c=1,
    where a cycle has n single-edge subgraphs against a bound just under 22).
    """
    n_values = sorted(set(n_values))
    if not n_values:
        raise InputError("reading (b) needs at least one n to audit")
    rows: list[AuditRow] = []
    checked = 0
    for n in n_values:
        params = PowerParams(n, k)
        tallies = _member_tallies(n, k, params.t_max)
        for t in range(1, params.t_max + 1):
            checked += sum(tallies[t].values())
            rows.extend(_prop2_rows(n, k, t, tallies[t]))
    violations = [row for row in rows if not row.passed]
    return AuditReport(
        name="prop2b", rows=tuple(rows), violations=tuple(violations), checked=checked
    )
