"""Finite uniform hypergraphs with exact spread and intersection accounting.

A hypergraph here is a family of r-element subsets of a ground set
{0, ..., N-1}.  Counts are exact integers; ratios and roots are evaluated in
log space.

Two semantics are supported.  Under "distinct-sets" the members are pairwise
distinct sets.  Under "labeled-orders" the family is a multiset: the same set
may appear with multiplicity (as happens when distinct cyclic orders generate
the same power graph), and all counting operations weight by multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import BudgetError, InputError

DISTINCT_SETS = "distinct-sets"
LABELED_ORDERS = "labeled-orders"

# member pairs a profile scan (moments, K0) may tally unless told otherwise
DEFAULT_PAIR_BUDGET = 4_000_000

__all__ = [
    "DISTINCT_SETS",
    "LABELED_ORDERS",
    "DEFAULT_PAIR_BUDGET",
    "GroundSet",
    "Hypergraph",
    "SpreadReport",
    "K0Report",
    "pair_id",
    "pair_of",
    "spread_up_to",
    "intersection_profile",
    "required_k0",
    "read_hypergraph_text",
    "format_hypergraph_text",
]


# ----------------------------------------------------------------------------
# ground-set geometry

def pair_id(u: int, v: int) -> int:
    """Colexicographic id of the unordered pair {u, v}.

    Pairs are ranked by (max, min): id = max*(max-1)//2 + min.  So
    {0,1} -> 0, {0,2} -> 1, {1,2} -> 2, {0,3} -> 3, ...
    """
    if u == v:
        raise InputError(f"not a simple pair: ({u}, {v})")
    if u < 0 or v < 0:
        raise InputError(f"negative vertex in pair ({u}, {v})")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_of(eid: int) -> tuple[int, int]:
    """Inverse of pair_id, integer arithmetic only (bit-exact at any size)."""
    if eid < 0:
        raise InputError(f"negative element id {eid}")
    v = (1 + math.isqrt(1 + 8 * eid)) // 2
    # isqrt guess can be off by one in either direction; settle it exactly.
    while v * (v - 1) // 2 > eid:
        v -= 1
    while (v + 1) * v // 2 <= eid:
        v += 1
    return eid - v * (v - 1) // 2, v


@dataclass(frozen=True)
class GroundSet:
    """Element universe {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"ground set must be nonempty, got size {self.size}")

    def check_element(self, x: int) -> None:
        if not 0 <= x < self.size:
            raise InputError(f"element id {x} out of range 0..{self.size - 1}")


# ----------------------------------------------------------------------------
# hypergraphs

def _normalize_edge(edge: Iterable[int], r: int, ground: GroundSet) -> tuple[int, ...]:
    ids = tuple(sorted(edge))
    if len(set(ids)) != len(ids):
        raise InputError(f"repeated element in edge {ids}")
    if len(ids) != r:
        raise InputError(f"edge {ids} has {len(ids)} elements, expected {r}")
    for x in ids:
        ground.check_element(x)
    return ids


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform family over a ground set, under one of the two semantics.

    `transitive` marks a family whose automorphisms act transitively on its
    members, so every member has the same intersection profile and
    _profile_rows, its only reader, takes one row.  Only
    PowerFamily.hypergraph sets it; edges read from text and rainbow
    subfamilies are never marked.
    """

    ground: GroundSet
    edges: tuple[tuple[int, ...], ...]
    r: int
    semantics: str = DISTINCT_SETS
    transitive: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"uniformity must be >= 1, got {self.r}")
        _check_semantics(self.semantics)
        norm = tuple(_normalize_edge(e, self.r, self.ground) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        if self.semantics == DISTINCT_SETS and len(set(norm)) != len(norm):
            raise InputError("duplicate edges are not allowed under distinct-sets semantics")

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each edge as a bitmask over element ids (internal fast path)."""
        return tuple(map(_mask, self.edges))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Each element as a bitmask over edge indices: bit j of incidence[x]
        is set when element x lies in edge j (internal fast path)."""
        rows = [bytearray(len(self.edges)) for _ in range(self.ground.size)]
        for j, e in enumerate(self.edges):
            for x in e:
                rows[x][j] = 1
        # a row read backwards is its mask's binary digits, most significant first
        return tuple(int(row[::-1].translate(_DIGITS) or b"0", 2) for row in rows)


def _check_semantics(semantics: str) -> None:
    if semantics not in (DISTINCT_SETS, LABELED_ORDERS):
        raise InputError(f"unknown semantics {semantics!r}")


def _view(ground, edges, r, semantics, transitive=False) -> Hypergraph:
    """A Hypergraph sharing the edges tuple, unchecked but for the semantics:
    the caller guarantees sorted r-tuples of ids inside the ground set, and
    no repeated edge under distinct-sets."""
    _check_semantics(semantics)
    hg = object.__new__(Hypergraph)
    vars(hg).update(ground=ground, edges=edges, r=r, semantics=semantics, transitive=transitive)
    return hg


# bytes 0 and 1 to the ASCII digits that int(..., 2) reads
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(ids: Iterable[int]) -> int:
    """The ids as a bitmask: bit x set for each id x."""
    m = 0
    for x in ids:
        m |= 1 << x
    return m


def _mask_of(elements: Iterable[int], ground: GroundSet) -> int:
    """_mask of elements checked against the ground set."""
    elements = tuple(elements)
    for x in elements:
        ground.check_element(x)
    return _mask(elements)


# ----------------------------------------------------------------------------
# spread

@dataclass(frozen=True)
class SpreadReport:
    """Extremal spread certificate over seed sets of bounded size.

    kappa_s = min over nonempty S with |S| <= s_max and count(S) >= 1 of
    (|H| / count(S))^(1/|S|), where count(S) is the number of members
    containing S.  Every member of H is kappa_s-spread-tight at the witness:
    count(witness) == |H| / kappa_s^{|witness|} by construction.  kappa_s is
    an upper bound for the unrestricted spread constant (seed sets larger
    than s_max could only lower it), and is non-increasing in s_max.
    """

    kappa_s: float
    witness: tuple[int, ...]
    witness_count: int
    family_size: int
    per_size: dict[int, float] = field(default_factory=dict)


def spread_up_to(hg: Hypergraph, s_max: int) -> SpreadReport:
    """Exact kappa_s by enumeration of seed sets inside members.

    Only S contained in at least one member can have count(S) >= 1, so the
    enumeration ranges over subsets of members, deduplicated by their sorted
    id tuple.
    """
    if not hg.edges:
        raise InputError("spread is undefined for an empty family")
    if not 1 <= s_max <= hg.r:
        raise InputError(f"s_max must be in 1..{hg.r}, got {s_max}")

    big_m = len(hg.edges)
    masks = hg.masks
    seen: set[tuple[int, ...]] = set()
    per_size: dict[int, float] = {}
    best_kappa = math.inf
    best_set: tuple[int, ...] = ()
    best_count = 0

    for edge in hg.edges:
        for s in range(1, s_max + 1):
            for sub in combinations(edge, s):
                if sub in seen:
                    continue
                seen.add(sub)
                smask = _mask(sub)
                cnt = sum(1 for m in masks if m & smask == smask)
                kappa = (big_m / cnt) ** (1.0 / s)
                if kappa < per_size.get(s, math.inf):
                    per_size[s] = kappa
                if kappa < best_kappa:
                    best_kappa = kappa
                    best_set = sub
                    best_count = cnt

    return SpreadReport(
        kappa_s=best_kappa,
        witness=best_set,
        witness_count=best_count,
        family_size=big_m,
        per_size=per_size,
    )


# ----------------------------------------------------------------------------
# intersection profiles

def intersection_profile(hg: Hypergraph, base_index: int) -> tuple[int, ...]:
    """counts[t] = number of members meeting the base edge in exactly t elements.

    The base edge itself lands at t == r, as do duplicate copies under
    labeled-orders semantics.  sum(counts) is the family size.
    """
    if not 0 <= base_index < len(hg.edges):
        raise InputError(f"base index {base_index} out of range for family of {len(hg.edges)}")
    base = hg.masks[base_index]
    counts = [0] * (hg.r + 1)
    for m in hg.masks:
        counts[(m & base).bit_count()] += 1
    return tuple(counts)


def _profile_rows(hg: Hypergraph, pair_budget: int, what: str) -> Counter[tuple[int, ...]]:
    """How many members have each intersection profile row.

    Every member of a transitive family has the row of member 0, so one row
    of |H| pairs stands for all |H| members; any other family scans all
    |H|^2 pairs, one row per member.  The pair budget is checked first."""
    if pair_budget < 0:
        raise InputError(f"pair budget must be >= 0, got {pair_budget}")
    big_m = len(hg.edges)
    bases, weight = (1, big_m) if hg.transitive else (big_m, 1)
    if bases * big_m > pair_budget:
        raise BudgetError(f"{what} needs {bases * big_m} pair intersections, budget {pair_budget}")
    rows = Counter()
    for base_index in range(bases):
        rows[intersection_profile(hg, base_index)] += weight
    return rows


def max_profile(hg: Hypergraph, pair_budget: int = DEFAULT_PAIR_BUDGET) -> tuple[int, ...]:
    """fmax[t] = max over base edges of the t-entry of the intersection profile."""
    return tuple(map(max, zip(*_profile_rows(hg, pair_budget, "profile scan"))))


# ----------------------------------------------------------------------------
# intersection-condition audit

def alpha_cut(alpha: float, r: int) -> int:
    """floor(alpha * r) with a small nudge so exact thirds do not round down.

    alpha arrives as a float, and e.g. (1/3)*6 evaluates to 1.9999999999999998;
    the 1e-9 nudge absorbs that representation error.  alpha values this close
    to a boundary for any other reason are out of scope at desk scale.
    """
    return math.floor(alpha * r + 1e-9)


@dataclass(frozen=True)
class K0Report:
    """Smallest admissible K0 per intersection size, plus the large-t check.

    For 1 <= t <= floor(alpha*r), the condition f_t(A) <= (K0/kappa)^t * |H|
    for all members A is equivalent to K0 >= kappa * (fmax[t]/|H|)^(1/t);
    k0_min[t] records that threshold (None when fmax[t] == 0, i.e. no
    constraint).  For t > floor(alpha*r) the report checks
    fmax[t] <= 2^r / kappa^t * |H| directly (spreadf_ok).
    """

    kappa: float
    alpha: float
    t_cut: int
    family_size: int
    fmax: tuple[int, ...]
    k0_min: dict[int, float | None]
    spreadf_ok: dict[int, bool]


def required_k0(
    hg: Hypergraph,
    kappa: float,
    alpha: float,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> K0Report:
    if not hg.edges:
        raise InputError("K0 audit is undefined for an empty family")
    if not 0 < kappa < math.inf:
        raise InputError(f"kappa must be positive and finite, got {kappa}")
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")

    r = hg.r
    big_m = len(hg.edges)
    fmax = max_profile(hg, pair_budget=pair_budget)
    t_cut = alpha_cut(alpha, r)

    k0_min: dict[int, float | None] = {}
    for t in range(1, t_cut + 1):
        if fmax[t] == 0:
            k0_min[t] = None
        else:
            k0_min[t] = kappa * math.exp((math.log(fmax[t]) - math.log(big_m)) / t)

    spreadf_ok: dict[int, bool] = {}
    for t in range(t_cut + 1, r + 1):
        if fmax[t] == 0:
            spreadf_ok[t] = True
        else:
            log_bound = r * math.log(2.0) - t * math.log(kappa) + math.log(big_m)
            spreadf_ok[t] = math.log(fmax[t]) <= log_bound + 1e-12
    return K0Report(
        kappa=kappa,
        alpha=alpha,
        t_cut=t_cut,
        family_size=big_m,
        fmax=fmax,
        k0_min=k0_min,
        spreadf_ok=spreadf_ok,
    )


# ----------------------------------------------------------------------------
# text formats: whitespace-separated integers, blank and "#" lines skipped

def _int_lines(text: str) -> Iterator[tuple[int, str, list[int]]]:
    """(line number, stripped line, its integers) for every line of text that
    is neither blank nor a "#" comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(p) for p in line.split()]
        except ValueError:
            raise InputError(f"line {lineno}: non-integer token in {line!r}")
        yield lineno, line, values


# "N M r" header, then M lines of r sorted element ids

def read_hypergraph_text(text: str, semantics: str = DISTINCT_SETS) -> Hypergraph:
    header: list[int] | None = None
    edges: list[tuple[int, ...]] = []
    expected = None

    for lineno, line, values in _int_lines(text):
        if header is None:
            if len(values) != 3:
                raise InputError(f"line {lineno}: expected header 'N M r', got {line!r}")
            header = values
            n_elems, n_edges, r = header
            if n_elems < 1 or n_edges < 0 or r < 1:
                raise InputError(f"line {lineno}: bad header values N={n_elems} M={n_edges} r={r}")
            expected = n_edges
            continue
        if len(edges) >= expected:
            raise InputError(f"line {lineno}: more than {expected} edge lines")
        n_elems, _, r = header
        if len(values) != r:
            raise InputError(f"line {lineno}: expected {r} ids, got {len(values)}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InputError(f"line {lineno}: ids must be strictly increasing")
        for x in values:
            if not 0 <= x < n_elems:
                raise InputError(f"line {lineno}: element id {x} out of range 0..{n_elems - 1}")
        edges.append(tuple(values))

    if header is None:
        raise InputError("line 1: missing header 'N M r'")
    if len(edges) != expected:
        raise InputError(f"expected {expected} edge lines, found {len(edges)}")
    n_elems, _, r = header
    try:
        return Hypergraph(GroundSet(n_elems), tuple(edges), r, semantics)
    except InputError as exc:
        raise InputError(f"invalid family: {exc}") from exc


def format_hypergraph_text(hg: Hypergraph) -> str:
    out = [f"{hg.ground.size} {len(hg.edges)} {hg.r}"]
    out.extend(" ".join(str(x) for x in e) for e in hg.edges)
    return "\n".join(out) + "\n"
