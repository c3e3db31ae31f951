"""Finite uniform hypergraphs with exact spread and intersection accounting.

A hypergraph here is a family of r-element subsets of a ground set
{0, ..., N-1}.  The ground set may optionally be tagged as the edge slots of a
complete graph K_n, in which case element ids are colexicographic pair ids
(see pair_id / pair_of).  Counts are exact integers; ratios and roots are
evaluated in log space.

Two semantics are supported.  Under "distinct-sets" the members are pairwise
distinct sets.  Under "labeled-orders" the family is a multiset: the same set
may appear with multiplicity (as happens when distinct cyclic orders generate
the same power graph), and all counting operations weight by multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, InputError

DISTINCT_SETS = "distinct-sets"
LABELED_ORDERS = "labeled-orders"

__all__ = [
    "DISTINCT_SETS",
    "LABELED_ORDERS",
    "GroundSet",
    "Hypergraph",
    "SpreadReport",
    "IntersectionProfile",
    "K0Report",
    "pair_id",
    "pair_of",
    "count_superedges",
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
    """Element universe {0, ..., size-1}.

    When n_vertices is set the ground set is the edge set of K_{n_vertices}
    and ids are colex pair ids, which requires size == n(n-1)/2.
    """

    size: int
    n_vertices: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"ground set must be nonempty, got size {self.size}")
        if self.n_vertices is not None:
            n = self.n_vertices
            if n < 2 or self.size != n * (n - 1) // 2:
                raise InputError(
                    f"size {self.size} does not match K_{n} with {n*(n-1)//2} edge slots"
                )

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
    """An r-uniform family over a ground set, under one of the two semantics."""

    ground: GroundSet
    edges: tuple[tuple[int, ...], ...]
    r: int
    semantics: str = DISTINCT_SETS

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"uniformity must be >= 1, got {self.r}")
        if self.semantics not in (DISTINCT_SETS, LABELED_ORDERS):
            raise InputError(f"unknown semantics {self.semantics!r}")
        norm = tuple(_normalize_edge(e, self.r, self.ground) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        if self.semantics == DISTINCT_SETS and len(set(norm)) != len(norm):
            raise InputError("duplicate edges are not allowed under distinct-sets semantics")

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each edge as a bitmask over element ids (internal fast path)."""
        out = []
        for e in self.edges:
            m = 0
            for x in e:
                m |= 1 << x
            out.append(m)
        return tuple(out)

    def replace_edges(self, edges: Sequence[tuple[int, ...]]) -> "Hypergraph":
        return Hypergraph(self.ground, tuple(edges), self.r, self.semantics)


def _mask_of(elements: Iterable[int], ground: GroundSet) -> int:
    m = 0
    for x in elements:
        ground.check_element(x)
        m |= 1 << x
    return m


def count_superedges(hg: Hypergraph, elements: Iterable[int]) -> int:
    """Number of members containing every given element (multiplicity counted).

    The empty set is contained in everything, so count_superedges(hg, ()) is
    the family size.
    """
    smask = _mask_of(elements, hg.ground)
    return sum(1 for m in hg.masks if m & smask == smask)


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

    s_max: int
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
                smask = 0
                for x in sub:
                    smask |= 1 << x
                cnt = sum(1 for m in masks if m & smask == smask)
                kappa = (big_m / cnt) ** (1.0 / s)
                if kappa < per_size.get(s, math.inf):
                    per_size[s] = kappa
                if kappa < best_kappa:
                    best_kappa = kappa
                    best_set = sub
                    best_count = cnt

    return SpreadReport(
        s_max=s_max,
        kappa_s=best_kappa,
        witness=best_set,
        witness_count=best_count,
        family_size=big_m,
        per_size=per_size,
    )


# ----------------------------------------------------------------------------
# intersection profiles

@dataclass(frozen=True)
class IntersectionProfile:
    """counts[t] = number of members meeting the base edge in exactly t elements.

    The base edge itself lands at t == r, as do duplicate copies under
    labeled-orders semantics.  sum(counts) is the family size.
    """

    base_index: int
    counts: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.counts) - 1


def intersection_profile(hg: Hypergraph, base_index: int) -> IntersectionProfile:
    if not 0 <= base_index < len(hg.edges):
        raise InputError(f"base index {base_index} out of range for family of {len(hg.edges)}")
    base = hg.masks[base_index]
    counts = [0] * (hg.r + 1)
    for m in hg.masks:
        counts[(m & base).bit_count()] += 1
    return IntersectionProfile(base_index=base_index, counts=tuple(counts))


def max_profile(hg: Hypergraph, pair_budget: int = 10_000_000) -> tuple[int, ...]:
    """fmax[t] = max over base edges of the t-entry of the intersection profile."""
    big_m = len(hg.edges)
    if big_m * big_m > pair_budget:
        raise BudgetError(
            f"profile scan needs {big_m * big_m} pair intersections, budget {pair_budget}"
        )
    fmax = [0] * (hg.r + 1)
    for base_index in range(big_m):
        for t, c in enumerate(intersection_profile(hg, base_index).counts):
            if c > fmax[t]:
                fmax[t] = c
    return tuple(fmax)


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

    def passes(self, k0: float, rel_tol: float = 1e-12) -> bool:
        """Whether K0 = k0 satisfies every small-t constraint."""
        for need in self.k0_min.values():
            if need is not None and need > k0 * (1 + rel_tol):
                return False
        return True


def required_k0(
    hg: Hypergraph,
    kappa: float,
    alpha: float,
    pair_budget: int = 10_000_000,
) -> K0Report:
    if not hg.edges:
        raise InputError("K0 audit is undefined for an empty family")
    if kappa <= 0:
        raise InputError(f"kappa must be positive, got {kappa}")
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
# text format: "N M r" header, then M lines of r sorted element ids

def read_hypergraph_text(text: str, semantics: str = DISTINCT_SETS) -> Hypergraph:
    lines = text.splitlines()
    idx = 0
    header: list[int] | None = None
    edges: list[tuple[int, ...]] = []
    expected = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise InputError(f"line {lineno}: non-integer token in {line!r}")
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
