"""Search instances for the two search workloads, made without the package's RNG.

Instances come from the benchmark's own splitmix64 stream, so the instance
sets stay fixed when the package changes how it seeds or samples.  Each
workload has a fixed pool of instances whose reference verdict and node count
(computed once by ``make_reference.py``) are stored in ``reference/``.  A run
draws one instance from each stratum of the pool, strata being runs of
instances sorted by reference node count; the seed picks the member of each
stratum.  Stratifying keeps a run's total work close to constant across
seeds while every seed still sees different instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class SplitMix64:
    """The splitmix64 generator: a 64-bit counter passed through an avalanche."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased by rejection."""
        limit = ((1 << 64) // bound) * bound
        while True:
            x = self.next64()
            if x < limit:
                return x % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def fold(*parts: int) -> int:
    """One 64-bit key from several integers (order-sensitive)."""
    acc = len(parts)
    for p in parts:
        acc = SplitMix64(acc ^ (p & MASK64)).next64()
    return acc


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search workload's instance pool."""

    name: str
    n: int
    k: int
    q: int
    m_lo: int
    m_hi: int
    pool_tag: int
    pool_size: int
    per_run: int


SEARCH_SPECS = {
    # criterion-9 reference size (q = ceil(1.1 kn)); nearly every verdict is
    # "absent", so each op is a full exhaustive search
    "search-refute": SearchSpec("search-refute", 12, 2, 27, 50, 58, 0x5EF07E, 1200, 240),
    # roomier palette on dense graphs; nearly every verdict is "found", so
    # cost per node and candidate order dominate
    "search-witness": SearchSpec("search-witness", 12, 2, 36, 63, 66, 0x317E55, 1200, 240),
}


def edge_colors(spec: SearchSpec, index: int) -> tuple[tuple[int, int], ...]:
    """Pool instance ``index``: a uniform m-subset of K_n's edge slots, uniform colors.

    Element id e of pair (u, v), u < v, is v(v-1)/2 + u, the package's
    colex pair numbering.
    """
    rng = SplitMix64(fold(spec.pool_tag, index))
    m = spec.m_lo + rng.below(spec.m_hi - spec.m_lo + 1)
    slots = list(range(spec.n * (spec.n - 1) // 2))
    for i in range(m):  # partial Fisher-Yates
        j = i + rng.below(len(slots) - i)
        slots[i], slots[j] = slots[j], slots[i]
    return tuple((e, rng.below(spec.q)) for e in sorted(slots[:m]))


def fingerprint(pairs: tuple[tuple[int, int], ...]) -> str:
    """Hex digest of an edge-color list, stored to catch generator drift."""
    return "%016x" % fold(*(e * 4096 + c for e, c in pairs))


def pair_of(eid: int) -> tuple[int, int]:
    """Inverse of the colex numbering v(v-1)/2 + u."""
    v = 1
    while v * (v + 1) // 2 <= eid:
        v += 1
    return eid - v * (v - 1) // 2, v


def witness_error(spec: SearchSpec, pairs, witness) -> str | None:
    """Check a claimed witness: a Hamilton order whose k-th power has all kn
    edges present with pairwise distinct colors.  None when it holds."""
    n, k = spec.n, spec.k
    if witness is None or sorted(witness) != list(range(n)):
        return f"witness {witness!r} is no ordering of 0..{n - 1}"
    color = {}
    for eid, c in pairs:
        color[frozenset(pair_of(eid))] = c
    used = []
    for i in range(n):
        for j in range(1, k + 1):
            edge = frozenset((witness[i], witness[(i + j) % n]))
            if edge not in color:
                return f"witness uses absent edge {sorted(edge)}"
            used.append(color[edge])
    if len(used) != k * n or len(set(used)) != len(used):
        return "witness edge colors are not pairwise distinct"
    return None


def independent_search(spec: SearchSpec, pairs) -> bool:
    """Does the instance contain a rainbow k-th power of a Hamilton cycle?

    Plain recursive backtracking over vertex sequences with set bookkeeping,
    written apart from the package's search; used to confirm reference
    verdicts.
    """
    n, k = spec.n, spec.k
    color = {}
    for eid, c in pairs:
        u, v = pair_of(eid)
        color[u, v] = color[v, u] = c
    seq = [0]
    used_colors: set[int] = set()

    def edges_to(v: int, pos: int) -> list[tuple[int, int]] | None:
        """Edges (u, color) joining v at position pos to already placed vertices."""
        out = []
        for j in range(1, k + 1):
            if pos - j >= 0:
                out.append(seq[pos - j])
            if pos + j >= n:
                out.append(seq[pos + j - n])
        cols = []
        for u in out:
            c = color.get((u, v))
            if c is None:
                return None
            cols.append((u, c))
        return cols

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        for v in range(1, n):
            if v in seq:
                continue
            if pos == n - 1 and v < seq[1]:
                continue  # each cycle once: second vertex precedes the last
            cols = edges_to(v, pos)
            if cols is None:
                continue
            fresh = [c for _, c in cols]
            if len(set(fresh)) != len(fresh) or used_colors.intersection(fresh):
                continue
            seq.append(v)
            used_colors.update(fresh)
            if extend(pos + 1):
                return True
            seq.pop()
            used_colors.difference_update(fresh)
        return False

    return extend(1)


def load_reference(spec: SearchSpec) -> list[dict]:
    """The stored pool: one record per instance with its reference answer."""
    data = json.loads((REFERENCE_DIR / f"{spec.name}.json").read_text())
    for key in ("n", "k", "q", "m_lo", "m_hi", "pool_tag"):
        if data[key] != getattr(spec, key):
            raise ValueError(f"reference {spec.name}: {key} differs from the spec")
    if len(data["instances"]) != spec.pool_size:
        raise ValueError(f"reference {spec.name}: pool size differs from the spec")
    return data["instances"]


def select(spec: SearchSpec, pool: list[dict], seed: int, per_run: int | None = None) -> list[dict]:
    """One pool record per stratum of the node-sorted pool, in seeded order."""
    per_run = per_run or spec.per_run
    ranked = sorted(pool, key=lambda rec: (rec["nodes"], rec["index"]))
    width = len(ranked) // per_run
    rng = SplitMix64(fold(spec.pool_tag, seed))
    chosen = [ranked[s * width + rng.below(width)] for s in range(per_run)]
    rng.shuffle(chosen)
    return chosen
