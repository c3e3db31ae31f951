"""Answers computed apart from the package, for checking the exact workload.

Everything here works on frozensets of vertex pairs built from
``itertools.permutations``, not on the package's element ids or bitmasks.
Several checks use that any two k-th powers of Hamilton cycles on [n] are
related by a relabelling of the vertices, so every member has the same
intersection profile against the family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations


@lru_cache(maxsize=None)
def power_family(n: int, k: int) -> tuple[frozenset, ...]:
    """Distinct edge sets of the k-th powers of the Hamilton cycles of K_n."""
    out = set()
    for rest in permutations(range(1, n)):
        order = (0,) + rest
        out.add(frozenset(frozenset((order[i], order[(i + j) % n])) for i in range(n) for j in range(1, k + 1)))
    return tuple(sorted(out, key=lambda s: sorted(tuple(sorted(e)) for e in s)))


def profile(n: int, k: int) -> tuple[int, ...]:
    """counts[t]: members meeting one fixed member in exactly t edges."""
    fam = power_family(n, k)
    base = fam[0]
    counts = [0] * (k * n + 1)
    for member in fam:
        counts[len(base & member)] += 1
    return tuple(counts)


def falling(a: int, b: int) -> int:
    return math.perm(a, b) if 0 <= b <= a else 0


def rainbow_moments(n: int, k: int, q: int) -> tuple[Fraction, Fraction]:
    """E(Z) and E(Z^2) for the rainbow count under uniform q-colorings."""
    r = k * n
    big_m = len(power_family(n, k))
    e_z = Fraction(big_m * falling(q, r), q**r)
    e_z2 = Fraction(0)
    for t, cnt in enumerate(profile(n, k)):
        if cnt:
            e_z2 += big_m * cnt * Fraction(falling(q, t) * falling(q - t, r - t) ** 2, q ** (2 * r - t))
    return e_z, e_z2


def spread(n: int, k: int, s_max: int) -> float:
    """min over seed sets S of one member, 1 <= |S| <= s_max, of (|H|/count(S))^(1/|S|)."""
    fam = power_family(n, k)
    best = math.inf
    for s in range(1, s_max + 1):
        for sub in combinations(sorted(fam[0], key=sorted), s):
            seed = frozenset(sub)
            cnt = sum(1 for member in fam if seed <= member)
            best = min(best, (len(fam) / cnt) ** (1.0 / s))
    return best


def cycle_component_count(n: int, t: int, c: int) -> int:
    """t-edge subgraphs of the n-cycle with c components: (n/c) C(t-1,c-1) C(n-t-1,c-1)."""
    num = n * math.comb(t - 1, c - 1) * math.comb(n - t - 1, c - 1)
    if num % c:
        raise ArithmeticError(f"closed form not integral at n={n} t={t} c={c}")
    return num // c


def prop2_bound(k: int, t: int, c: int) -> float:
    """The component-count bound (4ke)^t C(2t, c)."""
    return (4 * k * math.e) ** t * math.comb(2 * t, c)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
