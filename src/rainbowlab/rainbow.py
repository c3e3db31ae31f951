"""Uniform random colorings and exact/empirical rainbow moment accounting.

Elements of the ground set receive independent uniform colors from
{0, ..., q-1}; a member is rainbow when its r elements carry r distinct
colors.  For the rainbow count Z the first and second moments have closed
forms driven by the family's intersection profile:

    E(Z)   = |H| (q)_r / q^r
    E(Z^2) = sum over ordered member pairs (A, B), t = |A cap B|, of
             (q)_t ((q-t)_{r-t})^2 / q^{2r-t}

with (a)_b the falling factorial.  Moments are kept as exact rationals while
the denominators stay below a fixed bit bound, then fall back to log-space
floats (flagged on the result).
"""

from __future__ import annotations

import functools
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat
from typing import Iterable

from .errors import BudgetError, InputError
from .hypergraph import DEFAULT_PAIR_BUDGET, Hypergraph, _profile_rows, _view
from .seeding import _fan_out, trial_rngs

__all__ = [
    "Coloring",
    "RainbowStats",
    "MomentReport",
    "falling",
    "default_color_count",
    "random_coloring",
    "rainbow_subfamily",
    "expected_rainbow_count",
    "exact_second_moment",
    "empirical_moments",
]


def falling(a: int, b: int) -> int:
    """Falling factorial (a)_b = a (a-1) ... (a-b+1); zero when b > a >= 0."""
    if b < 0:
        raise InputError(f"falling factorial needs b >= 0, got {b}")
    if b == 0:
        return 1
    if a < b:
        return 0
    out = 1
    for i in range(b):
        out *= a - i
    return out


def default_color_count(r: int, epsilon1: float) -> int:
    """Palette size ceil((1 + epsilon1) * r) used when q is not given.

    The product arrives as a float, and e.g. 1.1 * 50 evaluates to
    55.00000000000001; the 1e-9 nudge of alpha_cut absorbs that error.
    """
    if not 0 < epsilon1 < math.inf:
        raise InputError(f"epsilon1 must be positive and finite, got {epsilon1}")
    return math.ceil((1 + epsilon1) * r - 1e-9)


@dataclass(frozen=True)
class Coloring:
    """Colors indexed by element id, values in 0..q-1."""

    colors: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise InputError(f"palette size q must be >= 1, got {self.q}")
        for x, c in enumerate(self.colors):
            if not 0 <= c < self.q:
                raise InputError(f"color {c} of element {x} out of range 0..{self.q - 1}")

    def __len__(self) -> int:
        return len(self.colors)


def random_coloring(size: int, q: int, rng) -> Coloring:
    return Coloring(tuple(map(rng.randrange, repeat(q, size))), q)


def _repeats(incidence: tuple[int, ...], colors: Iterable[int], q: int) -> int:
    """Bitmask of the members, by index, in which some color appears twice.

    One pass over the ground set: seen[c] holds the members that an element
    of color c already lies in, so a member meeting c again is caught by one
    AND of |H|-bit masks.  A list indexes fastest; a palette larger than the
    ground set gets a dict, so memory stays linear in the ground set.
    """
    seen = [0] * q if q <= len(incidence) else defaultdict(int)
    bad = 0
    for c, inc in zip(colors, incidence):
        s = seen[c]
        bad |= s & inc
        seen[c] = s | inc
    return bad


# bin() digits as compress selectors
_SELECT = bytes.maketrans(b"01", b"\0\1")


def rainbow_subfamily(hg: Hypergraph, coloring: Coloring) -> Hypergraph:
    """Members whose elements carry pairwise distinct colors.

    The ground set carries over, and so do repeated members: a multiset
    stays one.  The kept members are hg's own, so they are not checked again.
    """
    if len(coloring) != hg.n_elements:
        raise InputError(f"coloring covers {len(coloring)} elements, ground set has {hg.n_elements}")
    kept = ~_repeats(hg.incidence, coloring.colors, coloring.q) & ((1 << len(hg.edges)) - 1)
    # bin() reversed lists bit j at index j, and stops at the top kept member
    edges = tuple(compress(hg.edges, bin(kept)[:1:-1].encode().translate(_SELECT)))
    return _view(hg.n_elements, edges, hg.r)


def expected_rainbow_count(family_size: int, q: int, r: int) -> Fraction:
    """E(Z) = M (q)_r / q^r, exactly."""
    if family_size < 0:
        raise InputError(f"family size must be >= 0, got {family_size}")
    if q < 1 or r < 1:
        raise InputError(f"need q >= 1 and r >= 1, got q={q} r={r}")
    return Fraction(family_size * falling(q, r), q**r)


@dataclass(frozen=True)
class RainbowStats:
    """Exact rainbow-count moments for one family and palette."""

    q: int
    r: int
    family_size: int
    e_z: Fraction
    e_z2: Fraction
    ratio: float | None  # E(Z^2) / E(Z)^2, None when E(Z) = 0
    exact: bool = True   # False when the rational path overflowed the bit bound

    def to_json(self) -> dict:
        return {
            "M": self.family_size,
            "q": self.q,
            "r": self.r,
            "E_Z": float(self.e_z),
            "E_Z2": float(self.e_z2),
            "E_Z_exact": f"{self.e_z.numerator}/{self.e_z.denominator}",
            # the log-space fallback only approximates E(Z^2): no exact form
            "E_Z2_exact": f"{self.e_z2.numerator}/{self.e_z2.denominator}" if self.exact else None,
            "ratio": self.ratio,
            "exact": self.exact,
        }


# the exact path runs while (2r) * bitlen(q) stays within this many bits
_MAX_DENOMINATOR_BITS = 1 << 16


def exact_second_moment(hg: Hypergraph, q: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> RainbowStats:
    """Exact E(Z) and E(Z^2) from the pairwise intersection tally: n_t ordered
    member pairs meet in exactly t elements."""
    if q < 1:
        raise InputError(f"palette size q must be >= 1, got {q}")
    if not hg.edges:
        raise InputError("moments are undefined for an empty family")
    r = hg.r
    rows = _profile_rows(hg, pair_budget, "second moment")
    n_t = [sum(c * row[t] for row, c in rows.items()) for t in range(r + 1)]
    e_z = expected_rainbow_count(len(hg.edges), q, r)

    exact = (2 * r) * q.bit_length() <= _MAX_DENOMINATOR_BITS
    if exact:
        e_z2 = Fraction(0)
        for t, cnt in enumerate(n_t):
            if cnt:
                e_z2 += cnt * Fraction(falling(q, t) * falling(q - t, r - t) ** 2, q ** (2 * r - t))
    else:
        # log-space accumulation; the Fraction is a float-backed approximation
        acc = 0.0
        lq = math.log(q)
        for t, cnt in enumerate(n_t):
            num = falling(q, t) * falling(q - t, r - t) ** 2
            if cnt and num:
                acc += math.exp(math.log(cnt) + math.log(num) - (2 * r - t) * lq)
        e_z2 = Fraction(acc).limit_denominator(10**12)

    ratio = float(e_z2 / (e_z * e_z)) if e_z > 0 else None
    return RainbowStats(
        q=q, r=r, family_size=len(hg.edges), e_z=e_z, e_z2=e_z2, ratio=ratio, exact=exact
    )


@dataclass(frozen=True)
class MomentReport:
    """Seeded Monte Carlo moments next to their exact counterparts."""

    family_size: int
    q: int
    r: int
    trials: int
    seed: int
    mc_mean: float
    mc_var: float
    mc_se: float
    mc_mean_z2: float
    mc_se_z2: float
    e_z: float | None
    e_z2: float | None

    def to_json(self) -> dict:
        return {
            "M": self.family_size,
            "q": self.q,
            "r": self.r,
            "E_Z": self.e_z,
            "E_Z2": self.e_z2,
            "ratio": (
                self.e_z2 / self.e_z**2 if self.e_z and self.e_z2 is not None else None
            ),
            "mc_mean": self.mc_mean,
            "mc_var": self.mc_var,
            "mc_se": self.mc_se,
            "mc_mean_z2": self.mc_mean_z2,
            "mc_se_z2": self.mc_se_z2,
            "trials": self.trials,
            "seed": self.seed,
        }


_STREAM_COLORS = 0x636F_6C6F_7273  # stream tag for coloring draws

# A forked worker costs this process a few milliseconds, the time of about
# 500 trials at (5, 1), q = 6; below this many trials per worker a split
# gains too little, and a 3,000-trial run samples in-process.
_MIN_TRIALS_PER_WORKER = 2000


def _sampling_workers(trials: int) -> int:
    """Workers for `trials` sampled colorings: one per available core, but
    none that gets fewer than _MIN_TRIALS_PER_WORKER trials, and one at least."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cores, trials // _MIN_TRIALS_PER_WORKER))


def _moment_sums(
    incidence: tuple[int, ...], family_size: int, q: int, seed: int, block: tuple[int, int]
) -> tuple[int, int, int]:
    """The exact sums of Z, Z^2 and Z^4 over trials start .. stop - 1, where
    Z is the family size less the members that _repeats marks."""
    start, stop = block
    size = len(incidence)
    s1 = s2 = s4 = 0
    for rng in islice(trial_rngs(seed, _STREAM_COLORS, start=start), stop - start):
        z = family_size - _repeats(incidence, map(rng.randrange, repeat(q, size)), q).bit_count()
        s1 += z
        s2 += z * z
        s4 += (z * z) ** 2
    return s1, s2, s4


def empirical_moments(
    hg: Hypergraph,
    q: int,
    trials: int,
    seed: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> MomentReport:
    """Sample mean/variance of Z over seeded colorings, with exact comparison.

    Trial i draws its colors from a generator keyed by (seed, stream, i), so
    the estimate is reproducible and order-independent.  The trials are cut
    into contiguous blocks, one per worker (_sampling_workers), which
    seeding._fan_out runs; the blocks' exact integer sums are added, so no
    byte depends on the worker count.  Exact moments are attached when
    the pairwise tally fits the budget.  They are computed first, so a bad
    budget or family is refused before any sampling.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if q < 1:
        raise InputError(f"palette size q must be >= 1, got {q}")
    try:
        stats = exact_second_moment(hg, q, pair_budget=pair_budget)
        e_z, e_z2 = float(stats.e_z), float(stats.e_z2)
    except BudgetError:
        e_z = e_z2 = None

    sums = functools.partial(_moment_sums, hg.incidence, len(hg.edges), q, seed)
    workers = _sampling_workers(trials)
    blocks = [(trials * j // workers, trials * (j + 1) // workers) for j in range(workers)]
    s1, s2, s4 = map(sum, zip(*_fan_out(sums, blocks)))

    mean = s1 / trials
    mean_z2 = s2 / trials
    if trials > 1:
        var = (s2 - trials * mean**2) / (trials - 1)
        var_z2 = (s4 - trials * mean_z2**2) / (trials - 1)
    else:
        var = var_z2 = 0.0
    var = max(var, 0.0)
    var_z2 = max(var_z2, 0.0)

    return MomentReport(
        family_size=len(hg.edges),
        q=q,
        r=hg.r,
        trials=trials,
        seed=seed,
        mc_mean=mean,
        mc_var=var,
        mc_se=math.sqrt(var / trials),
        mc_mean_z2=mean_z2,
        mc_se_z2=math.sqrt(var_z2 / trials),
        e_z=e_z,
        e_z2=e_z2,
    )
