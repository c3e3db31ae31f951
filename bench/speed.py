"""Machine-speed probe, for timings that hold still on a shared machine.

On a virtual machine shared with other tenants, the speed at which Python
runs drifts by tens of percent over minutes.  Most code slows down together,
so the ratio between an op's time and a fixed probe's time varies far less
than either.  The client therefore runs the probe between ops, at least every
``EVERY_S`` seconds, and rescales each op's time by ``REFERENCE_PROBE_S``
over the median probe time within ``WINDOW_S`` of the op.  Rescaled times
read as seconds on a machine whose probe takes ``REFERENCE_PROBE_S``.

The probe is plain Python written apart from the package, so no change to
the package can change it.  It mixes the kinds of work the package's kernels
do: integer bit tricks, dict lookups with tuple keys, and union-find over
combinations.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
import time

REFERENCE_PROBE_S = 0.0006  # about the probe's median time on the machine of the baseline
EVERY_S = 0.1
WINDOW_S = 2.0

_TABLE = tuple((i * 0x9E3779B1) & 0xFFFF for i in range(4096))
_KEYS = tuple(tuple(_TABLE[(i * 37 + j) & 4095] for j in range(6)) for i in range(400))
_INDEX = {key: i for i, key in enumerate(_KEYS)}


def _bits(rounds: int) -> int:
    acc = 0
    table = _TABLE
    for i in range(rounds):
        v = table[i & 4095] | 1
        acc = (acc + (v & -v).bit_length() + (v >> 3).bit_count()) & 0xFF
    return acc


def _lookups() -> int:
    acc = 0
    for key in _KEYS:
        acc = (acc ^ _INDEX[key] ^ key[0]) & 0xFF
    return acc


def _components(n: int, t: int) -> int:
    acc = 0
    parent = list(range(n))
    for sub in itertools.combinations(range(n), t):
        for x in range(n):
            parent[x] = x
        for u in sub:
            ru, rv = u, (u + 1) % n
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru != rv:
                parent[ru] = rv
        acc = (acc + parent[0]) & 0xFF
    return acc


def probe() -> float:
    """Time of one run of the fixed kernel, in seconds.

    The kernel keeps nothing it allocates, and it runs with the garbage
    collector off: a collection would walk the whole heap, so a package that
    keeps more memory alive would slow the probe and shrink its own rescaled
    times.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _bits(3000)
        _lookups()
        _components(10, 3)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probe results over time, and the rescaling factor for an interval."""

    def __init__(self):
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.probe_s.append(probe())
            self.at.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the median probe time near [t0, t1]: the
        probes within WINDOW_S of it, and always the last one before and the
        first one after it."""
        lo = min(bisect.bisect_left(self.at, t0 - WINDOW_S), max(0, bisect.bisect_right(self.at, t0) - 1))
        hi = max(bisect.bisect_right(self.at, t1 + WINDOW_S), bisect.bisect_left(self.at, t1) + 1)
        return REFERENCE_PROBE_S / statistics.median(self.probe_s[lo:hi])
