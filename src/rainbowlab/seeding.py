"""Deterministic derivation of per-unit random generators.

Every randomized routine in this package derives its generator from a master
seed plus structural indices (stage, grid point, trial number, ...) instead of
sharing one generator.  This makes results independent of scheduling and
iteration order: trial 17 sees the same stream whether it runs first, last, or
on another worker process, one that _fan_out forks.

The derivation is a splitmix64 avalanche chain.  splitmix64 is the standard
64-bit finalizer (Steele-Lea-Flood increment, two xor-multiply rounds); folding
each index through it gives a well-mixed 64-bit stream key.  The chain is
order-sensitive, so mix(a, b) != mix(b, a), and length-sensitive, so
mix(a) != mix(a, 0).
"""

from __future__ import annotations

import multiprocessing
import random
import threading
from itertools import count
from typing import Callable, Iterator, Sequence

__all__ = ["make_rng", "mix", "splitmix64", "trial_rngs"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: add the golden-gamma increment, then avalanche."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(arity: int, parts) -> int:
    """The key rule: a splitmix64 chain from the arity through each part."""
    acc = splitmix64(arity)
    for p in parts:
        acc = splitmix64(acc ^ (p & _MASK64))
    return acc


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit key. Order and arity both matter."""
    return _fold(len(parts), parts)


def make_rng(*parts: int) -> random.Random:
    """A stdlib generator keyed by mix(*parts)."""
    return random.Random(mix(*parts))


def trial_rngs(*prefix: int, start: int = 0) -> Iterator[random.Random]:
    """The generators make_rng(*prefix, i) for i = start, start + 1, ...

    The prefix is folded once, and one generator is reseeded for each i, so
    each yielded generator is valid only until the next one is drawn.  A
    worker that runs trials start .. stop - 1 passes its start, so it seeds
    no generator of the trials before its own.
    """
    acc = _fold(len(prefix) + 1, prefix)
    rng = random.Random()
    for i in count(start):
        rng.seed(splitmix64(acc ^ (i & _MASK64)))
        yield rng


def _fan_out(fn: Callable, blocks: Sequence) -> list:
    """[fn(b) for b in blocks], with blocks[1:] run by workers forked from
    this process while it runs blocks[0] itself.

    It forks only where that is safe: the platform offers fork, this process
    runs one thread (a fork could copy a lock another thread holds), and it
    is no daemonic pool worker (those may have no children).  Otherwise every
    block runs here; it never spawns, as a fresh interpreter would import the
    package again and cost more than a block saves.  fn and its results must
    pickle.
    """
    forks = "fork" in multiprocessing.get_all_start_methods()
    if len(blocks) < 2 or not forks or threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return list(map(fn, blocks))
    with multiprocessing.get_context("fork").Pool(len(blocks) - 1) as pool:
        rest = pool.map_async(fn, blocks[1:])
        return [fn(blocks[0]), *rest.get()]
