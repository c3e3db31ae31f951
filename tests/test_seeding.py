import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainbowlab.seeding import _GAMMA, _MASK64, make_rng, mix, splitmix64, trial_rngs

# reference outputs for state 1234567, from the published splitmix64 algorithm
VECTOR = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_vector():
    state = 1234567
    outs = []
    for _ in range(5):
        outs.append(splitmix64(state))
        state = (state + _GAMMA) & _MASK64
    assert outs == VECTOR


@given(st.integers(min_value=0, max_value=_MASK64))
def test_splitmix64_in_range(x):
    assert 0 <= splitmix64(x) <= _MASK64


def test_mix_is_order_sensitive():
    assert mix(1, 2) != mix(2, 1)


def test_mix_is_arity_sensitive():
    assert mix(5) != mix(5, 0)
    assert mix() != mix(0)


@given(st.lists(st.integers(min_value=0, max_value=_MASK64), max_size=6))
def test_mix_is_deterministic(parts):
    assert mix(*parts) == mix(*parts)


def test_make_rng_streams_are_reproducible_and_distinct():
    a = make_rng(7, 1).random()
    b = make_rng(7, 1).random()
    c = make_rng(7, 2).random()
    assert a == b
    assert a != c


def test_make_rng_is_a_stdlib_generator():
    assert isinstance(make_rng(0), random.Random)


@pytest.mark.parametrize("prefix", [(), (7,), (-3, 2**64 + 5), (2026, 0x636F_6C6F_7273, -(2**70))])
def test_trial_rngs_are_make_rng_of_the_prefix_and_trial(prefix):
    for start in (0, 17, 2**64 - 20):
        for i, rng in zip(range(start, start + 50), trial_rngs(*prefix, start=start)):
            want = make_rng(*prefix, i)
            assert rng.getstate() == want.getstate()
            assert [rng.randrange(9) for _ in range(5)] == [want.randrange(9) for _ in range(5)]
