"""Tests for seeded random-stream management."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng
from repro.sim.rng import BlockDraws, RandomStreams, spawn_stream


class TestSpawnStream:
    def test_same_key_same_sequence(self):
        a = spawn_stream(7, "arrivals")
        b = spawn_stream(7, "arrivals")
        assert list(a.integers(100, size=10)) == list(b.integers(100, size=10))

    def test_different_names_differ(self):
        a = spawn_stream(7, "arrivals")
        b = spawn_stream(7, "departures")
        assert list(a.integers(10**9, size=8)) != list(b.integers(10**9, size=8))

    def test_different_seeds_differ(self):
        a = spawn_stream(7, "arrivals")
        b = spawn_stream(8, "arrivals")
        assert list(a.integers(10**9, size=8)) != list(b.integers(10**9, size=8))


class TestRandomStreams:
    def test_get_is_cached(self):
        streams = RandomStreams(seed=1)
        assert streams.get("x") is streams.get("x")

    def test_reset_reseeds(self):
        streams = RandomStreams(seed=1)
        first = list(streams.get("x").integers(10**9, size=5))
        streams.reset()
        second = list(streams.get("x").integers(10**9, size=5))
        assert first == second

    def test_independent_names(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a")
        # Drawing from one stream must not perturb another.
        before = RandomStreams(seed=1).get("b").integers(10**9, size=5)
        a.integers(10**9, size=100)
        after = streams.get("b").integers(10**9, size=5)
        assert list(before) == list(after)

    def test_child_derivation_is_stable(self):
        one = RandomStreams(seed=3).child("phase")
        two = RandomStreams(seed=3).child("phase")
        assert one.seed == two.seed

    def test_child_differs_from_parent(self):
        parent = RandomStreams(seed=3)
        child = parent.child("phase")
        assert child.seed != parent.seed


#: Bounds for ``integers(n)``: 1 (draws nothing), powers of two, small
#: non-powers of two, and values just above 2**31 where Lemire's
#: rejection fires on about half of all draws.
_BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 64, 1000, 4097, 2**31 + 1, 2**32 - 1, 2**32]),
    st.integers(min_value=1, max_value=2**32),
)
_DRAWS = st.lists(st.one_of(st.none(), _BOUNDS), min_size=1, max_size=60)


def _draw(source, op):
    return source.random() if op is None else int(source.integers(op))


class TestBlockDraws:
    """BlockDraws reproduces numpy's scalar draws bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        block_size=st.integers(min_value=1, max_value=5),
        ops=_DRAWS,
    )
    def test_interleaved_draws_match_numpy(self, seed, block_size, ops):
        # ``None`` is a random() call, an int ``n`` an integers(n) call;
        # tiny blocks cross a block boundary every few draws.
        draws = BlockDraws(spawn_stream(seed, "p"))
        reference = spawn_stream(seed, "p")
        with mock.patch.object(rng, "_BLOCK", block_size):
            for op in ops:
                assert _draw(draws, op) == _draw(reference, op)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63), ops=_DRAWS)
    def test_adopts_a_generator_mid_stream(self, seed, ops):
        # A generator that already holds a half-word hands it over.
        generator = spawn_stream(seed, "p")
        reference = spawn_stream(seed, "p")
        assert generator.integers(10) == reference.integers(10)
        draws = BlockDraws(generator)
        for op in ops:
            assert _draw(draws, op) == _draw(reference, op)

    def test_half_word_survives_a_double_draw(self):
        # integers() uses the low half of a 64-bit output; random() then
        # takes a fresh output, and the next integers() the kept half.
        draws = BlockDraws(spawn_stream(3, "p"))
        reference = spawn_stream(3, "p")
        ops = [1000, None, None, 1000, 1000, None, 7]
        with mock.patch.object(rng, "_BLOCK", 2):
            assert [_draw(draws, op) for op in ops] == [
                _draw(reference, op) for op in ops
            ]

    def test_lemire_rejection_boundary(self):
        # numpy rejects a 32-bit draw r exactly when (r * n) mod 2**32 is
        # below 2**32 mod n.  Random streams almost never land on that
        # edge, so feed one 64-bit output whose low half sits just below
        # it and whose high half sits on it.
        n = 2**31 + 1
        threshold = 2**32 % n
        inverse = pow(n, -1, 2**32)
        rejected = (threshold - 1) * inverse % 2**32
        accepted = threshold * inverse % 2**32
        draws = BlockDraws(spawn_stream(0, "p"))
        draws._words = [accepted << 32 | rejected]
        assert draws.integers(n) == (accepted * n) >> 32

    def test_rejects_out_of_range_bounds(self):
        draws = BlockDraws(spawn_stream(0, "p"))
        for n in (0, -1, 2**32 + 1):
            with pytest.raises(ValueError):
                draws.integers(n)
