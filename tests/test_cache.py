"""Tests for the simulators' per-cpu direct-mapped cache state.

Each cpu's cache is a sparse map from set index to resident block plus
the set of dirty indices; these tests pin its behaviour through the
simulator's read-only accessors (``holds``, ``is_dirty``, ``sharers``).
"""

import pytest

from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig
from repro.trace.record import Op, TraceRecord


def small_sim(sets=4, num_cpus=4):
    return CoherenceSimulator(
        CoherenceConfig(
            num_cpus=num_cpus, cache_bytes=sets * 16, block_bytes=16, num_pointers=4
        )
    )


def access(sim, cpu, op, block):
    sim.process(TraceRecord(cpu=cpu, op=op, address=block * 16, is_sync=False))


class TestConstruction:
    def test_paper_defaults(self):
        config = CoherenceConfig()
        assert config.cache_bytes == 256 * 1024
        assert config.block_bytes == 16
        # 16 * 1024 sets: the last set is distinct, the next block wraps.
        sim = CoherenceSimulator(CoherenceConfig(num_cpus=1))
        access(sim, 0, Op.READ, 0)
        access(sim, 0, Op.READ, 16 * 1024 - 1)
        assert sim.holds(0, 0)
        access(sim, 0, Op.READ, 16 * 1024)
        assert not sim.holds(0, 0)
        assert sim.holds(0, 16 * 1024)

    def test_size_must_be_multiple_of_block(self):
        for config in (CoherenceConfig, SnoopyConfig):
            with pytest.raises(ValueError):
                config(cache_bytes=100, block_bytes=16)

    def test_sizes_must_be_positive(self):
        for config in (CoherenceConfig, SnoopyConfig):
            with pytest.raises(ValueError):
                config(cache_bytes=0)
            with pytest.raises(ValueError):
                config(block_bytes=0)


class TestLookup:
    def test_miss_then_hit(self):
        sim = small_sim()
        access(sim, 0, Op.READ, 5)
        access(sim, 0, Op.READ, 5)
        assert sim.stats.hits == 1
        assert sim.stats.misses == 1

    def test_contains_does_not_count(self):
        sim = small_sim()
        access(sim, 0, Op.READ, 5)
        assert sim.holds(0, 5)
        assert not sim.holds(1, 5)
        assert sim.stats.hits == 0
        assert sim.stats.misses == 1

    def test_conflict_mapping(self):
        sim = small_sim(sets=4)
        access(sim, 0, Op.READ, 1)
        # Block 5 maps to the same set (5 % 4 == 1): a clean eviction,
        # so the miss costs its two transactions and no writeback.
        access(sim, 0, Op.READ, 5)
        assert not sim.holds(0, 1)
        assert sim.holds(0, 5)
        assert sim.stats.writebacks == 0
        assert sim.stats.data_traffic == 4

    def test_refill_same_block_no_eviction(self):
        sim = small_sim(sets=1)
        access(sim, 0, Op.READ, 3)
        access(sim, 0, Op.WRITE, 3)  # a hit: the line stays
        assert sim.holds(0, 3)
        assert sim.sharers(3) == {0}
        assert sim.stats.writebacks == 0


class TestDirtyState:
    def test_fill_dirty(self):
        sim = small_sim()
        access(sim, 0, Op.WRITE, 2)
        assert sim.is_dirty(0, 2)

    def test_mark_dirty_then_clean(self):
        sim = small_sim()
        access(sim, 0, Op.READ, 2)
        assert not sim.is_dirty(0, 2)
        access(sim, 0, Op.WRITE, 2)
        assert sim.is_dirty(0, 2)
        access(sim, 1, Op.READ, 2)  # recall: the owner keeps a clean copy
        assert sim.holds(0, 2)
        assert not sim.is_dirty(0, 2)

    def test_mark_dirty_missing_raises(self):
        """The dirty bit belongs to the line: a displaced block is not dirty."""
        sim = small_sim(sets=4)
        access(sim, 0, Op.WRITE, 1)
        access(sim, 0, Op.READ, 5)  # same set: evicts the dirty block
        assert not sim.is_dirty(0, 1)
        assert not sim.is_dirty(0, 5)  # a read fill is clean

    def test_eviction_reports_dirtiness(self):
        sim = small_sim(sets=4)
        access(sim, 0, Op.WRITE, 1)
        traffic = sim.stats.data_traffic
        access(sim, 0, Op.READ, 5)
        assert sim.stats.writebacks == 1
        # miss (2) + the victim's writeback (1).
        assert sim.stats.data_traffic == traffic + 3

    def test_is_dirty_for_absent_block(self):
        assert not small_sim().is_dirty(0, 7)


class TestInvalidate:
    def test_invalidate_present(self):
        sim = small_sim()
        access(sim, 0, Op.READ, 3)
        access(sim, 1, Op.READ, 3)
        access(sim, 0, Op.WRITE, 3)
        assert not sim.holds(1, 3)
        assert sim.holds(0, 3)

    def test_invalidate_absent_returns_false(self):
        """A write with no other copy invalidates nothing."""
        sim = small_sim()
        access(sim, 0, Op.WRITE, 3)
        assert sim.stats.invalidations_on_write == 0
        assert sim.stats.data_refs_invalidating == 0
        assert sim.stats.data_traffic == 2

    def test_invalidate_clears_dirty_bit(self):
        sim = small_sim()
        access(sim, 0, Op.WRITE, 3)
        access(sim, 1, Op.WRITE, 3)  # invalidates cpu 0's dirty copy
        assert not sim.holds(0, 3)
        access(sim, 0, Op.READ, 3)
        assert sim.holds(0, 3)
        assert not sim.is_dirty(0, 3)

    def test_invalidate_wrong_block_same_set(self):
        sim = small_sim(sets=4)
        access(sim, 0, Op.READ, 1)
        access(sim, 1, Op.READ, 5)  # same set, another cache
        access(sim, 2, Op.WRITE, 5)  # invalidates block 5 only
        assert not sim.holds(1, 5)
        assert sim.holds(0, 1)


class TestOccupancy:
    def test_occupancy_counts(self):
        sim = small_sim(sets=4)
        access(sim, 0, Op.READ, 0)
        access(sim, 0, Op.READ, 1)
        assert sim.holds(0, 0) and sim.holds(0, 1)
        assert [block for block in range(8) if sim.holds(0, block)] == [0, 1]
