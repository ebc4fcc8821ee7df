"""Tests for the Dir_i_NB directory state of the coherence simulator.

The directory is a map from block to sharer set plus a map from block
to dirty owner; these tests pin it through the simulator's read-only
accessors (``sharers``, ``owner``, ``holds``).
"""

import pytest

from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.obs.tracer import Tracer, tracing
from repro.trace.record import Op, TraceRecord


def directory_sim(pointers, num_cpus=16):
    return CoherenceSimulator(
        CoherenceConfig(num_cpus=num_cpus, num_pointers=pointers, cache_bytes=1024)
    )


def access(sim, cpu, op, block):
    sim.process(TraceRecord(cpu=cpu, op=op, address=block * 16, is_sync=False))


class TestDirectoryEntry:
    def test_fresh_entry(self):
        sim = directory_sim(4)
        assert sim.sharers(1) == frozenset()
        assert sim.owner(1) is None

    def test_dirty_owner(self):
        sim = directory_sim(4)
        access(sim, 3, Op.WRITE, 1)
        assert sim.owner(1) == 3
        assert sim.sharers(1) == {3}


class TestDirectory:
    def test_pointer_limit_clamped_to_cpus(self):
        assert directory_sim(64, num_cpus=16).num_pointers == 16

    def test_full_map_detection(self):
        assert directory_sim(64, num_cpus=64).num_pointers == 64
        assert directory_sim(4, num_cpus=64).num_pointers == 4

    def test_entry_created_on_first_touch(self):
        sim = directory_sim(4)
        assert not sim.sharers(10)
        access(sim, 2, Op.READ, 10)
        assert sim.sharers(10) == {2}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CoherenceConfig(num_pointers=0, num_cpus=4)
        with pytest.raises(ValueError):
            CoherenceConfig(num_pointers=4, num_cpus=0)


class TestPointerOverflow:
    def test_no_victims_below_limit(self):
        sim = directory_sim(3)
        for cpu in (0, 1, 5):
            access(sim, cpu, Op.READ, 1)
        assert sim.stats.invalidations_on_overflow == 0
        assert sim.sharers(1) == {0, 1, 5}

    def test_victim_when_full(self):
        sim = directory_sim(3)
        for cpu in (9, 4, 7):  # cpu 4 is neither the first nor the last
            access(sim, cpu, Op.READ, 1)
        access(sim, 5, Op.READ, 1)
        # Deterministic: the lowest cpu id goes first.
        assert sim.sharers(1) == {5, 7, 9}
        assert not sim.holds(4, 1)
        assert sim.stats.invalidations_on_overflow == 1

    def test_existing_sharer_needs_no_victims(self):
        sim = directory_sim(2)
        access(sim, 4, Op.READ, 1)
        access(sim, 7, Op.READ, 1)
        access(sim, 4, Op.READ, 1)
        assert sim.stats.invalidations_on_overflow == 0
        assert sim.sharers(1) == {4, 7}

    def test_multiple_victims_if_overfull(self):
        """Sharers never exceed i, so each overflow evicts exactly one."""
        sim = directory_sim(2)
        tracer = Tracer()
        with tracing(tracer):
            for cpu in range(6):
                access(sim, cpu, Op.READ, 1)
        assert sim.stats.invalidations_on_overflow == 4
        events = tracer.recent(kind="directory.overflow")
        assert [(e["requester"], e["victims"], e["sharers"]) for e in events] == [
            (cpu, 1, 2) for cpu in range(2, 6)
        ]
        assert tracer.counters["directory.overflow_invalidations"] == 4
        assert sim.sharers(1) == {4, 5}

    def test_full_map_never_evicts(self):
        sim = directory_sim(64)  # more pointers than cpus: a full map
        for cpu in range(16):
            access(sim, cpu, Op.READ, 1)
        assert sim.stats.invalidations_on_overflow == 0
        assert sim.sharers(1) == set(range(16))


class TestRemoveSharer:
    def test_removes_and_deletes_empty_entry(self):
        sim = directory_sim(4)
        access(sim, 0, Op.READ, 0)
        access(sim, 1, Op.READ, 0)
        access(sim, 0, Op.READ, 64)  # same set as block 0 (64 sets)
        assert sim.sharers(0) == {1}
        access(sim, 1, Op.READ, 64)
        assert not sim.sharers(0)
        sim.check_invariants()

    def test_clears_owner(self):
        sim = directory_sim(4)
        access(sim, 3, Op.WRITE, 0)
        access(sim, 3, Op.READ, 64)  # evicts the dirty block 0
        assert sim.owner(0) is None
        assert not sim.sharers(0)
        assert sim.stats.writebacks == 1

    def test_remove_from_missing_block_is_noop(self):
        """A line an invalidation already emptied evicts nothing."""
        sim = directory_sim(4)
        access(sim, 0, Op.READ, 0)
        access(sim, 1, Op.WRITE, 0)  # invalidates cpu 0's copy
        traffic = sim.stats.data_traffic
        access(sim, 0, Op.READ, 64)  # cpu 0's set 0 is empty again
        assert sim.stats.data_traffic == traffic + 2
        assert sim.sharers(0) == {1}
        assert sim.owner(0) == 1
        sim.check_invariants()

    def test_tracked_blocks(self):
        sim = directory_sim(4)
        access(sim, 0, Op.READ, 5)
        access(sim, 0, Op.READ, 2)
        assert [block for block in range(8) if sim.sharers(block)] == [2, 5]
