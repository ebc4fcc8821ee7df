"""Systematic state-transition tests for both coherence protocols.

Each test pins the exact transactions, invalidations and resulting
state for one (initial sharing configuration, operation) pair — the
protocol truth tables the higher-level statistics rest on.
"""

import pytest

from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator
from repro.trace.record import Op, TraceRecord

BLOCK_ADDR = 0x400
BLOCK = BLOCK_ADDR // 16


def rec(cpu, op, addr=BLOCK_ADDR):
    return TraceRecord(cpu=cpu, op=op, address=addr, is_sync=False)


def directory_sim(pointers=4):
    return CoherenceSimulator(
        CoherenceConfig(num_cpus=4, num_pointers=pointers, cache_bytes=1024,
                        block_bytes=16)
    )


def snoopy_sim(protocol="invalidate", fiw=False):
    return SnoopySimulator(
        SnoopyConfig(num_cpus=4, protocol=protocol, fetch_intent_write=fiw,
                     cache_bytes=1024, block_bytes=16)
    )


class TestDirectoryTransitions:
    """Dir_i_NB truth table: (state, op) -> (traffic, invalidations)."""

    def test_uncached_read(self):
        sim = directory_sim()
        sim.process(rec(0, Op.READ))
        assert sim.stats.data_traffic == 2
        assert sim.stats.total_invalidations == 0
        assert sim.sharers(BLOCK) == {0}
        assert sim.owner(BLOCK) is None

    def test_uncached_write(self):
        sim = directory_sim()
        sim.process(rec(0, Op.WRITE))
        assert sim.stats.data_traffic == 2
        assert sim.owner(BLOCK) == 0

    def test_shared_read_adds_sharer(self):
        sim = directory_sim()
        sim.process(rec(0, Op.READ))
        sim.process(rec(1, Op.READ))
        assert sim.stats.data_traffic == 4
        assert sim.sharers(BLOCK) == {0, 1}

    def test_dirty_remote_read_downgrades(self):
        sim = directory_sim()
        sim.process(rec(0, Op.WRITE))
        sim.process(rec(1, Op.READ))
        # miss (2) + recall/writeback (2).
        assert sim.stats.data_traffic == 2 + 4
        assert sim.owner(BLOCK) is None
        assert sim.sharers(BLOCK) == {0, 1}

    def test_dirty_remote_write_transfers_ownership(self):
        sim = directory_sim()
        sim.process(rec(0, Op.WRITE))
        before = sim.stats.data_traffic
        sim.process(rec(1, Op.WRITE))
        # miss (2) + recall (2); one invalidation of the old owner.
        assert sim.stats.data_traffic == before + 4
        assert sim.stats.invalidations_on_write == 1
        assert sim.owner(BLOCK) == 1
        assert sim.sharers(BLOCK) == {1}

    def test_shared_write_hit_invalidates_each_copy(self):
        sim = directory_sim()
        for cpu in (0, 1, 2):
            sim.process(rec(cpu, Op.READ))
        before = sim.stats.data_traffic
        sim.process(rec(0, Op.WRITE))
        # ownership request (1) + one message per other sharer (2).
        assert sim.stats.data_traffic == before + 3
        assert sim.stats.invalidations_on_write == 2

    def test_shared_write_miss_invalidates_each_copy(self):
        sim = directory_sim()
        for cpu in (0, 1):
            sim.process(rec(cpu, Op.READ))
        before = sim.stats.data_traffic
        sim.process(rec(2, Op.WRITE))
        # miss (2) + one message per sharer (2).
        assert sim.stats.data_traffic == before + 4
        assert sim.stats.invalidations_on_write == 2

    def test_pointer_overflow_on_read(self):
        sim = directory_sim(pointers=2)
        for cpu in (0, 1):
            sim.process(rec(cpu, Op.READ))
        before = sim.stats.data_traffic
        sim.process(rec(2, Op.READ))
        # miss (2) + one eviction message (1).
        assert sim.stats.data_traffic == before + 3
        assert sim.stats.invalidations_on_overflow == 1
        assert len(sim.sharers(BLOCK)) == 2

    def test_owner_rewrite_free(self):
        sim = directory_sim()
        sim.process(rec(0, Op.WRITE))
        before = sim.stats.data_traffic
        sim.process(rec(0, Op.WRITE))
        sim.process(rec(0, Op.READ))
        assert sim.stats.data_traffic == before


class TestSnoopyTransitions:
    """Bus truth table: (state, op) -> bus transactions."""

    @pytest.mark.parametrize(
        "protocol,fiw,expected",
        [("invalidate", False, 2), ("invalidate", True, 1), ("update", False, 1)],
    )
    def test_cold_write_cost(self, protocol, fiw, expected):
        sim = snoopy_sim(protocol, fiw)
        sim.process(rec(0, Op.WRITE))
        assert sim.stats.bus_transactions == expected

    def test_invalidate_shared_write_single_broadcast(self):
        sim = snoopy_sim()
        for cpu in (0, 1, 2, 3):
            sim.process(rec(cpu, Op.READ))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.WRITE))
        assert sim.stats.bus_transactions == before + 1
        assert sim.stats.copies_invalidated == 3

    def test_update_shared_write_single_broadcast_keeps_copies(self):
        sim = snoopy_sim("update")
        for cpu in (0, 1, 2, 3):
            sim.process(rec(cpu, Op.READ))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.WRITE))
        assert sim.stats.bus_transactions == before + 1
        for cpu in (1, 2, 3):
            assert sim.holds(cpu, BLOCK)

    def test_update_write_miss_with_sharers(self):
        sim = snoopy_sim("update")
        sim.process(rec(0, Op.READ))
        before = sim.stats.bus_transactions
        sim.process(rec(1, Op.WRITE))
        # read (1) + update broadcast (1).
        assert sim.stats.bus_transactions == before + 2
        assert sim.holds(0, BLOCK)

    def test_invalidate_write_miss_dirty_remote(self):
        sim = snoopy_sim(fiw=True)
        sim.process(rec(0, Op.WRITE))
        before = sim.stats.bus_transactions
        sim.process(rec(1, Op.WRITE))
        # rdx (1) + flush (1); old copy invalidated.
        assert sim.stats.bus_transactions == before + 2
        assert not sim.holds(0, BLOCK)

    def test_read_after_invalidate_refetches(self):
        sim = snoopy_sim()
        sim.process(rec(0, Op.READ))
        sim.process(rec(1, Op.READ))
        sim.process(rec(1, Op.WRITE))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.READ))
        # Copy was invalidated: miss + flush of cpu1's dirty copy.
        assert sim.stats.bus_transactions == before + 2

    def test_read_after_update_hits(self):
        sim = snoopy_sim("update")
        sim.process(rec(0, Op.READ))
        sim.process(rec(1, Op.READ))
        sim.process(rec(1, Op.WRITE))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.READ))
        assert sim.stats.bus_transactions == before  # copy stayed valid

    def test_sharing_width_does_not_change_write_cost(self):
        # The Section 2.1 scalability point, as a truth-table fact.
        costs = []
        for width in (2, 4):
            sim = snoopy_sim()
            for cpu in range(width):
                sim.process(rec(cpu, Op.READ))
            before = sim.stats.bus_transactions
            sim.process(rec(0, Op.WRITE))
            costs.append(sim.stats.bus_transactions - before)
        assert costs[0] == costs[1] == 1
