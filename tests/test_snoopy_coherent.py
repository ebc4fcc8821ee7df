"""Tests for the snoopy-bus substrate and the coherent barrier simulator."""

import numpy as np
import pytest

from repro.barrier.coherent import (
    CoherentBarrierSimulator,
    simulate_coherent_barrier,
)
from repro.core.backoff import ExponentialFlagBackoff
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator
from repro.trace.record import Op, TraceRecord


def rec(cpu, op, address, is_sync=False):
    return TraceRecord(cpu=cpu, op=op, address=address, is_sync=is_sync)


def snoopy(num_cpus=4, protocol="invalidate", fiw=False, cache_bytes=1024):
    return SnoopySimulator(
        SnoopyConfig(
            num_cpus=num_cpus,
            protocol=protocol,
            fetch_intent_write=fiw,
            cache_bytes=cache_bytes,
            block_bytes=16,
        )
    )


class TestSnoopyConfig:
    def test_invalid_protocol(self):
        with pytest.raises(ValueError):
            SnoopyConfig(protocol="dragonfly")

    def test_fiw_only_for_invalidate(self):
        with pytest.raises(ValueError):
            SnoopyConfig(protocol="update", fetch_intent_write=True)

    def test_invalid_cpus(self):
        with pytest.raises(ValueError):
            SnoopyConfig(num_cpus=0)


class TestInvalidateProtocol:
    def test_read_miss_one_transaction(self):
        sim = snoopy()
        sim.process(rec(0, Op.READ, 0x100))
        assert sim.stats.bus_transactions == 1
        assert sim.stats.reads_on_bus == 1

    def test_read_hit_free(self):
        sim = snoopy()
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(0, Op.READ, 0x104))
        assert sim.stats.bus_transactions == 1
        assert sim.stats.hits == 1

    def test_widely_shared_read_costs_one_each(self):
        # The Section 2.1 point: sharing width does not matter on a bus.
        sim = snoopy()
        for cpu in range(4):
            sim.process(rec(cpu, Op.READ, 0x100))
        assert sim.stats.bus_transactions == 4

    def test_write_hit_shared_single_broadcast(self):
        sim = snoopy()
        for cpu in range(4):
            sim.process(rec(cpu, Op.READ, 0x100))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.WRITE, 0x100))
        # One upgrade regardless of three remote copies.
        assert sim.stats.bus_transactions == before + 1
        assert sim.stats.copies_invalidated == 3
        assert not sim.holds(1, 0x10)

    def test_write_miss_naive_costs_two(self):
        sim = snoopy()
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.bus_transactions == 2  # read + upgrade

    def test_write_miss_fiw_costs_one(self):
        sim = snoopy(fiw=True)
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.bus_transactions == 1  # read-exclusive

    def test_dirty_remote_copy_flushes_on_read(self):
        sim = snoopy(fiw=True)
        sim.process(rec(0, Op.WRITE, 0x100))
        before = sim.stats.bus_transactions
        sim.process(rec(1, Op.READ, 0x100))
        assert sim.stats.flushes == 1
        assert sim.stats.bus_transactions == before + 2
        assert not sim.is_dirty(0, 0x10)

    def test_rewrite_modified_silent(self):
        sim = snoopy(fiw=True)
        sim.process(rec(0, Op.WRITE, 0x100))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.bus_transactions == before

    def test_clean_exclusive_write_silent(self):
        sim = snoopy()
        sim.process(rec(0, Op.READ, 0x100))
        before = sim.stats.bus_transactions
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.bus_transactions == before
        assert sim.is_dirty(0, 0x10)

    def test_invariants(self):
        sim = snoopy()
        for cpu, op, addr in [
            (0, Op.WRITE, 0x100),
            (1, Op.READ, 0x100),
            (2, Op.WRITE, 0x100),
            (3, Op.READ, 0x200),
            (2, Op.READ, 0x200),
        ]:
            sim.process(rec(cpu, op, addr))
        sim.check_invariants()

    def test_dirty_eviction_writeback(self):
        sim = snoopy(cache_bytes=4 * 16)
        sim.process(rec(0, Op.WRITE, 0x000))
        before = sim.stats.writebacks
        sim.process(rec(0, Op.READ, 0x040))  # conflicts, evicts dirty
        assert sim.stats.writebacks == before + 1


class TestUpdateProtocol:
    def test_write_hit_shared_updates_not_invalidates(self):
        sim = snoopy(protocol="update")
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(1, Op.READ, 0x100))
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.updates == 1
        assert sim.stats.copies_invalidated == 0
        assert sim.holds(1, 0x10)  # still cached

    def test_readers_hit_after_update(self):
        sim = snoopy(protocol="update")
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(1, Op.READ, 0x100))
        sim.process(rec(0, Op.WRITE, 0x100))
        before = sim.stats.bus_transactions
        sim.process(rec(1, Op.READ, 0x100))  # hit, no re-fetch
        assert sim.stats.bus_transactions == before

    def test_sync_transactions_attributed(self):
        sim = snoopy(protocol="update")
        sim.process(rec(0, Op.READ, 0x100, is_sync=True))
        sim.process(rec(1, Op.READ, 0x200))
        assert sim.stats.sync_bus_transactions == 1
        assert sim.stats.bus_transactions == 2


class TestCoherentBarrier:
    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            CoherentBarrierSimulator(4, scheme="ring-barrier")
        with pytest.raises(ValueError):
            CoherentBarrierSimulator(0)

    def test_single_processor(self):
        stats = simulate_coherent_barrier(1, "snoopy-invalidate", repetitions=2)
        assert stats.mean > 0

    @pytest.mark.parametrize("scheme", CoherentBarrierSimulator.SCHEMES)
    def test_all_schemes_complete(self, scheme):
        stats = simulate_coherent_barrier(
            8, scheme, interval_a=20, repetitions=3
        )
        assert stats.mean > 0

    def test_paper_ordering(self):
        values = {
            scheme: simulate_coherent_barrier(
                16, scheme, interval_a=30, repetitions=3
            ).mean
            for scheme in (
                "snoopy-update",
                "snoopy-invalidate-fiw",
                "snoopy-invalidate",
                "uncached",
            )
        }
        assert values["snoopy-update"] < values["snoopy-invalidate"]
        assert values["snoopy-invalidate-fiw"] < values["snoopy-invalidate"]
        assert values["snoopy-invalidate"] < values["uncached"] / 3

    def test_cached_polls_are_free(self):
        # Widening A adds polls; cached schemes' traffic must not grow
        # with it, uncached traffic must.
        cached_small = simulate_coherent_barrier(
            16, "snoopy-invalidate", interval_a=0, repetitions=3
        )
        cached_large = simulate_coherent_barrier(
            16, "snoopy-invalidate", interval_a=300, repetitions=3
        )
        assert cached_large.mean == pytest.approx(cached_small.mean, rel=0.1)
        uncached_small = simulate_coherent_barrier(
            16, "uncached", interval_a=0, repetitions=3
        )
        uncached_large = simulate_coherent_barrier(
            16, "uncached", interval_a=300, repetitions=3
        )
        assert uncached_large.mean > uncached_small.mean * 1.5

    def test_backoff_tames_uncached(self):
        plain = simulate_coherent_barrier(
            16, "uncached", interval_a=200, repetitions=3
        )
        backoff = simulate_coherent_barrier(
            16,
            "uncached",
            interval_a=200,
            policy=ExponentialFlagBackoff(base=2),
            repetitions=3,
        )
        assert backoff.mean < plain.mean / 3

    def test_directory_pointer_limit_increases_traffic(self):
        full = simulate_coherent_barrier(
            16, "directory", interval_a=30, repetitions=3
        )
        limited = simulate_coherent_barrier(
            16, "directory", interval_a=30, num_pointers=2, repetitions=3
        )
        assert limited.mean > full.mean

    def test_reproducible(self):
        a = simulate_coherent_barrier(8, "uncached", interval_a=50,
                                      repetitions=3, seed=2)
        b = simulate_coherent_barrier(8, "uncached", interval_a=50,
                                      repetitions=3, seed=2)
        assert a.mean == b.mean
