"""Tests for the trace-driven Dir_i_NB coherence simulator."""

import pytest

from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.trace.record import Op, TraceRecord


def rec(cpu, op, address, is_sync=False):
    return TraceRecord(cpu=cpu, op=op, address=address, is_sync=is_sync)


def simulator(num_cpus=4, pointers=4, cache_sync=True, cache_bytes=1024):
    return CoherenceSimulator(
        CoherenceConfig(
            num_cpus=num_cpus,
            num_pointers=pointers,
            cache_sync=cache_sync,
            cache_bytes=cache_bytes,
            block_bytes=16,
        )
    )


class TestBasicProtocol:
    def test_read_miss_costs_two_transactions(self):
        sim = simulator()
        sim.process(rec(0, Op.READ, 0x100))
        assert sim.stats.data_traffic == 2
        assert sim.stats.misses == 1

    def test_read_hit_costs_nothing(self):
        sim = simulator()
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(0, Op.READ, 0x104))  # same 16-byte block
        assert sim.stats.hits == 1
        assert sim.stats.data_traffic == 2

    def test_write_then_rewrite_is_silent(self):
        sim = simulator()
        sim.process(rec(0, Op.WRITE, 0x100))
        traffic = sim.stats.data_traffic
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.data_traffic == traffic

    def test_write_hit_to_clean_invalidates_sharers(self):
        sim = simulator()
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(1, Op.READ, 0x100))
        sim.process(rec(2, Op.READ, 0x100))
        sim.process(rec(0, Op.WRITE, 0x100))
        assert sim.stats.invalidations_on_write == 2
        assert not sim.holds(1, 0x10)
        assert not sim.holds(2, 0x10)
        assert sim.is_dirty(0, 0x10)

    def test_figure1_histogram_records_width(self):
        sim = simulator()
        for cpu in range(3):
            sim.process(rec(cpu, Op.READ, 0x100))
        sim.process(rec(0, Op.WRITE, 0x100))
        histogram = sim.stats.write_invalidation_histogram
        assert histogram.count(2) == 1

    def test_write_miss_recalls_dirty_copy(self):
        sim = simulator()
        sim.process(rec(0, Op.WRITE, 0x100))
        sim.process(rec(1, Op.WRITE, 0x100))
        assert sim.stats.writebacks == 1
        assert not sim.holds(0, 0x10)
        assert sim.is_dirty(1, 0x10)

    def test_read_miss_downgrades_dirty_copy(self):
        sim = simulator()
        sim.process(rec(0, Op.WRITE, 0x100))
        sim.process(rec(1, Op.READ, 0x100))
        assert sim.stats.writebacks == 1
        assert sim.holds(0, 0x10)
        assert not sim.is_dirty(0, 0x10)
        assert sim.owner(0x10) is None
        assert sim.sharers(0x10) == {0, 1}

    def test_rmw_treated_as_write(self):
        sim = simulator()
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(1, Op.RMW, 0x100))
        assert sim.is_dirty(1, 0x10)
        assert not sim.holds(0, 0x10)


class TestPointerOverflow:
    def test_overflow_invalidates_oldest(self):
        sim = simulator(pointers=2)
        sim.process(rec(0, Op.READ, 0x100))
        sim.process(rec(1, Op.READ, 0x100))
        sim.process(rec(2, Op.READ, 0x100))
        assert sim.stats.invalidations_on_overflow == 1
        assert len(sim.sharers(0x10)) == 2
        assert 2 in sim.sharers(0x10)

    def test_full_map_never_overflows(self):
        sim = simulator(num_cpus=8, pointers=8)
        for cpu in range(8):
            sim.process(rec(cpu, Op.READ, 0x100))
        assert sim.stats.invalidations_on_overflow == 0

    def test_invariants_hold_under_overflow(self):
        sim = simulator(pointers=2)
        for cpu in range(4):
            sim.process(rec(cpu, Op.READ, 0x200))
        sim.check_invariants()


class TestReplacement:
    def test_eviction_notifies_directory(self):
        sim = simulator(cache_bytes=4 * 16)  # 4 sets
        sim.process(rec(0, Op.READ, 0x000))  # block 0, set 0
        sim.process(rec(0, Op.READ, 0x040))  # block 4, set 0: evicts 0
        assert not sim.sharers(0)
        sim.check_invariants()

    def test_dirty_eviction_writes_back(self):
        sim = simulator(cache_bytes=4 * 16)
        sim.process(rec(0, Op.WRITE, 0x000))
        before = sim.stats.writebacks
        sim.process(rec(0, Op.READ, 0x040))
        assert sim.stats.writebacks == before + 1


class TestSyncClassification:
    def test_sync_refs_counted_separately(self):
        sim = simulator()
        sim.process(rec(0, Op.RMW, 0x100, is_sync=True))
        sim.process(rec(0, Op.READ, 0x200))
        assert sim.stats.sync_refs == 1
        assert sim.stats.data_refs == 1

    def test_sync_invalidation_attribution(self):
        sim = simulator()
        for cpu in range(3):
            sim.process(rec(cpu, Op.READ, 0x100, is_sync=True))
        sim.process(rec(0, Op.WRITE, 0x100, is_sync=True))
        assert sim.stats.sync_refs_invalidating == 1
        assert sim.stats.data_refs_invalidating == 0

    def test_uncached_sync_costs_two(self):
        sim = simulator(cache_sync=False)
        sim.process(rec(0, Op.READ, 0x100, is_sync=True))
        sim.process(rec(0, Op.READ, 0x100, is_sync=True))
        assert sim.stats.sync_traffic == 4
        assert sim.stats.hits == 0  # never touches the cache

    def test_uncached_sync_does_not_pollute_directory(self):
        sim = simulator(cache_sync=False)
        sim.process(rec(0, Op.WRITE, 0x100, is_sync=True))
        assert not sim.sharers(0x10)

    def test_traffic_percentages(self):
        sim = simulator(cache_sync=False)
        sim.process(rec(0, Op.READ, 0x100, is_sync=True))  # 2 sync
        sim.process(rec(0, Op.READ, 0x200))  # 2 data (miss)
        assert sim.stats.sync_traffic_pct == pytest.approx(50.0)
        assert sim.stats.sync_ref_fraction_pct == pytest.approx(50.0)


class TestStatsProperties:
    def test_percentages_empty_stats(self):
        sim = simulator()
        assert sim.stats.sync_invalidation_pct == 0.0
        assert sim.stats.data_invalidation_pct == 0.0
        assert sim.stats.sync_traffic_pct == 0.0
        assert sim.stats.miss_rate == 0.0

    def test_run_consumes_iterable(self):
        sim = simulator()
        trace = [rec(0, Op.READ, 0x100), rec(1, Op.READ, 0x100)]
        stats = sim.run(iter(trace))
        assert stats.refs == 2


class TestColumnFastPath:
    def test_columns_match_record_path(self):
        from repro.trace.apps import build_app
        from repro.trace.scheduler import PostMortemScheduler

        trace = PostMortemScheduler(build_app("FFT", scale=0.15), 8).run()
        via_records = simulator(num_cpus=8, pointers=2)
        for record in iter(trace):
            via_records.process(record)
        via_columns = simulator(num_cpus=8, pointers=2)
        via_columns.run(trace)  # auto-detects the column fast path
        a, b = via_records.stats, via_columns.stats
        assert a.refs == b.refs
        assert a.sync_refs == b.sync_refs
        assert a.total_traffic == b.total_traffic
        assert a.total_invalidations == b.total_invalidations
        assert a.hits == b.hits
        assert a.misses == b.misses
        assert a.write_invalidation_histogram.items() == (
            b.write_invalidation_histogram.items()
        )

    def test_run_columns_direct(self):
        sim = simulator()
        sim.run_columns([0, 1], [0, 0], [0x100, 0x100], [False, False])
        assert sim.stats.refs == 2
        assert sim.stats.misses == 2
