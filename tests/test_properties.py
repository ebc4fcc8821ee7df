"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.barrier.arrivals import FixedArrivals, UniformArrivals
from repro.barrier.simulator import BarrierSimulator
from repro.check.fuzz import backoff_policy_strategy
from repro.core.backoff import (
    ExponentialFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.core.barrier import CombiningTreeBarrier, TangYewBarrier
from repro.barrier.tree import TreeBarrierSimulator
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.network.module import MemoryModule
from repro.sim.stats import Histogram, RunningStats
from repro.trace.record import Op, TraceRecord

# The shared schema-derived policy generator (repro.check.fuzz): new
# policy shapes added there are picked up by this suite automatically.
policies = backoff_policy_strategy()


class TestMemoryModuleProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    def test_grants_unique_and_cost_consistent(self, deltas):
        """Grants are strictly increasing; cost == grant - ready + 1."""
        module = MemoryModule()
        ready = 0
        last_grant = -1
        for delta in deltas:
            ready += delta
            grant, cost = module.request(ready)
            assert grant > last_grant
            assert grant >= ready
            assert cost == grant - ready + 1
            last_grant = grant

    @given(st.integers(min_value=1, max_value=200))
    def test_burst_total_accesses_triangular(self, n):
        """N simultaneous requests cost exactly 1 + 2 + ... + N accesses."""
        module = MemoryModule()
        total = sum(module.request(0)[1] for __ in range(n))
        assert total == n * (n + 1) // 2


class TestBackoffProperties:
    @given(policies, st.integers(1, 512), st.integers(1, 512))
    def test_variable_wait_nonnegative(self, policy, value, n):
        assert policy.variable_wait(value, n) >= 0

    @given(policies, st.integers(1, 40))
    def test_flag_wait_nonnegative(self, policy, polls):
        assert policy.flag_wait(polls) >= 0

    @given(st.integers(2, 8), st.integers(1, 30),
           st.one_of(st.just(1 << 20), st.integers(4, 1 << 12)))
    def test_exponential_monotone_in_polls(self, base, polls, cap):
        policy = ExponentialFlagBackoff(base=base, cap=cap)
        assert policy.flag_wait(polls + 1) >= policy.flag_wait(polls)

    @given(st.integers(2, 8), st.integers(1, 100),
           st.one_of(st.just(500), st.integers(4, 1 << 12)))
    def test_cap_is_respected(self, base, polls, cap):
        policy = ExponentialFlagBackoff(base=base, cap=cap)
        assert policy.flag_wait(polls) <= cap


class TestBarrierProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        policies,
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_barrier_always_completes(self, policy, n, interval_a, seed):
        """Liveness: every processor departs, after the flag is set."""
        simulator = BarrierSimulator(
            TangYewBarrier(n, backoff=policy), UniformArrivals(interval_a)
        )
        result = simulator.run_once(np.random.default_rng(seed))
        assert len(result.waiting_times) == n
        assert result.flag_set_time is not None
        assert all(w >= 1 for w in result.waiting_times)
        assert result.completion_time >= result.flag_set_time

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_tree_barrier_always_completes(self, n, degree, interval_a, seed):
        simulator = TreeBarrierSimulator(
            CombiningTreeBarrier(n, degree=degree), UniformArrivals(interval_a)
        )
        result = simulator.run_once(np.random.default_rng(seed))
        assert len(result.waiting_times) == n
        assert all(w >= 0 for w in result.waiting_times)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=300), min_size=2, max_size=24
        ),
    )
    def test_minimum_access_floor(self, times):
        """Every process needs >= 2 accesses (variable + one flag op)."""
        simulator = BarrierSimulator(
            TangYewBarrier(len(times)), FixedArrivals(times)
        )
        result = simulator.run_once(np.random.default_rng(0))
        assert all(a >= 2 for a in result.accesses_per_process)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_variable_backoff_never_worse(self, n, interval_a, seed):
        """Backoff on the variable cannot increase total accesses."""
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        base = BarrierSimulator(
            TangYewBarrier(n, backoff=NoBackoff()), UniformArrivals(interval_a)
        ).run_once(rng_a)
        backoff = BarrierSimulator(
            TangYewBarrier(n, backoff=VariableBackoff()),
            UniformArrivals(interval_a),
        ).run_once(rng_b)
        assert backoff.total_accesses <= base.total_accesses


class TestCoherenceProperties:
    ops = st.sampled_from([Op.READ, Op.WRITE, Op.RMW])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),  # cpu
                ops,
                st.integers(0, 40),  # block index
                st.booleans(),  # is_sync
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_protocol_invariants_hold(self, refs):
        """Directory/cache invariants survive arbitrary traces."""
        sim = CoherenceSimulator(
            CoherenceConfig(num_cpus=8, num_pointers=3, cache_bytes=8 * 16)
        )
        for cpu, op, block, is_sync in refs:
            sim.process(
                TraceRecord(cpu=cpu, op=op, address=block * 16, is_sync=is_sync)
            )
        sim.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), ops, st.integers(0, 30)),
            min_size=1,
            max_size=200,
        )
    )
    def test_traffic_accounting_consistent(self, refs):
        """refs split into sync/data; traffic is non-negative."""
        sim = CoherenceSimulator(CoherenceConfig(num_cpus=4, num_pointers=2))
        for cpu, op, block in refs:
            sim.process(
                TraceRecord(cpu=cpu, op=op, address=block * 16, is_sync=False)
            )
        stats = sim.stats
        assert stats.refs == len(refs)
        assert stats.refs == stats.sync_refs + stats.data_refs
        assert stats.total_traffic >= 2 * stats.misses
        # Every cached reference probes exactly once.
        assert stats.hits + stats.misses == stats.refs


class TestStatsProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_welford_matches_numpy(self, values):
        stats = RunningStats()
        stats.extend(values)
        expected = float(np.mean(values))
        assert abs(stats.mean - expected) < 1e-6 * max(1.0, abs(expected))

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 50)),
            min_size=1,
            max_size=50,
        )
    )
    def test_histogram_fractions_sum_to_one(self, entries):
        histogram = Histogram()
        for key, count in entries:
            histogram.add(key, count)
        total = sum(histogram.fraction(k) for k in histogram.keys())
        assert abs(total - 1.0) < 1e-9

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_merge_equals_sequential(self, values):
        split = len(values) // 2
        left, right = RunningStats(), RunningStats()
        left.extend(values[:split])
        right.extend(values[split:])
        left.merge(right)
        sequential = RunningStats()
        sequential.extend(values)
        assert abs(left.mean - sequential.mean) < 1e-6 * max(
            1.0, abs(sequential.mean)
        )
        assert left.count == sequential.count


class TestApplicationProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=20, max_value=200),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    def test_application_always_completes(self, n, work, rounds, seed):
        from repro.barrier.application import ApplicationSimulator

        simulator = ApplicationSimulator(
            n, work_interval=work, rounds=rounds, jitter=0.2
        )
        result = simulator.run_once(np.random.default_rng(seed))
        assert result.completion_time >= rounds * int(work * 0.8)
        assert len(result.arrival_spans) == rounds
        assert all(a >= 2 * rounds for a in result.accesses_per_process)


class TestPacketProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([8, 16]),
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=100),
    )
    def test_packet_conservation(self, ports, rate, hot, seed):
        """Delivered <= injected; both non-negative; counters consistent."""
        from repro.network.packet import PacketSwitchedNetwork

        network = PacketSwitchedNetwork(num_ports=ports)
        result = network.run(
            horizon=300, injection_rate=rate, hot_fraction=hot, seed=seed
        )
        assert 0 <= result.delivered <= result.injected
        assert result.delivered_hot == result.latency_hot.count
        assert result.delivered_cold == result.latency_cold.count

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=50))
    def test_packet_latency_floor(self, seed):
        from repro.network.packet import PacketSwitchedNetwork

        network = PacketSwitchedNetwork(num_ports=8)
        result = network.run(
            horizon=400, injection_rate=0.2, hot_fraction=0.0, seed=seed
        )
        if result.latency_cold.count:
            assert result.latency_cold.minimum >= network.num_stages


class TestSnoopyProperties:
    ops = st.sampled_from([Op.READ, Op.WRITE, Op.RMW])

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["invalidate", "update"]),
        st.lists(
            st.tuples(st.integers(0, 5), ops, st.integers(0, 30)),
            min_size=1,
            max_size=200,
        ),
    )
    def test_snoopy_invariants_hold(self, protocol, refs):
        """At most one dirty copy; sharer sets consistent; counters sane."""
        from repro.memory.snoopy import SnoopyConfig, SnoopySimulator

        sim = SnoopySimulator(
            SnoopyConfig(
                num_cpus=6,
                protocol=protocol,
                cache_bytes=8 * 16,
                block_bytes=16,
            )
        )
        for cpu, op, block in refs:
            sim.process(
                TraceRecord(cpu=cpu, op=op, address=block * 16, is_sync=False)
            )
        sim.check_invariants()
        stats = sim.stats
        assert stats.refs == len(refs)
        assert stats.hits + stats.misses == stats.refs
        assert stats.bus_transactions >= stats.misses
        assert stats.sync_bus_transactions == 0


class TestRenderingProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 512),
                st.floats(min_value=0.1, max_value=1e5),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda p: p[0],
        )
    )
    def test_ascii_plot_never_crashes(self, points):
        from repro.analysis.figures import render_ascii_plot
        from repro.sim.stats import Series

        curve = Series(label="curve")
        for x, y in sorted(points):
            curve.add(x, y)
        text = render_ascii_plot({"curve": curve}, width=40, height=10)
        assert "curve" in text
        assert "|" in text
