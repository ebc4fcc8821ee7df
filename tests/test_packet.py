"""Tests for the packet-switched (buffered) multistage network."""

import pytest

from repro.network.netbackoff import (
    ExponentialRetryBackoff,
    NetworkBackoffPolicy,
    QueueFeedbackBackoff,
)
from repro.network.packet import (
    PacketSwitchedNetwork,
    tree_saturation_sweep,
)


class NegativeBackoff(NetworkBackoffPolicy):
    """A broken policy: asks to retry before the collision happened."""

    name = "negative"

    def delay(self, *collision):
        return -1


class TestConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PacketSwitchedNetwork(num_ports=12)

    def test_invalid_queue_capacity(self):
        with pytest.raises(ValueError):
            PacketSwitchedNetwork(num_ports=8, queue_capacity=0)

    def test_invalid_service(self):
        with pytest.raises(ValueError):
            PacketSwitchedNetwork(num_ports=8, memory_service=0)


class TestRouting:
    def test_route_terminates_at_dest(self):
        network = PacketSwitchedNetwork(num_ports=16)
        for source in range(16):
            for dest in (0, 5, 15):
                path = network.route(source, dest)
                assert len(path) == 4
                assert path[-1] == (3, dest)

    def test_same_dest_shares_last_queue(self):
        network = PacketSwitchedNetwork(num_ports=8)
        assert network.route(1, 6)[-1] == network.route(4, 6)[-1]


class TestRunBasics:
    def test_zero_injection_nothing_happens(self):
        network = PacketSwitchedNetwork(num_ports=8)
        result = network.run(horizon=100, injection_rate=0.0, hot_fraction=0.0)
        assert result.injected == 0
        assert result.delivered == 0

    def test_light_uniform_traffic_all_delivered(self):
        network = PacketSwitchedNetwork(num_ports=8)
        result = network.run(horizon=2000, injection_rate=0.05, hot_fraction=0.0)
        assert result.injected > 0
        # Nearly everything injected is delivered (minus in-flight tail).
        assert result.delivered >= result.injected * 0.9
        assert result.blocked_fraction < 0.05

    def test_latency_at_least_stage_count(self):
        network = PacketSwitchedNetwork(num_ports=8)
        result = network.run(horizon=2000, injection_rate=0.05, hot_fraction=0.0)
        assert result.latency_cold.minimum >= network.num_stages

    def test_invalid_run_parameters(self):
        network = PacketSwitchedNetwork(num_ports=8)
        with pytest.raises(ValueError):
            network.run(horizon=0, injection_rate=0.1, hot_fraction=0.0)
        with pytest.raises(ValueError):
            network.run(horizon=10, injection_rate=1.5, hot_fraction=0.0)
        with pytest.raises(ValueError):
            network.run(horizon=10, injection_rate=0.1, hot_fraction=-0.1)

    @pytest.mark.parametrize("proactive", [False, True], ids=["reactive", "proactive"])
    def test_negative_backoff_delay_raises(self, proactive):
        # Every port injects to the hot module each cycle, so injections
        # block (reactive) and its queue is occupied (proactive).
        network = PacketSwitchedNetwork(num_ports=8)
        with pytest.raises(ValueError, match="negative delay"):
            network.run(
                horizon=200,
                injection_rate=1.0,
                hot_fraction=1.0,
                backoff=NegativeBackoff(),
                proactive=proactive,
            )

    def test_reproducible(self):
        a = PacketSwitchedNetwork(8).run(500, 0.3, 0.1, seed=4)
        b = PacketSwitchedNetwork(8).run(500, 0.3, 0.1, seed=4)
        assert a.delivered == b.delivered
        assert a.injection_blocked == b.injection_blocked


class TestTreeSaturation:
    def test_hot_traffic_collapses_cold_bandwidth(self):
        results = tree_saturation_sweep(
            num_ports=16,
            hot_fractions=(0.0, 0.2),
            injection_rate=0.4,
            horizon=2000,
        )
        assert results[0.2].cold_throughput < results[0.0].cold_throughput * 0.7

    def test_hot_module_saturates(self):
        results = tree_saturation_sweep(
            num_ports=16,
            hot_fractions=(0.2,),
            injection_rate=0.4,
            horizon=2000,
        )
        # The hot module serves ~1 packet/cycle at saturation.
        assert results[0.2].hot_throughput > 0.7

    def test_blocking_rises_with_hot_fraction(self):
        results = tree_saturation_sweep(
            num_ports=16,
            hot_fractions=(0.0, 0.2),
            injection_rate=0.4,
            horizon=2000,
        )
        assert results[0.2].blocked_fraction > results[0.0].blocked_fraction

    def test_proactive_feedback_cuts_cold_latency(self):
        base = tree_saturation_sweep(
            num_ports=16, hot_fractions=(0.2,), horizon=2000
        )[0.2]
        throttled = tree_saturation_sweep(
            num_ports=16,
            hot_fractions=(0.2,),
            horizon=2000,
            backoff=QueueFeedbackBackoff(factor=2),
            proactive=True,
        )[0.2]
        assert throttled.latency_cold.mean < base.latency_cold.mean

    def test_reactive_backoff_changes_little(self):
        base = tree_saturation_sweep(
            num_ports=16, hot_fractions=(0.2,), horizon=2000
        )[0.2]
        reactive = tree_saturation_sweep(
            num_ports=16,
            hot_fractions=(0.2,),
            horizon=2000,
            backoff=ExponentialRetryBackoff(base=2, cap=64),
        )[0.2]
        # Throughput within 20%: the bottleneck is the hot module.
        assert reactive.cold_throughput == pytest.approx(
            base.cold_throughput, rel=0.2
        )

    def test_queue_length_signal_exposed(self):
        network = PacketSwitchedNetwork(num_ports=8)
        assert network.dest_queue_length(0) == 0
        network.run(horizon=200, injection_rate=0.5, hot_fraction=0.5)
        # After a saturating run the hot queue is non-empty.
        assert network.dest_queue_length(0) >= 1


class TestReentrancy:
    def test_second_run_matches_a_fresh_network(self):
        # Packets left in the switch queues by one run must not enter the next.
        def run(network):
            result = network.run(
                horizon=500, injection_rate=0.4, hot_fraction=0.2, seed=1
            )
            return (
                result.injected,
                result.injection_blocked,
                result.delivered_hot,
                result.delivered_cold,
                result.latency_hot.mean,
                result.latency_cold.mean,
            )

        reused = PacketSwitchedNetwork(num_ports=8)
        first = run(reused)
        assert run(reused) == first == run(PacketSwitchedNetwork(num_ports=8))
