"""Tests for the circuit-switched Omega network simulator."""

import pytest

from repro.network.hotspot import HotspotWorkload
from repro.network.multistage import (
    MultistageNetwork,
    NetworkMessage,
    Workload,
)
from repro.network.netbackoff import (
    ExponentialRetryBackoff,
    ImmediateRetry,
    NetworkBackoffPolicy,
    QueueFeedbackBackoff,
)


class NegativeBackoff(NetworkBackoffPolicy):
    """A broken policy: asks to retry before the collision happened."""

    name = "negative"

    def delay(self, *collision):
        return -1


class ListWorkload(Workload):
    """Fixed open-loop message list for tests."""

    def __init__(self, messages):
        self._messages = messages

    def initial_messages(self):
        return list(self._messages)


class TestTopology:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            MultistageNetwork(num_ports=6)

    def test_stage_count(self):
        assert MultistageNetwork(num_ports=8).num_stages == 3
        assert MultistageNetwork(num_ports=64).num_stages == 6

    def test_route_ends_at_destination(self):
        network = MultistageNetwork(num_ports=16)
        for source in range(16):
            for dest in range(16):
                path = network.route_lines(source, dest)
                assert len(path) == 4
                assert path[-1] == (3, dest)

    def test_routes_to_same_dest_share_final_link(self):
        network = MultistageNetwork(num_ports=8)
        a = network.route_lines(0, 5)
        b = network.route_lines(7, 5)
        assert a[-1] == b[-1]

    def test_route_out_of_range(self):
        network = MultistageNetwork(num_ports=8)
        with pytest.raises(ValueError):
            network.route_lines(8, 0)
        with pytest.raises(ValueError):
            network.route_lines(0, -1)

    def test_stage_lines_are_within_range(self):
        network = MultistageNetwork(num_ports=32)
        for source in range(0, 32, 5):
            for dest in range(0, 32, 7):
                for stage, line in network.route_lines(source, dest):
                    assert 0 <= stage < 5
                    assert 0 <= line < 32


class TestSimulation:
    def test_single_message_completes(self):
        network = MultistageNetwork(num_ports=8, hold_time=4)
        msg = NetworkMessage(source=0, dest=5, issue_time=0)
        result = network.run(ListWorkload([msg]), horizon=100)
        assert result.completed == 1
        assert msg.completed_time == 4
        assert msg.latency == 4
        assert result.collisions == 0

    def test_disjoint_paths_no_collision(self):
        network = MultistageNetwork(num_ports=8, hold_time=4)
        messages = [
            NetworkMessage(source=0, dest=0, issue_time=0),
            NetworkMessage(source=4, dest=7, issue_time=0),
        ]
        result = network.run(ListWorkload(messages), horizon=100)
        assert result.completed == 2
        assert result.collisions == 0

    def test_same_destination_collides(self):
        network = MultistageNetwork(num_ports=8, hold_time=4)
        messages = [
            NetworkMessage(source=0, dest=3, issue_time=0),
            NetworkMessage(source=1, dest=3, issue_time=0),
        ]
        result = network.run(ListWorkload(messages), horizon=100)
        assert result.completed == 2
        assert result.collisions >= 1

    def test_collision_depth_reported(self):
        network = MultistageNetwork(num_ports=8, hold_time=4)
        # Sources 0 and 4 map to the same first-stage output line for
        # destination 3 (positions (0<<1)|0 and (8>>... wrap) both 0),
        # so the loser collides at depth 1.
        assert network.route_lines(0, 3)[0] == network.route_lines(4, 3)[0]
        messages = [
            NetworkMessage(source=0, dest=3, issue_time=0),
            NetworkMessage(source=4, dest=3, issue_time=0),
        ]
        result = network.run(ListWorkload(messages), horizon=100)
        assert 1 in result.collision_depths.keys()

    def test_loser_retries_after_hold_expires(self):
        network = MultistageNetwork(num_ports=8, hold_time=3)
        winner = NetworkMessage(source=0, dest=3, issue_time=0)
        loser = NetworkMessage(source=1, dest=3, issue_time=0)
        result = network.run(ListWorkload([winner, loser]), horizon=100)
        assert result.completed == 2
        assert loser.completed_time > winner.completed_time

    def test_backoff_reduces_attempts_under_contention(self):
        def run(policy):
            network = MultistageNetwork(num_ports=16, hold_time=8, backoff=policy)
            messages = [
                NetworkMessage(source=s, dest=0, issue_time=0) for s in range(16)
            ]
            return network.run(ListWorkload(messages), horizon=100_000)

        eager = run(ImmediateRetry())
        patient = run(ExponentialRetryBackoff(base=2, cap=256))
        assert eager.completed == 16
        assert patient.completed == 16
        assert patient.attempts < eager.attempts

    def test_horizon_abandons_in_flight(self):
        network = MultistageNetwork(num_ports=8, hold_time=1000)
        messages = [
            NetworkMessage(source=0, dest=3, issue_time=0),
            NetworkMessage(source=1, dest=3, issue_time=0),
        ]
        result = network.run(ListWorkload(messages), horizon=10)
        assert result.completed == 1  # only the winner finished scheduling

    def test_throughput(self):
        network = MultistageNetwork(num_ports=8, hold_time=4)
        messages = [NetworkMessage(source=0, dest=1, issue_time=0)]
        result = network.run(ListWorkload(messages), horizon=100)
        assert result.throughput == pytest.approx(0.01)

    def test_negative_backoff_delay_raises(self):
        network = MultistageNetwork(num_ports=8, backoff=NegativeBackoff())
        messages = [
            NetworkMessage(source=0, dest=3, issue_time=0),
            NetworkMessage(source=1, dest=3, issue_time=0),
        ]
        with pytest.raises(ValueError, match="negative delay"):
            network.run(ListWorkload(messages), horizon=100)

    def test_invalid_hold_time(self):
        with pytest.raises(ValueError):
            MultistageNetwork(num_ports=8, hold_time=0)

    def test_invalid_horizon(self):
        network = MultistageNetwork(num_ports=8)
        with pytest.raises(ValueError):
            network.run(ListWorkload([]), horizon=0)

    @pytest.mark.parametrize("source, dest", [(8, 0), (0, 8), (0, -1)])
    def test_out_of_range_port_raises_at_its_first_attempt(self, source, dest):
        network = MultistageNetwork(num_ports=8)
        bad = NetworkMessage(source=source, dest=dest, issue_time=5)
        with pytest.raises(ValueError, match="out of range"):
            network.run(ListWorkload([bad]), horizon=10)

    @pytest.mark.parametrize("source, dest", [(8, 0), (0, 8), (0, -1)])
    def test_out_of_range_port_never_attempted_is_ignored(self, source, dest):
        # Routing (and so the range check) happens at a message's first
        # attempt; one issued at or after the horizon is never routed, and
        # does not disturb the pending count of any valid destination.
        good = NetworkMessage(source=1, dest=7, issue_time=0)
        bad = NetworkMessage(source=source, dest=dest, issue_time=10)
        network = MultistageNetwork(num_ports=8)
        result = network.run(ListWorkload([good, bad]), horizon=10)
        assert result.completed == 1
        assert result.attempts == 1
        assert bad.attempts == 0
        # A valid dest counts the message as outstanding; an invalid one
        # (including -1) counts nowhere.
        expected = [0] * 8
        if 0 <= dest < 8:
            expected[dest] = 1
        assert network._dest_pending == expected


class TestReentrancy:
    def test_second_run_matches_a_fresh_network(self):
        # Link reservations and the per-destination pending counts (the
        # queue-feedback signal) must not leak from one run into the next.
        def run(network):
            result = network.run(
                HotspotWorkload(num_ports=16, hot_fraction=0.2, seed=0), 500
            )
            return (
                result.completed,
                result.collisions,
                result.attempts,
                result.latency.mean,
                result.collision_depths.items(),
            )

        def network():
            return MultistageNetwork(num_ports=16, backoff=QueueFeedbackBackoff())

        reused = network()
        first = run(reused)
        assert run(reused) == first == run(network())
