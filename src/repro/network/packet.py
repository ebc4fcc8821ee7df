"""Packet-switched multistage network with finite switch queues.

The paper's motivation rests on Pfister & Norton's hot-spot result:

    "a widely-shared synchronization variable (such as in a barrier
    synchronization) will result in heavy traffic to the same location
    in memory and cause hot-spot contention problems [19] ... only a
    small percentage of all data accesses to the same 'hot' module can
    cause tree saturation in the interconnection network and a
    corresponding severe drop in the effective memory bandwidth."

The circuit-switched simulator (:mod:`repro.network.multistage`) models
collisions; *tree saturation* is a buffered-network phenomenon, so this
module adds a packet-switched Omega network: every switch output port
has a FIFO queue of capacity ``queue_capacity``; a full queue
back-pressures the previous stage; the queues feeding the hot memory
module fill first and the congestion spreads backward in a tree,
throttling processors that never reference the hot module at all.

The Scott & Sohi feedback signal of Section 8 — "the state information
found in the queues at the memory modules" — is available here for
real: a blocked injection consults the destination module's queue
occupancy through its :class:`~repro.network.netbackoff.NetworkBackoffPolicy`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.network.multistage import omega_links
from repro.network.netbackoff import ImmediateRetry, NetworkBackoffPolicy
from repro.sim.rng import BlockDraws, spawn_stream
from repro.sim.stats import RunningStats

#: A request packet in flight: ``(injected_at, path)``.  ``path`` holds
#: the flat queue ids ``stage * P + line``, one per stage; a packet in a
#: stage-``s`` queue moves on to ``path[s + 1]``.
Packet = Tuple[int, Tuple[int, ...]]


@dataclass
class PacketRunResult:
    """Outcome of one packet-switched network run."""

    horizon: int
    num_ports: int
    delivered_hot: int = 0
    delivered_cold: int = 0
    injected: int = 0
    injection_blocked: int = 0
    latency_hot: RunningStats = field(default_factory=RunningStats)
    latency_cold: RunningStats = field(default_factory=RunningStats)

    @property
    def delivered(self) -> int:
        return self.delivered_hot + self.delivered_cold

    @property
    def cold_throughput(self) -> float:
        """Delivered non-hot packets per port per cycle — the bandwidth
        everyone *else* gets, which tree saturation destroys."""
        if not self.horizon or not self.num_ports:
            return 0.0
        return self.delivered_cold / (self.horizon * self.num_ports)

    @property
    def hot_throughput(self) -> float:
        if not self.horizon:
            return 0.0
        return self.delivered_hot / self.horizon

    @property
    def blocked_fraction(self) -> float:
        attempts = self.injected + self.injection_blocked
        if not attempts:
            return 0.0
        return self.injection_blocked / attempts


class PacketSwitchedNetwork:
    """A buffered Omega network, stepped cycle by cycle.

    Args:
        num_ports: processors/modules (power of two).
        queue_capacity: per-switch-output FIFO depth (Pfister-Norton
            use small values; default 4).
        memory_service: packets a memory module consumes per cycle.
    """

    def __init__(
        self,
        num_ports: int,
        queue_capacity: int = 4,
        memory_service: int = 1,
    ) -> None:
        if num_ports < 2 or num_ports & (num_ports - 1):
            raise ValueError(f"num_ports must be a power of two >= 2, got {num_ports}")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if memory_service < 1:
            raise ValueError("memory_service must be >= 1")
        self.num_ports = num_ports
        self.num_stages = num_ports.bit_length() - 1
        self.queue_capacity = queue_capacity
        self.memory_service = memory_service
        # _queues[stage * P + line]: the FIFO of that switch output.  A
        # run starts from empty queues and leaves its final ones here.
        self._queues: List[Deque[Packet]] = self._empty_queues()

    def _empty_queues(self) -> List[Deque[Packet]]:
        return [deque() for __ in range(self.num_stages * self.num_ports)]

    def route(self, source: int, dest: int) -> Tuple[Tuple[int, int], ...]:
        """Queue sequence (stage, line) from source to dest."""
        return tuple(
            divmod(link, self.num_ports)
            for link in omega_links(self.num_ports, source, dest)
        )

    def dest_queue_length(self, dest: int) -> int:
        """Occupancy of the final-stage queue feeding module ``dest`` —
        the Scott & Sohi feedback signal."""
        if not 0 <= dest < self.num_ports:
            raise ValueError(f"dest {dest} out of range")
        return len(self._queues[(self.num_stages - 1) * self.num_ports + dest])

    def run(
        self,
        horizon: int,
        injection_rate: float,
        hot_fraction: float,
        backoff: Optional[NetworkBackoffPolicy] = None,
        proactive: bool = False,
        seed: int = 0,
    ) -> PacketRunResult:
        """Open-loop run: each port injects with ``injection_rate``.

        A processor whose injection is blocked (first-stage queue full)
        consults ``backoff`` for how long to pause before its next
        injection attempt; ``ImmediateRetry`` retries next cycle.

        With ``proactive=True`` the processor consults ``backoff``
        *before* injecting, using the destination module's queue
        occupancy — Section 8's Scott & Sohi throttle: "have the
        processors back off sending requests by some time proportional
        to the length of the queue".  Requests to congested modules are
        postponed instead of being pumped into the saturating tree.

        A policy that returns a negative delay raises ``ValueError``.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        policy = backoff if backoff is not None else ImmediateRetry()
        delay_of = policy.delay
        # The injector owns this stream, so it can draw it in blocks.
        rng = BlockDraws(
            spawn_stream(seed, f"packet:{self.num_ports}:{hot_fraction}")
        )
        random = rng.random
        integers = rng.integers
        result = PacketRunResult(horizon=horizon, num_ports=self.num_ports)

        num_ports = self.num_ports
        stages = self.num_stages
        capacity = self.queue_capacity
        service = self.memory_service
        queues = self._queues = self._empty_queues()
        # The queues of each stage, and the final stage's (module ``dest``
        # is fed by last_queues[dest], queue id last_base + dest).  By
        # convention the hot module is port 0: a packet is hot iff it
        # ends in last_queues[0], i.e. path[-1] == last_base.
        stage_queues = [
            queues[stage * num_ports:(stage + 1) * num_ports]
            for stage in range(stages)
        ]
        last_queues = stage_queues[-1]
        hot_queue = last_queues[0]
        cold_queues = last_queues[1:]
        last_base = (stages - 1) * num_ports
        round_trip = 2 * stages
        # Forwarding order: back to front, each stage's queues with the
        # index of the next stage's entry in a packet's path.
        forward = [
            (stage + 1, stage_queues[stage]) for stage in range(stages - 2, -1, -1)
        ]
        # claimed[queue] == now: that queue already accepted a packet this
        # cycle (2x2 switch arbitration admits one per cycle).
        claimed = [-1] * len(queues)

        # Per-port injection state; a request waiting to inject is kept
        # as its path (its dest is path[-1] - last_base).
        next_try = [0] * num_ports
        blocked_tries = [0] * num_ports
        pending: List[Optional[Tuple[int, ...]]] = [None] * num_ports
        ports = range(num_ports)
        injected = blocked = 0
        # Welford state of the hot and cold latency statistics.
        hot_n = cold_n = 0
        hot_mean = hot_m2 = cold_mean = cold_m2 = 0.0
        hot_min = cold_min = float("inf")
        hot_max = cold_max = float("-inf")

        for now in range(horizon):
            # 1. Memory modules drain their final-stage queues; a packet
            #    drained at cycle ``now`` took now - injected_at + 1 cycles.
            done = now + 1
            if hot_queue:
                for __ in range(min(service, len(hot_queue))):
                    value = done - hot_queue.popleft()[0]
                    hot_n += 1
                    delta = value - hot_mean
                    hot_mean += delta / hot_n
                    hot_m2 += delta * (value - hot_mean)
                    if value < hot_min:
                        hot_min = value
                    if value > hot_max:
                        hot_max = value
            for queue in filter(None, cold_queues):
                for __ in range(min(service, len(queue))):
                    value = done - queue.popleft()[0]
                    cold_n += 1
                    delta = value - cold_mean
                    cold_mean += delta / cold_n
                    cold_m2 += delta * (value - cold_mean)
                    if value < cold_min:
                        cold_min = value
                    if value > cold_max:
                        cold_max = value

            # 2. Forward packets stage by stage, back to front, one
            #    acceptance per queue per cycle.
            for next_stage, from_queues in forward:
                for queue in filter(None, from_queues):
                    next_link = queue[0][1][next_stage]
                    if claimed[next_link] == now:
                        continue
                    target = queues[next_link]
                    if len(target) >= capacity:
                        continue
                    target.append(queue.popleft())
                    claimed[next_link] = now

            # 3. Injections.
            for port in ports:
                if now < next_try[port]:
                    continue
                path = pending[port]
                if path is None:
                    if random() >= injection_rate:
                        continue
                    dest = 0 if random() < hot_fraction else integers(num_ports)
                    path = omega_links(num_ports, port, dest)
                else:
                    dest = path[-1] - last_base
                if proactive:
                    occupancy = len(last_queues[dest])
                    if occupancy:
                        delay = delay_of(
                            1, stages, blocked_tries[port], round_trip, occupancy
                        )
                        if delay < 0:
                            raise ValueError(
                                f"backoff policy {policy!r} returned negative delay"
                            )
                        if delay:
                            pending[port] = path
                            next_try[port] = now + delay
                            continue
                entry = queues[path[0]]
                if len(entry) < capacity:
                    entry.append((now, path))
                    injected += 1
                    pending[port] = None
                    blocked_tries[port] = 0
                else:
                    blocked += 1
                    pending[port] = path
                    tries = blocked_tries[port] = blocked_tries[port] + 1
                    delay = delay_of(
                        1, stages, tries, round_trip, len(last_queues[dest])
                    )
                    if delay < 0:
                        raise ValueError(
                            f"backoff policy {policy!r} returned negative delay"
                        )
                    next_try[port] = now + 1 + delay
        result.delivered_hot = hot_n
        result.delivered_cold = cold_n
        result.injected = injected
        result.injection_blocked = blocked
        result.latency_hot.load(hot_n, hot_mean, hot_m2, hot_min, hot_max)
        result.latency_cold.load(cold_n, cold_mean, cold_m2, cold_min, cold_max)
        return result


def tree_saturation_sweep(
    num_ports: int = 64,
    hot_fractions: Sequence[float] = (0.0, 0.01, 0.02, 0.04, 0.08, 0.16),
    injection_rate: float = 0.4,
    horizon: int = 5_000,
    queue_capacity: int = 4,
    backoff: Optional[NetworkBackoffPolicy] = None,
    proactive: bool = False,
    seed: int = 0,
) -> Dict[float, PacketRunResult]:
    """Cold-traffic bandwidth vs hot-spot fraction (the Pfister-Norton curve)."""
    results: Dict[float, PacketRunResult] = {}
    for fraction in hot_fractions:
        network = PacketSwitchedNetwork(
            num_ports=num_ports, queue_capacity=queue_capacity
        )
        results[fraction] = network.run(
            horizon=horizon,
            injection_rate=injection_rate,
            hot_fraction=fraction,
            backoff=backoff,
            proactive=proactive,
            seed=seed,
        )
    return results


__all__ = [
    "PacketSwitchedNetwork",
    "PacketRunResult",
    "tree_saturation_sweep",
]
