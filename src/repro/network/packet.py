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
from repro.network.netbackoff import (
    CollisionInfo,
    ImmediateRetry,
    NetworkBackoffPolicy,
)
from repro.sim.rng import BlockDraws, spawn_stream
from repro.sim.stats import RunningStats


class _Packet:
    """One request packet in flight."""

    __slots__ = ("dest", "injected_at", "path")

    def __init__(self, dest: int, injected_at: int, path: Tuple[int, ...]) -> None:
        self.dest = dest
        self.injected_at = injected_at
        #: Flat queue ids ``stage * P + line``, one per stage: a packet
        #: in a stage-``s`` queue moves on to ``path[s + 1]``.
        self.path = path


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
        self._queues: List[Deque[_Packet]] = self._empty_queues()

    def _empty_queues(self) -> List[Deque[_Packet]]:
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
        add_hot = result.latency_hot.add
        add_cold = result.latency_cold.add

        num_ports = self.num_ports
        stages = self.num_stages
        capacity = self.queue_capacity
        service = self.memory_service
        queues = self._queues = self._empty_queues()
        # The queues of each stage, and the final stage's (module ``dest``
        # is fed by last_queues[dest], queue id last_base + dest).
        stage_queues = [
            queues[stage * num_ports:(stage + 1) * num_ports]
            for stage in range(stages)
        ]
        last_queues = stage_queues[-1]
        last_base = (stages - 1) * num_ports
        round_trip = 2 * stages

        # Per-port injection state; a request waiting to inject is kept
        # as its path (its dest is path[-1] - last_base).
        next_try = [0] * num_ports
        blocked_tries = [0] * num_ports
        pending: List[Optional[Tuple[int, ...]]] = [None] * num_ports
        ports = range(num_ports)

        for now in range(horizon):
            # 1. Memory modules drain their final-stage queues.
            for queue in last_queues:
                if not queue:
                    continue
                for __ in range(min(service, len(queue))):
                    packet = queue.popleft()
                    # By convention the hot module is port 0.
                    if packet.dest == 0:
                        result.delivered_hot += 1
                        add_hot(now - packet.injected_at + 1)
                    else:
                        result.delivered_cold += 1
                        add_cold(now - packet.injected_at + 1)

            # 2. Forward packets stage by stage, back to front, one
            #    acceptance per queue per cycle (2x2 switch arbitration).
            for stage in range(stages - 2, -1, -1):
                next_stage = stage + 1
                accepted = set()
                for queue in stage_queues[stage]:
                    if not queue:
                        continue
                    next_link = queue[0].path[next_stage]
                    if next_link in accepted:
                        continue
                    target = queues[next_link]
                    if len(target) >= capacity:
                        continue
                    target.append(queue.popleft())
                    accepted.add(next_link)

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
                        info = CollisionInfo(
                            depth=1,
                            stages=stages,
                            tries=blocked_tries[port],
                            round_trip=round_trip,
                            queue_length=occupancy,
                        )
                        delay = delay_of(info)
                        if delay > 0:
                            pending[port] = path
                            next_try[port] = now + delay
                            continue
                entry = queues[path[0]]
                if len(entry) < capacity:
                    entry.append(_Packet(dest, now, path))
                    result.injected += 1
                    pending[port] = None
                    blocked_tries[port] = 0
                else:
                    result.injection_blocked += 1
                    pending[port] = path
                    blocked_tries[port] += 1
                    info = CollisionInfo(
                        depth=1,
                        stages=stages,
                        tries=blocked_tries[port],
                        round_trip=round_trip,
                        queue_length=len(last_queues[dest]),
                    )
                    next_try[port] = now + 1 + max(delay_of(info), 0)
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
