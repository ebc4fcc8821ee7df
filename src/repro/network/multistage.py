"""Circuit-switched multistage (Omega) network simulator.

Supports the Section 8 extension study: what happens when the *network
controller* backs off after a collision in an unbuffered
circuit-switched network, instead of resubmitting every cycle.

Topology and routing
--------------------

An Omega network with ``P = 2**n`` ports has ``n`` stages of 2x2
switches connected by perfect shuffles.  Destination-tag routing is
used: starting from position ``source``, at stage ``k`` the message
moves to line ``((pos << 1) & (P-1)) | bit_{n-1-k}(dest)``; after ``n``
stages the position equals ``dest``.  Each ``(stage, line)`` pair is a
link resource, stored flat as link ``stage * P + line``; a circuit
claims all ``n`` links on its path for ``hold_time`` cycles (the round
trip).  Two circuits that need the same link at overlapping times
collide; the loser learns the *depth* (number of stages traversed) of
the collision, consults its backoff policy, and retries.

The simulation is event-driven over attempt times, so idle cycles cost
nothing.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.faults.plan import GRANT_DROP, GRANT_DUP, get_fault_plan
from repro.network.netbackoff import ImmediateRetry, NetworkBackoffPolicy
from repro.obs.tracer import get_tracer
from repro.sim.stats import Histogram, RunningStats


@dataclass
class NetworkMessage:
    """One memory request traversing the network."""

    source: int
    dest: int
    issue_time: int
    tries: int = 0
    completed_time: Optional[int] = None
    attempts: int = 0

    @property
    def latency(self) -> Optional[int]:
        if self.completed_time is None:
            return None
        return self.completed_time - self.issue_time


@dataclass
class NetworkRunResult:
    """Aggregate outcome of a multistage-network run."""

    horizon: int
    completed: int = 0
    collisions: int = 0
    attempts: int = 0
    #: Circuit grants lost to fault injection (the message retried).
    dropped_grants: int = 0
    #: Circuit grants duplicated by fault injection (extra attempt charged).
    duplicated_grants: int = 0
    latency: RunningStats = field(default_factory=RunningStats)
    attempts_per_message: RunningStats = field(default_factory=RunningStats)
    collision_depths: Histogram = field(default_factory=Histogram)

    @property
    def throughput(self) -> float:
        """Completed messages per cycle."""
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def collision_rate(self) -> float:
        """Collisions per attempt."""
        if not self.attempts:
            return 0.0
        return self.collisions / self.attempts


class Workload:
    """Source of messages for :class:`MultistageNetwork`.

    Subclasses implement :meth:`initial_messages` (open-loop traffic
    and/or the first request of each closed-loop processor) and
    optionally :meth:`on_complete` to issue a follow-up request.
    """

    def initial_messages(self) -> List[NetworkMessage]:
        raise NotImplementedError

    def on_complete(
        self, message: NetworkMessage, time: int
    ) -> Optional[NetworkMessage]:
        """Called when ``message`` completes; may return a successor."""
        return None


@functools.lru_cache(maxsize=64)
def _stage_shifts(num_ports: int) -> Tuple[Tuple[int, int], ...]:
    stages = num_ports.bit_length() - 1
    return tuple(
        (stage * num_ports, stages - 1 - stage) for stage in range(stages)
    )


def omega_links(num_ports: int, source: int, dest: int) -> Tuple[int, ...]:
    """The destination-tag route from ``source`` to ``dest`` as flat link ids.

    Link ``stage * num_ports + line`` is output ``line`` of stage
    ``stage``.  After ``k + 1`` perfect-shuffle steps the position is the
    low bits of ``source`` shifted up by ``k + 1`` with the top ``k + 1``
    bits of ``dest`` below them: the ``n`` bits of the word
    ``source << n | dest`` that start at bit ``n - 1 - k``.  The caller
    checks the range.
    """
    word = (source << (num_ports.bit_length() - 1)) | dest
    mask = num_ports - 1
    return tuple(
        [base + ((word >> shift) & mask) for base, shift in _stage_shifts(num_ports)]
    )


class MultistageNetwork:
    """A ``P``-port circuit-switched Omega network.

    After a run, ``_busy_until`` (first free cycle of each flat link)
    and ``_dest_pending`` (messages outstanding per destination) hold
    that run's final state; the next run starts from fresh state.
    """

    def __init__(
        self,
        num_ports: int,
        hold_time: int = 4,
        backoff: Optional[NetworkBackoffPolicy] = None,
    ) -> None:
        if num_ports < 2 or num_ports & (num_ports - 1):
            raise ValueError(f"num_ports must be a power of two >= 2, got {num_ports}")
        if hold_time < 1:
            raise ValueError("hold_time must be >= 1")
        self.num_ports = num_ports
        self.num_stages = num_ports.bit_length() - 1
        self.hold_time = hold_time
        self.backoff = backoff if backoff is not None else ImmediateRetry()
        # busy_until[stage * P + line]: first cycle the link is free again.
        self._busy_until: List[int] = [0] * (self.num_stages * num_ports)
        # Outstanding (issued, not completed) messages per destination:
        # the queue-length signal for feedback backoff.
        self._dest_pending: List[int] = [0] * num_ports

    def route_links(self, source: int, dest: int) -> Tuple[int, ...]:
        """The flat link ids ``stage * P + line`` from source to dest."""
        if not 0 <= source < self.num_ports:
            raise ValueError(f"source {source} out of range")
        if not 0 <= dest < self.num_ports:
            raise ValueError(f"dest {dest} out of range")
        return omega_links(self.num_ports, source, dest)

    def route_lines(self, source: int, dest: int) -> List[Tuple[int, int]]:
        """The (stage, line) resources on the path from source to dest."""
        return [
            divmod(link, self.num_ports) for link in self.route_links(source, dest)
        ]

    def run(self, workload: Workload, horizon: int) -> NetworkRunResult:
        """Drive ``workload`` through the network until ``horizon``.

        Messages still in flight at the horizon are abandoned (they count
        toward attempts/collisions but not completions).  Each message's
        path is computed once, at its first attempt, and travels with it
        in the event heap; a message never attempted before the horizon
        is never routed, so its ports are never range-checked.

        A backoff policy that returns a negative delay raises
        ``ValueError``.  The latency and attempts-per-message statistics run
        :meth:`RunningStats.add`'s recurrence in locals and are handed to
        the result once, at the end.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        result = NetworkRunResult(horizon=horizon)
        tracer = get_tracer()
        trace_on = tracer.enabled
        plan = get_fault_plan()
        num_ports = self.num_ports
        stages = self.num_stages
        hold = self.hold_time
        backoff = self.backoff
        delay_of = backoff.delay
        route = self.route_links
        on_complete = workload.on_complete
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        busy = self._busy_until = [0] * (stages * num_ports)
        pending = self._dest_pending = [0] * num_ports
        depth_counts = [0] * (stages + 1)
        attempts = completed = 0
        # Welford state of the latency and attempts-per-message statistics;
        # both count ``completed`` values.
        lat_mean = lat_m2 = tried_mean = tried_m2 = 0.0
        lat_min = tried_min = float("inf")
        lat_max = tried_max = float("-inf")
        # Entries are (time, seq, message, path), path None until the
        # first attempt; seq is unique, so the message and path never take
        # part in a comparison, and the order of events does not depend on
        # how the heap is arranged.  An event stays at heap[0] while it is
        # handled, and its successor event replaces it in one sift.
        heap: List[Tuple[int, int, NetworkMessage, Optional[Tuple[int, ...]]]] = []
        seq = 0

        for message in workload.initial_messages():
            # An out-of-range dest is not counted here; routing rejects it
            # at its first attempt.
            if 0 <= message.dest < num_ports:
                pending[message.dest] += 1
            heappush(heap, (message.issue_time, seq, message, None))
            seq += 1

        while heap:
            time, __, message, path = heap[0]
            if time >= horizon:
                break
            if path is None:
                path = route(message.source, message.dest)
            tried = message.attempts = message.attempts + 1
            attempts += 1
            # Claim the whole path, or find the first busy link.
            depth = 0
            for link in path:
                if busy[link] > time:
                    break
                depth += 1
            if depth == stages:
                release = time + hold
                for link in path:
                    busy[link] = release
                if plan is not None:
                    outcome = plan.grant_outcome("network.grant", message.source, time)
                    if outcome == GRANT_DROP:
                        # The grant (or its acknowledgement) is lost: the
                        # circuit held its links for the round trip but the
                        # requester saw nothing, so it retries afterwards.
                        result.dropped_grants += 1
                        heapreplace(heap, (time + hold + 1, seq, message, path))
                        seq += 1
                        continue
                    if outcome == GRANT_DUP:
                        # A duplicated grant: the duplicate consumed one
                        # extra network attempt's worth of resources.
                        result.duplicated_grants += 1
                        attempts += 1
                message.completed_time = release
                pending[message.dest] -= 1
                completed += 1
                value = release - message.issue_time
                delta = value - lat_mean
                lat_mean += delta / completed
                lat_m2 += delta * (value - lat_mean)
                if value < lat_min:
                    lat_min = value
                if value > lat_max:
                    lat_max = value
                delta = tried - tried_mean
                tried_mean += delta / completed
                tried_m2 += delta * (tried - tried_mean)
                if tried < tried_min:
                    tried_min = tried
                if tried > tried_max:
                    tried_max = tried
                successor = on_complete(message, release)
                if successor is None:
                    heappop(heap)
                else:
                    if 0 <= successor.dest < num_ports:
                        pending[successor.dest] += 1
                    heapreplace(heap, (successor.issue_time, seq, successor, None))
                    seq += 1
            else:
                depth += 1  # stages traversed, counting the colliding one
                depth_counts[depth] += 1
                tries = message.tries = message.tries + 1
                queue_length = pending[message.dest] - 1
                delay = delay_of(depth, stages, tries, hold, queue_length)
                if delay < 0:
                    raise ValueError(
                        f"backoff policy {backoff!r} returned negative delay"
                    )
                if trace_on:
                    tracer.count("network.collisions")
                    tracer.observe("network.hotspot_queue_length", queue_length)
                    tracer.observe("network.collision_depth", depth)
                heapreplace(heap, (time + 1 + delay, seq, message, path))
                seq += 1
        result.latency.load(completed, lat_mean, lat_m2, lat_min, lat_max)
        result.attempts_per_message.load(
            completed, tried_mean, tried_m2, tried_min, tried_max
        )
        result.attempts = attempts
        result.collisions = sum(depth_counts)
        result.completed = completed
        for depth, count in enumerate(depth_counts):
            if count:
                result.collision_depths.add(depth, count)
        if trace_on:
            tracer.count("network.attempts", result.attempts)
            tracer.count("network.completions", result.completed)
            tracer.emit(
                "network.run",
                ports=num_ports,
                policy=backoff.name,
                horizon=horizon,
                completed=result.completed,
                collisions=result.collisions,
                attempts=result.attempts,
            )
        return result
