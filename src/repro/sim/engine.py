"""A minimal deterministic discrete-event simulation kernel.

The kernel is intentionally small: an event is a ``(time, priority, seq,
callback)`` tuple kept in a binary heap.  Determinism is guaranteed by the
monotonically increasing sequence number, which breaks ties between events
scheduled for the same time with the same priority in insertion order.

No shipped simulator runs on this kernel.  The barrier simulator in
:mod:`repro.barrier.simulator` uses a specialised FIFO-collapse of the
paper's per-cycle retry loop, and the multistage network, resource and
queueing simulators each keep their own ``heapq`` event loop.  So the
``event_jitter`` fault, which acts only through :meth:`Simulator.schedule`,
and :class:`SimulationStalledError` reach no experiment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.faults.plan import get_fault_plan
from repro.obs.tracer import get_tracer


class SimulationStalledError(RuntimeError):
    """The simulation cannot make the progress it was asked for.

    Raised when :meth:`Simulator.run` exhausts ``max_events`` with work
    still pending (a runaway or livelocked event loop), or — via the
    :class:`IndexError`-compatible subclass below — when an event is
    popped from an empty queue.
    """


class EmptyQueueError(SimulationStalledError, IndexError):
    """Empty-queue pop; also an ``IndexError`` for historical callers."""


@dataclass(frozen=True)
class Event:
    """An immutable record of a scheduled event.

    Attributes:
        time: simulation time at which the event fires.
        priority: lower values fire first among same-time events.
        seq: insertion sequence number (final tie-break, guarantees
            determinism).
        callback: zero-argument callable executed when the event fires.
    """

    time: int
    priority: int
    seq: int
    callback: Callable[[], Any] = field(compare=False)

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: int, callback: Callable[[], Any], priority: int = 0) -> Event:
        """Schedule ``callback`` at ``time``; returns the Event record."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event(time=time, priority=priority, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, (event.sort_key(), event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise EmptyQueueError(
                "pop from an empty EventQueue: no events are pending, so "
                "the simulation cannot advance"
            )
        __, event = heapq.heappop(self._heap)
        return event

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event, or None if empty."""
        if not self._heap:
            return None
        return self._heap[0][1].time


class Simulator:
    """Drives an :class:`EventQueue` until exhaustion or a time horizon.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5, lambda: fired.append(sim.now))
        >>> sim.run()
        1
        >>> fired
        [5]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now = 0
        self._running = False

    def schedule(
        self, time: int, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Schedule an event at absolute time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time}, simulation time is {self.now}"
            )
        plan = get_fault_plan()
        if plan is not None:
            time += plan.event_jitter(time)
        event = self._queue.push(time, callback, priority)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("sim.events_scheduled")
            tracer.observe("sim.heap_depth", len(self._queue))
        return event

    def schedule_after(
        self, delay: int, callback: Callable[[], Any], priority: int = 0
    ) -> Event:
        """Schedule an event ``delay`` cycles after the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, priority)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in order.

        Args:
            until: inclusive time horizon; events scheduled later remain
                queued.
            max_events: runaway guard; exceeding it with work still
                pending raises :class:`SimulationStalledError`.

        Returns:
            The number of events executed.

        Raises:
            SimulationStalledError: ``max_events`` events were executed
                and the queue still holds runnable work (within
                ``until``) — a runaway or livelocked event loop.
        """
        executed = 0
        tracer = get_tracer()
        trace_on = tracer.enabled
        self._running = True
        try:
            while len(self._queue):
                next_time = self._queue.peek_time()
                if until is not None and next_time is not None and next_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationStalledError(
                        f"simulation stalled: executed {executed} events "
                        f"(max_events={max_events}) at time {self.now} with "
                        f"{len(self._queue)} event(s) still pending "
                        f"(next at t={next_time}); this usually means a "
                        "callback reschedules itself unconditionally"
                    )
                event = self._queue.pop()
                self.now = event.time
                event.callback()
                executed += 1
                if trace_on:
                    tracer.emit(
                        "sim.event",
                        time=event.time,
                        priority=event.priority,
                        heap=len(self._queue),
                    )
        finally:
            self._running = False
        if trace_on:
            tracer.count("sim.events_fired", executed)
        if until is not None and self.now < until and not len(self._queue):
            self.now = until
        return executed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
