"""Network-access backoff strategies (Section 8).

The paper sketches five ways a network controller can pick a backoff
interval after a collision in an unbuffered circuit-switched network:

1. proportional to the network depth the message traversed before
   colliding ("the deeper a message travels, the greater the network
   resource that it ties up");
2. *inversely* proportional to the depth traversed ("the deeper a
   message travels before colliding, the less congested the network is
   expected to be");
3. a constant proportional to the average round-trip time to memory;
4. exponential in the number of previous unsuccessful tries;
5. proportional to the memory-module queue length, using feedback in
   the style of Scott & Sohi.

Each strategy is a :class:`NetworkBackoffPolicy`.  The multistage
network simulator (:mod:`repro.network.multistage`) and the
packet-switched one (:mod:`repro.network.packet`) call
:meth:`NetworkBackoffPolicy.delay` with five plain ints describing the
failed attempt, and wait the returned number of cycles before retrying.
Both raise ``ValueError`` if a policy returns a negative delay.
"""

from __future__ import annotations


class NetworkBackoffPolicy:
    """Base class: maps a collision to a non-negative retry delay."""

    name = "abstract"

    def delay(
        self, depth: int, stages: int, tries: int, round_trip: int, queue_length: int
    ) -> int:
        """Cycles to wait before the next attempt.

        Args:
            depth: stages the message traversed before colliding
                (1-based; a collision in the first stage has depth 1).
            stages: total number of stages in the network.
            tries: unsuccessful attempts so far, including this one.
            round_trip: the network's average round-trip time in cycles.
            queue_length: occupancy of the destination module's queue at
                the time of the attempt.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ImmediateRetry(NetworkBackoffPolicy):
    """No backoff: resubmit on the next cycle (the baseline)."""

    name = "immediate"

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        return 0


class DepthProportionalBackoff(NetworkBackoffPolicy):
    """Strategy 1: wait ``factor * depth`` cycles.

    Rationale: a message that collided deep in the network tied up many
    stage resources; delaying it longer relieves the congested path.
    """

    name = "depth-proportional"

    def __init__(self, factor: int = 2) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        return self.factor * depth

    def __repr__(self) -> str:
        return f"DepthProportionalBackoff(factor={self.factor})"


class InverseDepthBackoff(NetworkBackoffPolicy):
    """Strategy 2: wait ``factor * (stages - depth + 1)`` cycles.

    Rationale: surviving many stages before colliding suggests a lightly
    loaded network, so retry sooner.
    """

    name = "inverse-depth"

    def __init__(self, factor: int = 2) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        remaining = max(stages - depth + 1, 1)
        return self.factor * remaining

    def __repr__(self) -> str:
        return f"InverseDepthBackoff(factor={self.factor})"


class ConstantRoundTripBackoff(NetworkBackoffPolicy):
    """Strategy 3: wait a constant multiple of the round-trip time."""

    name = "round-trip"

    def __init__(self, multiple: float = 1.0) -> None:
        if multiple <= 0:
            raise ValueError("multiple must be positive")
        self.multiple = multiple

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        return max(int(self.multiple * round_trip), 1)

    def __repr__(self) -> str:
        return f"ConstantRoundTripBackoff(multiple={self.multiple})"


class ExponentialRetryBackoff(NetworkBackoffPolicy):
    """Strategy 4: wait ``base ** tries`` cycles, optionally capped.

    This is the classic Ethernet-style exponential backoff, made
    deterministic per the paper's argument that determinism preserves
    the serialization established by the first contention episode.
    """

    name = "exponential"

    def __init__(self, base: int = 2, cap: int = 4096) -> None:
        if base < 2:
            raise ValueError("base must be >= 2")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.base = base
        self.cap = cap

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        exponent = min(tries, 32)
        return min(self.base**exponent, self.cap)

    def __repr__(self) -> str:
        return f"ExponentialRetryBackoff(base={self.base}, cap={self.cap})"


class QueueFeedbackBackoff(NetworkBackoffPolicy):
    """Strategy 5: wait proportionally to the destination queue length.

    Models the Scott & Sohi feedback scheme: the memory module exports
    its queue occupancy, and processors damp their request rate when the
    queue is long.
    """

    name = "queue-feedback"

    def __init__(self, factor: int = 1) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor

    def delay(self, depth, stages, tries, round_trip, queue_length) -> int:
        return self.factor * queue_length

    def __repr__(self) -> str:
        return f"QueueFeedbackBackoff(factor={self.factor})"


ALL_STRATEGIES = (
    ImmediateRetry,
    DepthProportionalBackoff,
    InverseDepthBackoff,
    ConstantRoundTripBackoff,
    ExponentialRetryBackoff,
    QueueFeedbackBackoff,
)
