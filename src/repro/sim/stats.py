"""Statistics containers shared by the experiment harnesses.

These are deliberately dependency-light: plain Python plus numpy for the
odd vectorised helper.  They are used by the barrier sweeps (Figures
4-10), the coherence simulator (Tables 1-2, Figure 1) and the trace
scheduler (Table 3, Figure 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> Tuple[float, float]:
    """(mean, half-width) of a normal-approximation confidence interval."""
    values = list(values)
    if len(values) < 2:
        return (mean(values), 0.0)
    m = mean(values)
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    half = z * math.sqrt(var / len(values))
    return (m, half)


class RunningStats:
    """Welford-style running mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation into the statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def load(
        self, count: int, mean: float, m2: float, minimum: float, maximum: float
    ) -> None:
        """Take over state that a hot loop accumulated in locals.

        The loop must run :meth:`add`'s recurrence (same operations, same
        order), so every float is bit-identical to ``count`` calls of
        :meth:`add`.  With ``count == 0`` the statistics are empty, and
        ``minimum`` and ``maximum`` are ignored.
        """
        self.count = count
        self._mean = mean
        self._m2 = m2
        self.minimum = minimum if count else None
        self.maximum = maximum if count else None

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def relative_stddev(self) -> float:
        """stddev / mean — the paper verifies this is below ~7%."""
        if not self.mean:
            return 0.0
        return self.stddev / abs(self.mean)

    def merge(self, other: "RunningStats") -> None:
        """Fold another RunningStats into this one (parallel Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        if other.minimum is not None:
            self.minimum = min(self.minimum, other.minimum)  # type: ignore[arg-type]
        if other.maximum is not None:
            self.maximum = max(self.maximum, other.maximum)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.4g}, "
            f"stddev={self.stddev:.4g})"
        )


class Histogram:
    """An integer-keyed histogram (e.g. invalidations-per-write, Figure 1)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.total = 0

    def add(self, key: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("histogram counts must be non-negative")
        self._counts[key] = self._counts.get(key, 0) + count
        self.total += count

    def count(self, key: int) -> int:
        return self._counts.get(key, 0)

    def fraction(self, key: int) -> float:
        """Fraction of all observations that landed on ``key``."""
        if not self.total:
            return 0.0
        return self._counts.get(key, 0) / self.total

    def cumulative_fraction(self, key: int) -> float:
        """Fraction of observations with value <= key."""
        if not self.total:
            return 0.0
        return sum(c for k, c in self._counts.items() if k <= key) / self.total

    def keys(self) -> List[int]:
        return sorted(self._counts)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._counts.items())

    def as_fractions(self) -> List[Tuple[int, float]]:
        return [(k, self.fraction(k)) for k in self.keys()]

    def merge(self, other: "Histogram") -> None:
        for key, count in other.items():
            self.add(key, count)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"Histogram(total={self.total}, bins={len(self._counts)})"


@dataclass
class Series:
    """A labelled (x, y) series — one curve of a paper figure."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x: float) -> float:
        """The y value recorded for ``x`` (exact match required)."""
        try:
            return self.ys[self.xs.index(x)]
        except ValueError:
            raise KeyError(f"series {self.label!r} has no point at x={x}") from None

    def __len__(self) -> int:
        return len(self.xs)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self.xs, self.ys))
