"""Hot-spot (tree-saturation) workloads for the multistage network.

Pfister & Norton showed that even a small fraction of traffic aimed at a
single "hot" memory module saturates the tree of switches feeding it and
collapses the bandwidth seen by *all* processors.  The paper motivates
adaptive backoff as a software remedy for exactly this congestion, and
Section 8 proposes applying backoff to network accesses themselves.

:class:`HotspotWorkload` is a closed-loop workload: each of ``P``
processors repeatedly thinks for ``think_time`` cycles, then issues a
request that targets the hot module with probability ``hot_fraction``
and a uniformly random module otherwise.  :func:`hotspot_sweep` runs the
workload across hot fractions and backoff policies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.network.multistage import (
    MultistageNetwork,
    NetworkMessage,
    NetworkRunResult,
    Workload,
)
from repro.network.netbackoff import ImmediateRetry, NetworkBackoffPolicy
from repro.sim.rng import BlockDraws, spawn_stream


class HotspotWorkload(Workload):
    """Closed-loop hot-spot traffic for :class:`MultistageNetwork`."""

    def __init__(
        self,
        num_ports: int,
        hot_fraction: float,
        hot_dest: int = 0,
        think_time: int = 4,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0 <= hot_dest < num_ports:
            raise ValueError("hot_dest out of range")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.num_ports = num_ports
        self.hot_fraction = hot_fraction
        self.hot_dest = hot_dest
        self.think_time = think_time
        # The workload owns this stream, so it can draw it in blocks.
        self._rng = BlockDraws(
            spawn_stream(seed, f"hotspot:{num_ports}:{hot_fraction}")
        )

    def _pick_dest(self) -> int:
        if self._rng.random() < self.hot_fraction:
            return self.hot_dest
        return self._rng.integers(self.num_ports)

    def initial_messages(self) -> List[NetworkMessage]:
        # Stagger initial issues across the think window so the network
        # does not see an artificial time-zero burst.
        messages = []
        for source in range(self.num_ports):
            issue = self._rng.integers(self.think_time + 1)
            messages.append(
                NetworkMessage(source=source, dest=self._pick_dest(), issue_time=issue)
            )
        return messages

    def on_complete(
        self, message: NetworkMessage, time: int
    ) -> Optional[NetworkMessage]:
        return NetworkMessage(
            source=message.source,
            dest=self._pick_dest(),
            issue_time=time + self.think_time,
        )


def hotspot_sweep(
    num_ports: int,
    hot_fractions: Sequence[float],
    policies: Sequence[NetworkBackoffPolicy],
    horizon: int = 20_000,
    hold_time: int = 4,
    think_time: int = 4,
    seed: int = 0,
) -> Dict[str, Dict[float, NetworkRunResult]]:
    """Run the hot-spot workload for every (policy, hot fraction) pair.

    Returns:
        ``{policy_name: {hot_fraction: NetworkRunResult}}``.
    """
    results: Dict[str, Dict[float, NetworkRunResult]] = {}
    for policy in policies:
        per_fraction: Dict[float, NetworkRunResult] = {}
        for fraction in hot_fractions:
            network = MultistageNetwork(
                num_ports=num_ports, hold_time=hold_time, backoff=policy
            )
            workload = HotspotWorkload(
                num_ports=num_ports,
                hot_fraction=fraction,
                think_time=think_time,
                seed=seed,
            )
            per_fraction[fraction] = network.run(workload, horizon)
        results[policy.name] = per_fraction
    return results


def uniform_baseline_throughput(
    num_ports: int,
    horizon: int = 20_000,
    hold_time: int = 4,
    think_time: int = 4,
    seed: int = 0,
) -> float:
    """Throughput with zero hot-spot traffic and immediate retry."""
    network = MultistageNetwork(
        num_ports=num_ports, hold_time=hold_time, backoff=ImmediateRetry()
    )
    workload = HotspotWorkload(
        num_ports=num_ports, hot_fraction=0.0, think_time=think_time, seed=seed
    )
    return network.run(workload, horizon).throughput


__all__ = ["HotspotWorkload", "hotspot_sweep", "uniform_baseline_throughput"]
