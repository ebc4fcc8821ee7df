"""Barrier episodes executed through cache-coherence protocols (§5.1).

Section 5.1 prices hardware-supported barriers with back-of-envelope
counts: invalidating bus ~3 accesses/processor, updating bus ~2,
full-map directory ~4, against which the backoff schemes on uncached
variables are compared.  This module *simulates* those numbers: it
drives one Tang-Yew barrier episode, reference by reference, through

- the snoopy bus (:mod:`repro.memory.snoopy`, invalidate / update /
  fetch-intent-write variants),
- the directory (:mod:`repro.memory.coherence`, any pointer count), or
- uncached synchronization variables with an optional backoff policy
  (every poll is a two-transaction network access — the software
  scheme the paper proposes).

Episode model (cycle-driven, matching the post-mortem scheduler's
conventions): processors arrive uniformly in [0, A]; each performs a
fetch&add on the barrier variable (one grant per cycle — the atomic is
serialized), then polls the flag once per cycle (or per its backoff
schedule) until it observes the value written by the last arrival.
With caching, repeat polls hit in the cache and cost nothing until the
flag write invalidates (or updates) the copies — which is precisely why
"all repeat accesses of a synchronization variable can be satisfied by
the cache" on such machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.backoff import BackoffPolicy, NoBackoff
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator
from repro.sim.rng import spawn_stream
from repro.sim.stats import RunningStats

#: Distinct block-aligned addresses for the two synchronization words.
_VARIABLE_ADDRESS = 0x1000
_FLAG_ADDRESS = 0x2000


@dataclass
class CoherentBarrierResult:
    """Traffic of one simulated barrier episode."""

    num_processors: int
    scheme: str
    transactions: int = 0
    cycles: int = 0

    @property
    def transactions_per_process(self) -> float:
        if not self.num_processors:
            return 0.0
        return self.transactions / self.num_processors


class CoherentBarrierSimulator:
    """One Tang-Yew barrier through a coherence protocol.

    Args:
        num_processors: N.
        scheme: ``"snoopy-invalidate"``, ``"snoopy-invalidate-fiw"``
            (fetch-intent-write), ``"snoopy-update"``, ``"directory"``,
            or ``"uncached"``.
        interval_a: arrival interval A.
        policy: backoff policy (meaningful for ``"uncached"``, where
            every poll costs network transactions; cached schemes poll
            their caches for free, so backoff is a no-op there).
        num_pointers: directory pointer count (``"directory"`` only).
    """

    SCHEMES = (
        "snoopy-invalidate",
        "snoopy-invalidate-fiw",
        "snoopy-update",
        "directory",
        "uncached",
    )

    def __init__(
        self,
        num_processors: int,
        scheme: str = "snoopy-invalidate",
        interval_a: int = 0,
        policy: Optional[BackoffPolicy] = None,
        num_pointers: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if scheme not in self.SCHEMES:
            raise ValueError(f"scheme must be one of {self.SCHEMES}, got {scheme!r}")
        if interval_a < 0:
            raise ValueError("interval_a must be non-negative")
        self.num_processors = num_processors
        self.scheme = scheme
        self.interval_a = interval_a
        self.policy = policy if policy is not None else NoBackoff()
        self.num_pointers = num_pointers
        self.seed = seed

    def _make_backend(self):
        n = self.num_processors
        if self.scheme == "snoopy-invalidate":
            return SnoopySimulator(SnoopyConfig(num_cpus=n))
        if self.scheme == "snoopy-invalidate-fiw":
            return SnoopySimulator(
                SnoopyConfig(num_cpus=n, fetch_intent_write=True)
            )
        if self.scheme == "snoopy-update":
            return SnoopySimulator(SnoopyConfig(num_cpus=n, protocol="update"))
        if self.scheme == "directory":
            pointers = self.num_pointers if self.num_pointers else n
            return CoherenceSimulator(
                CoherenceConfig(num_cpus=n, num_pointers=pointers)
            )
        return CoherenceSimulator(
            CoherenceConfig(num_cpus=n, num_pointers=n, cache_sync=False)
        )

    def _transactions(self, backend) -> int:
        if isinstance(backend, SnoopySimulator):
            return backend.stats.bus_transactions
        return backend.stats.total_traffic

    def run_once(self, rng: np.random.Generator) -> CoherentBarrierResult:
        n = self.num_processors
        backend = self._make_backend()
        # The episode's control flow never reads the memory system, so its
        # references are collected as trace columns (op code 0 reads,
        # 1 writes; every reference is a sync reference) and replayed in
        # one pass.
        cpus, op_codes, addresses = [], [], []
        if self.interval_a == 0:
            arrivals = [0] * n
        else:
            arrivals = sorted(
                int(t) for t in rng.integers(0, self.interval_a + 1, size=n)
            )

        # Per-cpu state: -1 done; 0 awaiting arrival; 1 needs F&A;
        # 2 polling.
        AWAIT, FETCH, POLL, DONE = 0, 1, 2, -1
        state = [AWAIT] * n
        next_action = list(arrivals)
        polls = [0] * n
        count = 0
        flag_written_cycle: Optional[int] = None
        active = n
        cycle = 0
        guard = 0

        while active:
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("coherent barrier episode did not converge")
            fa_granted_this_cycle = False
            for cpu in range(n):
                if state[cpu] == DONE or next_action[cpu] > cycle:
                    continue
                if state[cpu] == AWAIT:
                    state[cpu] = FETCH
                if state[cpu] == FETCH:
                    if fa_granted_this_cycle:
                        continue  # the atomic is serialized; retry next cycle
                    fa_granted_this_cycle = True
                    cpus.append(cpu)
                    op_codes.append(1)
                    addresses.append(_VARIABLE_ADDRESS)
                    count += 1
                    if count == n:
                        # Last arrival: write the flag next cycle.
                        cpus.append(cpu)
                        op_codes.append(1)
                        addresses.append(_FLAG_ADDRESS)
                        flag_written_cycle = cycle + 1
                        state[cpu] = DONE
                        active -= 1
                    else:
                        wait = max(self.policy.variable_wait(count, n), 1)
                        state[cpu] = POLL
                        next_action[cpu] = cycle + wait
                    continue
                # POLL
                cpus.append(cpu)
                op_codes.append(0)
                addresses.append(_FLAG_ADDRESS)
                if flag_written_cycle is not None and cycle >= flag_written_cycle:
                    state[cpu] = DONE
                    active -= 1
                else:
                    polls[cpu] += 1
                    wait = max(self.policy.flag_wait(polls[cpu]), 1)
                    next_action[cpu] = cycle + wait
            cycle += 1

        backend.run_columns(cpus, op_codes, addresses, [True] * len(cpus))
        return CoherentBarrierResult(
            num_processors=n,
            scheme=self.scheme,
            transactions=self._transactions(backend),
            cycles=cycle,
        )

    def run(self, repetitions: int = 20) -> RunningStats:
        """Transactions-per-process statistics over repeated episodes."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        stats = RunningStats()
        for rep in range(repetitions):
            rng = spawn_stream(self.seed, f"coherent-rep-{rep}")
            stats.add(self.run_once(rng).transactions_per_process)
        return stats


def simulate_coherent_barrier(
    num_processors: int,
    scheme: str,
    interval_a: int = 0,
    policy: Optional[BackoffPolicy] = None,
    num_pointers: Optional[int] = None,
    repetitions: int = 20,
    seed: int = 0,
) -> RunningStats:
    """Convenience wrapper: transactions/process for one configuration."""
    simulator = CoherentBarrierSimulator(
        num_processors=num_processors,
        scheme=scheme,
        interval_a=interval_a,
        policy=policy,
        num_pointers=num_pointers,
        seed=seed,
    )
    return simulator.run(repetitions)
