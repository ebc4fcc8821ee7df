"""Conservation-law checks on simulator event streams and state.

Each invariant runs a handful of randomized barrier episodes (or
coherence traces) under a live tracer and cross-checks three views of
the same run against each other:

1. the **event stream** (``barrier.variable`` / ``barrier.flag_poll`` /
   ``barrier.flag_write`` events with per-grant costs),
2. the **module accounting** (:class:`~repro.network.module.MemoryModule`
   grant/access totals), and
3. the **result record** (:class:`~repro.barrier.metrics.BarrierRunResult`
   per-process accesses and waiting times).

Any bookkeeping bug that breaks one view against the others — a
miscounted retry, a double grant, a wait measured from the wrong epoch
— fails the corresponding conservation law here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.barrier.simulator import build_simulator
from repro.check.runner import CheckContext, CheckFailure, check
from repro.core.backoff import (
    BackoffPolicy,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.network.model import NetworkModel
from repro.obs.tracer import Tracer, tracing
from repro.sim.rng import spawn_stream
from repro.trace.record import Op, TraceRecord

def random_policy(rng: np.random.Generator) -> BackoffPolicy:
    """One of the paper's policy shapes with randomized knobs."""
    choice = int(rng.integers(0, 4))
    if choice == 0:
        return NoBackoff()
    if choice == 1:
        return VariableBackoff(
            multiplier=int(rng.integers(0, 3)), offset=int(rng.integers(0, 4))
        )
    if choice == 2:
        return LinearFlagBackoff(step=int(rng.integers(1, 5)))
    return ExponentialFlagBackoff(base=int(rng.choice([2, 4, 8])))


def _traced_episode(rng: np.random.Generator):
    """One randomized episode; returns (result, tracer, network, n, single)."""
    n = int(rng.integers(2, 25))
    interval_a = int(rng.integers(0, 201))
    single = bool(rng.integers(0, 2))
    seed = int(rng.integers(0, 2**32))
    policy = random_policy(rng)
    simulator = build_simulator(
        n, interval_a, policy, seed=seed, single_variable=single
    )
    network = NetworkModel()
    tracer = Tracer(run_id="check-invariant", ring_size=1 << 15)
    with tracing(tracer):
        result = simulator.run_once(
            spawn_stream(seed, "barrier-rep-0"), network=network
        )
    return result, tracer, network, n, single


def _grants(events: List[dict]) -> List[int]:
    return [event["grant"] for event in events]


@check("invariants")
def module_single_grant(ctx: CheckContext) -> int:
    """A module grants at most one access per cycle.

    Per-module grant times taken from the event stream must be strictly
    increasing in processing order, and their count must equal the
    module's own ``total_grants``.
    """
    rng = ctx.rng("module-single-grant")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        __, tracer, network, n, single = _traced_episode(rng)
        variable_events = tracer.recent(kind="barrier.variable")
        flag_events = sorted(
            tracer.recent(kind="barrier.flag_poll")
            + tracer.recent(kind="barrier.flag_write"),
            key=lambda event: event["seq"],
        )
        if single:
            # One module serves everything: the merged grant sequence
            # must still be one-per-cycle.
            streams = {
                "variable": sorted(
                    variable_events + flag_events,
                    key=lambda event: event["seq"],
                )
            }
        else:
            streams = {"variable": variable_events, "flag": flag_events}
        for module_name, events in streams.items():
            grants = _grants(events)
            for earlier, later in zip(grants, grants[1:]):
                if later <= earlier:
                    raise CheckFailure(
                        f"{module_name} module granted twice in one cycle "
                        f"(grants {earlier} then {later}; N={n}, "
                        f"single_variable={single})"
                    )
        observed = len(variable_events) + len(flag_events)
        if observed != network.total_grants:
            raise CheckFailure(
                f"event stream shows {observed} grants but modules "
                f"recorded {network.total_grants} (N={n})"
            )
        cases += 1
    return cases


@check("invariants")
def episode_traffic(ctx: CheckContext) -> int:
    """Episode traffic = N increments + flag reads/writes + retries.

    Conservation across all three views: per-process access counts,
    per-event costs (``grant - ready + 1``), module totals and the obs
    counters must all describe the same traffic.
    """
    rng = ctx.rng("episode-traffic")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        result, tracer, network, n, single = _traced_episode(rng)
        variable_events = tracer.recent(kind="barrier.variable")
        flag_events = tracer.recent(kind="barrier.flag_poll") + tracer.recent(
            kind="barrier.flag_write"
        )
        if len(variable_events) != n:
            raise CheckFailure(
                f"expected exactly N={n} barrier-variable increments, "
                f"event stream shows {len(variable_events)}"
            )
        event_cost = sum(
            event["cost"] for event in variable_events + flag_events
        )
        per_process = sum(result.accesses_per_process)
        checks = [
            ("sum(accesses_per_process)", per_process),
            ("sum(event costs)", event_cost),
            (
                "module totals",
                network.total_accesses,
            ),
            (
                "counter barrier.accesses",
                int(tracer.counters.get("barrier.accesses", 0)),
            ),
            (
                "result.variable+flag" if not single else "result.variable",
                result.variable_accesses + result.flag_accesses,
            ),
        ]
        baseline_name, baseline = checks[0]
        for name, value in checks[1:]:
            if value != baseline:
                raise CheckFailure(
                    f"traffic not conserved: {baseline_name}={baseline} "
                    f"but {name}={value} (N={n}, A={result.interval_a}, "
                    f"policy={result.policy_name!r}, "
                    f"single_variable={single})"
                )
        denied = int(tracer.counters.get("barrier.denied_accesses", 0))
        if denied != network.contention_accesses:
            raise CheckFailure(
                f"denied-access counter {denied} != module contention "
                f"{network.contention_accesses} (N={n})"
            )
        cases += 1
    return cases


@check("invariants")
def wait_cycles(ctx: CheckContext) -> int:
    """Per-process wait = departure − arrival, reconstructed from events.

    Each processor's arrival is the ``ready`` of its barrier-variable
    increment; its departure is the grant of its releasing event (a
    released flag poll, the last arrival's flag write, or — for the
    single-variable barrier — the final increment itself).  The
    reconstruction must match ``result.waiting_times`` exactly, and the
    completion time must be the maximum departure.
    """
    rng = ctx.rng("wait-cycles")
    cases = 0
    for __ in range(ctx.budget.cases * 3):
        result, tracer, __network, n, __single = _traced_episode(rng)
        arrival: Dict[int, int] = {}
        depart: Dict[int, int] = {}
        for event in tracer.recent(kind="barrier.variable"):
            arrival[event["cpu"]] = event["ready"]
            if event["value"] == n:
                depart[event["cpu"]] = event["grant"]
        for event in tracer.recent(kind="barrier.flag_write"):
            depart[event["cpu"]] = event["grant"]
        for event in tracer.recent(kind="barrier.flag_poll"):
            if event["released"]:
                depart[event["cpu"]] = event["grant"]
        if sorted(arrival) != list(range(n)) or sorted(depart) != list(range(n)):
            raise CheckFailure(
                f"event stream missing arrivals/departures: "
                f"{len(arrival)} arrivals, {len(depart)} departures for N={n}"
            )
        rebuilt = [depart[cpu] - arrival[cpu] for cpu in range(n)]
        if rebuilt != result.waiting_times:
            raise CheckFailure(
                "waiting times disagree with the event stream: "
                f"result={result.waiting_times} rebuilt={rebuilt} "
                f"(N={n}, A={result.interval_a}, "
                f"policy={result.policy_name!r})"
            )
        if result.completion_time != max(depart.values()):
            raise CheckFailure(
                f"completion_time={result.completion_time} != max departure "
                f"{max(depart.values())} (N={n})"
            )
        cases += 1
    return cases


@check("invariants")
def directory_pointer_state(ctx: CheckContext) -> int:
    """Invalidations are consistent with Dir_i_NB pointer state.

    Random traces through the coherence simulator: the directory never
    tracks more sharers than it has pointers, dirty blocks have exactly
    one sharer, directory and caches agree (the simulator's own
    ``check_invariants``), and a full-map directory (i = num_cpus)
    performs zero overflow invalidations on the same trace.
    """
    rng = ctx.rng("directory-pointer-state")
    cases = 0
    for __ in range(ctx.budget.cases * 2):
        num_cpus = int(rng.integers(2, 9))
        pointers = int(rng.integers(1, num_cpus + 1))
        blocks = int(rng.integers(1, 6))
        trace = [
            TraceRecord(
                cpu=int(rng.integers(0, num_cpus)),
                op=Op(["read", "write", "rmw"][int(rng.integers(0, 3))]),
                address=int(rng.integers(0, blocks)) * 16,
                is_sync=bool(rng.integers(0, 2)),
            )
            for __ in range(int(rng.integers(20, 120)))
        ]
        limited = CoherenceSimulator(
            CoherenceConfig(
                num_cpus=num_cpus, cache_bytes=1024, num_pointers=pointers
            )
        )
        full = CoherenceSimulator(
            CoherenceConfig(
                num_cpus=num_cpus, cache_bytes=1024, num_pointers=num_cpus
            )
        )
        for simulator in (limited, full):
            for record in trace:
                simulator.process(record)
            try:
                simulator.check_invariants()
            except AssertionError as error:
                raise CheckFailure(
                    f"directory invariant violated with i={pointers}, "
                    f"C={num_cpus}: {error}"
                ) from None
        if full.stats.invalidations_on_overflow != 0:
            raise CheckFailure(
                f"full-map directory (i=C={num_cpus}) performed "
                f"{full.stats.invalidations_on_overflow} overflow "
                "invalidations; pointer overflow is impossible there"
            )
        if (
            limited.stats.invalidations_on_overflow
            < full.stats.invalidations_on_overflow
        ):
            raise CheckFailure(
                f"i={pointers} pointers produced fewer overflow "
                "invalidations than the full map on the same trace"
            )
        cases += 1
    return cases
