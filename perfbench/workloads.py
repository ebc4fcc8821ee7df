"""The benchmark's workloads: fixed plan lists and the seeded serve mix.

Plans are the program's own serialized form (``repro.exec.plan``'s
``plan_to_json`` shape: experiment, params, seed, fault_plan), so the
same dicts feed ``plan_from_json`` in a batch pass and ``POST /jobs``
on the service.  Every input comes from the benchmark seed and from a
finite set whose result digests are recorded in
``expected_digests.json``: batch workloads run their plans in a fixed
order with the simulation seed ``seed % SEED_VARIANTS`` on every
experiment that takes one, and ``serve_mix`` picks and orders plans
from a fixed universe.

Why these inputs, and why they are scaled below paper size, is in this
directory's README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

Plan = Dict[str, Any]


#: Simulation seeds the batch workloads draw from (digests recorded).
SEED_VARIANTS = 8
#: Batch experiments that take a ``seed`` parameter.
SEEDED = {
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
    "figure10", "hardware", "combining", "schedules", "queueing",
    "determinism", "validation", "fft_traffic", "netbackoff",
    "tree_saturation",
}


def _plan(experiment: str, **params: Any) -> Plan:
    return {"experiment": experiment, "params": params}


# -- batch workloads ------------------------------------------------------

#: The barrier family at a quarter of the paper's repetitions (every
#: other parameter at its paper default), on the default CLI path.
BARRIER_SWEEPS: List[Plan] = [
    _plan("figure4", repetitions=25),
    _plan("figure5", repetitions=25),
    _plan("figure6", repetitions=25),
    _plan("figure7", repetitions=25),
    _plan("figure8", repetitions=25),
    _plan("figure9", repetitions=25),
    _plan("figure10", repetitions=25),
    _plan("hardware", repetitions=25),
    _plan("combining", repetitions=12),
    _plan("schedules", repetitions=12),
    _plan("queueing", repetitions=12),
    _plan("determinism", repetitions=12),
]

#: The trace-driven family at a tenth of each experiment's default
#: trace scale.
TRACE_COHERENCE: List[Plan] = [
    _plan("table1", scale=0.1),
    _plan("table2", scale=0.1),
    _plan("table3", scale=0.1),
    _plan("figure1", scale=0.1),
    _plan("figure3", scale=0.1),
    _plan("validation", scale=0.1),
    _plan("tree_coherence", scale=0.05),
    _plan("bus_vs_directory", scale=0.05),
    _plan("fft_traffic", scale=0.1),
]

#: Both network studies with every hot fraction and policy, at a
#: thirty-second of the paper horizons (host cost is linear in horizon).
NETWORK_CONTENTION: List[Plan] = [
    _plan("netbackoff", horizon=625),
    _plan("tree_saturation", horizon=156),
]

BATCH: Dict[str, List[Plan]] = {
    "barrier_sweeps": BARRIER_SWEEPS,
    "trace_coherence": TRACE_COHERENCE,
    "network_contention": NETWORK_CONTENTION,
}

WORKLOADS = ("barrier_sweeps", "trace_coherence", "network_contention", "serve_mix")


def batch_plans(workload: str, seed: int) -> List[Plan]:
    """The workload's plans for this benchmark seed, in run order.

    The order is fixed: experiments share per-process memos (the trace
    cache), so the order decides which plan pays for building each
    shared input, and a seeded order would move per-plan latencies.
    """
    variant = seed % SEED_VARIANTS
    plans = []
    for plan in BATCH[workload]:
        plan = {"experiment": plan["experiment"], "params": dict(plan["params"])}
        if plan["experiment"] in SEEDED:
            plan["params"]["seed"] = variant
        plans.append(plan)
    return plans


# -- serve_mix ------------------------------------------------------------

#: Small barrier sweeps: (experiment, seed) groups over sub-grids of N.
SERVE_EXPERIMENTS = ("figure5", "figure6", "figure8", "figure9")
SERVE_SEEDS = tuple(range(1, 25))
SERVE_REPETITIONS = 8
#: Sub-grids of N = 4..64.  Two plans of one group share the points of
#: their common N values, so a later one partly reads from the cache.
SERVE_GRIDS: Tuple[Tuple[int, ...], ...] = (
    (4, 8, 16),
    (8, 16, 32),
    (16, 32, 64),
    (4, 16, 64),
    (8, 32, 64),
)
FAULT_EXPERIMENTS = ("figure5", "figure8")
FAULT_GRID = (4, 8, 16)
TRACE_SCALES = (0.05, 0.1)
TRACE_APPS = ("FFT", "SIMPLE", "WEATHER")

#: Operations per pass by kind, dealt alternately to the clients in a
#: seeded order.  ``resubmit`` repeats one of the same client's finished
#: plans (the dedupe warm path); every other kind submits a plan no
#: earlier operation of the pass submitted.  Fixed counts keep at least
#: 100 samples behind each latency percentile in every pass.
MIX_COUNTS = (
    ("fresh", 70),
    ("overlap", 43),
    ("fault", 12),
    ("trace", 10),
    ("resubmit", 115),
)
CLIENTS = 2


def barrier_plan(experiment: str, seed: int, grid: Sequence[int]) -> Plan:
    return {
        "experiment": experiment,
        "params": {"repetitions": SERVE_REPETITIONS, "n_values": list(grid)},
        "seed": seed,
    }


def fault_plan(experiment: str, seed: int) -> Plan:
    plan = barrier_plan(experiment, seed, FAULT_GRID)
    plan["fault_plan"] = "stragglers"
    return plan


def trace_plan(experiment: str, scale: float, app: str) -> Plan:
    if experiment == "table3":
        params = {"scale": scale, "cpu_counts": [16], "apps": [app]}
    else:
        params = {"scale": scale, "num_cpus": 16, "apps": [app]}
    return {"experiment": experiment, "params": params}


def serve_universe() -> List[Plan]:
    """Every plan the serve mix can submit (each has a recorded digest)."""
    plans = [
        barrier_plan(experiment, seed, grid)
        for experiment in SERVE_EXPERIMENTS
        for seed in SERVE_SEEDS
        for grid in SERVE_GRIDS
    ]
    plans += [
        fault_plan(experiment, seed)
        for experiment in FAULT_EXPERIMENTS
        for seed in SERVE_SEEDS
    ]
    plans += [
        trace_plan(experiment, scale, app)
        for experiment in ("table3", "figure3")
        for scale in TRACE_SCALES
        for app in TRACE_APPS
    ]
    return plans


@dataclass
class Op:
    """One client operation: submit ``plan``; ``kind`` says what to expect."""

    kind: str
    plan: Plan


def serve_mix(seed: int) -> List[List[Op]]:
    """The seeded operation sequence of each client.

    Deterministic in ``seed``.  Plans are never shared between clients
    except through the cache (overlapping grids), so a ``resubmit`` is
    always answered by a job its own client already saw finish.
    """
    rng = random.Random(f"serve_mix:{seed}")
    kinds = [kind for kind, count in MIX_COUNTS for __ in range(count)]
    rng.shuffle(kinds)
    # The seed picks simulation seeds and orders; experiments and grids
    # are dealt round-robin so every pass computes about the same work.
    sim_seeds = {e: rng.sample(SERVE_SEEDS, len(SERVE_SEEDS)) for e in SERVE_EXPERIMENTS}
    fresh_count = 0
    used_grids: Dict[Tuple[str, int], List[int]] = {}
    faults = [(e, s) for s in rng.sample(SERVE_SEEDS, len(SERVE_SEEDS))
              for e in FAULT_EXPERIMENTS]
    traces = [
        (e, sc, app)
        for e in ("table3", "figure3")
        for sc in TRACE_SCALES
        for app in TRACE_APPS
    ]
    rng.shuffle(traces)
    streams: List[List[Op]] = [[] for __ in range(CLIENTS)]
    history: List[List[Plan]] = [[] for __ in range(CLIENTS)]

    def fresh() -> Optional[Plan]:
        nonlocal fresh_count
        index = fresh_count
        experiment = SERVE_EXPERIMENTS[index % len(SERVE_EXPERIMENTS)]
        if not sim_seeds[experiment]:
            return None
        fresh_count += 1
        group = (experiment, sim_seeds[experiment].pop())
        grid = index % len(SERVE_GRIDS)
        used_grids[group] = [grid]
        return barrier_plan(group[0], group[1], SERVE_GRIDS[grid])

    def overlap(client_plans: List[Plan]) -> Optional[Plan]:
        """The next grid of one of this client's barrier groups."""
        groups = sorted({
            (plan["experiment"], plan["seed"]) for plan in client_plans
            if "fault_plan" not in plan and plan["experiment"] in SERVE_EXPERIMENTS
            and len(used_grids[(plan["experiment"], plan["seed"])]) < len(SERVE_GRIDS)
        })
        if not groups:
            return None
        group = rng.choice(groups)
        grid = (used_grids[group][-1] + 1) % len(SERVE_GRIDS)
        used_grids[group].append(grid)
        return barrier_plan(group[0], group[1], SERVE_GRIDS[grid])

    for index in range(len(kinds)):
        client = index % CLIENTS
        if kinds[index] == "resubmit" and not history[client]:
            # A client's first operation cannot repeat anything: swap in
            # the next kind that submits a new plan.
            later = next(
                j for j in range(index + 1, len(kinds))
                if kinds[j] != "resubmit"
            )
            kinds[index], kinds[later] = kinds[later], kinds[index]
        kind = kinds[index]
        plan: Optional[Plan] = None
        if kind == "resubmit":
            plan = rng.choice(history[client])
        elif kind == "fault" and faults:
            plan = fault_plan(*faults.pop(0))
        elif kind == "trace" and traces:
            plan = trace_plan(*traces.pop())
        elif kind == "overlap":
            plan = overlap(history[client])
        if plan is None:
            kind, plan = "fresh", fresh()
        if plan is None:
            kind, plan = "overlap", overlap(history[client])
        if plan is None:
            raise ValueError(f"serve mix universe exhausted at op {index}")
        streams[client].append(Op(kind, plan))
        if kind != "resubmit":
            history[client].append(plan)
    return streams
