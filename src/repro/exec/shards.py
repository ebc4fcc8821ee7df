"""Pool-worker entry points for parallel sweep execution.

A *shard* is a contiguous repetition range ``[rep_start, rep_stop)`` of
one (N, A, policy) sweep point.  Shards are the unit of work shipped to
:class:`concurrent.futures.ProcessPoolExecutor` workers: each worker
simulates its range and returns one compact summary tuple per episode
(see :class:`repro.barrier.metrics.EpisodeSummary`), and the parent
replays the tuples in repetition order to rebuild the aggregate
bit-for-bit.

Why this is deterministic: every repetition's RNG stream is derived
from ``(root_seed, "barrier-rep-<rep>")`` alone (:mod:`repro.sim.rng`),
so an episode's outcome does not depend on which process runs it or
what ran before it in that process.

Workers are forked from a live parent and inherit its process-global
registries — an active tracer (possibly holding an open JSONL sink), a
fault plan, an exec config.  :func:`reset_worker_state` clears all
three before every task (:func:`repro.exec.supervisor
.run_supervised_task` calls it), so a worker can neither corrupt the
parent's sink nor recursively re-enter the exec engine.  The entries
themselves are plain functions of their task, which is what lets the
engine run the same entry inline at ``jobs=1``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.exec.context import set_exec_config
from repro.faults.plan import clear_fault_plan
from repro.obs.tracer import set_tracer


def shard_bounds(repetitions: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, repetitions)`` into at most ``shards`` contiguous ranges.

    Every range but the last has the same size (the ceiling of an even
    split), so the slowest worker gets no more than one extra episode's
    worth of imbalance per shard.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    size = -(-repetitions // shards)  # ceil division
    return [
        (start, min(start + size, repetitions))
        for start in range(0, repetitions, size)
    ]


def make_shard_task(
    num_processors: int,
    interval_a: int,
    policy: Any,
    seed: int,
    single_variable: bool,
    rep_start: int,
    rep_stop: int,
    backend: str = "python",
) -> Dict[str, Any]:
    """The picklable work order :func:`run_barrier_shard` executes.

    ``backend`` must already be resolved (``python`` or ``numpy``) —
    workers inherit whatever ambient default existed when the pool was
    forked, so deferring resolution to the worker would ignore a
    ``--backend`` flag set afterwards in the parent.
    """
    return {
        "num_processors": num_processors,
        "interval_a": interval_a,
        "policy": policy,
        "seed": seed,
        "single_variable": single_variable,
        "rep_start": rep_start,
        "rep_stop": rep_stop,
        "backend": backend,
    }


def make_tree_shard_task(
    num_processors: int,
    interval_a: int,
    policy: Any,
    seed: int,
    degree: int,
    rep_start: int,
    rep_stop: int,
    backend: str = "python",
    poll_budget: Any = None,
    timeout_cycles: Any = None,
) -> Dict[str, Any]:
    """The picklable work order :func:`run_tree_shard` executes.

    The combining-tree analogue of :func:`make_shard_task`; ``backend``
    must already be resolved in the parent for the same reason.
    """
    return {
        "num_processors": num_processors,
        "interval_a": interval_a,
        "policy": policy,
        "seed": seed,
        "degree": degree,
        "rep_start": rep_start,
        "rep_stop": rep_stop,
        "backend": backend,
        "poll_budget": poll_budget,
        "timeout_cycles": timeout_cycles,
    }


def reset_worker_state() -> None:
    """Drop registries a forked worker inherited from its parent."""
    # Imported here for the same package-initialisation reason as the
    # simulator import below: supervisor pulls in exec.context.
    from repro._ambient import reset_thread_overrides
    from repro.exec.supervisor import set_chaos_plan, set_supervisor_config

    # A forked worker's main thread is a snapshot of the submitting
    # thread, so thread-scoped overrides (a serve job's tracer/config)
    # must be dropped along with the process defaults.
    reset_thread_overrides()
    set_tracer(None)
    clear_fault_plan()
    set_exec_config(None)
    set_supervisor_config(None)
    set_chaos_plan(None)


def run_experiment_point(task: Dict[str, Any]) -> Any:
    """Execute one registry experiment point; returns its JSON payload.

    The unit of work for :func:`repro.exec.engine
    .execute_experiment_points`: the worker looks the spec up in its
    own registry (specs hold callables, so the task ships only the
    experiment id and the point kwargs) and returns the JSON-native
    payload ``run_point`` produced, round-tripped through strict JSON
    so pool, cache and inline paths hand the aggregate the same object.
    """
    from repro.exec.cache import canonical_payload
    from repro.registry.spec import get_spec

    spec = get_spec(task["experiment_id"])
    return canonical_payload(spec.run_point(**task["kwargs"]))


def run_barrier_shard(task: Dict[str, Any]) -> List[tuple]:
    """Simulate one barrier shard; returns episode-summary tuples.

    Top-level by design: pool workers receive this function by
    reference, so it must be importable, not a closure.
    """
    # Imported here, not at module top: repro.barrier.simulator imports
    # repro.exec.context, so a top-level import would make package
    # initialisation order-dependent.
    from repro.barrier.simulator import build_simulator

    simulator = build_simulator(
        task["num_processors"],
        task["interval_a"],
        task["policy"],
        seed=task["seed"],
        single_variable=task["single_variable"],
    )
    summaries = simulator.run_shard(
        task["rep_start"],
        task["rep_stop"],
        backend=task.get("backend", "python"),
    )
    return [summary.as_tuple() for summary in summaries]


def run_tree_shard(task: Dict[str, Any]) -> List[tuple]:
    """Simulate one combining-tree shard; returns episode-summary tuples.

    Top-level and lazily importing for the same reasons as
    :func:`run_barrier_shard`.
    """
    from repro.barrier.tree import build_tree_simulator

    simulator = build_tree_simulator(
        task["num_processors"],
        task["interval_a"],
        task["policy"],
        degree=task["degree"],
        seed=task["seed"],
        poll_budget=task.get("poll_budget"),
        timeout_cycles=task.get("timeout_cycles"),
    )
    summaries = simulator.run_shard(
        task["rep_start"],
        task["rep_stop"],
        backend=task.get("backend", "python"),
    )
    return [summary.as_tuple() for summary in summaries]
