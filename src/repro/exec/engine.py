"""The parallel, cache-aware sweep executor.

:func:`execute_barrier_points` takes a batch of (N, A, policy) sweep
points and returns their :class:`~repro.barrier.metrics.BarrierAggregate`
results, bit-identical to the serial loop, by combining three paths:

1. **Cache** — with ``ExecConfig.cache`` on, each point's episode
   summaries are looked up by content address (experiment id,
   canonical params, seed, code digest; :mod:`repro.exec.cache`) and
   replayed through the aggregate on a hit — no simulation at all.
2. **Pool** — with ``jobs > 1``, missed points are split into
   repetition shards (:mod:`repro.exec.shards`) and fanned across a
   shared :class:`~concurrent.futures.ProcessPoolExecutor`; the parent
   replays each point's summaries in repetition order, which rebuilds
   the exact accumulator state of the serial path.
3. **Inline** — ``jobs == 1`` (cache-only mode) and *stateful*
   policies (``policy.stateful``, e.g. randomized backoff, whose draws
   depend on everything simulated before them) run serially in the
   parent, in submission order, and stateful results are never cached.

Observability contract: while the engine owns a point, simulator-level
tracing is suppressed (workers carry no tracer; inline execution runs
under the null tracer) and the engine emits exactly one ``exec.point``
event per point to the caller's tracer.  Every execution mode thus
produces the same event kinds and counts, so a run's deterministic
manifest digest is identical whether the work was simulated cold,
sharded across any number of workers, or replayed from a warm cache.
Cache hit/miss totals go to :class:`repro.exec.context.ExecStats` (and
the manifest's non-digested ``execution`` section), never to tracer
counters, for the same reason.

Resilience: every pool dispatch goes through
:func:`repro.exec.supervisor.run_supervised`, so a killed worker
(``BrokenProcessPool``) respawns the pool and re-dispatches only the
lost tasks — name-keyed RNG streams make the replay bit-identical — and
an ambient :class:`~repro.exec.supervisor.SupervisorConfig` adds
bounded adaptive-backoff retries, per-attempt deadlines, and (for
registry points) durable checkpoint/resume.  Inline execution honours
the same retry/deadline discipline via
:func:`~repro.exec.supervisor.call_supervised`.  With the default
config all of this is dormant: no retries, no deadline, no checkpoint
I/O — just worker-death recovery, which costs nothing until a worker
actually dies.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.barrier.backend import resolve_backend
from repro.barrier.metrics import (
    BarrierAggregate,
    EpisodeSummary,
    aggregate_from_summaries,
)
# canonical_payload stays importable here: perfbench/spans.py wraps it.
from repro.exec.cache import ResultCache, cache_key, canonical_payload  # noqa: F401
from repro.exec.context import (
    DEFAULT_CONFIG,
    ExecConfig,
    execution,
    get_exec_config,
    get_stats,
)
from repro.exec.shards import make_shard_task, make_tree_shard_task, shard_bounds
from repro.exec.supervisor import (
    COMPLETED,
    FAILED,
    PointRecord,
    call_supervised,
    get_supervisor_config,
    open_experiment_checkpoint,
    resolve_entry,
    run_supervised,
)
from repro.obs.tracer import NULL_TRACER, get_tracer, tracing

#: Experiment id under which barrier sweep points are cached.
BARRIER_KIND = "barrier"

#: Cache-key namespace prefix for registry experiment points.
EXPERIMENT_KIND = "experiment"


@dataclass
class PointSpec:
    """One (N, A, policy) sweep point, as ``simulate_barrier`` takes it."""

    num_processors: int
    interval_a: int
    policy: Any
    repetitions: int = 100
    seed: int = 0
    single_variable: bool = False
    #: Episode engine (``python`` / ``numpy`` / ``auto``; None defers
    #: to the process default).  Deliberately NOT part of ``params()``:
    #: backends are bit-identical, so both share one cache entry and a
    #: warm cache serves either backend's request.
    backend: Optional[str] = None
    #: Set to run a combining-tree barrier point instead of a flat one
    #: (``simulate_tree_barrier``); ``single_variable`` is then ignored.
    tree_degree: Optional[int] = None
    #: Degraded-mode bounds, forwarded to the barrier when set.
    poll_budget: Optional[int] = None
    timeout_cycles: Optional[int] = None

    def params(self) -> Dict[str, Any]:
        """The canonicalizable parameter dict used in the cache key.

        Tree and degraded-mode fields enter the key only when set, so
        every pre-existing flat point keeps its original address and a
        cache warmed before trees existed stays valid.
        """
        params: Dict[str, Any] = {
            "num_processors": self.num_processors,
            "interval_a": self.interval_a,
            "repetitions": self.repetitions,
            "single_variable": self.single_variable,
            "policy": policy_fingerprint(self.policy),
        }
        if self.tree_degree is not None:
            params["tree_degree"] = self.tree_degree
        if self.poll_budget is not None:
            params["poll_budget"] = self.poll_budget
        if self.timeout_cycles is not None:
            params["timeout_cycles"] = self.timeout_cycles
        return params

    @property
    def policy_label(self) -> str:
        """The label the aggregate carries (mirrors the simulators)."""
        if self.tree_degree is not None:
            return f"tree-{self.tree_degree}/{self.policy.name}"
        return self.policy.name


def policy_fingerprint(policy: Any) -> Dict[str, Any]:
    """A structural identity for a policy, for cache keying.

    ``repr`` alone is not enough (some reprs omit inherited parameters,
    e.g. ``LinearFlagBackoff`` hides its variable-backoff multiplier),
    so the fingerprint combines the class name, the repr, and every
    public instance attribute rendered via ``repr`` (nested policies
    fingerprint through their own reprs).
    """
    state = {
        key: repr(value)
        for key, value in sorted(vars(policy).items())
        if not key.startswith("_")
    }
    return {
        "class": type(policy).__name__,
        "repr": repr(policy),
        "state": state,
    }


# -- worker pools -------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the forking process is gone.

    An idle worker blocks on its call queue, whose pipe every sibling
    worker also holds open, so a parent killed outright would leave
    its workers running under init.  ``getppid`` changes when the
    parent process dies, whichever thread forked the worker (unlike
    ``PR_SET_PDEATHSIG``, which fires when that *thread* exits).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """A shared pool with ``jobs`` workers, created on first use."""
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = _POOLS[jobs] = ProcessPoolExecutor(
            max_workers=jobs, initializer=_exit_with_parent
        )
    return pool


def _discard_pool(jobs: int) -> None:
    """Drop (and tear down) the cached pool for ``jobs`` workers.

    Called by supervision after worker death: a broken
    ``ProcessPoolExecutor`` can never be reused, so it must leave the
    cache or every later ``_get_pool`` would hand back a corpse.  The
    shutdown does not wait — the remaining workers of a broken pool are
    already dead or dying.
    """
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every worker pool the engine has created.

    Registered with ``atexit`` and called by the CLI's
    ``KeyboardInterrupt`` handler (with ``wait=False``, which is
    signal-safe: it only flags the executors and releases their worker
    processes without blocking on them).
    """
    while _POOLS:
        __, pool = _POOLS.popitem()
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pools)


# -- execution ----------------------------------------------------------


def _cache_payload(spec: PointSpec, summaries: List[EpisodeSummary]) -> dict:
    return {
        "num_processors": spec.num_processors,
        "interval_a": spec.interval_a,
        "policy_name": spec.policy_label,
        "summaries": [summary.as_tuple() for summary in summaries],
    }


def _replay_payload(spec: PointSpec, payload: dict) -> BarrierAggregate:
    return aggregate_from_summaries(
        spec.num_processors,
        spec.interval_a,
        spec.policy_label,
        (EpisodeSummary.from_tuple(t) for t in payload["summaries"]),
    )


def _emit_point(tracer, spec: PointSpec, source: str, shards: int) -> None:
    if not tracer.enabled:
        return
    # One event per point in every mode; only the fields (which do not
    # enter the deterministic digest) say how the point was satisfied.
    tracer.emit(
        "exec.point",
        n=spec.num_processors,
        interval_a=spec.interval_a,
        policy=spec.policy_label,
        repetitions=spec.repetitions,
        source=source,
        shards=shards,
    )


def _run_point_inline(spec: PointSpec) -> List[EpisodeSummary]:
    """Simulate a whole point serially, with simulator tracing off."""
    if spec.tree_degree is not None:
        from repro.barrier.tree import build_tree_simulator

        simulator = build_tree_simulator(
            spec.num_processors,
            spec.interval_a,
            spec.policy,
            degree=spec.tree_degree,
            seed=spec.seed,
            poll_budget=spec.poll_budget,
            timeout_cycles=spec.timeout_cycles,
        )
    else:
        from repro.barrier.simulator import build_simulator

        simulator = build_simulator(
            spec.num_processors,
            spec.interval_a,
            spec.policy,
            seed=spec.seed,
            single_variable=spec.single_variable,
        )
    with tracing(NULL_TRACER):
        return simulator.run_shard(0, spec.repetitions, backend=spec.backend)


def execute_barrier_points(
    specs: List[PointSpec], config: Optional[ExecConfig] = None
) -> List[BarrierAggregate]:
    """Execute sweep points under ``config``; results in ``specs`` order.

    The ambient config (:func:`repro.exec.context.get_exec_config`) is
    used when ``config`` is None.
    """
    if config is None:
        config = get_exec_config()
    stats = get_stats()
    tracer = get_tracer()
    cache = ResultCache(config.cache_dir) if config.cache else None

    results: List[Optional[BarrierAggregate]] = [None] * len(specs)
    #: (index, spec, cache key or None) still needing simulation.
    pending: List[Tuple[int, PointSpec, Optional[str]]] = []

    for index, spec in enumerate(specs):
        stats.points += 1
        key: Optional[str] = None
        if cache is not None and not getattr(spec.policy, "stateful", False):
            key = cache_key(BARRIER_KIND, spec.params(), spec.seed)
            payload = cache.get(key)
            if payload is not None:
                stats.cache_hits += 1
                results[index] = _replay_payload(spec, payload)
                _emit_point(tracer, spec, "cache", 0)
                continue
            stats.cache_misses += 1
        pending.append((index, spec, key))

    # Fan shardable points across the pool; stateful policies stay
    # inline so their draw state evolves in exactly the serial order.
    pooled: List[Tuple[int, PointSpec, Optional[str], int]] = []
    #: Flat and tree shards run different worker entry points, and
    #: run_supervised dispatches one entry per call, so tasks are
    #: partitioned by entry and fanned out in two supervised batches.
    tasks_by_entry: Dict[str, Dict[Tuple[int, int], dict]] = {}
    if config.jobs > 1:
        for index, spec, key in pending:
            if getattr(spec.policy, "stateful", False):
                continue
            bounds = shard_bounds(spec.repetitions, config.jobs)
            # Resolve the backend here, in the parent: workers inherit
            # whatever ambient default existed when the pool forked, so
            # the caller's --backend choice must travel in the task.
            backend = resolve_backend(spec.backend)
            if spec.tree_degree is not None:
                tasks = tasks_by_entry.setdefault("tree_shard", {})
                for shard_index, (start, stop) in enumerate(bounds):
                    tasks[(index, shard_index)] = make_tree_shard_task(
                        spec.num_processors,
                        spec.interval_a,
                        spec.policy,
                        spec.seed,
                        spec.tree_degree,
                        start,
                        stop,
                        backend=backend,
                        poll_budget=spec.poll_budget,
                        timeout_cycles=spec.timeout_cycles,
                    )
            else:
                tasks = tasks_by_entry.setdefault("barrier_shard", {})
                for shard_index, (start, stop) in enumerate(bounds):
                    tasks[(index, shard_index)] = make_shard_task(
                        spec.num_processors,
                        spec.interval_a,
                        spec.policy,
                        spec.seed,
                        spec.single_variable,
                        start,
                        stop,
                        backend=backend,
                    )
            pooled.append((index, spec, key, len(bounds)))

    pooled_indices = {index for index, *_ in pooled}
    shard_results: Dict[int, Dict[int, List[tuple]]] = {}
    for entry, tasks in tasks_by_entry.items():
        # Supervised fan-out: a killed worker respawns the pool and
        # re-dispatches only the lost shards; name-keyed RNG streams
        # make the replay bit-identical to an undisturbed run.
        outcome = run_supervised(
            tasks,
            entry=entry,
            get_pool=lambda: _get_pool(config.jobs),
            discard_pool=lambda: _discard_pool(config.jobs),
        )
        outcome.raise_first_error(tasks)
        for (index, shard_index), values in outcome.results.items():
            shard_results.setdefault(index, {})[shard_index] = values

    for index, spec, key, shard_count in pooled:
        shards = shard_results[index]
        summaries = [
            EpisodeSummary.from_tuple(values)
            for shard_index in range(shard_count)
            for values in shards[shard_index]
        ]
        results[index] = aggregate_from_summaries(
            spec.num_processors,
            spec.interval_a,
            spec.policy_label,
            summaries,
        )
        stats.shards += shard_count
        stats.parallel_points += 1
        if key is not None and cache is not None:
            cache.put(key, _cache_payload(spec, summaries))
            stats.cache_stores += 1
        _emit_point(tracer, spec, "pool", shard_count)

    # Inline: cache-only mode (jobs == 1) and stateful policies, in
    # submission order.  call_supervised applies the ambient
    # retry/deadline discipline (a plain call under the default config).
    for index, spec, key in pending:
        if index in pooled_indices:
            continue
        summaries = call_supervised(lambda spec=spec: _run_point_inline(spec))
        results[index] = aggregate_from_summaries(
            spec.num_processors,
            spec.interval_a,
            spec.policy_label,
            summaries,
        )
        if key is not None and cache is not None:
            cache.put(key, _cache_payload(spec, summaries))
            stats.cache_stores += 1
        _emit_point(tracer, spec, "inline", 1)

    return results  # type: ignore[return-value]


# -- registry experiment points -----------------------------------------


@dataclass
class FaultSweepOutcome:
    """What :func:`execute_experiment_points` did with a fault-plan sweep."""

    #: One durable record per point that ran or was reused, in
    #: submission order, FAILED ones included; points cut off by
    #: ``max_points`` or an interrupt are absent.
    records: Dict[str, PointRecord]
    #: How each record was obtained: checkpoint, cache, pool or inline.
    sources: Dict[str, str]
    #: Attempts beyond the first, summed over the points that ran.
    retries: int = 0
    interrupted: bool = False


def _emit_experiment_point(
    tracer, experiment_id: str, point_key: str, source: str
) -> None:
    if not tracer.enabled:
        return
    # As with _emit_point: one event per point in every mode, with the
    # non-digested fields recording how the point was satisfied, so a
    # profile's deterministic digest is the same for any --jobs/--cache
    # combination.
    tracer.emit(
        "exec.experiment_point",
        experiment=experiment_id,
        point=point_key,
        source=source,
    )


def _run_task_inline(entry: str, task: dict) -> Any:
    """Run one pool task in-process exactly as a pool worker would.

    The ambient exec config is dropped for the duration (so a sweep
    inside the point cannot recursively re-enter the engine) and
    simulator tracing is suppressed — the same environment
    ``reset_worker_state`` gives a forked worker, which is what keeps
    ``jobs=1`` and ``jobs=N`` runs event-identical.
    """
    with execution(DEFAULT_CONFIG), tracing(NULL_TRACER):
        return resolve_entry(entry)(task)


def _failed_record(
    point_key: str, error: BaseException, attempts: int
) -> PointRecord:
    return PointRecord(
        key=point_key,
        status=FAILED,
        attempts=attempts,
        error=f"{type(error).__name__}: {error}",
    )


def execute_experiment_points(
    experiment_id: str,
    points: Dict[str, dict],
    seed: int,
    config: Optional[ExecConfig] = None,
    fault_plan: Optional[str] = None,
    max_points: Optional[int] = None,
) -> Any:
    """Execute registry points under ``config``; results in ``points`` order.

    The registry analogue of :func:`execute_barrier_points`, at point
    granularity, and the one executor behind plain and fault-plan
    sweeps: each ``{point_key: run_point_kwargs}`` entry is looked up
    in the cache (key: experiment id, point key, canonical kwargs,
    seed, code digest), missed points fan out whole across the worker
    pool when ``jobs > 1``, and cache-only mode runs them inline, in
    the environment a pool worker gets.  Payloads are strict-JSON in
    every path, so the aggregate sees identical inputs cold, warm,
    serial or parallel.

    When the ambient :class:`~repro.exec.supervisor.SupervisorConfig`
    names a ``checkpoint_dir``, every point's record is additionally
    saved as an atomic digest-verified checkpoint the moment it is
    known (computed, cached, or resumed), and ``resume=True`` replays
    compatible records from a prior interrupted run before consulting
    the cache.  A plain sweep returns ``{point_key: payload}`` and
    raises the first point error.

    With ``fault_plan`` (a plan spec) each point runs under its own
    derived fault plan (the ``fault_point`` entry), the cache address
    and checkpoint identity also cover the spec, and the call returns a
    :class:`FaultSweepOutcome`: a point that exhausts its retries
    becomes a FAILED record, an interrupt ends the sweep cleanly, and
    ``max_points`` bounds how many points run afresh.
    """
    if config is None:
        config = get_exec_config()
    supervisor = get_supervisor_config()
    stats = get_stats()
    tracer = get_tracer()
    cache = ResultCache(config.cache_dir) if config.cache else None
    faulty = fault_plan is not None
    entry = "fault_point" if faulty else "experiment_point"
    if faulty:
        from repro.faults.runner import fault_point_cache_key

    checkpoint = None
    prior: Dict[str, PointRecord] = {}
    if supervisor.checkpoint_dir:
        checkpoint, prior = open_experiment_checkpoint(
            experiment_id, points, seed, supervisor, plan_spec=fault_plan
        )

    def save(record: PointRecord) -> None:
        if checkpoint is not None:
            checkpoint.save_point(record)

    def as_record(point_key: str, value: Any) -> PointRecord:
        # A fault point's entry returns its classified record already.
        if faulty:
            return value
        return PointRecord(key=point_key, status=COMPLETED, data=value)

    records: Dict[str, PointRecord] = {}
    sources: Dict[str, str] = {}

    def land(
        point_key: str,
        record: PointRecord,
        source: str,
        address: Optional[str] = None,
    ) -> None:
        records[point_key] = record
        sources[point_key] = source
        if address is not None and cache is not None and record.done:
            cache.put(address, record.to_dict() if faulty else record.data)
            stats.cache_stores += 1
        _emit_experiment_point(tracer, experiment_id, point_key, source)

    #: (point key, pool task, cache address or None) still needing a run.
    pending: List[Tuple[str, dict, Optional[str]]] = []

    for point_key, kwargs in points.items():
        stats.points += 1
        record = prior.get(point_key)
        if record is not None and record.done:
            stats.points_resumed += 1
            tracer.count("exec.points_resumed")
            land(point_key, record, "checkpoint")
            continue
        address: Optional[str] = None
        if cache is not None:
            if faulty:
                address = fault_point_cache_key(
                    experiment_id, fault_plan, seed, point_key, kwargs
                )
            else:
                # The backend knob never enters the address: backends
                # are bit-identical, so a cache warmed under one serves
                # the other (mirrors PointSpec.params()).
                keyed = {k: v for k, v in kwargs.items() if k != "backend"}
                address = cache_key(
                    f"{EXPERIMENT_KIND}:{experiment_id}",
                    {"point": point_key, "params": keyed},
                    seed,
                )
            payload = cache.get(address)
            if payload is not None:
                if faulty:
                    record = PointRecord.from_dict(payload)
                else:
                    record = as_record(point_key, payload)
                if record.done:
                    stats.cache_hits += 1
                    save(record)
                    land(point_key, record, "cache")
                    continue
            stats.cache_misses += 1
        task = {"experiment_id": experiment_id, "kwargs": kwargs}
        if faulty:
            task.update(plan_spec=fault_plan, seed=seed, key=point_key)
        pending.append((point_key, task, address))

    interrupted = False
    if max_points is not None and len(pending) > max_points:
        pending, interrupted = pending[:max_points], True
    retries = 0

    if config.jobs > 1 and pending:
        tasks = {point_key: task for point_key, task, __ in pending}
        fresh: Dict[str, PointRecord] = {}

        def landed(point_key: str, value: Any) -> None:
            # Checkpoint each point the moment its future lands, so a
            # crash after N points preserves N points; cache stores and
            # event emission stay in submission order below for
            # deterministic stats and digests.
            fresh[point_key] = as_record(point_key, value)
            save(fresh[point_key])

        try:
            outcome = run_supervised(
                tasks,
                entry=entry,
                get_pool=lambda: _get_pool(config.jobs),
                discard_pool=lambda: _discard_pool(config.jobs),
                on_result=landed,
            )
        except KeyboardInterrupt:
            if not faulty:
                raise
            interrupted = True
        else:
            if not faulty:
                outcome.raise_first_error(tasks)
            retries = outcome.retries
            for point_key, record in fresh.items():
                record.attempts = outcome.attempts[point_key]
            for point_key, error in outcome.errors.items():
                fresh[point_key] = _failed_record(
                    point_key, error, outcome.attempts[point_key]
                )
                save(fresh[point_key])
        for point_key, __, address in pending:
            if point_key in fresh:
                stats.parallel_points += 1
                land(point_key, fresh[point_key], "pool", address)
    else:
        # call_supervised applies the ambient retry/deadline discipline
        # (a plain call under the default config).
        for point_key, task, address in pending:
            attempts = 0

            def attempt(task: dict = task) -> Any:
                nonlocal attempts
                attempts += 1
                return _run_task_inline(entry, task)

            try:
                record = as_record(point_key, call_supervised(attempt))
            except KeyboardInterrupt:
                if not faulty:
                    raise
                interrupted = True
                break
            except Exception as error:  # noqa: BLE001 - resilience boundary
                if not faulty:
                    raise
                record = _failed_record(point_key, error, attempts)
            record.attempts = attempts
            retries += attempts - 1
            save(record)
            land(point_key, record, "inline", address)

    if faulty:
        return FaultSweepOutcome(
            records={key: records[key] for key in points if key in records},
            sources=sources,
            retries=retries,
            interrupted=interrupted,
        )
    return {point_key: records[point_key].data for point_key in points}
