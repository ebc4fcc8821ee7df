"""Fault-plan sweeps: per-point derived plans, classification, summary.

A fault-plan run decomposes a registry experiment into its sweep points
(:func:`repro.registry.experiment_points`) and hands them to the one
point executor, :func:`repro.exec.engine.execute_experiment_points`,
which owns checkpoint/resume, the result cache, bounded retries on the
paper's own backoff policies, per-attempt deadlines and the pool
fan-out for every sweep.  This module keeps only what is specific to
fault plans:

- :func:`build_point_plan` — each point gets its *own* plan instance
  seeded from ``derive_seed(seed, point-key)``, so fault schedules are
  identical whether the sweep runs straight through, in parallel, or
  resumes from a checkpoint;
- :func:`run_fault_point_task` — the ``fault_point`` task entry, which
  runs one point under its plan and classifies it COMPLETED or
  DEGRADED;
- :func:`fault_point_cache_key` — the point's cache address, which
  covers the plan spec;
- :class:`ResilienceSummary` and :func:`run_plan_resilient`, which
  turns a plan's :class:`~repro.exec.plan.FaultOptions` into one
  :class:`~repro.exec.supervisor.SupervisorConfig` and summarizes what
  the executor returns.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.exec.cache import cache_key
from repro.exec.context import get_exec_config
from repro.exec.supervisor import (
    COMPLETED,
    DEGRADED,
    FAILED,
    PointRecord,
    SupervisorConfig,
    supervision,
)
from repro.faults.plan import FaultPlan, fault_injection
from repro.faults.spec import parse_plan
from repro.obs.manifest import jsonable
from repro.sim.rng import derive_seed

__all__ = [
    "COMPLETED",
    "DEGRADED",
    "FAILED",
    "ResilienceSummary",
    "build_point_plan",
    "fault_point_cache_key",
    "run_fault_point_task",
    "run_plan_resilient",
]


@dataclass
class ResilienceSummary:
    """What happened to a resilient sweep, for reports and exit codes."""

    experiment_id: str
    plan_name: str
    total_points: int
    records: Dict[str, PointRecord] = field(default_factory=dict)
    resumed: int = 0
    retried: int = 0
    interrupted: bool = False
    checkpoint_dir: str = ""
    #: Worker processes the sweep ran with (1 = the serial path).
    jobs: int = 1
    #: Points satisfied from the content-addressed result cache.
    cache_hits: int = 0
    #: Freshly computed points written to the result cache.
    cache_stores: int = 0

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records.values() if r.status == status)

    @property
    def completed(self) -> int:
        return self._count(COMPLETED)

    @property
    def degraded(self) -> int:
        return self._count(DEGRADED)

    @property
    def failed(self) -> int:
        return self._count(FAILED)

    @property
    def remaining(self) -> int:
        return self.total_points - len(self.records)

    @property
    def ok(self) -> bool:
        """True when nothing failed outright (degraded still counts ok)."""
        return self.failed == 0

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Injected-fault totals aggregated over every point."""
        totals: Dict[str, int] = {}
        for record in self.records.values():
            for kind, count in record.fault_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    def render(self) -> str:
        lines = [
            f"== resilience summary: {self.experiment_id} "
            f"under plan {self.plan_name!r} ==",
            f"points     : {self.total_points} total, "
            f"{self.resumed} resumed from checkpoint",
            f"completed  : {self.completed}",
            f"degraded   : {self.degraded}",
            f"failed     : {self.failed}",
            f"retries    : {self.retried}",
        ]
        if self.jobs > 1 or self.cache_hits or self.cache_stores:
            lines.append(
                f"execution  : jobs={self.jobs}, cache hits "
                f"{self.cache_hits}, cache stores {self.cache_stores}"
            )
        if self.interrupted:
            lines.append(
                f"interrupted: yes ({self.remaining} point(s) left; rerun "
                "to resume)"
            )
        faults = self.fault_counts
        if faults:
            lines.append("injected faults:")
            width = max(len(kind) for kind in faults)
            for kind, count in faults.items():
                lines.append(f"  {kind:<{width}} : {count}")
        else:
            lines.append("injected faults: none")
        for record in self.records.values():
            if record.status == FAILED:
                lines.append(f"  FAILED {record.key}: {record.error}")
        if self.checkpoint_dir:
            lines.append(f"checkpoint : {self.checkpoint_dir}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def build_point_plan(
    plan_spec: str, seed: int, experiment_id: str, key: str
) -> FaultPlan:
    """The deterministic per-point plan for (spec, seed, experiment, key)."""
    return parse_plan(
        plan_spec,
        seed=derive_seed(seed, f"faults:{experiment_id}:{key}"),
    )


def run_fault_point_task(task: Dict[str, Any]) -> PointRecord:
    """The ``fault_point`` task entry: one point under its derived plan.

    Pool workers and the inline path call it with the same task, so the
    two cannot drift.  The point is DEGRADED when any barrier under the
    plan departed early (``barrier.partial_arrival``), else COMPLETED.
    """
    from repro.registry import run as run_one

    started = time.perf_counter()
    experiment_id, key = task["experiment_id"], task["key"]
    # A fresh plan per point, seeded by the point key: fault schedules
    # do not depend on which points ran before, so a resumed (or
    # parallel) sweep equals an uninterrupted serial one.
    plan = build_point_plan(
        task["plan_spec"], task["seed"], experiment_id, key
    )
    with fault_injection(plan):
        result = run_one(experiment_id, **task["kwargs"])
    degraded = plan.fault_counts.get("barrier.partial_arrival", 0) > 0
    # Round-trip through JSON so the in-memory record equals what a
    # resumed run loads from disk (e.g. int dict keys -> str).
    data = json.loads(
        json.dumps(
            jsonable({"title": result.title, "data": result.data}),
            sort_keys=True,
            default=str,
        )
    )
    return PointRecord(
        key=key,
        status=DEGRADED if degraded else COMPLETED,
        data=data,
        fault_counts=plan.snapshot(),
        wall_time_seconds=time.perf_counter() - started,
    )


def fault_point_cache_key(
    experiment_id: str,
    plan_spec: str,
    seed: int,
    key: str,
    kwargs: Dict[str, Any],
) -> str:
    """Content address of one fault point's durable record."""
    return cache_key(
        f"faults:{experiment_id}",
        {"plan_spec": plan_spec, "point": key, "kwargs": jsonable(kwargs)},
        seed,
    )


def run_plan_resilient(plan) -> ResilienceSummary:
    """Execute a validated fault-plan :class:`~repro.exec.plan.RunPlan`.

    The engine behind ``python -m repro faults``.  The plan's
    :class:`~repro.exec.plan.FaultOptions` become one
    :class:`~repro.exec.supervisor.SupervisorConfig` — retries, the
    retry-wait schedule, the per-attempt deadline, and a checkpoint
    that resumes unless ``fresh`` — so a bad option is a ``ValueError``
    before any checkpoint I/O.  ``jobs`` and ``cache`` come from the
    ambient exec config the plan installed via :meth:`RunPlan.contexts`;
    ``fresh`` clears the checkpoint but never the cache (its key
    already encodes code and configuration).
    """
    # Imported lazily: the registry's spec modules import the
    # simulators, which import repro.faults — a module-level import
    # here would cycle.  The engine is looked up at call time too.
    from repro.exec.engine import execute_experiment_points
    from repro.exec.plan import FaultOptions
    from repro.registry import experiment_points

    options = plan.faults if plan.faults is not None else FaultOptions()
    if options.max_points is not None and options.max_points < 0:
        raise ValueError(f"max_points must be >= 0, got {options.max_points}")
    supervisor = SupervisorConfig(
        retries=options.max_retries,
        deadline_seconds=options.timeout_seconds,
        backoff=options.retry_policy,
        backoff_base_seconds=options.retry_backoff_seconds,
        checkpoint_dir=options.checkpoint_dir
        or os.path.join("checkpoints", plan.experiment_id),
        resume=not options.fresh,
    )
    plan_spec = plan.fault_plan if plan.fault_plan is not None else "none"
    seed = plan.seed if plan.seed is not None else 0
    points = experiment_points(plan.experiment_id, **plan.overrides())
    config = get_exec_config()
    with supervision(supervisor):
        sweep = execute_experiment_points(
            plan.experiment_id,
            points,
            seed,
            config,
            fault_plan=plan_spec,
            max_points=options.max_points,
        )
    sources = list(sweep.sources.values())
    fresh = [
        record
        for key, record in sweep.records.items()
        if sweep.sources[key] in ("pool", "inline")
    ]
    return ResilienceSummary(
        experiment_id=plan.experiment_id,
        plan_name=plan_spec,
        total_points=len(points),
        records=sweep.records,
        resumed=sources.count("checkpoint"),
        retried=sweep.retries,
        interrupted=sweep.interrupted,
        checkpoint_dir=supervisor.checkpoint_dir,
        jobs=config.jobs,
        cache_hits=sources.count("cache"),
        cache_stores=sum(r.done for r in fresh) if config.cache else 0,
    )
