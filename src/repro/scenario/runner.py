"""Run scenario matrices through the RunPlan execute spine."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.exec.context import ExecConfig
from repro.exec.plan import FaultOptions, execute, resolve_exec_config
from repro.scenario.spec import ScenarioCell, ScenarioSpec, expand

__all__ = ["CellOutcome", "ScenarioRun", "run_scenario"]

#: Per-cell checkpoints (fault cells) live under this directory by
#: default, one subdirectory per cell so reruns resume cleanly.
DEFAULT_WORK_DIR = ".repro-scenario"


@dataclass
class CellOutcome:
    """One executed cell: its digest and health, never its wall time
    or recovery counters, feed the aggregate digest."""

    cell: ScenarioCell
    digest: str = ""
    status: str = "failed"  # "ok" | "degraded" | "failed"
    wall_time_seconds: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "degraded")


@dataclass
class ScenarioRun:
    """Everything one ``run_scenario`` call produced."""

    spec: ScenarioSpec
    outcomes: List[CellOutcome]
    config: ExecConfig

    @property
    def ok(self) -> bool:
        return all(outcome.status == "ok" for outcome in self.outcomes)


def run_scenario(
    spec: ScenarioSpec,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    work_dir: Optional[str] = None,
    on_cell: Optional[Callable[[CellOutcome], None]] = None,
) -> ScenarioRun:
    """Expand ``spec`` and execute every cell through one shared path.

    With an active exec config — explicit ``jobs``/``cache`` arguments
    or the ambient CLI config — each cell's plan runs through the
    parallel cache-aware engine, which runs its sweep points on the
    worker pool; output is bit-identical to the serial
    loop, so the aggregate digest is the same serial, parallel, and
    cache-warmed (the same contract every other dispatch path obeys).

    A cell that raises is recorded as ``failed`` (with the error text)
    and the remaining cells still run: one broken cell should cost one
    cell, not the whole matrix.  Fault-plan cells checkpoint under
    ``work_dir`` (default ``.repro-scenario/<name>/``), one
    subdirectory per cell, so an interrupted matrix resumes.
    """
    cells = expand(spec)
    config = resolve_exec_config(jobs, cache, cache_dir)
    exec_config = config if config.active else None
    work = (
        work_dir
        if work_dir is not None
        else os.path.join(DEFAULT_WORK_DIR, spec.name)
    )
    outcomes: List[CellOutcome] = []
    for cell in cells:
        plan = cell.plan
        if exec_config is not None:
            plan = plan.with_exec(exec_config)
        if plan.fault_plan is not None and plan.faults is None:
            plan = replace(
                plan,
                faults=FaultOptions(
                    checkpoint_dir=os.path.join(
                        work, "checkpoints", f"cell-{cell.index:04d}"
                    )
                ),
            )
        try:
            result = execute(plan)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            outcome = CellOutcome(
                cell=cell,
                error=f"{type(error).__name__}: {error}",
            )
        else:
            if not result.ok:
                status = "failed"
            elif result.degraded:
                status = "degraded"
            else:
                status = "ok"
            outcome = CellOutcome(
                cell=cell,
                digest=result.digest,
                status=status,
                wall_time_seconds=result.wall_time_seconds,
            )
        outcomes.append(outcome)
        if on_cell is not None:
            on_cell(outcome)
    return ScenarioRun(spec=spec, outcomes=outcomes, config=config)
