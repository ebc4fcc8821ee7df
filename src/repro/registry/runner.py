"""Run registered experiments: resolve params, dispatch points, aggregate.

This is the single entry point behind ``python -m repro
experiment/run/profile``, every fault-plan point
(:func:`repro.faults.runner.run_fault_point_task`), and the benchmark
harness.  Dispatch:

- **Serial** (default, and always when a fault plan is installed,
  because injectors keep process-global state): every point's
  ``run_point`` executes in-process, in spec order, with the caller's
  tracer active — the same events the monolithic seed runners emitted.
- **Engine** (ambient :class:`~repro.exec.context.ExecConfig` active):
  points go through :func:`repro.exec.engine.execute_experiment_points`
  and gain ``--jobs`` fan-out and the content-addressed ``--cache`` for
  free.

Every path JSON-round-trips point payloads (:func:`canonical_payload`),
so a payload computed inline, in a pool worker, or replayed from a warm
cache is the same object by construction and aggregates are
byte-identical across modes.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.exec.cache import canonical_payload
from repro.exec.context import get_exec_config
from repro.faults.plan import get_fault_plan
from repro.obs.tracer import get_tracer
from repro.registry.result import ExperimentResult
from repro.registry.spec import ExperimentSpec, experiment_ids, get_spec


def _dispatch(spec: ExperimentSpec, kwargs: Dict[str, Any]) -> ExperimentResult:
    params = spec.resolve(kwargs)
    points = spec.points(params)
    config = get_exec_config()
    if config.active and get_fault_plan() is None:
        from repro.exec.engine import execute_experiment_points

        seed = int(params.get("seed") or 0)
        payloads = execute_experiment_points(spec.id, points, seed, config)
    else:
        payloads = {
            key: canonical_payload(spec.run_point(**point_kwargs))
            for key, point_kwargs in points.items()
        }
    return spec.aggregate(payloads, params)


def run(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run one experiment by id (see :func:`repro.registry.all_specs`)."""
    spec = get_spec(experiment_id)
    tracer = get_tracer()
    if not tracer.enabled:
        return _dispatch(spec, kwargs)
    tracer.emit("experiment.start", experiment=experiment_id, config=kwargs)
    with tracer.timer(f"experiment.{experiment_id}"):
        result = _dispatch(spec, kwargs)
    tracer.count("experiment.runs")
    tracer.emit("experiment.end", experiment=experiment_id, title=result.title)
    return result


def experiment_points(experiment_id: str, **overrides: Any) -> Dict[str, dict]:
    """Decompose an experiment into independently runnable sweep points.

    Returns an ordered mapping ``{point_key: runner_kwargs}`` such that
    running the experiment once per entry covers the same parameter
    space as one full run — the unit of checkpointing for fault-plan
    sweeps (:func:`repro.faults.runner.run_plan_resilient`).
    Each point carries only the caller's overrides, with the spec's
    sweep axis pinned to a single value (keys like ``"N=64"``);
    experiments with no axis run as one point keyed ``"all"``.
    """
    return get_spec(experiment_id).sparse_points(overrides)


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2:
        print("usage: python -m repro.registry <id> [...]")
        print("experiments:", ", ".join(experiment_ids()))
        return 1
    for experiment_id in argv[1:]:
        print(run(experiment_id))
        print()
    return 0
