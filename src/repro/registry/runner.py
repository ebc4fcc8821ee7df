"""Run registered experiments: resolve params, dispatch points, aggregate.

This is the single entry point behind :func:`repro.exec.plan.execute`
(and so every CLI command, scenario cell and served job), every
fault-plan point (:func:`repro.faults.runner.run_fault_point_task`),
and the benchmark harness.  Dispatch:

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

from typing import Any, Dict

from repro.exec.cache import canonical_payload
from repro.exec.context import get_exec_config
from repro.faults.plan import get_fault_plan
from repro.obs.tracer import get_tracer
from repro.registry.result import ExperimentResult
from repro.registry.spec import ExperimentSpec, get_spec


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
