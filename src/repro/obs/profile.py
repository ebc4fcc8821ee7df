"""Profile a registered experiment: run it traced, write the artifacts.

This is the engine behind ``python -m repro profile <experiment-id>``:
it installs a real :class:`~repro.obs.tracer.Tracer` with a JSONL sink,
runs the experiment through the normal registry, and writes

- ``events.jsonl``  — every structured event the run emitted,
- ``manifest.json`` — config, seed, git revision, wall time, counter
  and event totals, plus a deterministic digest,
- ``summary.txt``   — the human-readable counter summary,

into the output directory (default ``profiles/<experiment-id>``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.exec.context import get_exec_config, get_stats, reset_stats
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.summary import render_summary
from repro.obs.tracer import JsonlSink, Tracer, tracing


@dataclass
class ProfileRun:
    """Everything produced by one :func:`profile_experiment` call."""

    experiment_id: str
    result: Any
    manifest: RunManifest
    summary: str
    output_dir: str
    events_path: str
    manifest_path: str
    summary_path: str


def profile_experiment(
    experiment_id: str,
    output_dir: Optional[str] = None,
    ring_size: int = 4096,
    runner: Optional[Callable[..., Any]] = None,
    **kwargs: Any,
) -> ProfileRun:
    """Run ``experiment_id`` with tracing on and persist the artifacts.

    Args:
        experiment_id: a registry id
            (:func:`repro.registry.experiment_ids`).
        output_dir: where to write the artifacts (created if missing);
            defaults to ``profiles/<experiment_id>``.
        ring_size: in-memory event buffer size (the JSONL sink always
            receives every event).
        runner: override for the experiment runner (tests); defaults to
            :func:`repro.registry.run`.
        **kwargs: forwarded to the experiment runner (``repetitions``,
            ``scale``, ``seed``, ...).
    """
    # Imported lazily: the registry's spec modules import the
    # instrumented layers, which import repro.obs — a module-level
    # import here would cycle.
    if runner is None:
        from repro.registry import run as runner  # type: ignore

    if output_dir is None:
        output_dir = os.path.join("profiles", experiment_id)
    os.makedirs(output_dir, exist_ok=True)
    events_path = os.path.join(output_dir, "events.jsonl")
    manifest_path = os.path.join(output_dir, "manifest.json")
    summary_path = os.path.join(output_dir, "summary.txt")

    tracer = Tracer(
        run_id=f"profile-{experiment_id}",
        sink=JsonlSink(events_path),
        ring_size=ring_size,
    )
    reset_stats()
    start = time.perf_counter()
    try:
        with tracing(tracer):
            with tracer.timer("profile.total"):
                result = runner(experiment_id, **kwargs)
    finally:
        tracer.close()
    wall_time = time.perf_counter() - start

    exec_config = get_exec_config()
    execution_info = {
        "jobs": exec_config.jobs,
        "cache": exec_config.cache,
        "cache_dir": exec_config.cache_dir,
    }
    execution_info.update(get_stats().as_dict())
    manifest = build_manifest(
        tracer,
        experiment_id=experiment_id,
        config=_config_dict(kwargs),
        seed=kwargs.get("seed"),
        wall_time_seconds=wall_time,
        execution=execution_info,
    )
    manifest.write(manifest_path)
    summary = render_summary(tracer, title=f"profile {experiment_id}")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(summary + "\n")

    return ProfileRun(
        experiment_id=experiment_id,
        result=result,
        manifest=manifest,
        summary=summary,
        output_dir=output_dir,
        events_path=events_path,
        manifest_path=manifest_path,
        summary_path=summary_path,
    )


def _config_dict(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Kwargs as a manifest-safe dict (tuples become lists via JSON)."""
    return dict(sorted(kwargs.items()))
