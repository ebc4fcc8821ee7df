"""The experiment service: routes, submissions, and the job runner.

``repro serve`` is "RunPlan over HTTP": a submission is parsed by
exactly the parsers the CLI uses (:func:`repro.exec.plan.plan_from_json`
for experiments, :func:`repro.scenario.parse_scenario` for matrices),
validation failures surface the CLI's exit-2 error text as HTTP 400
bodies, and accepted jobs run through :func:`repro.exec.plan.execute`
on a bounded thread pool — each job thread holding its own
thread-scoped tracer / exec config / supervision (see
:mod:`repro._ambient`), all sharing one content-addressed result
cache and one process pool.

API surface (docs/serving.md has the worked session):

- ``GET  /healthz`` — liveness + job counts.
- ``GET  /stats`` — uptime, job counts, process-wide exec counters.
- ``POST /jobs`` — submit a plan or ``{"scenario": {...}}`` document;
  202 with the job status, or 200 when an identical submission was
  answered by an existing job (``deduplicated: true``).
- ``GET  /jobs`` — every job's status.
- ``GET  /jobs/<id>`` — one job's status.
- ``GET  /jobs/<id>/events`` — chunked JSONL obs-event stream
  (replays the buffer, then follows until the job finishes;
  ``?follow=0`` returns the buffer and closes).
- ``GET  /jobs/<id>/result`` — canonical result payload + digest
  (409 while the job is still active, 410-equivalent 409 on failure).
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.barrier.backend import backend_context
from repro.exec.cache import payload_digest
from repro.exec.context import (
    DEFAULT_CACHE_DIR,
    ExecConfig,
    get_stats,
    validate_jobs,
)
from repro.exec.plan import (
    FaultOptions,
    RunPlan,
    execute,
    plan_cache_key,
    plan_from_json,
    plan_to_json,
)
from repro.exec.supervisor import SupervisorConfig
from repro.obs.manifest import jsonable
from repro.obs.tracer import CallbackSink, Tracer, tracing
from repro.registry.spec import ParameterError, UnknownExperimentError
from repro.serve.http import (
    ChunkedStream,
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
)
from repro.serve.jobs import Job, JobStore

#: Default on-disk scratch space (checkpoints, scenario work dirs).
DEFAULT_WORK_DIR = ".repro-serve"

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)(/events|/result)?$")


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``python -m repro serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Worker processes per job (the engine's ``--jobs``).
    jobs: int = 1
    cache: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR
    #: Simultaneous jobs (thread pool width).
    concurrency: int = 1
    #: Supervisor retries per point for served jobs (plain and
    #: fault-plan alike).
    retries: int = 1
    #: Per-point deadline in seconds (None = unbounded).
    deadline: Optional[float] = None
    work_dir: str = DEFAULT_WORK_DIR
    #: Backend applied to plans that do not pin one (None = ambient).
    backend: Optional[str] = None

    def validated(self) -> "ServeConfig":
        validate_jobs(self.jobs)
        validate_jobs(self.concurrency)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        return self


def parse_submission(body: Any) -> Tuple[str, Any, Dict[str, Any], str]:
    """Validate one ``POST /jobs`` body.

    Returns ``(kind, parsed, canonical_submission, dedupe_key)`` where
    ``parsed`` is the :class:`RunPlan` or scenario spec to execute.
    Raises :class:`HttpError` (400) carrying exactly the error text the
    CLI would print for the same mistake.
    """
    from repro.scenario import ScenarioError, expand, parse_scenario

    if not isinstance(body, dict):
        raise HttpError(
            400, f"submission must be a JSON object, got {type(body).__name__}"
        )
    try:
        if "scenario" in body:
            extras = sorted(set(body) - {"scenario"})
            if extras:
                raise ValueError(
                    "scenario submissions accept only the 'scenario' key; "
                    "unexpected: " + ", ".join(repr(key) for key in extras)
                )
            spec = parse_scenario(body["scenario"], source="submission")
            cells = expand(spec)
            key = payload_digest(
                {
                    "scenario": {
                        cell.cell_id: plan_cache_key(cell.plan)
                        for cell in cells
                    }
                }
            )
            canonical = {
                "scenario": spec.name,
                "cells": [cell.cell_id for cell in cells],
            }
            return "scenario", spec, canonical, key
        plan = plan_from_json(body)
        return "experiment", plan, plan_to_json(plan), plan_cache_key(plan)
    except (
        ScenarioError,
        ParameterError,
        UnknownExperimentError,
        ValueError,
    ) as error:
        raise HttpError(400, str(error)) from None


class ExperimentService:
    """One server: an asyncio front end over a bounded job pool."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config.validated()
        self.store = JobStore()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="repro-serve-job",
        )
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.started_at = time.time()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        self.loop = asyncio.get_running_loop()
        self.server = await asyncio.start_server(
            self.handle_connection, self.config.host, self.config.port
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self.server

    def shutdown(self) -> None:
        """Cancel queued jobs, let running ones finish (their points are
        checkpointed as they land), then reap the engine's worker pools."""
        from repro.exec.engine import shutdown_pools

        self.executor.shutdown(wait=True, cancel_futures=True)
        shutdown_pools(wait=True)

    # -- connection handling -------------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        streamed = False
        try:
            request = await read_request(reader)
            if request is not None:
                streamed = await self.dispatch(request, writer)
        except HttpError as error:
            if not streamed:
                writer.write(error_response(error.status, error.message))
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as error:  # pragma: no cover - defensive
            if not streamed:
                writer.write(
                    error_response(500, f"{type(error).__name__}: {error}")
                )
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns True when the response streamed."""
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            self._require(request, "GET")
            writer.write(json_response(200, self._health()))
            return False
        if path == "/stats":
            self._require(request, "GET")
            writer.write(json_response(200, self._stats()))
            return False
        if path == "/jobs":
            if request.method == "POST":
                writer.write(self._submit(request))
                return False
            self._require(request, "GET")
            writer.write(
                json_response(
                    200, {"jobs": [job.status() for job in self.store.jobs()]}
                )
            )
            return False
        match = _JOB_PATH.match(path)
        if match is None:
            raise HttpError(404, f"no route for {request.path!r}")
        job = self.store.get(match.group(1))
        if job is None:
            raise HttpError(404, f"unknown job {match.group(1)!r}")
        tail = match.group(2)
        self._require(request, "GET")
        if tail is None:
            writer.write(json_response(200, job.status()))
            return False
        if tail == "/result":
            writer.write(self._result(job))
            return False
        follow = request.param("follow", "1") not in ("0", "false", "no")
        await self._stream_events(job, writer, follow)
        return True

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.method} not allowed here (use {method})"
            )

    # -- handlers ------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.store.counts(),
        }

    def _stats(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.store.counts(),
            "exec": get_stats().as_dict(),
            "config": {
                "jobs": self.config.jobs,
                "cache": self.config.cache,
                "cache_dir": self.config.cache_dir,
                "concurrency": self.config.concurrency,
                "backend": self.config.backend,
            },
        }

    def _submit(self, request: Request) -> bytes:
        kind, parsed, canonical, key = parse_submission(request.json())
        job, deduplicated = self.store.submit(kind, key, canonical)
        if not deduplicated:
            assert self.loop is not None
            self.loop.run_in_executor(
                self.executor, self._run_job, job, parsed
            )
        status = 200 if deduplicated else 202
        return json_response(
            status, {"job": job.status(), "deduplicated": deduplicated}
        )

    def _result(self, job: Job) -> bytes:
        if job.state == "failed":
            raise HttpError(409, f"job {job.id} failed: {job.error}")
        if not job.finished:
            raise HttpError(409, f"job {job.id} is still {job.state}")
        return json_response(
            200,
            {
                "id": job.id,
                "kind": job.kind,
                "digest": job.digest,
                "wall_time_seconds": job.wall_time_seconds,
                "stats": job.stats,
                "result": job.result,
            },
        )

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter, follow: bool
    ) -> None:
        stream = ChunkedStream(writer)
        await stream.start()
        events, cursor = job.events_after(0)
        for event in events:
            await stream.send_json_line(event)
        if follow and not job.finished:
            assert self.loop is not None
            waiter = asyncio.Event()
            job.add_listener(self.loop, waiter)
            try:
                while True:
                    events, cursor = job.events_after(cursor)
                    for event in events:
                        await stream.send_json_line(event)
                    if job.finished:
                        break
                    waiter.clear()
                    try:
                        await asyncio.wait_for(waiter.wait(), timeout=0.5)
                    except asyncio.TimeoutError:
                        pass
            finally:
                job.remove_listener(self.loop, waiter)
            events, cursor = job.events_after(cursor)
            for event in events:
                await stream.send_json_line(event)
        await stream.finish()

    # -- the job runner (worker threads) -------------------------------

    def _run_job(self, job: Job, parsed: Any) -> None:
        """Execute one job on this worker thread.

        All ambient state — tracer, exec config, supervision, backend —
        is installed thread-scoped, so concurrent jobs never observe
        each other's configuration (the refactor this service forced;
        see :mod:`repro._ambient`).
        """
        tracer = Tracer(run_id=job.id, sink=CallbackSink(job.add_event))
        job.mark_running()
        with tracing(tracer):
            tracer.emit(
                "serve.job", job=job.id, state="running", job_kind=job.kind
            )
            try:
                if job.kind == "experiment":
                    digest, result, wall, stats = self._run_plan(job, parsed)
                else:
                    digest, result, wall, stats = self._run_scenario(
                        job, parsed, tracer
                    )
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                tracer.emit(
                    "serve.job", job=job.id, state="failed", error=message
                )
                job.mark_failed(message)
            else:
                tracer.emit(
                    "serve.job", job=job.id, state="done", digest=digest
                )
                job.mark_done(digest, result, wall, stats)
            finally:
                job.notify()

    def _scratch(self, family: str, job: Job) -> str:
        return os.path.join(self.config.work_dir, family, job.key[:16])

    def _run_plan(
        self, job: Job, plan: RunPlan
    ) -> Tuple[str, Any, float, Dict[str, Any]]:
        config = self.config
        exec_config = ExecConfig(
            jobs=config.jobs,
            cache=config.cache,
            cache_dir=config.cache_dir,
            force_engine=True,
        )
        plan = plan.with_exec(exec_config)
        if config.backend and not plan.backend:
            plan = replace(plan, backend=config.backend)
        if plan.fault_plan is None:
            # Supervised with checkpoint/resume keyed on the dedupe
            # key: resubmitting a failed job resumes its completed
            # points instead of recomputing them.
            plan = replace(
                plan,
                supervisor=SupervisorConfig(
                    retries=config.retries,
                    deadline_seconds=config.deadline,
                    checkpoint_dir=self._scratch("checkpoints", job),
                    resume=True,
                ),
            )
        elif plan.faults is None:
            plan = replace(
                plan,
                faults=FaultOptions(
                    checkpoint_dir=self._scratch("faults", job),
                    timeout_seconds=config.deadline,
                    max_retries=config.retries,
                ),
            )
        outcome = execute(plan)
        if not outcome.ok:
            raise RuntimeError(
                f"plan did not complete cleanly (digest {outcome.digest})"
            )
        if outcome.result is not None:
            result = {
                "kind": "experiment-result",
                "experiment": plan.experiment_id,
                "title": outcome.result.title,
                "data": jsonable(outcome.result.data),
            }
        else:
            summary = outcome.summary
            result = {
                "kind": "fault-summary",
                "experiment": plan.experiment_id,
                "records": jsonable(
                    {
                        key: {"status": rec.status, "data": rec.data}
                        for key, rec in summary.records.items()
                    }
                ),
            }
        return outcome.digest, result, outcome.wall_time_seconds, outcome.stats

    def _run_scenario(
        self, job: Job, spec: Any, tracer: Tracer
    ) -> Tuple[str, Any, float, Dict[str, Any]]:
        from repro.scenario import run_scenario, scenario_report

        config = self.config
        before = get_stats().as_dict()
        start = time.perf_counter()
        with ExitStack() as stack:
            if config.backend:
                stack.enter_context(backend_context(config.backend))
            run = run_scenario(
                spec,
                jobs=config.jobs,
                cache=config.cache,
                cache_dir=config.cache_dir,
                work_dir=self._scratch("scenario", job),
                on_cell=lambda outcome: tracer.emit(
                    "serve.cell",
                    job=job.id,
                    cell=outcome.cell.cell_id,
                    status=outcome.status,
                    digest=outcome.digest,
                ),
            )
        wall = time.perf_counter() - start
        after = get_stats().as_dict()
        stats = {key: after[key] - before.get(key, 0) for key in after}
        report = scenario_report(run)
        return report["aggregate_digest"], report, wall, stats


# -- entry points --------------------------------------------------------


async def _serve_forever(config: ServeConfig) -> int:
    """Serve until SIGINT or SIGTERM; returns the shell's exit code for
    that signal (130 / 143) once the service has shut down."""
    service = ExperimentService(config)
    server = await service.start()
    loop = asyncio.get_running_loop()
    stopped: "asyncio.Future[int]" = loop.create_future()
    # Installed explicitly, so a service started with SIGINT ignored
    # (as a background shell starts it) still stops on SIGINT.
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(
            signum, lambda s=signum: stopped.done() or stopped.set_result(s)
        )
    print(
        f"repro serve listening on http://{config.host}:{service.port} "
        f"(jobs={config.jobs}, concurrency={config.concurrency}, "
        f"cache_dir={config.cache_dir})",
        flush=True,
    )
    try:
        signum = await stopped
    finally:
        server.close()
        service.shutdown()
    return 128 + signum


def run_server(config: ServeConfig) -> int:
    """Run the service until SIGINT or SIGTERM (the CLI entry point)."""
    return asyncio.run(_serve_forever(config))
