"""The ``serve_mix`` workload: closed-loop clients against ``repro serve``.

One pass starts a service on fresh cache and work directories, drives
the seeded operation mix (:func:`workloads.serve_mix`) through it with
:data:`workloads.CLIENTS` client threads, and stops it.  Each client
submits its next plan only after its previous one is answered:

- a new job is followed to the end of its ``/jobs/<id>/events``
  stream and its ``/result`` is fetched — submit to fetched result is
  one job-latency sample;
- a submission the service deduplicates onto a finished job is
  followed by a ``GET`` of that job's result — one dedupe round trip.

Untraced passes run the real deployment, ``python -m repro serve
--jobs 2 --cache``, in a child process.  Traced passes host the same
service in this process (``repro.serve.testing.BackgroundServer``) so
the span wrappers see its calls; compute in its pool workers stays
invisible to them.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    WORK, DigestCheck, calibrated, child_env, host_probe_all_cpus, plan_label,
    stop_descendants,
)
from workloads import Op, serve_mix

SERVE_JOBS = 2
HTTP_TIMEOUT = 15.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
#: Operations each client runs between two host probes.
CHUNK_OPS = 10


def request(port: int, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data
    finally:
        conn.close()


def fresh_dirs(tag: str) -> Tuple[str, str]:
    base = os.path.join(WORK, "serve", tag)
    shutil.rmtree(base, ignore_errors=True)
    cache, work = os.path.join(base, "cache"), os.path.join(base, "work")
    os.makedirs(cache)
    os.makedirs(work)
    return cache, work


# -- the service as a child process --------------------------------------


class ServerProcess:
    """``python -m repro serve`` as a child process."""

    def __init__(self, cache_dir: str, work_dir: str) -> None:
        self.cache_dir = cache_dir
        self.work_dir = work_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.setup_s: Optional[float] = None

    def start(self) -> "ServerProcess":
        """Start the service and wait until ``/healthz`` answers; a
        service that fails to come up is stopped before this raises."""
        log_path = os.path.join(self.work_dir, "server.log")
        spawned = time.monotonic()
        try:
            with open(log_path, "w", encoding="utf-8") as log_file:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--jobs", str(SERVE_JOBS), "--cache",
                     "--cache-dir", self.cache_dir, "--work-dir", self.work_dir,
                     "--port", "0"],
                    stdout=subprocess.PIPE, stderr=log_file, env=child_env(),
                    cwd=WORK,
                )
            self.port = self._read_port(spawned + START_TIMEOUT)
            while request(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > spawned + START_TIMEOUT:
                    raise RuntimeError("service never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned
        return self

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, __, __ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("service did not report its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("service exited before listening")
            line += chunk
        # "repro serve listening on http://127.0.0.1:<port> (...)"
        address = line.decode().split("http://", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Interrupt the service, then kill and wait for anything it left.

        The service runs in the benchmark's own process group, so a
        signal to the whole run reaches it and its pool workers too.
        """
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # The service is this process's only child here.
        stop_descendants()


# -- the clients ---------------------------------------------------------


class PassStats:
    """What one pass measured, merged from every client thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.job_latency_s: List[float] = []
        #: The chunk each job-latency sample ran in.
        self.latency_chunks: List[int] = []
        self.dedupe_rtt_s: List[float] = []
        #: (job id, client latency) of every new job.
        self.jobs: List[Tuple[str, float]] = []
        #: (client latency, created_at, started_at, finished_at) per job,
        #: filled by :func:`fetch_job_times` after the timed drive.
        self.job_times: List[Tuple[float, float, float, float]] = []
        self.submissions = 0
        self.deduplicated = 0
        #: Host probe times (all CPUs), one before the first chunk and one
        #: after each.
        self.probes: List[float] = []
        #: Wall time of each chunk, without the probes.
        self.chunk_walls: List[float] = []
        self._resumed: Optional[float] = None

    def take_probe(self) -> None:
        """End the running chunk (if any) and probe the host."""
        now = time.perf_counter()
        if self._resumed is not None:
            self.chunk_walls.append(now - self._resumed)
        self.probes.append(host_probe_all_cpus())
        self._resumed = time.perf_counter()

    def _around(self, chunk: int) -> Tuple[float, float]:
        """The probes before and after ``chunk`` (the last one taken, if a
        dead client left the chunk unfinished)."""
        last = len(self.probes) - 1
        return self.probes[min(chunk, last)], self.probes[min(chunk + 1, last)]

    def calibrated_latencies(self) -> List[float]:
        return [
            calibrated(latency, *self._around(chunk))
            for latency, chunk in zip(self.job_latency_s, self.latency_chunks)
        ]

    def calibrated_wall(self) -> float:
        """The pass's wall time without probes, in calibrated seconds."""
        return sum(
            calibrated(wall, *self._around(chunk))
            for chunk, wall in enumerate(self.chunk_walls)
        )


def run_client(
    port: int,
    ops: List[Op],
    check: DigestCheck,
    stats: PassStats,
    done: List[int],
    chunks: int,
    barrier: threading.Barrier,
) -> None:
    """Run ``ops`` in order, ``CHUNK_OPS`` of them per chunk, and wait at
    ``barrier`` after each of the pass's ``chunks`` chunks; ``done[0]``
    counts the operations accounted for."""
    try:
        for chunk in range(chunks):
            for op in ops[chunk * CHUNK_OPS:(chunk + 1) * CHUNK_OPS]:
                account(one_op_outcome(port, op), op, chunk, check, stats)
                done[0] += 1
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass  # the other client died: go on without probes
    finally:
        barrier.abort()


def one_op_outcome(port: int, op: Op) -> Dict[str, Any]:
    try:
        return one_op(port, op)
    except Exception as error:  # noqa: BLE001 - a failing operation is a counted failure
        return {"error": f"{type(error).__name__}: {error}"}


def account(
    outcome: Dict[str, Any], op: Op, chunk: int, check: DigestCheck, stats: PassStats
) -> None:
    label = plan_label(op.plan)
    with stats.lock:
        stats.submissions += 1
        if "error" in outcome:
            check.fail(label, outcome["error"])
        elif check.check(label, outcome["digest"]):
            if outcome["deduplicated"]:
                stats.deduplicated += 1
                stats.dedupe_rtt_s.append(outcome["elapsed"])
            else:
                stats.job_latency_s.append(outcome["elapsed"])
                stats.latency_chunks.append(chunk)
                stats.jobs.append((outcome["job"], outcome["elapsed"]))


def one_op(port: int, op: Op) -> Dict[str, Any]:
    began = time.perf_counter()
    status, body = request(port, "POST", "/jobs", op.plan)
    if status not in (200, 202):
        return {"error": f"POST /jobs -> {status}: {body[:200]!r}"}
    submitted = json.loads(body)
    job_id = submitted["job"]["id"]
    deduplicated = bool(submitted["deduplicated"])
    if not deduplicated:
        status, body = request(port, "GET", f"/jobs/{job_id}/events")
        if status != 200:
            return {"error": f"GET events -> {status}"}
    status, body = request(port, "GET", f"/jobs/{job_id}/result")
    elapsed = time.perf_counter() - began
    if status != 200:
        return {"error": f"GET result -> {status}: {body[:200]!r}"}
    return {
        "job": job_id,
        "digest": json.loads(body)["digest"],
        "deduplicated": deduplicated,
        "elapsed": elapsed,
    }


def drive(port: int, seed: int, check: DigestCheck) -> Tuple[float, PassStats]:
    """Run the seeded mix against a live service; returns (wall, stats).

    The clients run the mix in chunks of ``CHUNK_OPS`` operations each and
    meet after every chunk; the last to arrive probes the host while the
    service is idle.  A chunk lasts a fraction of a second, shorter than
    the host's fast and slow phases, so the probes on either side of a
    chunk calibrate the samples in it.

    An operation a client never accounted for (its thread died) counts
    as a failure, so a dead client cannot shrink the run unnoticed.
    """
    stats = PassStats()
    streams = serve_mix(seed)
    done = [[0] for __ in streams]
    chunks = max(-(-len(ops) // CHUNK_OPS) for ops in streams)
    barrier = threading.Barrier(len(streams), action=stats.take_probe)
    threads = [
        threading.Thread(
            target=run_client,
            args=(port, ops, check, stats, done[index], chunks, barrier),
            name=f"perfbench-client-{index}", daemon=True,
        )
        for index, ops in enumerate(streams)
    ]
    began = time.perf_counter()
    stats.take_probe()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    for ops, (count,) in zip(streams, done):
        for op in ops[count:]:
            check.fail(plan_label(op.plan), "client stopped before this operation")
    return wall, stats


def fetch_job_times(port: int, stats: PassStats, check: DigestCheck) -> None:
    """Read each new job's server timestamps from ``/jobs/<id>``."""
    for job_id, latency in stats.jobs:
        try:
            status, body = request(port, "GET", f"/jobs/{job_id}")
            if status != 200:
                raise ValueError(f"GET job -> {status}")
            job = json.loads(body)
            times = (job["created_at"], job["started_at"], job["finished_at"])
        except Exception as error:  # noqa: BLE001 - counted, like any failed request
            check.fail(f"job {job_id}", f"{type(error).__name__}: {error}")
            continue
        stats.job_times.append((latency,) + times)


def server_pass(seed: int, check: DigestCheck, tag: str) -> Tuple[float, PassStats]:
    """One untraced pass on a child-process service: (setup, stats)."""
    server = ServerProcess(*fresh_dirs(tag)).start()
    try:
        __, stats = drive(server.port, seed, check)
    finally:
        server.stop()
    return server.setup_s, stats


def setup_probe(tag: str) -> float:
    """Start a service, wait for ``/healthz``, stop it: one set-up sample."""
    server = ServerProcess(*fresh_dirs(tag)).start()
    server.stop()
    return server.setup_s


def in_process_pass(
    seed: int, check: DigestCheck, tag: str, traced: bool
) -> Tuple[float, PassStats, Dict[str, int]]:
    """One pass on a service hosted in this process, with the deployment's
    settings; ``traced`` also fetches each job's timestamps once the
    timed drive is over, so both kinds of pass send the same requests.

    Returns (wall, stats, exec-counter deltas of the pass).
    """
    from repro.exec.context import get_stats
    from repro.exec.engine import shutdown_pools
    from repro.serve import ServeConfig
    from repro.serve.testing import BackgroundServer

    cache_dir, work_dir = fresh_dirs(tag)
    config = ServeConfig(port=0, jobs=SERVE_JOBS, cache=True,
                         cache_dir=cache_dir, work_dir=work_dir)
    before = get_stats().as_dict()
    try:
        with BackgroundServer(config) as server:
            wall, stats = drive(server.port, seed, check)
            if traced:
                fetch_job_times(server.port, stats, check)
    finally:
        # Each pass starts its pool afresh, as a new service would.
        shutdown_pools()
    after = get_stats().as_dict()
    return wall, stats, {key: after[key] - before.get(key, 0) for key in after}


def install_job_context(recorder) -> None:
    """Wrap the service's job runner so spans carry the job id."""
    from repro.serve.app import ExperimentService

    recorder.patch(
        ExperimentService, "_run_job", "serve.job",
        context=lambda service, job, parsed: job.id,
    )
