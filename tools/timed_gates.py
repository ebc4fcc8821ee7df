#!/usr/bin/env python
"""Timed gates: the wall-clock bounds kept out of the tier-1 suite.

Each row of :data:`GATES` fixes a scale, a decision statistic and a
bound.  Timings on a small shared host are noisy, so the gates run only
by name, each in the CI job its row names:

    python tools/timed_gates.py [GATE ...]     # no names: every gate

Every gate run replaces its own record in ``BENCH_sweeps.json`` at the
repository root: the statistic, the bound, and the raw round times
with their median and interquartile range.  Exit 1 when a gate misses
its bound, 2 on an unknown gate name.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUTPUT = os.path.join(REPO_ROOT, "BENCH_sweeps.json")


def spread(times: List[float]) -> Dict[str, Any]:
    """Raw round times with their median and interquartile range."""
    q1, __, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"rounds_s": times, "min_s": min(times),
            "median_s": statistics.median(times), "iqr_s": q3 - q1}


def timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def overhead(base: Callable, wrapped: Callable, rounds: int,
             paired: bool = False) -> Dict[str, Any]:
    """The cost of ``wrapped`` over ``base`` as a fraction of ``wrapped``.

    Unpaired: min-of-``rounds`` of each, timed one path after the other.
    Paired: rounds interleaved with the collector paused, so drift lands
    on both paths, and the smallest per-round gap is the overhead.
    """
    if paired:
        base_times, wrapped_times = [], []
        gc.disable()
        try:
            for _ in range(rounds):
                for fn, times in ((base, base_times), (wrapped, wrapped_times)):
                    gc.collect()
                    times.append(timed(fn))
        finally:
            gc.enable()
        gap = min(w - b for b, w in zip(base_times, wrapped_times))
    else:
        base_times = [timed(base) for _ in range(rounds)]
        wrapped_times = [timed(wrapped) for _ in range(rounds)]
        gap = min(wrapped_times) - min(base_times)
    fraction = gap / min(wrapped_times)
    return {"base": spread(base_times), "wrapped": spread(wrapped_times),
            "overhead_seconds": gap, "overhead_fraction": fraction,
            "passed": fraction < 0.02}


def same(a: Any, b: Any, what: str) -> None:
    """Warm-up check: an overhead only counts if both paths agree."""
    if a != b:
        raise AssertionError(f"{what}: the two paths disagree")


def supervisor_overhead() -> Dict[str, Any]:
    from repro.exec.context import ExecConfig, execution
    from repro.exec.supervisor import SupervisorConfig, supervision
    from repro.registry import run

    def plain():
        with execution(ExecConfig(force_engine=True)):
            return run("figure5", repetitions=40)

    def supervised():
        # Armed but never triggered: no point fails or nears the deadline.
        with supervision(SupervisorConfig(retries=2, deadline_seconds=3600.0)):
            return plain()

    same(str(plain()), str(supervised()), "supervision")
    return overhead(plain, supervised, rounds=5)


def scenario_overhead() -> Dict[str, Any]:
    from repro.exec.plan import result_digest
    from repro.registry import run
    from repro.scenario import parse_scenario, run_scenario

    cell = {"repetitions": 200, "points": [[2, 0], [4, 0]]}
    matrix = {"name": "gate", "blocks": [{
        "experiment": "determinism", "params": cell,
        "axes": {"base": [2, 4], "seed": [0, 1]},
    }]}

    def hand_loop():
        return {(base, seed): result_digest(run(
            "determinism", repetitions=200, points=((2, 0), (4, 0)),
            base=base, seed=seed,
        )) for base, seed in itertools.product([2, 4], [0, 1])}

    def scenario():
        return run_scenario(parse_scenario(matrix))

    same(hand_loop(), {
        (o.cell.plan.params["base"], o.cell.plan.seed): o.digest
        for o in scenario().outcomes
    }, "scenario cells")
    return overhead(hand_loop, scenario, rounds=10, paired=True)


def registry_overhead() -> Dict[str, Any]:
    from repro.registry import get_spec, run

    spec = get_spec("figure5")

    def direct():
        params = spec.resolve({"repetitions": 100})
        return spec.aggregate({key: spec.run_point(**kwargs) for key, kwargs
                               in spec.points(params).items()}, params)

    def registry():
        return run("figure5", repetitions=100)

    same(str(direct()), str(registry()), "registry dispatch")
    return overhead(direct, registry, rounds=5)


def python_vs_numpy(fn: Callable[[str], Any], min_speedup: float) -> Dict[str, Any]:
    """Time ``fn(backend)`` on the event loop, then on the numpy kernel,
    which must vectorize and reproduce the loop bit for bit."""
    from repro.barrier.backend import get_kernel_counters, reset_kernel_counters

    start = time.perf_counter()
    loop = fn("python")
    python_s = time.perf_counter() - start
    reset_kernel_counters()
    start = time.perf_counter()
    kernel = fn("numpy")
    numpy_s = time.perf_counter() - start
    counters = get_kernel_counters()
    return {"python_seconds": python_s, "numpy_seconds": numpy_s,
            "speedup": python_s / numpy_s, "results_match": loop == kernel,
            "vectorized_shards": counters.vectorized_shards,
            "fallback_shards": counters.fallback_shards,
            "passed": loop == kernel and counters.vectorized_shards > 0
            and python_s / numpy_s >= min_speedup}


def vectorized_kernel() -> Dict[str, Any]:
    from repro.exec.cache import payload_digest
    from repro.obs.manifest import jsonable
    from repro.registry import run

    return python_vs_numpy(lambda backend: payload_digest(jsonable(
        run("figure4", repetitions=100, backend=backend).data
    )), min_speedup=0.0)


def tree_kernel() -> Dict[str, Any]:
    from repro.barrier.sweep import sweep_tree
    from repro.core.backoff import AdaptiveBackoff, NoBackoff

    def full_sweep(backend):
        return {(label, a): [(g.mean_accesses, g.mean_waiting_time, g.mean_waiting_p95)
                             for g in aggregates]
                for a in (0, 10, 100, 1000)
                for label, aggregates in sweep_tree(
                    (16, 64, 256), a,
                    {"none": NoBackoff(),
                     "adaptive": AdaptiveBackoff(multiplier=1, flag_base=2)},
                    degree=4, repetitions=40, seed=0, backend=backend,
                ).items()}

    return python_vs_numpy(full_sweep, min_speedup=3.0)


def serve_warm_path() -> Dict[str, Any]:
    from repro.exec.context import reset_stats
    from repro.serve import ServeConfig
    from repro.serve.testing import BackgroundServer

    submission = {"experiment": "figure5", "seed": 3,
                  "params": {"n_values": [2, 4], "repetitions": 2}}

    def request(method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request(method, path, body=json.dumps(body) if body else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    reset_stats()  # /stats counts exec points process-wide
    with tempfile.TemporaryDirectory() as scratch, BackgroundServer(ServeConfig(
        port=0, jobs=1, cache=True, cache_dir=os.path.join(scratch, "cache"),
        work_dir=os.path.join(scratch, "work"),
    )) as server:
        start = time.perf_counter()
        job = request("POST", "/jobs", submission)["job"]
        while job["state"] not in ("done", "failed"):
            time.sleep(0.05)
            job = request("GET", f"/jobs/{job['id']}")
        cold_s = time.perf_counter() - start
        same(job["state"], "done", "cold job")

        def warm():
            again = request("POST", "/jobs", submission)
            result = request("GET", f"/jobs/{job['id']}/result")
            same((again["deduplicated"], again["job"]["id"], result["digest"]),
                 (True, job["id"], job["digest"]), "warm submission")

        warm_times = [timed(warm) for _ in range(20)]
        points = request("GET", "/stats")["exec"]["points"]
    return {"cold_seconds": cold_s, "warm": spread(warm_times),
            "executed_points": points,
            "passed": statistics.median(warm_times) < 1.0 and points == 2}


class Gate(NamedTuple):
    run: Callable[[], Dict[str, Any]]
    scale: str
    statistic: str
    bound: str
    #: The CI job that enforces the gate; None when it runs only by hand.
    ci_job: Optional[str]


GATES: Dict[str, Gate] = {
    "supervisor_overhead": Gate(
        supervisor_overhead, "figure5, 40 reps, 5 rounds; retries 2, deadline 3600 s",
        "(min supervised - min plain) / min supervised", "< 2%", "chaos-smoke"),
    "scenario_overhead": Gate(
        scenario_overhead, "4 determinism cells, 200 reps, 10 interleaved rounds",
        "min paired (scenario - hand loop) / min scenario", "< 2%", "scenario-smoke"),
    "vectorized_kernel": Gate(
        vectorized_kernel, "figure4, 100 reps (paper scale)",
        "digest parity and vectorized shards; speedup recorded",
        "digests match, vectorized_shards > 0", "vectorize-smoke"),
    "tree_kernel": Gate(
        tree_kernel, "tree degree 4, N 16/64/256, A 0/10/100/1000, none + "
        "adaptive, 40 reps", "python seconds / numpy seconds, one round",
        "results match, vectorized_shards > 0, speedup >= 3", "vectorize-smoke"),
    "registry_overhead": Gate(
        registry_overhead, "figure5, 100 reps, 5 rounds",
        "(min registry - min direct) / min registry", "< 2%", None),
    "serve_warm_path": Gate(
        serve_warm_path, "one cold figure5 job, then 20 dedupe hits + result fetches",
        "median warm round trip; points executed", "< 1 s; exactly 2", None),
}


def main(names: List[str]) -> int:
    unknown = sorted(set(names) - set(GATES))
    if unknown:
        print(f"unknown gate(s) {unknown}; known: {list(GATES)}", file=sys.stderr)
        return 2
    try:
        with open(OUTPUT, "r", encoding="utf-8") as handle:
            records = json.load(handle).get("gates", {})
    except (OSError, ValueError):
        records = {}
    failed = []
    for name in names or list(GATES):
        gate = GATES[name]
        record = dict(gate.run(), **gate._asdict(), cpu_count=os.cpu_count())
        del record["run"]
        records[name] = record
        if not record["passed"]:
            failed.append(name)
        print(f"{name}: {'ok' if record['passed'] else 'FAILED'} "
              f"({gate.statistic} {gate.bound}) "
              f"{record.get('overhead_fraction', record.get('speedup', ''))}",
              flush=True)
    report = {"host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "gates": {name: records[name] for name in GATES if name in records}}
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
