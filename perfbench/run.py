"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root.  Workloads (README.md says why each):
``barrier_sweeps``, ``trace_coherence``, ``network_contention`` and
``serve_mix``.  The run repeats whole passes over the workload for about
``--seconds`` seconds and checks every result digest against
``expected_digests.json``.  End-to-end timings are in host-calibrated
seconds (``common.calibrated``); batch workloads report each plan's
median sample.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones from a run
that alternates plain and span-wrapped passes.  Exits 2 without a result
when the checkout has no program sources or no recorded digests.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    BENCH_DIR,
    EXPECTED_DIGESTS,
    SRC,
    SETUP_EXPONENT,
    WORK,
    DigestCheck,
    become_subreaper,
    calibrated,
    child_env,
    children_peak_rss_mb,
    emit_result,
    host_probe_all_cpus,
    load_expected,
    log,
    median,
    metric,
    percentile,
    program_present,
    stop_descendants,
)
import serve_mix
from spans import TARGETS, Recorder, layer_totals
from workloads import BATCH, WORKLOADS

#: Set-up samples per run (serve_mix: pass services plus extra start-ups).
SETUP_SAMPLES = 8
#: Seconds of a batch run kept for its start-up samples.
SETUP_RESERVE_S = 4.0
#: A pass process that runs longer than this is killed and its plans fail.
PASS_TIMEOUT = 150.0
#: A run that has not ended this long after it started is ended by force,
#: inside the 180 s a run may take (longer ``--seconds`` get 2.5x theirs).
RUN_LIMIT_S = 170.0

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER: Sequence[Tuple[str, str]] = (
    ("barrier.kernel_numpy.busy_s", "s"),
    ("barrier.kernel_numpy.calls", "count"),
    ("barrier.kernel_tree_numpy.busy_s", "s"),
    ("barrier.kernel_tree_numpy.calls", "count"),
    ("barrier.simulator.fallback_s", "s"),
    ("barrier.kernel.vectorized_ratio", "ratio"),
    ("barrier.kernel.shards", "count"),
    ("trace.scheduler.busy_s", "s"),
    ("trace.scheduler.calls", "count"),
    ("memory.coherence.cached_sync_s", "s"),
    ("memory.coherence.uncached_sync_s", "s"),
    ("network.multistage.busy_s", "s"),
    ("network.multistage.calls", "count"),
    ("network.packet.busy_s", "s"),
    ("network.packet.calls", "count"),
    ("registry.runner.self_s", "s"),
    ("registry.point.self_s", "s"),
    ("exec.plan.self_s", "s"),
    ("exec.engine.self_s", "s"),
    ("exec.points", "count"),
    ("exec.parallel_points", "count"),
    ("exec.retries", "count"),
    ("exec.worker_deaths", "count"),
    ("exec.cache.get_s", "s"),
    ("exec.cache.put_s", "s"),
    ("exec.cache.key_s", "s"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.cache.lookups", "count"),
    ("exec.cache.stores", "count"),
    ("faults.runner.busy_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.dedupe_ratio", "ratio"),
    ("serve.submissions", "count"),
    ("serve.dedupe_rtt_p50_ms", "ms"),
    ("serve.dedupe_rtt_p90_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(
    layers: Dict[str, Dict[str, float]],
    kernel: Dict[str, int],
    stats: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metric values of one traced pass (serve ones excluded)."""

    def total(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0.0)

    shards = kernel["vectorized"] + kernel["fallback"]
    lookups = stats["cache_hits"] + stats["cache_misses"]
    values = {
        "barrier.kernel.vectorized_ratio": kernel["vectorized"] / shards if shards else 0.0,
        "barrier.kernel.shards": shards,
        "barrier.simulator.fallback_s": total("barrier.simulator", "self_s"),
        "memory.coherence.cached_sync_s": total("memory.coherence.cached_sync", "busy_s"),
        "memory.coherence.uncached_sync_s": total("memory.coherence.uncached_sync", "busy_s"),
        "exec.points": stats["points"],
        "exec.parallel_points": stats["parallel_points"],
        "exec.retries": stats["retries"],
        "exec.worker_deaths": stats["worker_deaths"],
        "exec.cache.get_s": total("exec.cache.get", "busy_s"),
        "exec.cache.put_s": total("exec.cache.put", "busy_s"),
        "exec.cache.key_s": total("exec.cache.key", "busy_s"),
        "exec.cache.hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "exec.cache.lookups": lookups,
        "exec.cache.stores": stats["cache_stores"],
    }
    for layer in ("barrier.kernel_numpy", "barrier.kernel_tree_numpy",
                  "trace.scheduler", "network.multistage", "network.packet"):
        values[f"{layer}.busy_s"] = total(layer, "busy_s")
        values[f"{layer}.calls"] = total(layer, "calls")
    for layer in ("registry.runner", "registry.point", "exec.plan", "exec.engine"):
        values[f"{layer}.self_s"] = total(layer, "self_s")
    values["faults.runner.busy_s"] = total("faults.runner", "busy_s")
    return values


def per_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER}


def per_plan_median(passes: Sequence[Sequence[float]]) -> List[float]:
    """Each plan's median time over the run's passes.

    Every pass of a run repeats the same plans in the same order.  Not
    the minimum: a calibrated sample is a ratio to the host probes beside
    it, and the smallest ratio is the one whose probe a brief stall hit
    hardest, so a minimum picks that noise out.
    """
    return [median(times) for times in zip(*passes)]


def end_to_end(
    setups: Sequence[float],
    wall: float,
    peak_rss_mb: float,
    rate: float,
    latencies: Sequence[float],
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one run."""
    return {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        "jobs_per_s": metric(rate, "1/s"),
        "job_latency_p50_s": metric(percentile(latencies, 50), "s"),
        "job_latency_p90_s": metric(percentile(latencies, 90), "s"),
    }


def log_shares(workload: str, layers: Dict[str, Dict[str, float]], wall: float) -> None:
    """Each layer's self time as a share of a traced pass's wall time (stderr)."""
    log(f"{workload}: self time by layer, last traced pass ({wall:.3f}s wall):")
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {layer:32s} self {entry['self_s']:8.3f}s  "
            f"{100 * entry['self_s'] / wall:5.1f}%  calls {int(entry['calls'])}")


# -- batch workloads ------------------------------------------------------


def plan_times(reports: Sequence[dict]) -> List[float]:
    """Each plan's median calibrated time over the given pass reports
    (a pass probes the host before its first plan and after each plan)."""
    return per_plan_median([
        [calibrated(e["wall_s"], r["probes"][i], r["probes"][i + 1])
         for i, e in enumerate(r["plans"])]
        for r in reports
    ])


def pass_s(reports: Sequence[dict]) -> float:
    """A pass runs its plans one after another: its time is the sum of
    each plan's median time."""
    return sum(plan_times(reports))


def run_pass_process(args: List[str]) -> Tuple[Optional[dict], float]:
    """Run ``batch_pass.py`` once; returns (its report or None, spawn time)."""
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "batch_pass.py"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            cwd=WORK, timeout=PASS_TIMEOUT, check=False,
        )
    except subprocess.TimeoutExpired:
        log(f"pass {args} timed out")
        return None, spawned
    if done.returncode != 0:
        log(done.stderr.decode(errors="replace")[-2000:])
        return None, spawned
    return json.loads(done.stdout.decode().strip().splitlines()[-1]), spawned


def setup_sample() -> Optional[float]:
    """One start-up of a pass process that exits once its imports are
    done, calibrated (as set-up) by probes on every CPU just before and
    after it."""
    before = host_probe_all_cpus()
    report, spawned = run_pass_process(["--probe"])
    after = host_probe_all_cpus()
    if report is None:
        return None
    return calibrated(report["ready"] - spawned, before, after, SETUP_EXPONENT)


def check_pass(report: Optional[dict], plans: int, check: DigestCheck, workload: str) -> None:
    if report is None:
        for __ in range(plans):
            check.fail(workload, "pass process failed")
        return
    for entry in report["plans"]:
        if "error" in entry:
            check.fail(entry["label"], entry["error"])
        else:
            check.check(entry["label"], entry["digest"])


def batch_run(
    workload: str, seed: int, seconds: float, trace: bool, check: DigestCheck
) -> Dict[str, Dict[str, Any]]:
    plans = len(BATCH[workload])
    base = ["--workload", workload, "--seed", str(seed)]
    spans_path = os.path.join(WORK, "spans", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    plain: List[dict] = []
    traced: List[dict] = []
    # Untraced runs keep time for their start-up samples.
    budget = seconds if trace else seconds - SETUP_RESERVE_S
    start = time.monotonic()
    while True:
        began = time.monotonic()
        report, __ = run_pass_process(base)
        check_pass(report, plans, check, workload)
        if report is not None:
            plain.append(report)
        if trace:
            report, __ = run_pass_process(base + ["--trace", "--spans", spans_path])
            check_pass(report, plans, check, workload)
            if report is not None:
                traced.append(report)
        last = time.monotonic() - began
        if time.monotonic() - start + last > budget:
            break
    if not plain or (trace and not traced):
        return {}
    if trace:
        samples = [layer_values(r["layers"], r["kernel"], r["exec"]) for r in traced]
        values = {name: median([v[name] for v in samples]) for name in samples[0]}
        values["trace.overhead_frac"] = pass_s(traced) / pass_s(plain) - 1.0
        log_shares(workload, traced[-1]["layers"], traced[-1]["wall_s"])
        return per_layer_metrics(values)
    setups = [sample for sample in (setup_sample() for __ in range(SETUP_SAMPLES))
              if sample is not None]
    if not setups:
        return {}
    times = plan_times(plain)
    wall = sum(times)
    return end_to_end(
        setups, wall, max(r["rss_kb"] for r in plain) / 1024.0, plans / wall, times,
    )


# -- serve_mix ------------------------------------------------------------


def serve_run(
    seed: int, seconds: float, trace: bool, check: DigestCheck
) -> Dict[str, Dict[str, Any]]:
    if trace:
        return serve_traced(seed, seconds, check)
    setups: List[float] = []
    walls: List[float] = []
    latencies: List[float] = []
    probes: List[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        before = host_probe_all_cpus()
        setup, stats = serve_mix.server_pass(seed, check, f"pass{len(walls)}")
        # The drive's first probe follows the service's first answer.
        setups.append(calibrated(setup, before, stats.probes[0], SETUP_EXPONENT))
        walls.append(stats.calibrated_wall())
        latencies += stats.calibrated_latencies()
        probes += stats.probes
        last = time.monotonic() - began
        if time.monotonic() - start + last > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        before = host_probe_all_cpus()
        setup = serve_mix.setup_probe(f"probe{len(setups)}")
        setups.append(calibrated(setup, before, host_probe_all_cpus(), SETUP_EXPONENT))
    if not latencies:
        return {}
    log(f"serve_mix: {len(walls)} passes, {len(probes)} host probes of "
        f"{1000 * min(probes):.1f}-{1000 * max(probes):.1f} ms")
    # Latencies are pooled over passes: a job's latency depends on what
    # the other client runs beside it, so no per-job statistic is stable.
    wall = median(walls)
    return end_to_end(
        setups, wall, children_peak_rss_mb(), len(latencies) / len(walls) / wall,
        latencies,
    )


def serve_traced(seed: int, seconds: float, check: DigestCheck) -> Dict[str, Dict[str, Any]]:
    """Alternate plain and span-wrapped passes on an in-process service."""
    sys.path.insert(0, SRC)
    os.environ.update(child_env())

    spans_path = os.path.join(WORK, "spans", f"serve_mix-seed{seed}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    samples: List[Dict[str, float]] = []
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        __, plain_stats, __ = serve_mix.in_process_pass(seed, check, "plain", traced=False)
        plain_walls.append(plain_stats.calibrated_wall())
        recorder = Recorder()
        recorder.install(TARGETS)
        serve_mix.install_job_context(recorder)
        try:
            wall, stats, counters = serve_mix.in_process_pass(seed, check, "traced", traced=True)
        finally:
            recorder.uninstall()
        traced_walls.append(stats.calibrated_wall())
        layers = layer_totals(recorder.spans)
        values = layer_values(layers, {"vectorized": 0, "fallback": 0}, counters)
        values.update(serve_values(stats, plain_stats))
        samples.append(values)
        last = time.monotonic() - began
        if time.monotonic() - start + last > seconds:
            break
    recorder.dump(spans_path)
    log_shares("serve_mix", layers, wall)
    merged = {name: median([v[name] for v in samples]) for name in samples[0]}
    merged["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    return per_layer_metrics(merged)


def serve_values(stats, plain_stats) -> Dict[str, float]:
    """The ``serve.*`` per-layer values of one traced/plain pass pair.

    Job timings come from the traced pass's ``/jobs/<id>`` timestamps;
    dedupe round trips from the plain pass, which has no wrappers on the
    submission path.
    """
    times = stats.job_times
    queue = [started - created for __, created, started, ___ in times]
    run = [finished - started for __, ___, started, finished in times]
    overhead = [latency - (finished - created) for latency, created, __, finished in times]
    rtts = plain_stats.dedupe_rtt_s
    return {
        "serve.queue_wait_s": median(queue) if queue else 0.0,
        "serve.run_s": median(run) if run else 0.0,
        "serve.overhead_s": median(overhead) if overhead else 0.0,
        "serve.dedupe_ratio": (
            stats.deduplicated / stats.submissions if stats.submissions else 0.0
        ),
        "serve.submissions": stats.submissions,
        "serve.dedupe_rtt_p50_ms": 1000 * percentile(rtts, 50) if rtts else 0.0,
        "serve.dedupe_rtt_p90_ms": 1000 * percentile(rtts, 90) if rtts else 0.0,
    }


def raise_exit(signum, frame) -> None:
    """Turn a termination signal into an exit that runs every cleanup."""
    raise SystemExit(128 + signum)


def start_watchdog(limit_s: float) -> None:
    """End the run ``limit_s`` seconds from now whatever it is doing:
    kill and reap every process below this one, then exit without a
    result.  A hung pass or service cannot outlive the run."""

    def expire() -> None:
        log(f"error: the run passed its {limit_s:.0f} s limit; its threads:")
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        stop_descendants()
        os._exit(3)

    timer = threading.Timer(limit_s, expire)
    timer.daemon = True
    timer.start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        log(f"error: no program sources under {SRC}")
        return 2
    if not os.path.exists(EXPECTED_DIGESTS):
        log(f"error: no recorded digests at {EXPECTED_DIGESTS}")
        return 2
    os.makedirs(WORK, exist_ok=True)
    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, raise_exit)
    start_watchdog(max(RUN_LIMIT_S, 2.5 * args.seconds))
    try:
        return run(args)
    finally:
        stop_descendants()


def run(args) -> int:
    check = DigestCheck(load_expected())
    if args.workload == "serve_mix":
        metrics = serve_run(args.seed, args.seconds, bool(args.trace), check)
    else:
        metrics = batch_run(args.workload, args.seed, args.seconds, bool(args.trace), check)
    for line in check.mismatches[:20]:
        log(f"FAILED {line}")
    if check.attempted == 0 or not metrics:
        log("error: the run completed no operation")
        return 1
    emit_result(check.failed == 0, check.attempted, check.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
