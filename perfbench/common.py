"""Shared helpers of the benchmark: paths, statistics, digests, result line.

Everything here is stdlib-only and never imports ``repro``, so the
benchmark's tests and its tooling run without the program's dependencies.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark directory's parent.
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for run artifacts (serve caches, span dumps); inside
#: the checkout and listed in the root ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED_DIGESTS = os.path.join(BENCH_DIR, "expected_digests.json")
#: :func:`host_probe`'s time on the reference host (2-vCPU x86_64 VM at
#: 2.1 GHz, Python 3.11) in its undisturbed minutes.  Calibrated times
#: are seconds of that host.
REFERENCE_PROBE_S = 0.013


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for program processes: sources on the path, temp in WORK."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


# -- child processes ------------------------------------------------------

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt this process's orphaned descendants (Linux only).

    A pool worker that outlives the service it was forked from is then
    reparented to the benchmark, which can kill it and wait for it,
    instead of to init, where nothing would.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _parents() -> Dict[int, int]:
    """pid -> parent pid of every process visible in ``/proc``."""
    parents: Dict[int, int] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return parents
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def descendants(pid: int) -> List[int]:
    """Every live or unreaped process below ``pid``, parents first."""
    children: Dict[int, List[int]] = {}
    for child, parent in _parents().items():
        children.setdefault(parent, []).append(child)
    found: List[int] = []
    frontier = [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found += below
        frontier += below
    return found


def kill_all(pids: Iterable[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def stop_descendants(timeout: float = 10.0) -> None:
    """Kill every process below this one and wait for each to end.

    Only called where every child this process started is already done
    with (a stopped service, the end of a run): anything still below it
    is a leftover.  Killed grandchildren are reparented here when
    :func:`become_subreaper` took effect, and reaped in turn.
    """
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        below = descendants(me)
        kill_all(below)
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if not below or time.monotonic() > deadline:
            return
        time.sleep(0.02)


def plan_label(plan: Mapping[str, Any]) -> str:
    """The stable text key of a serialized plan (canonical JSON).

    Expected digests are keyed by this rather than by the program's own
    ``plan_cache_key``, which folds in a digest of the source tree and
    so changes with every code change.
    """
    return json.dumps(plan, sort_keys=True, separators=(",", ":"))


def load_expected(path: str = EXPECTED_DIGESTS) -> Dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


class DigestCheck:
    """Counts attempted operations and failures against expected digests.

    An operation fails when it raised, ended ``failed``, got a non-2xx
    response, or produced a digest that differs from the one recorded
    for its plan (or has none recorded).
    """

    def __init__(self, expected: Mapping[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, label: str, digest: Optional[str]) -> bool:
        self.attempted += 1
        want = self.expected.get(label)
        if digest is None or want is None or digest != want:
            self.failed += 1
            self.mismatches.append(
                f"{label}: got {digest} expected {want}"
            )
            return False
        return True

    def fail(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.mismatches.append(f"{label}: {reason}")


def host_probe() -> float:
    """Time a fixed piece of interpreter work: the benchmark's yardstick
    for how fast the host runs right now.

    Tuple allocation, deque and dict traffic, as in the simulators,
    with the collector off so the program's heap cannot lengthen it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        queue: deque = deque()
        table: Dict[int, int] = {}
        for i in range(60_000):
            queue.append((i, i * 7 % 13))
            if len(queue) > 64:
                key, value = queue.popleft()
                table[key % 251] = table.get(key % 251, 0) + value
        return time.perf_counter() - began
    finally:
        if was_enabled:
            gc.enable()


def host_probe_all_cpus() -> float:
    """The mean of :func:`host_probe` on each CPU this process may use.

    The host slows each of its CPUs separately, so a program spread over
    several processes (the service and its pool workers) runs at their
    mean speed, not at the speed of the CPU one probe happened to run
    on.  The calling thread is pinned to each CPU in turn, then given
    back its CPU set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return host_probe()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(host_probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


#: How strongly set-up time follows the host probe.  Start-up is imports:
#: file reads, unmarshalling, extension loading.  When the probe ran
#: twice as slow as in quiet minutes, start-up ran only about 1.5 times
#: as slow (2-vCPU VM above: probe 10.2 -> 18-25 ms, start-up 0.25 ->
#: 0.35-0.42 s), so full scaling turned a slow host into a fast start.
SETUP_EXPONENT = 0.6


def calibrated(
    seconds: float, probe_before: float, probe_after: float, exponent: float = 1.0
) -> float:
    """``seconds`` measured between two host probes, in reference-host seconds.

    Host speed on a shared VM drifts by up to 2x for minutes at a time;
    scaling by the probes taken just before and after removes most of
    that drift, which no statistic over one run's samples can.  Work
    that slows less than the probe does takes ``exponent`` < 1.
    """
    return seconds * (REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)) ** exponent


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, Dict[str, Any]],
) -> None:
    """Print the one-line JSON result, the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": dict(metrics),
            }
        ),
        flush=True,
    )


def log(*parts: Any) -> None:
    print(*parts, file=sys.stderr, flush=True)


def quartiles(values: Iterable[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))
