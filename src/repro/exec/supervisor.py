"""Supervised execution: the crash-proofing layer under the exec engine.

The paper's thesis is that synchronization should degrade gracefully
under contention and failure-like delay; this module applies the same
discipline to the execution substrate itself.  It provides the four
recovery primitives every dispatch path shares:

1. :func:`run_supervised` — fan picklable tasks across a worker pool
   and *survive the pool*: a killed worker (``BrokenProcessPool``) is
   detected, the pool is respawned, and only the lost tasks are
   re-dispatched.  Name-keyed RNG streams make the re-run bit-identical
   to an undisturbed one, so supervision never changes a result, only
   whether one arrives.
2. :class:`RetryPolicy` — bounded per-point retries whose wait schedule
   is driven by the repository's *own* backoff policies
   (:mod:`repro.core.backoff`): the paper's exponential/linear adaptive
   backoff, dogfooded as the retry scheduler.  The legacy faults-runner
   schedule (``base * 2**(n-1)``) is exactly
   ``RetryPolicy(ExponentialFlagBackoff(base=2), base_seconds=base)``.
3. :func:`time_limit` / per-task deadlines — each attempt is bounded by
   ``SIGALRM`` on platforms that have it, **on the main thread only**;
   elsewhere the block runs unbounded and the fallback is recorded on
   the ``exec.deadline_unenforced`` counter (see docs/resilience.md).
   Pool workers run tasks on their own main thread, so worker-side
   deadlines always engage on POSIX.
4. :class:`CheckpointStore` / :class:`PointRecord` — atomic,
   digest-verified per-point checkpoints, so *every* registry
   experiment — plain or under a fault plan — can resume a crashed
   sweep from disk.  A truncated or hand-edited record reads as absent
   and is recomputed, never trusted.

Chaos testing hooks live here too: a :class:`ChaosPlan` installed via
:func:`chaos_injection` marks selected task submissions for worker
suicide (``SIGKILL``) or a pre-task hang, which is how
``python -m repro chaos`` and the test suite exercise the recovery
paths deterministically.

Observability contract: everything supervision does is counted on the
ambient tracer under the ``exec.`` prefix (``exec.retries``,
``exec.worker_deaths``, ``exec.points_resumed``,
``exec.deadline_unenforced``; the cache adds
``exec.cache_quarantined``) and mirrored into
:class:`repro.exec.context.ExecStats`.  ``exec.*`` counters are
excluded from the manifest's deterministic digest
(:mod:`repro.obs.manifest`): recovery describes how a result was
*obtained*, never what it *is*, so a run that survived a crash digests
identically to one that never saw it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import signal
import threading
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.backoff import (
    BackoffPolicy,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
)
from repro._ambient import AmbientState
from repro.exec.context import get_stats
from repro.obs.manifest import git_revision, jsonable
from repro.obs.tracer import get_tracer

#: Checkpoint schema version; bump when the on-disk layout changes.
CHECKPOINT_VERSION = 1

COMPLETED = "completed"
DEGRADED = "degraded"
FAILED = "failed"


class PointTimeoutError(RuntimeError):
    """A sweep point exceeded its wall-clock budget."""


class CheckpointMismatchError(RuntimeError):
    """The checkpoint on disk was written by a different configuration."""


class SupervisionError(RuntimeError):
    """Supervised execution exhausted its recovery budget."""


# -- deadlines ----------------------------------------------------------


def deadline_enforceable() -> bool:
    """True when :func:`time_limit` can actually bound the wall clock.

    Requires ``SIGALRM`` (POSIX) *and* the calling thread to be the
    main thread — ``signal.setitimer`` raises elsewhere.  Pool workers
    run their tasks on the worker's main thread, so worker-side
    deadlines are enforceable whenever the platform has ``SIGALRM``.
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Bound the block's wall clock; raises :class:`PointTimeoutError`.

    Uses ``SIGALRM``, so it only engages on the main thread of a
    platform that has it.  Elsewhere the block runs unbounded — the
    documented fallback: retries and checkpointing still apply, the
    deadline alone degrades, and the degradation is recorded once per
    attempt on the ``exec.deadline_unenforced`` counter so it is
    observable rather than silent.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if not deadline_enforceable():
        get_tracer().count("exec.deadline_unenforced")
        yield
        return

    def _expired(signum, frame):
        raise PointTimeoutError(
            f"point exceeded its wall-clock budget of {seconds:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- retry scheduling ----------------------------------------------------


def parse_backoff_spec(spec: str) -> BackoffPolicy:
    """A backoff policy from a retry-schedule spec string.

    Accepted forms: ``exponential`` (base 2), ``exponential:base=B``,
    ``linear`` (step 1), ``linear:step=S``, and ``none`` (retry
    immediately).  These are the paper's own policies
    (:mod:`repro.core.backoff`) reused as retry-wait shapes.
    """
    name, _, rest = spec.partition(":")
    options: Dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad retry-policy option {item!r} (expected KEY=VALUE)"
                )
            try:
                options[key.strip()] = int(value)
            except ValueError:
                raise ValueError(
                    f"retry-policy option {key.strip()!r} must be an "
                    f"integer, got {value!r}"
                ) from None
    name = name.strip()
    try:
        if name == "exponential":
            return ExponentialFlagBackoff(base=options.pop("base", 2))
        if name == "linear":
            return LinearFlagBackoff(step=options.pop("step", 1))
        if name == "none":
            options.pop("base", None)  # tolerated, meaningless
            return NoBackoff()
    finally:
        if options:
            raise ValueError(
                f"unknown retry-policy option(s) {sorted(options)} "
                f"for {name!r}"
            )
    raise ValueError(
        f"unknown retry policy {name!r} (expected exponential, linear "
        "or none)"
    )


class RetryPolicy:
    """A retry-wait schedule built from a repository backoff policy.

    ``wait_seconds(failures)`` is the sleep before re-dispatching a
    point that has failed ``failures`` times, scaled so the policy's
    first wait equals ``base_seconds``:

    - ``ExponentialFlagBackoff(base=2)`` → ``base * 2**(n-1)`` —
      exactly the faults runner's historical schedule;
    - ``LinearFlagBackoff(step=s)`` → ``base * n``;
    - ``NoBackoff`` → ``0`` (immediate retry).

    ``cap_seconds`` bounds the wait the same way the paper's policies
    cap their cycle counts, so a deep retry cannot sleep unboundedly.
    """

    def __init__(
        self,
        policy: Optional[BackoffPolicy] = None,
        base_seconds: float = 0.05,
        cap_seconds: float = 30.0,
    ) -> None:
        if base_seconds < 0:
            raise ValueError("base_seconds must be non-negative")
        if cap_seconds <= 0:
            raise ValueError("cap_seconds must be positive")
        self.policy = policy if policy is not None else ExponentialFlagBackoff()
        self.base_seconds = float(base_seconds)
        self.cap_seconds = float(cap_seconds)

    @classmethod
    def from_spec(
        cls,
        spec: str,
        base_seconds: float = 0.05,
        cap_seconds: float = 30.0,
    ) -> "RetryPolicy":
        return cls(
            parse_backoff_spec(spec),
            base_seconds=base_seconds,
            cap_seconds=cap_seconds,
        )

    def wait_seconds(self, failures: int) -> float:
        """Sleep before the retry that follows failure number ``failures``."""
        if failures < 1:
            raise ValueError("failures must be >= 1")
        raw = self.policy.flag_wait(failures)
        if raw <= 0:
            return 0.0
        unit = self.policy.flag_wait(1)
        scaled = self.base_seconds * (raw / unit if unit > 0 else 1.0)
        return min(scaled, self.cap_seconds)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy({self.policy!r}, base_seconds={self.base_seconds}, "
            f"cap_seconds={self.cap_seconds})"
        )


# -- supervisor configuration -------------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """How supervised execution recovers: retries, deadlines, checkpoints.

    The ambient analogue of :class:`repro.exec.context.ExecConfig`: the
    CLI installs one for the duration of a command via
    :func:`supervision` and the exec engine reads it through
    :func:`get_supervisor_config`.  The default survives worker death
    (``respawns=2``) but adds nothing else — no retries, no deadline,
    no checkpointing — so an unconfigured run takes the historical code
    path with zero measurable overhead.
    """

    #: Per-point retry budget for task failures (exceptions, timeouts).
    retries: int = 0
    #: Per-attempt wall-clock budget in seconds (None = unbounded).
    deadline_seconds: Optional[float] = None
    #: Retry-wait schedule spec (see :func:`parse_backoff_spec`).
    backoff: str = "exponential"
    #: First retry wait in seconds; the schedule scales from here.
    backoff_base_seconds: float = 0.05
    #: Upper bound on any single retry wait.
    backoff_cap_seconds: float = 30.0
    #: Pool respawn budget per fan-out after worker death.
    respawns: int = 2
    #: Per-point checkpoint directory (None = no checkpointing).
    checkpoint_dir: Optional[str] = None
    #: Load compatible records from ``checkpoint_dir`` before running.
    resume: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.respawns < 0:
            raise ValueError(f"respawns must be >= 0, got {self.respawns}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        self.retry_policy()  # fail at construction, not mid-sweep

    @property
    def active(self) -> bool:
        """True when this config changes behavior beyond the default."""
        return bool(
            self.retries
            or self.deadline_seconds
            or self.checkpoint_dir
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy.from_spec(
            self.backoff,
            base_seconds=self.backoff_base_seconds,
            cap_seconds=self.backoff_cap_seconds,
        )


#: The recover-worker-death-only default every process starts with.
DEFAULT_SUPERVISOR = SupervisorConfig()

_active = AmbientState("exec.supervisor", DEFAULT_SUPERVISOR)


def get_supervisor_config() -> SupervisorConfig:
    """The active supervisor config: this thread's innermost
    :func:`supervision` override, else the process default."""
    return _active.get()


def set_supervisor_config(
    config: Optional[SupervisorConfig],
) -> SupervisorConfig:
    """Install the process-wide default; returns the previous one
    (None = default)."""
    previous = _active.get_default()
    _active.set(config if config is not None else DEFAULT_SUPERVISOR)
    return previous


@contextmanager
def supervision(config: SupervisorConfig) -> Iterator[SupervisorConfig]:
    """Context manager: install ``config`` for the duration of the block.

    Thread-scoped, so each serve job thread supervises its own run."""
    with _active.scoped(config if config is not None else DEFAULT_SUPERVISOR):
        yield config


# -- chaos injection -----------------------------------------------------


@dataclass
class ChaosPlan:
    """Deterministic mid-sweep failures for the chaos harness.

    ``kill_workers`` first-attempt task submissions are marked for
    worker suicide (the worker ``SIGKILL``s itself before touching the
    task — the parent observes a broken pool exactly as if the OOM
    killer struck); ``hang_points`` further submissions sleep
    ``hang_seconds`` before working, which a configured deadline then
    cuts short.  Victims are the first distinct task keys submitted, so
    a plan is reproducible for a fixed sweep; each key suffers at most
    one chaos effect, and a re-dispatched task is never re-killed —
    recovery must be able to finish.
    """

    kill_workers: int = 0
    hang_points: int = 0
    hang_seconds: float = 30.0
    seed: int = 0
    _killed: Set[Any] = field(default_factory=set, repr=False)
    _hung: Set[Any] = field(default_factory=set, repr=False)

    def claim_kill(self, key: Any) -> bool:
        if len(self._killed) >= self.kill_workers or key in self._killed:
            return False
        if key in self._hung:
            return False
        self._killed.add(key)
        return True

    def claim_hang(self, key: Any) -> bool:
        if len(self._hung) >= self.hang_points or key in self._hung:
            return False
        if key in self._killed:
            return False
        self._hung.add(key)
        return True

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kill_workers": self.kill_workers,
            "killed": sorted(str(k) for k in self._killed),
            "hang_points": self.hang_points,
            "hung": sorted(str(k) for k in self._hung),
        }


_chaos: AmbientState = AmbientState("exec.chaos", None)


def get_chaos_plan() -> Optional[ChaosPlan]:
    """The installed chaos plan — this thread's innermost
    :func:`chaos_injection` override, else the process default — or
    None (the overwhelmingly common case)."""
    return _chaos.get()


def set_chaos_plan(plan: Optional[ChaosPlan]) -> Optional[ChaosPlan]:
    """Install the process-wide default plan; returns the previous one."""
    previous = _chaos.get_default()
    _chaos.set(plan)
    return previous


@contextmanager
def chaos_injection(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Context manager: install ``plan`` for the duration of the block.

    Thread-scoped, so one thread's chaos never marks another thread's
    supervised tasks."""
    with _chaos.scoped(plan):
        yield plan


# -- worker entry --------------------------------------------------------

#: Task entry points by name; tasks ship the *name*, workers resolve it
#: locally, so task dicts stay small and import order stays lazy.
_ENTRIES: Dict[str, str] = {
    "barrier_shard": "repro.exec.shards:run_barrier_shard",
    "tree_shard": "repro.exec.shards:run_tree_shard",
    "experiment_point": "repro.exec.shards:run_experiment_point",
    "fault_point": "repro.faults.runner:run_fault_point_task",
}


def register_entry(name: str, target: str) -> None:
    """Register a supervised task entry (``target`` = "module:callable").

    The extension hook tests and future runners use to route their own
    work through :func:`run_supervised`.
    """
    if ":" not in target:
        raise ValueError(f"target must be 'module:callable', got {target!r}")
    _ENTRIES[name] = target


def resolve_entry(name: str) -> Callable[[Any], Any]:
    """The callable a task entry name refers to."""
    try:
        target = _ENTRIES[name]
    except KeyError:
        raise ValueError(f"unknown supervised entry {name!r}") from None
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def run_supervised_task(task: Dict[str, Any]) -> Any:
    """Pool-worker entry for every supervised task.

    Applies the chaos markers (worker suicide / pre-task hang), drops
    the state the worker inherited from its parent
    (:func:`repro.exec.shards.reset_worker_state`) and the per-attempt
    deadline, then dispatches to the named entry.  Both the hang and
    the real work run *inside* the deadline, which is how a hung point
    is cut short instead of stalling the sweep.
    """
    from repro.exec.shards import reset_worker_state

    if task.get("chaos_kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    entry = resolve_entry(task["entry"])
    reset_worker_state()
    with time_limit(task.get("deadline_seconds")):
        hang = task.get("chaos_hang_seconds")
        if hang:
            time.sleep(hang)
        return entry(task["payload"])


# -- supervised fan-out --------------------------------------------------


@dataclass
class SupervisionOutcome:
    """What supervised fan-out produced, and what it took to get there."""

    #: Per-key results, for every key that eventually succeeded.
    results: Dict[Any, Any] = field(default_factory=dict)
    #: Per-key terminal failures (the original exception), after retries.
    errors: Dict[Any, BaseException] = field(default_factory=dict)
    #: Attempts actually charged to each key (worker death not counted).
    attempts: Dict[Any, int] = field(default_factory=dict)
    worker_deaths: int = 0
    retries: int = 0

    def raise_first_error(self, keys: Any) -> None:
        """Re-raise the first error in ``keys`` order, if any."""
        for key in keys:
            if key in self.errors:
                raise self.errors[key]


def run_supervised(
    tasks: Dict[Any, Any],
    *,
    entry: str,
    get_pool: Callable[[], Any],
    discard_pool: Callable[[], None],
    config: Optional[SupervisorConfig] = None,
    on_result: Optional[Callable[[Any, Any], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> SupervisionOutcome:
    """Fan ``tasks`` (key → picklable payload) across a supervised pool.

    The single fan-out primitive behind the exec engine.  Work proceeds in rounds: every pending key is submitted,
    results are collected, and three failure classes are handled
    distinctly —

    - **worker death** (``BrokenProcessPool``): the pool is discarded
      and respawned via ``discard_pool``/``get_pool``, and only the
      keys whose futures were lost are re-dispatched.  Bounded by
      ``config.respawns`` per call; the attempt is *not* charged to the
      point (infrastructure failed, not the point).
    - **task failure** (any exception out of the task, including
      :class:`PointTimeoutError` from a worker-side deadline): retried
      up to ``config.retries`` times, waiting out the
      :class:`RetryPolicy` schedule between rounds; afterwards the
      original exception lands in ``outcome.errors``.
    - **interrupt** (``KeyboardInterrupt``/``SystemExit``): propagates
      immediately; completed results up to that point were already
      delivered through ``on_result``.

    ``on_result(key, value)`` fires as soon as a key succeeds — the
    checkpoint hook, so a crash after N points preserves N points.
    """
    if config is None:
        config = get_supervisor_config()
    policy = config.retry_policy()
    tracer = get_tracer()
    stats = get_stats()
    chaos = get_chaos_plan()
    outcome = SupervisionOutcome(attempts={key: 0 for key in tasks})
    respawns_left = config.respawns
    pending: List[Any] = list(tasks)

    while pending:
        pool = get_pool()
        round_keys, pending = pending, []
        futures: Dict[Any, Any] = {}
        submit_lost: List[Any] = []
        for position, key in enumerate(round_keys):
            task: Dict[str, Any] = {"entry": entry, "payload": tasks[key]}
            if config.deadline_seconds:
                task["deadline_seconds"] = config.deadline_seconds
            if chaos is not None and outcome.attempts[key] == 0:
                if chaos.claim_kill(key):
                    task["chaos_kill"] = True
                elif chaos.claim_hang(key):
                    task["chaos_hang_seconds"] = chaos.hang_seconds
            outcome.attempts[key] += 1
            try:
                futures[pool.submit(run_supervised_task, task)] = key
            except (BrokenExecutor, RuntimeError):
                # The pool broke under us mid-submission; everything
                # not yet submitted in this round is lost with it.
                submit_lost = round_keys[position:]
                outcome.attempts[key] -= 1
                break

        lost: List[Any] = list(submit_lost)
        retry_keys: List[Any] = []
        for future, key in futures.items():
            try:
                result = future.result()
            except BrokenExecutor:
                # The worker running (or queued to run) this key died;
                # infrastructure failure, so no attempt is charged.
                outcome.attempts[key] -= 1
                lost.append(key)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:  # noqa: BLE001 - supervision boundary
                if outcome.attempts[key] <= config.retries:
                    retry_keys.append(key)
                else:
                    outcome.errors[key] = error
            else:
                outcome.results[key] = result
                if on_result is not None:
                    on_result(key, result)

        if lost:
            outcome.worker_deaths += 1
            stats.worker_deaths += 1
            tracer.count("exec.worker_deaths")
            discard_pool()
            if respawns_left <= 0:
                raise SupervisionError(
                    f"worker pool died {outcome.worker_deaths} time(s) and "
                    f"the respawn budget ({config.respawns}) is exhausted; "
                    f"{len(lost)} task(s) were never completed"
                )
            respawns_left -= 1

        if retry_keys:
            outcome.retries += len(retry_keys)
            stats.retries += len(retry_keys)
            tracer.count("exec.retries", len(retry_keys))
            wait = max(
                policy.wait_seconds(outcome.attempts[key])
                for key in retry_keys
            )
            if wait > 0:
                sleep(wait)

        # Lost keys first: they were in flight before the retries were.
        pending = lost + retry_keys

    return outcome


def call_supervised(
    fn: Callable[[], Any],
    *,
    config: Optional[SupervisorConfig] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Run ``fn`` inline under the retry/deadline discipline.

    The serial (``jobs=1``) counterpart of :func:`run_supervised`, so a
    ``--retries``/``--deadline`` surface behaves identically whether or
    not a pool is involved.  With the default config this is a plain
    call — no wrapper state, no overhead.
    """
    if config is None:
        config = get_supervisor_config()
    if not config.retries and not config.deadline_seconds:
        return fn()
    policy = config.retry_policy()
    tracer = get_tracer()
    stats = get_stats()
    for attempt in range(1, config.retries + 2):
        try:
            with time_limit(config.deadline_seconds):
                return fn()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            if attempt > config.retries:
                raise
            stats.retries += 1
            tracer.count("exec.retries")
            sleep(policy.wait_seconds(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


# -- durable per-point records (checkpoint/resume) -----------------------


@dataclass
class PointRecord:
    """The durable outcome of one sweep point."""

    key: str
    status: str
    attempts: int = 1
    wall_time_seconds: float = 0.0
    data: Any = None
    fault_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_seconds": self.wall_time_seconds,
            "data": jsonable(self.data),
            "fault_counts": jsonable(self.fault_counts),
            "error": self.error,
        }
        payload["digest"] = record_digest(payload)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PointRecord":
        return cls(
            key=payload["key"],
            status=payload["status"],
            attempts=payload.get("attempts", 1),
            wall_time_seconds=payload.get("wall_time_seconds", 0.0),
            data=payload.get("data"),
            fault_counts=payload.get("fault_counts", {}) or {},
            error=payload.get("error"),
        )

    @property
    def done(self) -> bool:
        """True if this point never needs to run again."""
        return self.status in (COMPLETED, DEGRADED)


def record_digest(payload: Dict[str, Any]) -> str:
    """Integrity digest over the fields that make a record meaningful."""
    deterministic = {
        "key": payload["key"],
        "status": payload["status"],
        "data": payload.get("data"),
        "fault_counts": payload.get("fault_counts", {}),
    }
    blob = json.dumps(deterministic, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def safe_filename(key: str) -> str:
    return "".join(c if c.isalnum() or c in "-._=" else "_" for c in key)


def config_digest(payload: Dict[str, Any]) -> str:
    """Digest identifying a checkpoint's configuration (experiment,
    plan, seed, point set); a mismatch means the directory belongs to a
    different sweep."""
    blob = json.dumps(jsonable(payload), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Directory-backed per-point checkpoints for one sweep."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.points_dir = os.path.join(self.directory, "points")
        self.meta_path = os.path.join(self.directory, "checkpoint.json")

    def clear(self) -> None:
        """Delete the checkpoint (start the sweep from scratch)."""
        if os.path.isdir(self.directory):
            shutil.rmtree(self.directory)

    def _ensure_dirs(self) -> None:
        os.makedirs(self.points_dir, exist_ok=True)

    def write_meta(self, meta: Dict[str, Any]) -> None:
        self._ensure_dirs()
        payload = dict(meta)
        payload["version"] = CHECKPOINT_VERSION
        payload["git_rev"] = git_revision()
        with open(self.meta_path, "w", encoding="utf-8") as handle:
            json.dump(jsonable(payload), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def load(self, config_digest: str) -> Dict[str, PointRecord]:
        """Completed/degraded/failed points recorded by a prior run.

        Raises:
            CheckpointMismatchError: the directory holds a checkpoint
                for a different configuration (different experiment,
                plan, seed or point set).  Pass ``fresh=True`` (CLI:
                ``--fresh``) to discard it instead.
        """
        if not os.path.isfile(self.meta_path):
            return {}
        with open(self.meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        recorded = meta.get("config_digest")
        if recorded != config_digest:
            raise CheckpointMismatchError(
                f"checkpoint at {self.directory!r} was written by a different "
                f"configuration (digest {recorded!r} != {config_digest!r}); "
                "rerun with fresh=True / --fresh to discard it"
            )
        records: Dict[str, PointRecord] = {}
        if os.path.isdir(self.points_dir):
            for filename in sorted(os.listdir(self.points_dir)):
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(self.points_dir, filename)
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    if payload.get("digest") != record_digest(payload):
                        continue  # corrupt or hand-edited: recompute it
                    record = PointRecord.from_dict(payload)
                except (OSError, ValueError, KeyError):
                    continue  # a torn write from a crash: recompute it
                records[record.key] = record
        return records

    def save_point(self, record: PointRecord) -> str:
        self._ensure_dirs()
        path = os.path.join(
            self.points_dir, f"{safe_filename(record.key)}.json"
        )
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(record.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)  # atomic: a crash never tears a point
        return path


def open_experiment_checkpoint(
    experiment_id: str,
    points: Dict[str, dict],
    seed: int,
    config: SupervisorConfig,
    plan_spec: Optional[str] = None,
) -> Tuple[CheckpointStore, Dict[str, PointRecord]]:
    """The universal checkpoint for one registry experiment's point set.

    Called by :func:`repro.exec.engine.execute_experiment_points` when
    ``config.checkpoint_dir`` is set, for plain and fault-plan sweeps
    alike.  Without ``resume`` any prior checkpoint in the directory is
    discarded; with it, records whose configuration digest matches are
    loaded (a mismatch raises :class:`CheckpointMismatchError` rather
    than silently mixing sweeps) and digest-verified point-by-point.
    A fault sweep's identity also covers its ``plan_spec``.
    """
    identity: Dict[str, Any] = {
        "experiment_id": experiment_id,
        "seed": seed,
        "points": {key: kwargs for key, kwargs in points.items()},
    }
    if plan_spec is None:
        identity["kind"] = "experiment"
    else:
        identity["plan_spec"] = plan_spec
    digest = config_digest(identity)
    store = CheckpointStore(config.checkpoint_dir)
    if config.resume:
        existing = store.load(digest)
    else:
        store.clear()
        existing = {}
    meta = {
        "experiment_id": experiment_id,
        "seed": seed,
        "config_digest": digest,
        "points": sorted(points),
    }
    if plan_spec is not None:
        meta["plan_spec"] = plan_spec
    store.write_meta(meta)
    return store, existing
