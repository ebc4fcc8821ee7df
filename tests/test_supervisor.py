"""Tests for repro.exec.supervisor: crash-proof supervised execution.

The load-bearing guarantees:

- A killed worker (``BrokenProcessPool``) never loses a sweep: the
  pool respawns, only the lost tasks re-dispatch, and the results are
  **bit-identical** to an undisturbed run.
- Retry waits follow the repository's own backoff policies, and the
  default exponential schedule reproduces the faults runner's
  historical ``base * 2**(n-1)`` exactly.
- Deadlines engage via ``SIGALRM`` on the main thread and degrade
  *observably* (``exec.deadline_unenforced``) elsewhere.
- Checkpoints are digest-verified: a truncated or hand-edited record
  reads as absent and is recomputed, never trusted.
- A corrupted cache entry is quarantined (moved aside + counted), the
  point recomputes, and the slot heals on the next put.
"""

import json
import os
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor

import pytest

from repro.barrier.simulator import simulate_barrier
from repro.core.backoff import ExponentialFlagBackoff
from repro.exec.cache import ResultCache, QUARANTINE_DIR
from repro.exec.context import ExecConfig, execution, get_stats, reset_stats
from repro.exec.engine import (
    execute_barrier_points,
    execute_experiment_points,
    PointSpec,
    shutdown_pools,
)
from repro.exec.supervisor import (
    COMPLETED,
    ChaosPlan,
    CheckpointMismatchError,
    CheckpointStore,
    PointRecord,
    PointTimeoutError,
    RetryPolicy,
    SupervisionError,
    SupervisorConfig,
    call_supervised,
    chaos_injection,
    config_digest,
    deadline_enforceable,
    parse_backoff_spec,
    register_entry,
    run_supervised,
    safe_filename,
    supervision,
    time_limit,
)
from repro.obs.tracer import Tracer, tracing
from repro.registry.spec import get_spec

# Tiny sweep shapes (mirrors test_exec.py): the guarantees are exact
# equalities, so a handful of repetitions prove as much as the grid.
N_VALUES = (2, 4)
REPS = 6


@pytest.fixture(autouse=True)
def _clean_state():
    reset_stats()
    _CALLS.clear()
    yield
    reset_stats()
    _CALLS.clear()


# -- retry scheduling ----------------------------------------------------


class TestRetryPolicy:
    def test_default_exponential_matches_legacy_faults_schedule(self):
        policy = RetryPolicy(base_seconds=0.05)
        for failures in range(1, 6):
            assert policy.wait_seconds(failures) == pytest.approx(
                0.05 * 2 ** (failures - 1)
            )

    def test_linear_schedule_scales_by_attempt(self):
        policy = RetryPolicy.from_spec("linear", base_seconds=0.1)
        assert [policy.wait_seconds(n) for n in (1, 2, 3)] == pytest.approx(
            [0.1, 0.2, 0.3]
        )

    def test_none_retries_immediately(self):
        policy = RetryPolicy.from_spec("none")
        assert policy.wait_seconds(1) == 0.0
        assert policy.wait_seconds(7) == 0.0

    def test_cap_bounds_deep_retries(self):
        policy = RetryPolicy(base_seconds=1.0, cap_seconds=3.0)
        assert policy.wait_seconds(10) == 3.0

    def test_explicit_base_option(self):
        policy = RetryPolicy.from_spec("exponential:base=3", base_seconds=0.1)
        assert policy.wait_seconds(3) == pytest.approx(0.1 * 9)

    def test_first_wait_always_equals_base_seconds(self):
        for spec in ("exponential", "exponential:base=5", "linear:step=3"):
            policy = RetryPolicy.from_spec(spec, base_seconds=0.2)
            assert policy.wait_seconds(1) == pytest.approx(0.2)

    def test_rejects_bad_failure_count(self):
        with pytest.raises(ValueError):
            RetryPolicy().wait_seconds(0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(cap_seconds=0)


class TestParseBackoffSpec:
    def test_accepts_known_policies(self):
        assert parse_backoff_spec("exponential").flag_wait(2) == 4
        assert parse_backoff_spec("linear:step=2").flag_wait(3) == 6
        assert parse_backoff_spec("none").flag_wait(3) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "polynomial",
            "exponential:base",
            "exponential:base=two",
            "exponential:step=2",
            "linear:base=2",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_backoff_spec(bad)


# -- supervisor configuration -------------------------------------------


class TestSupervisorConfig:
    def test_default_is_inert(self):
        config = SupervisorConfig()
        assert not config.active
        assert config.respawns == 2

    def test_active_flags(self):
        assert SupervisorConfig(retries=1).active
        assert SupervisorConfig(deadline_seconds=5.0).active
        assert SupervisorConfig(checkpoint_dir="/tmp/x").active

    def test_validates_at_construction(self):
        with pytest.raises(ValueError):
            SupervisorConfig(retries=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(respawns=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_seconds=0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff="polynomial")

    def test_retry_schedule_validated_at_construction(self):
        with pytest.raises(ValueError, match="base_seconds"):
            SupervisorConfig(backoff_base_seconds=-0.5)
        with pytest.raises(ValueError, match="cap_seconds"):
            SupervisorConfig(backoff_cap_seconds=0)

    def test_supervision_restores_previous(self):
        from repro.exec.supervisor import get_supervisor_config

        before = get_supervisor_config()
        with supervision(SupervisorConfig(retries=3)) as installed:
            assert get_supervisor_config() is installed
        assert get_supervisor_config() is before


class TestChaosPlan:
    def test_kill_budget_is_bounded(self):
        plan = ChaosPlan(kill_workers=1)
        assert plan.claim_kill("a")
        assert not plan.claim_kill("b")
        assert not plan.claim_kill("a")  # never the same key twice

    def test_one_effect_per_key(self):
        plan = ChaosPlan(kill_workers=1, hang_points=1)
        assert plan.claim_kill("a")
        assert not plan.claim_hang("a")
        assert plan.claim_hang("b")
        assert not plan.claim_kill("b")

    def test_snapshot_names_victims(self):
        plan = ChaosPlan(kill_workers=1)
        plan.claim_kill("N=2")
        assert plan.snapshot()["killed"] == ["N=2"]

    def test_chaos_injection_is_thread_scoped(self):
        import threading

        from repro.exec.supervisor import get_chaos_plan, set_chaos_plan

        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with chaos_injection(ChaosPlan(kill_workers=1)) as plan:
                seen["holder"] = get_chaos_plan() is plan
                entered.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10)
            assert get_chaos_plan() is None
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()
        assert seen["holder"]
        # set_chaos_plan still installs the process default everywhere.
        default = ChaosPlan(kill_workers=1)
        assert set_chaos_plan(default) is None
        try:
            other = threading.Thread(
                target=lambda: seen.update(other=get_chaos_plan())
            )
            other.start()
            other.join(10)
            assert not other.is_alive()
            assert seen["other"] is default
        finally:
            set_chaos_plan(None)


# -- deadlines ----------------------------------------------------------


class TestTimeLimit:
    def test_cuts_a_hung_block_short(self):
        if not deadline_enforceable():
            pytest.skip("SIGALRM unavailable on this platform/thread")
        started = time.monotonic()
        with pytest.raises(PointTimeoutError):
            with time_limit(0.05):
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0

    def test_no_budget_means_no_alarm(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass

    def test_falls_back_unbounded_off_main_thread(self):
        tracer = Tracer(run_id="deadline-test")
        outcome = {}

        def work():
            # Off the main thread SIGALRM cannot engage: the block must
            # run to completion and the fallback must be counted.  The
            # tracer is installed *on this thread* — tracing() overrides
            # are thread-scoped, exactly how a serve job thread holds
            # its own tracer while enforcing deadlines.
            with tracing(tracer):
                with time_limit(0.01):
                    time.sleep(0.05)
            outcome["done"] = True

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert outcome["done"]
        counters = tracer.snapshot()["counters"]
        assert counters["exec.deadline_unenforced"] == 1


# -- inline supervision (call_supervised) --------------------------------


class TestCallSupervised:
    def test_default_config_is_a_plain_call(self):
        assert call_supervised(lambda: 42) == 42

    def test_retries_follow_the_backoff_schedule(self):
        attempts = []
        sleeps = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("transient")
            return "ok"

        config = SupervisorConfig(
            retries=3, backoff="exponential", backoff_base_seconds=0.05
        )
        result = call_supervised(flaky, config=config, sleep=sleeps.append)
        assert result == "ok"
        assert len(attempts) == 3
        assert sleeps == pytest.approx([0.05, 0.1])
        assert get_stats().retries == 2

    def test_raises_original_error_after_budget(self):
        config = SupervisorConfig(retries=2, backoff="none")
        calls = []

        def always_fails():
            calls.append(1)
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            call_supervised(always_fails, config=config, sleep=lambda _: None)
        assert len(calls) == 3  # 1 try + 2 retries

    def test_deadline_times_out_a_hung_point(self):
        if not deadline_enforceable():
            pytest.skip("SIGALRM unavailable on this platform/thread")
        config = SupervisorConfig(deadline_seconds=0.05)
        with pytest.raises(PointTimeoutError):
            call_supervised(lambda: time.sleep(5.0), config=config)

    def test_keyboard_interrupt_is_never_retried(self):
        config = SupervisorConfig(retries=5, backoff="none")
        calls = []

        def interrupted():
            calls.append(1)
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            call_supervised(interrupted, config=config, sleep=lambda _: None)
        assert len(calls) == 1


# -- supervised fan-out over a (fake) pool -------------------------------

#: Per-key call counts for the flaky test entry, reset per test.
_CALLS = {}


def _flaky_entry(payload):
    """Supervised test entry: fails ``fail_times`` times, then echoes."""
    key = payload["key"]
    _CALLS[key] = _CALLS.get(key, 0) + 1
    if _CALLS[key] <= payload.get("fail_times", 0):
        raise ValueError(f"injected failure for {key}")
    return payload.get("value", key)


register_entry("supervisor_test", "tests.test_supervisor:_flaky_entry")


class FakeFuture:
    def __init__(self, value=None, error=None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class FakePool:
    """An eager in-process stand-in for ProcessPoolExecutor.

    ``lethal=True`` simulates a worker death: every future of the
    round raises ``BrokenExecutor``, which is exactly how a real
    broken pool poisons its pending futures.
    """

    def __init__(self, lethal=False):
        self.lethal = lethal
        self.tasks = []

    def submit(self, fn, task):
        self.tasks.append(task)
        if self.lethal or task.get("chaos_kill"):
            return FakeFuture(error=BrokenExecutor("worker died"))
        try:
            return FakeFuture(value=fn(task))
        except BaseException as error:  # noqa: BLE001 - test double
            return FakeFuture(error=error)


class _PoolManager:
    """get_pool/discard_pool closure: pools[i] serves generation i."""

    def __init__(self, *pools):
        self.pools = list(pools)
        self.generation = 0
        self.discards = 0

    def get_pool(self):
        return self.pools[min(self.generation, len(self.pools) - 1)]

    def discard_pool(self):
        self.discards += 1
        self.generation += 1


def _tasks(*keys, **extra):
    return {key: dict(key=key, **extra) for key in keys}


class TestRunSupervised:
    def test_clean_round_delivers_everything(self):
        manager = _PoolManager(FakePool())
        delivered = {}
        outcome = run_supervised(
            _tasks("a", "b", "c"),
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
            on_result=delivered.__setitem__,
        )
        assert outcome.results == {"a": "a", "b": "b", "c": "c"}
        assert delivered == outcome.results
        assert outcome.errors == {}
        assert outcome.attempts == {"a": 1, "b": 1, "c": 1}
        assert outcome.worker_deaths == 0
        assert manager.discards == 0

    def test_worker_death_respawns_and_redispatches(self):
        manager = _PoolManager(FakePool(lethal=True), FakePool())
        outcome = run_supervised(
            _tasks("a", "b"),
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
        )
        assert outcome.results == {"a": "a", "b": "b"}
        assert outcome.worker_deaths == 1
        assert manager.discards == 1
        # Infrastructure death is not charged as a point attempt.
        assert outcome.attempts == {"a": 1, "b": 1}
        assert get_stats().worker_deaths == 1

    def test_respawn_budget_exhaustion_raises(self):
        manager = _PoolManager(FakePool(lethal=True))
        with pytest.raises(SupervisionError, match="respawn budget"):
            run_supervised(
                _tasks("a"),
                entry="supervisor_test",
                get_pool=manager.get_pool,
                discard_pool=manager.discard_pool,
                config=SupervisorConfig(respawns=0),
            )

    def test_task_failures_retry_on_the_backoff_schedule(self):
        manager = _PoolManager(FakePool())
        sleeps = []
        outcome = run_supervised(
            _tasks("a", "b", fail_times=2),
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
            config=SupervisorConfig(
                retries=2, backoff="exponential", backoff_base_seconds=0.05
            ),
            sleep=sleeps.append,
        )
        assert outcome.results == {"a": "a", "b": "b"}
        assert outcome.attempts == {"a": 3, "b": 3}
        assert outcome.retries == 4  # two keys, two retry rounds each
        # One wait per retry *round* (keys retry together).
        assert sleeps == pytest.approx([0.05, 0.1])
        assert get_stats().retries == 4

    def test_exhausted_retries_surface_the_original_error(self):
        manager = _PoolManager(FakePool())
        tasks = _tasks("a", fail_times=99)
        outcome = run_supervised(
            tasks,
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
            config=SupervisorConfig(retries=1, backoff="none"),
        )
        assert outcome.results == {}
        assert isinstance(outcome.errors["a"], ValueError)
        with pytest.raises(ValueError, match="injected failure"):
            outcome.raise_first_error(tasks)

    def test_submit_time_breakage_loses_only_the_tail(self):
        class SubmitBrokenPool(FakePool):
            def submit(self, fn, task):
                if len(self.tasks) >= 1:
                    raise BrokenExecutor("pool broke mid-submission")
                return super().submit(fn, task)

        manager = _PoolManager(SubmitBrokenPool(), FakePool())
        outcome = run_supervised(
            _tasks("a", "b", "c"),
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
        )
        assert outcome.results == {"a": "a", "b": "b", "c": "c"}
        assert outcome.worker_deaths == 1
        assert outcome.attempts == {"a": 1, "b": 1, "c": 1}

    def test_chaos_kill_marks_exactly_one_first_attempt(self):
        first, second = FakePool(), FakePool()
        manager = _PoolManager(first, second)
        with chaos_injection(ChaosPlan(kill_workers=1)):
            outcome = run_supervised(
                _tasks("a", "b"),
                entry="supervisor_test",
                get_pool=manager.get_pool,
                discard_pool=manager.discard_pool,
            )
        assert outcome.results == {"a": "a", "b": "b"}
        assert outcome.worker_deaths == 1
        killed = [t for t in first.tasks if t.get("chaos_kill")]
        assert len(killed) == 1
        # A re-dispatched task is never re-killed: recovery must finish.
        assert not any(t.get("chaos_kill") for t in second.tasks)

    def test_chaos_hang_is_cut_short_by_the_deadline_and_retried(self):
        if not deadline_enforceable():
            pytest.skip("SIGALRM unavailable on this platform/thread")
        manager = _PoolManager(FakePool())
        with chaos_injection(ChaosPlan(hang_points=1, hang_seconds=5.0)):
            outcome = run_supervised(
                _tasks("a"),
                entry="supervisor_test",
                get_pool=manager.get_pool,
                discard_pool=manager.discard_pool,
                config=SupervisorConfig(retries=1, deadline_seconds=0.05),
                sleep=lambda _: None,
            )
        assert outcome.results == {"a": "a"}
        assert outcome.retries == 1
        assert outcome.attempts == {"a": 2}

    def test_deadline_travels_in_the_task(self):
        pool = FakePool()
        manager = _PoolManager(pool)
        run_supervised(
            _tasks("a"),
            entry="supervisor_test",
            get_pool=manager.get_pool,
            discard_pool=manager.discard_pool,
            config=SupervisorConfig(deadline_seconds=7.0),
        )
        assert pool.tasks[0]["deadline_seconds"] == 7.0

    def test_unknown_entry_is_an_error(self):
        from repro.exec.supervisor import run_supervised_task

        with pytest.raises(ValueError, match="unknown supervised entry"):
            run_supervised_task({"entry": "no-such-entry", "payload": {}})

    def test_register_entry_validates_target(self):
        with pytest.raises(ValueError, match="module:callable"):
            register_entry("bad", "not-a-target")


# -- real-pool integration: kill a worker, results stay bit-identical ----


class TestWorkerDeathIntegration:
    def test_barrier_sweep_survives_sigkill_bit_identically(self):
        serial = simulate_barrier(
            4, 100, ExponentialFlagBackoff(base=2), repetitions=REPS, seed=3
        )
        with chaos_injection(ChaosPlan(kill_workers=1)):
            with execution(ExecConfig(jobs=2, force_engine=True)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    survived = simulate_barrier(
                        4, 100, ExponentialFlagBackoff(base=2),
                        repetitions=REPS, seed=3,
                    )
        shutdown_pools(wait=False)
        assert vars(serial.accesses) == vars(survived.accesses)
        assert vars(serial.waiting) == vars(survived.waiting)
        assert get_stats().worker_deaths >= 1

    def test_experiment_points_survive_sigkill_bit_identically(self):
        spec = get_spec("figure5")
        params = spec.resolve({"n_values": N_VALUES, "repetitions": 2})
        points = spec.points(params)
        seed = int(params.get("seed") or 0)

        baseline = execute_experiment_points(
            "figure5", points, seed, ExecConfig(jobs=1, force_engine=True)
        )
        with chaos_injection(ChaosPlan(kill_workers=1)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                survived = execute_experiment_points(
                    "figure5", points, seed, ExecConfig(jobs=2)
                )
        shutdown_pools(wait=False)
        assert survived == baseline
        assert get_stats().worker_deaths >= 1


# -- universal checkpoint/resume ----------------------------------------


class TestExperimentCheckpointResume:
    def _points(self):
        spec = get_spec("figure5")
        params = spec.resolve({"n_values": N_VALUES, "repetitions": 2})
        return spec.points(params), int(params.get("seed") or 0)

    def test_truncated_record_is_recomputed_with_identical_results(
        self, tmp_path
    ):
        points, seed = self._points()
        checkpoint_dir = str(tmp_path / "ckpt")
        config = ExecConfig(jobs=1, force_engine=True)

        with supervision(SupervisorConfig(checkpoint_dir=checkpoint_dir)):
            first = execute_experiment_points("figure5", points, seed, config)

        # Tear one record mid-file, as a crash during a write would.
        victim = sorted(points)[0]
        record_path = os.path.join(
            checkpoint_dir, "points", f"{safe_filename(victim)}.json"
        )
        blob = open(record_path, "r", encoding="utf-8").read()
        with open(record_path, "w", encoding="utf-8") as handle:
            handle.write(blob[: len(blob) // 2])

        reset_stats()
        with supervision(
            SupervisorConfig(checkpoint_dir=checkpoint_dir, resume=True)
        ):
            second = execute_experiment_points("figure5", points, seed, config)

        assert second == first
        # Every intact point replayed; only the torn one recomputed.
        assert get_stats().points_resumed == len(points) - 1

    def test_hand_edited_record_fails_integrity_and_recomputes(
        self, tmp_path
    ):
        points, seed = self._points()
        checkpoint_dir = str(tmp_path / "ckpt")
        config = ExecConfig(jobs=1, force_engine=True)
        with supervision(SupervisorConfig(checkpoint_dir=checkpoint_dir)):
            first = execute_experiment_points("figure5", points, seed, config)

        victim = sorted(points)[0]
        record_path = os.path.join(
            checkpoint_dir, "points", f"{safe_filename(victim)}.json"
        )
        payload = json.load(open(record_path, "r", encoding="utf-8"))
        payload["data"] = {"tampered": True}  # digest now stale
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        reset_stats()
        with supervision(
            SupervisorConfig(checkpoint_dir=checkpoint_dir, resume=True)
        ):
            second = execute_experiment_points("figure5", points, seed, config)
        assert second == first  # tampered data was never trusted
        assert get_stats().points_resumed == len(points) - 1

    def test_resume_against_a_different_sweep_is_refused(self, tmp_path):
        points, seed = self._points()
        checkpoint_dir = str(tmp_path / "ckpt")
        config = ExecConfig(jobs=1, force_engine=True)
        with supervision(SupervisorConfig(checkpoint_dir=checkpoint_dir)):
            execute_experiment_points("figure5", points, seed, config)

        spec = get_spec("figure5")
        other_params = spec.resolve({"n_values": (8,), "repetitions": 2})
        other_points = spec.points(other_params)
        with supervision(
            SupervisorConfig(checkpoint_dir=checkpoint_dir, resume=True)
        ):
            with pytest.raises(CheckpointMismatchError):
                execute_experiment_points(
                    "figure5", other_points, seed, config
                )

    def test_fresh_run_discards_a_stale_checkpoint(self, tmp_path):
        points, seed = self._points()
        checkpoint_dir = str(tmp_path / "ckpt")
        config = ExecConfig(jobs=1, force_engine=True)
        with supervision(SupervisorConfig(checkpoint_dir=checkpoint_dir)):
            execute_experiment_points("figure5", points, seed, config)
        # resume=False (the default) clears and restarts from scratch.
        reset_stats()
        with supervision(SupervisorConfig(checkpoint_dir=checkpoint_dir)):
            execute_experiment_points("figure5", points, seed, config)
        assert get_stats().points_resumed == 0


class TestCheckpointStore:
    def test_save_and_load_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        digest = config_digest({"kind": "test", "points": ["a"]})
        store.write_meta({"config_digest": digest})
        store.save_point(
            PointRecord(key="a", status=COMPLETED, data={"x": 1})
        )
        records = store.load(digest)
        assert records["a"].data == {"x": 1}
        assert records["a"].done

    def test_mismatched_digest_refuses_to_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.write_meta({"config_digest": "aaa"})
        with pytest.raises(CheckpointMismatchError):
            store.load("bbb")

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "nowhere"))
        assert store.load("anything") == {}


# -- cache quarantine ----------------------------------------------------


class TestCacheQuarantine:
    def _put(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        path = cache.put(key, {"value": 7})
        return cache, key, path

    def test_unparseable_entry_is_quarantined_and_heals(self, tmp_path):
        cache, key, path = self._put(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "key": ')  # torn write

        assert cache.get(key) is None
        assert not os.path.exists(path)  # moved aside, not left to rot
        quarantined = os.listdir(
            os.path.join(cache.directory, QUARANTINE_DIR)
        )
        assert len(quarantined) == 1
        assert get_stats().cache_quarantined == 1

        # Second read is a plain miss: no double-count, nothing to move.
        assert cache.get(key) is None
        assert get_stats().cache_quarantined == 1

        # The slot heals on the next put.
        cache.put(key, {"value": 7})
        assert cache.get(key) == {"value": 7}

    def test_integrity_digest_mismatch_is_quarantined(self, tmp_path):
        cache, key, path = self._put(tmp_path)
        entry = json.load(open(path, "r", encoding="utf-8"))
        entry["payload"] = {"value": 999}  # digest now stale
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        assert cache.get(key) is None
        assert get_stats().cache_quarantined == 1
        assert os.listdir(os.path.join(cache.directory, QUARANTINE_DIR))

    def test_quarantine_counts_on_the_tracer(self, tmp_path):
        cache, key, path = self._put(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json")
        tracer = Tracer(run_id="quarantine-test")
        with tracing(tracer):
            assert cache.get(key) is None
        assert tracer.snapshot()["counters"]["exec.cache_quarantined"] == 1

    def test_foreign_entry_is_a_plain_miss_not_quarantined(self, tmp_path):
        cache, key, path = self._put(tmp_path)
        entry = json.load(open(path, "r", encoding="utf-8"))
        entry["key"] = "f" * 64  # someone else's entry in our slot
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        assert cache.get(key) is None
        assert os.path.exists(path)  # nothing wrong with it: left alone
        assert get_stats().cache_quarantined == 0

    def test_engine_recomputes_after_quarantine_bit_identically(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXEC_CODE_DIGEST", "test-digest")
        cache_dir = str(tmp_path / "cache")
        spec = PointSpec(2, 100, ExponentialFlagBackoff(), repetitions=REPS)
        config = ExecConfig(jobs=1, cache=True, cache_dir=cache_dir)

        [cold] = execute_barrier_points([spec], config)
        from repro.exec.cache import cache_key as _cache_key

        key = _cache_key("barrier", spec.params(), spec.seed)
        path = ResultCache(cache_dir)._path(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")

        [healed] = execute_barrier_points([spec], config)
        assert vars(cold.accesses) == vars(healed.accesses)
        assert get_stats().cache_quarantined == 1
        # The recompute healed the slot: the next run is a warm hit.
        before = get_stats().cache_hits
        execute_barrier_points([spec], config)
        assert get_stats().cache_hits == before + 1
