"""Tests for the fault-injection subsystem (repro.faults).

Three properties anchor everything here:

1. **Inertness** — with no plan installed (or the empty "none" plan)
   every simulator produces bit-identical results to a build without
   the subsystem; the regression goldens pin this.
2. **Determinism** — the same (spec, seed) yields the same fault
   schedule, the same perturbed results, and the same checkpoint
   digests, independent of execution order or resume boundaries.
3. **Resilience** — crashes, timeouts, and interrupts surface as
   retries / FAILED records / resumable checkpoints, never as hangs.
"""

import json
import os
import time

import pytest

from repro.core.backoff import ExponentialFlagBackoff, NoBackoff
from repro.exec.context import DEFAULT_CACHE_DIR, ExecConfig
from repro.exec.plan import FaultOptions, RunPlan, execute, summary_digest
from repro.faults import (
    CheckpointMismatchError,
    CheckpointStore,
    EventJitterInjector,
    FaultPlan,
    FlakyFlagInjector,
    GRANT_DROP,
    GRANT_DUP,
    GRANT_OK,
    GrantFaultInjector,
    ModuleOutageInjector,
    PointRecord,
    StragglerInjector,
    clear_fault_plan,
    fault_injection,
    get_fault_plan,
    install_fault_plan,
    parse_plan,
)
from repro.faults.runner import COMPLETED, DEGRADED, FAILED, build_point_plan
from repro.registry.result import ExperimentResult
from repro.registry.spec import ExperimentSpec, Param
from repro.sim.rng import spawn_stream


def run_faults(
    experiment_id, plan_spec="none", seed=0, params=None, jobs=1,
    cache_dir=None, **options,
):
    """One fault-plan sweep through ``execute(RunPlan(...))``.

    ``options`` are :class:`FaultOptions` fields; ``cache_dir`` turns
    the result cache on.  Returns the resilience summary.
    """
    plan = RunPlan(
        experiment_id=experiment_id,
        params=params or {},
        seed=seed,
        exec_config=ExecConfig(
            jobs=jobs,
            cache=cache_dir is not None,
            cache_dir=cache_dir or DEFAULT_CACHE_DIR,
        ),
        fault_plan=plan_spec,
        faults=FaultOptions(**options),
    )
    return execute(plan).summary


# -- a registered experiment whose points misbehave on demand -----------

#: Per-app queue of actions the next runs of that point take, in order
#: (``fail``, ``sleep``, ``interrupt``); an empty queue means succeed.
SCRIPT = {}
#: Every app whose point ran, in call order.
CALLS = []


def _scripted_point(apps):
    (app,) = apps
    CALLS.append(app)
    actions = SCRIPT.get(app, [])
    action = actions.pop(0) if actions else "ok"
    if action == "fail":
        raise RuntimeError("kaboom")
    if action == "sleep":
        time.sleep(5)
    if action == "interrupt":
        raise KeyboardInterrupt
    return {"app": app}


SCRIPTED = ExperimentSpec(
    id="scripted",
    title="scripted points",
    section="tests",
    summary="points that fail, sleep or interrupt on demand",
    params=(Param("apps", "strs", ("a", "b", "c")),),
    run_point=_scripted_point,
    aggregate=lambda payloads, params: ExperimentResult(
        "scripted", "scripted points", "", data=dict(payloads)
    ),
    axis="apps",
)


@pytest.fixture
def scripted(monkeypatch, tmp_path):
    """Register SCRIPTED; returns a runner for sweeps over it."""
    from repro.registry import spec as registry

    registry.load_specs()
    monkeypatch.setitem(registry._REGISTRY, SCRIPTED.id, SCRIPTED)
    SCRIPT.clear()
    del CALLS[:]

    def run(**options):
        options.setdefault("checkpoint_dir", str(tmp_path / "ck"))
        return run_faults(SCRIPTED.id, **options)

    return run


@pytest.fixture
def waits(monkeypatch):
    """Record every retry wait the schedule asks for, and skip the sleep."""
    from repro.exec.supervisor import RetryPolicy

    recorded = []
    schedule = RetryPolicy.wait_seconds

    def record(self, failures):
        recorded.append(schedule(self, failures))
        return 0.0

    monkeypatch.setattr(RetryPolicy, "wait_seconds", record)
    return recorded


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no plan installed."""
    clear_fault_plan()
    yield
    clear_fault_plan()


class TestRegistry:
    def test_no_plan_by_default(self):
        assert get_fault_plan() is None

    def test_install_and_uninstall(self):
        plan = FaultPlan([])
        assert install_fault_plan(plan) is plan
        assert get_fault_plan() is plan
        install_fault_plan(None)
        assert get_fault_plan() is None

    def test_context_manager_restores(self):
        outer = FaultPlan([], name="outer")
        install_fault_plan(outer)
        with fault_injection(FaultPlan([], name="inner")) as inner:
            assert get_fault_plan() is inner
        assert get_fault_plan() is outer

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with fault_injection(FaultPlan([])):
                raise RuntimeError("boom")
        assert get_fault_plan() is None


class TestInjectors:
    def test_straggler_deterministic_per_episode(self):
        def delays(tag):
            injector = StragglerInjector(probability=0.5, scale=100)
            plan = FaultPlan([injector], seed=11)
            plan.begin_episode(tag)
            return [injector.arrival_delay(cpu, 16, 0) for cpu in range(16)]

        assert delays("a") == delays("a")
        assert delays("a") != delays("b")

    def test_straggler_delay_capped(self):
        injector = StragglerInjector(probability=1.0, scale=10**9, cap=50)
        FaultPlan([injector], seed=3).begin_episode()
        assert all(
            0 <= injector.arrival_delay(cpu, 8, 0) <= 50 for cpu in range(8)
        )

    def test_outage_windows_periodic(self):
        injector = ModuleOutageInjector(
            module="barrier-flag", start=10, length=5, period=100, repeats=3
        )
        assert list(injector.module_windows("barrier-flag")) == [
            (10, 15), (110, 115), (210, 215),
        ]
        assert list(injector.module_windows("barrier-variable")) == []

    def test_zero_length_outage_yields_nothing(self):
        injector = ModuleOutageInjector(module="*", start=10, length=0)
        assert list(injector.module_windows("anything")) == []

    def test_grant_injector_rejects_certain_drop(self):
        with pytest.raises(ValueError):
            GrantFaultInjector(drop=1.0)

    def test_grant_injector_rejects_overfull_probabilities(self):
        with pytest.raises(ValueError):
            GrantFaultInjector(drop=0.6, dup=0.5)

    def test_grant_outcomes_deterministic(self):
        def outcomes():
            injector = GrantFaultInjector(drop=0.3, dup=0.3)
            FaultPlan([injector], seed=5).begin_episode()
            return [injector.grant_outcome("s", 0, t) for t in range(64)]

        first, second = outcomes(), outcomes()
        assert first == second
        assert set(first) >= {GRANT_OK, GRANT_DROP, GRANT_DUP}

    def test_flaky_rejects_certain_failure(self):
        with pytest.raises(ValueError):
            FlakyFlagInjector(probability=1.0)

    def test_jitter_bounded(self):
        injector = EventJitterInjector(probability=1.0, max_jitter=3)
        FaultPlan([injector], seed=9).begin_episode()
        assert all(0 <= injector.event_jitter(t) <= 3 for t in range(32))


class TestFaultPlan:
    def test_counts_accumulate(self):
        plan = FaultPlan([])
        plan.count("x")
        plan.count("x", 4)
        assert plan.fault_counts == {"x": 5}
        assert plan.total_injected == 5
        assert plan.snapshot() == {"x": 5}

    def test_snapshot_is_a_copy(self):
        plan = FaultPlan([])
        plan.count("x")
        snap = plan.snapshot()
        snap["x"] = 99
        assert plan.fault_counts["x"] == 1

    def test_dispatch_sums_delays(self):
        class Two(StragglerInjector):
            def arrival_delay(self, cpu, n, time):
                return 2

        plan = FaultPlan([Two(), Two()], seed=0)
        plan.begin_episode()
        assert plan.arrival_delay(0, 4, 0) == 4
        assert plan.fault_counts["arrival.delay_cycles"] == 4

    def test_first_non_ok_grant_wins(self):
        class Drop(GrantFaultInjector):
            def grant_outcome(self, site, actor, time):
                return GRANT_DROP

        class Dup(GrantFaultInjector):
            def grant_outcome(self, site, actor, time):
                return GRANT_DUP

        plan = FaultPlan([Drop(), Dup()], seed=0)
        plan.begin_episode()
        assert plan.grant_outcome("s", 0, 0) == GRANT_DROP
        assert plan.fault_counts == {"grant.drop": 1}


class TestSpecParsing:
    def test_named_plans_all_parse(self):
        from repro.faults.spec import NAMED_PLANS

        for name in NAMED_PLANS:
            plan = parse_plan(name, seed=1)
            assert plan.name == name

    def test_empty_spec_is_empty_plan(self):
        plan = parse_plan("", seed=0)
        assert list(plan.injectors) == []
        assert plan.poll_budget is None

    def test_custom_spec(self):
        plan = parse_plan(
            "stragglers:probability=0.5,scale=10;grants:drop=0.1", seed=2
        )
        assert plan.name == "custom"
        assert len(plan.injectors) == 2
        assert isinstance(plan.injectors[0], StragglerInjector)
        assert plan.injectors[0].probability == 0.5

    def test_degrade_clause_sets_plan_knobs(self):
        plan = parse_plan("degrade:polls=64,timeout=5000", seed=0)
        assert plan.poll_budget == 64
        assert plan.timeout_cycles == 5000
        assert list(plan.injectors) == []

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError, match="unknown injector 'bogus'"):
            parse_plan("bogus:probability=0.5")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_plan("stragglers:probability")

    def test_bad_constructor_parameter_rejected(self):
        with pytest.raises(ValueError, match="bad parameters"):
            parse_plan("stragglers:no_such_knob=1")

    def test_unknown_degrade_knob_rejected(self):
        with pytest.raises(ValueError, match="degrade clause"):
            parse_plan("degrade:wibble=1")


GOLDEN_MEAN_ACCESSES = 9.0875  # pinned by tests/test_regression_goldens.py


def _golden_run():
    from repro.barrier.simulator import simulate_barrier

    return simulate_barrier(
        16, 500, ExponentialFlagBackoff(2), repetitions=5, seed=0
    )


class TestBitIdentityWithoutFaults:
    def test_no_plan_matches_golden(self):
        assert _golden_run().mean_accesses == GOLDEN_MEAN_ACCESSES

    def test_empty_plan_matches_golden(self):
        # An installed-but-empty plan must not perturb results either.
        with fault_injection(parse_plan("none", seed=0)):
            aggregate = _golden_run()
        assert aggregate.mean_accesses == GOLDEN_MEAN_ACCESSES


class TestFaultsPerturbDeterministically:
    def test_chaos_changes_results_reproducibly(self):
        def run():
            with fault_injection(parse_plan("chaos", seed=42)) as plan:
                aggregate = _golden_run()
            return aggregate.mean_accesses, plan.snapshot()

        first, second = run(), run()
        assert first == second
        accesses, counts = first
        assert accesses != GOLDEN_MEAN_ACCESSES
        assert counts["arrival.stragglers"] > 0

    def test_different_seeds_differ(self):
        def run(seed):
            with fault_injection(parse_plan("chaos", seed=seed)):
                return _golden_run().mean_accesses

        assert run(1) != run(2)

    def test_outage_plan_charges_outage_cycles(self):
        with fault_injection(parse_plan("hot-module", seed=7)) as plan:
            _golden_run()
        assert plan.fault_counts["module.outage_windows"] > 0


class TestDegradedBarrier:
    def test_poll_budget_reports_partial_arrival(self):
        from repro.barrier.simulator import BarrierSimulator
        from repro.core.barrier import TangYewBarrier

        # A tiny poll budget with no backoff: late arrivals exhaust it
        # and depart as timed out instead of polling forever.
        barrier = TangYewBarrier(8, NoBackoff(), poll_budget=2)
        simulator = BarrierSimulator(barrier, seed=3)
        result = simulator.run_once(spawn_stream(3, "episode"))
        assert result.timed_out
        assert result.degraded
        # Timed-out CPUs are real, distinct processor indices.
        assert len(set(result.timed_out)) == len(result.timed_out)
        assert all(0 <= cpu < 8 for cpu in result.timed_out)

    def test_no_budget_means_no_timeouts(self):
        result = _golden_run()
        assert result.degraded_runs == 0
        assert result.timed_out_processes == 0

    def test_poll_budget_validated(self):
        from repro.core.barrier import TangYewBarrier

        with pytest.raises(ValueError):
            TangYewBarrier(4, NoBackoff(), poll_budget=0)
        with pytest.raises(ValueError):
            TangYewBarrier(4, NoBackoff(), timeout_cycles=0)

    def test_plan_level_degrade_counts_partial_arrivals(self):
        from repro.barrier.simulator import simulate_barrier

        with fault_injection(parse_plan("degrade:polls=2", seed=0)) as plan:
            simulate_barrier(8, 2000, NoBackoff(), repetitions=2, seed=0)
        assert plan.fault_counts.get("barrier.partial_arrival", 0) > 0


class TestBoundedLocks:
    def test_lock_abort_reports_degraded(self):
        from repro.barrier.resource import simulate_resource
        from repro.core.locks import TestAndSetLock

        lock = TestAndSetLock(max_attempts=1)
        aggregate = simulate_resource(
            8, lock, hold_time=50, repetitions=1, seed=0
        )
        # With one attempt allowed and long holds, somebody gave up;
        # the run still terminates and aggregates.
        assert aggregate.mean_accesses > 0

    def test_max_attempts_validated(self):
        from repro.core.locks import BackoffLock

        with pytest.raises(ValueError):
            BackoffLock(hold_time=8, max_attempts=0)


class TestSweepRunner:
    """Retry, resume and interrupt behaviour of a fault-plan sweep."""

    def test_all_points_complete(self, scripted):
        summary = scripted()
        assert list(summary.records) == ["app=a", "app=b", "app=c"]
        assert summary.completed == 3
        assert (summary.resumed, summary.retried) == (0, 0)
        assert not summary.interrupted

    def test_existing_records_resumed_not_recomputed(self, scripted):
        first = scripted()
        del CALLS[:]
        second = scripted()
        assert CALLS == []
        assert second.resumed == 3
        assert summary_digest(second) == summary_digest(first)

    def test_failed_prior_records_are_retried(self, scripted):
        SCRIPT["a"] = ["fail"]
        first = scripted(max_retries=0)
        assert first.records["app=a"].status == FAILED
        del CALLS[:]
        second = scripted(max_retries=0)
        assert CALLS == ["a"]
        assert second.resumed == 2
        assert second.records["app=a"].status == COMPLETED

    def test_crashing_point_retried_then_failed(self, scripted, waits):
        SCRIPT["a"] = ["fail"] * 3
        summary = scripted(max_retries=2, retry_backoff_seconds=0.5)
        assert CALLS.count("a") == 3  # initial + 2 retries
        assert summary.retried == 2
        assert waits == [0.5, 1.0]  # exponential backoff
        record = summary.records["app=a"]
        assert record.status == FAILED
        assert record.attempts == 3
        assert "kaboom" in record.error
        assert summary.completed == 2 and not summary.ok

    def test_transient_crash_recovers(self, scripted, waits):
        SCRIPT["a"] = ["fail"]
        summary = scripted()
        assert summary.records["app=a"].status == COMPLETED
        assert summary.records["app=a"].attempts == 2
        assert summary.retried == 1
        assert waits == [0.05]

    def test_max_points_interrupts(self, scripted):
        summary = scripted(max_points=2)
        assert summary.interrupted
        assert list(summary.records) == ["app=a", "app=b"]
        assert CALLS == ["a", "b"]

    def test_keyboard_interrupt_stops_cleanly(self, scripted):
        SCRIPT["b"] = ["interrupt"]
        summary = scripted()
        assert summary.interrupted
        assert list(summary.records) == ["app=a"]
        assert CALLS == ["a", "b"]
        # The point finished before the interrupt was checkpointed.
        resumed = scripted()
        assert resumed.resumed == 1
        assert resumed.ok and not resumed.interrupted

    def test_timeout_produces_failed_record(self, scripted):
        SCRIPT["a"] = ["sleep"]
        summary = scripted(timeout_seconds=0.05, max_retries=0)
        assert summary.records["app=a"].status == FAILED
        assert "PointTimeoutError" in summary.records["app=a"].error
        assert summary.completed == 2


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.write_meta({"config_digest": "d1"})
        record = PointRecord(
            key="N=16", status=COMPLETED, data={"x": 1},
            fault_counts={"grant.drop": 2},
        )
        store.save_point(record)
        loaded = CheckpointStore(str(tmp_path / "ck")).load("d1")
        assert loaded["N=16"].data == {"x": 1}
        assert loaded["N=16"].fault_counts == {"grant.drop": 2}

    def test_digest_mismatch_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.write_meta({"config_digest": "d1"})
        store.save_point(PointRecord(key="a", status=COMPLETED))
        with pytest.raises(CheckpointMismatchError):
            store.load("d2")

    def test_missing_directory_loads_empty(self, tmp_path):
        assert CheckpointStore(str(tmp_path / "nope")).load("d") == {}

    def test_torn_point_file_skipped(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.write_meta({"config_digest": "d1"})
        store.save_point(PointRecord(key="good", status=COMPLETED))
        torn = os.path.join(store.directory, "points", "torn.json")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "sta')  # crash mid-write
        loaded = store.load("d1")
        assert list(loaded) == ["good"]

    def test_tampered_record_skipped(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.write_meta({"config_digest": "d1"})
        path = store.save_point(
            PointRecord(key="a", status=COMPLETED, data={"x": 1})
        )
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["data"] = {"x": 999}  # digest no longer matches
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert store.load("d1") == {}

    def test_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.write_meta({"config_digest": "d1"})
        store.save_point(PointRecord(key="a", status=COMPLETED))
        store.clear()
        assert store.load("anything") == {}


class TestExperimentPoints:
    def test_figure5_splits_on_n(self):
        from repro.registry import get_spec

        points = get_spec("figure5").sparse_points({"repetitions": 1})
        assert all(key.startswith("N=") for key in points)
        assert all(
            len(kwargs["n_values"]) == 1 for kwargs in points.values()
        )

    def test_override_narrows_sweep(self):
        from repro.registry import get_spec

        points = get_spec("figure5").sparse_points(
            {"n_values": (4, 8), "repetitions": 1}
        )
        assert sorted(points) == ["N=4", "N=8"]

    def test_empty_axis_rejected(self):
        from repro.registry import get_spec

        with pytest.raises(ValueError):
            get_spec("figure5").sparse_points({"n_values": ()})

    def test_unknown_experiment_rejected(self):
        from repro.registry import get_spec

        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("figure99")


class TestEndToEndResilience:
    def _run(self, tmp_path, plan_spec="chaos", seed=7, **options):
        options.setdefault("checkpoint_dir", str(tmp_path / "ck"))
        return run_faults(
            "figure5", plan_spec, seed,
            params={"n_values": (4, 8, 16), "repetitions": 1}, **options,
        )

    def test_interrupted_sweep_resumes_completely(self, tmp_path):
        first = self._run(tmp_path, max_points=1)
        assert first.interrupted
        assert first.completed + first.degraded == 1

        second = self._run(tmp_path)
        assert not second.interrupted
        assert second.resumed == 1
        assert second.remaining == 0
        assert second.ok

        # Resume equals an uninterrupted fresh run, point for point.
        fresh = self._run(tmp_path, checkpoint_dir=str(tmp_path / "ck2"))
        for key, record in fresh.records.items():
            assert second.records[key].data == record.data
            assert second.records[key].fault_counts == record.fault_counts

    def test_point_plans_deterministic_by_key(self):
        plan_a = build_point_plan("chaos", 7, "figure5", "N=8")
        plan_b = build_point_plan("chaos", 7, "figure5", "N=8")
        plan_c = build_point_plan("chaos", 7, "figure5", "N=16")
        assert plan_a.seed == plan_b.seed
        assert plan_a.seed != plan_c.seed

    def test_bad_plan_spec_rejected_before_sweep(self, tmp_path):
        # A typo'd spec is one usage error, not N failed points — and
        # it must not leave a checkpoint behind that blocks the
        # corrected rerun.
        with pytest.raises(ValueError, match="unknown injector"):
            self._run(tmp_path, plan_spec="choas")
        assert not (tmp_path / "ck").exists()
        assert self._run(tmp_path).ok

    def test_changed_config_detected(self, tmp_path):
        self._run(tmp_path)
        with pytest.raises(CheckpointMismatchError):
            self._run(tmp_path, seed=8)

    def test_fresh_discards_stale_checkpoint(self, tmp_path):
        self._run(tmp_path)
        summary = self._run(tmp_path, seed=8, fresh=True)
        assert summary.resumed == 0
        assert summary.ok

    def test_render_mentions_failures(self):
        from repro.faults.runner import ResilienceSummary

        summary = ResilienceSummary(
            experiment_id="figure5",
            plan_name="chaos",
            total_points=2,
            records={
                "a": PointRecord(key="a", status=COMPLETED),
                "b": PointRecord(key="b", status=FAILED, error="E: boom"),
            },
        )
        text = summary.render()
        assert "failed     : 1" in text
        assert "boom" in text
        assert not summary.ok


class TestFaultsCliCommand:
    def test_cli_smoke_and_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "faults", "figure5", "--plan", "stragglers", "--seed", "3",
            "--repetitions", "1",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(argv + ["--max-points", "2"]) == 0
        first = capsys.readouterr().out
        assert "interrupted: yes" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 resumed from checkpoint" in second
        assert "interrupted" not in second

    def test_cli_reports_config_mismatch(self, tmp_path, capsys):
        from repro.__main__ import main

        base = [
            "faults", "figure5", "--repetitions", "1",
            "--checkpoint-dir", str(tmp_path / "ck"), "--max-points", "1",
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "9"]) == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flag", [["--max-points", "-1"], ["--timeout", "0"]],
        ids=["max-points", "timeout"],
    )
    def test_bad_bounds_are_usage_errors_at_any_jobs(
        self, tmp_path, capsys, jobs, flag
    ):
        from repro.__main__ import main

        checkpoint = tmp_path / "ck"
        argv = [
            "faults", "figure5", "--plan", "stragglers", "--repetitions", "1",
            "--jobs", jobs, "--checkpoint-dir", str(checkpoint),
        ]
        assert main(argv + flag) == 2
        assert "must be" in capsys.readouterr().err
        assert not checkpoint.exists()


class TestRetryPolicyPlumbing:
    """The sweep's retry waits follow the repo's own backoff policies."""

    def test_linear_policy_shapes_the_wait_schedule(self, scripted, waits):
        SCRIPT["a"] = ["fail"] * 4
        scripted(
            max_retries=3, retry_backoff_seconds=0.5, retry_policy="linear"
        )
        assert waits == pytest.approx([0.5, 1.0, 1.5])

    def test_none_policy_retries_immediately(self, scripted, waits):
        SCRIPT["a"] = ["fail"] * 3
        scripted(max_retries=2, retry_policy="none")
        assert waits == [0.0, 0.0]

    def test_experiment_accepts_named_policy(self, tmp_path):
        summary = run_faults(
            "figure5", seed=1, checkpoint_dir=str(tmp_path / "ck"),
            params={"n_values": (4,), "repetitions": 1},
            retry_policy="linear:step=2",
        )
        assert summary.ok

    def test_experiment_rejects_bad_policy_before_sweep(self, tmp_path):
        with pytest.raises(ValueError, match="retry policy"):
            run_faults(
                "figure5", seed=1, checkpoint_dir=str(tmp_path / "ck"),
                params={"n_values": (4,), "repetitions": 1},
                retry_policy="polynomial",
            )
        # One usage error, not a half-written checkpoint.
        assert not (tmp_path / "ck").exists()


class TestParallelWorkerDeath:
    """A SIGKILLed worker never loses or perturbs a faults sweep."""

    def test_parallel_sweep_survives_worker_death_bit_identically(
        self, tmp_path
    ):
        import warnings

        from repro.exec.context import get_stats, reset_stats
        from repro.exec.supervisor import ChaosPlan, chaos_injection

        common = dict(
            plan_spec="stragglers", seed=7,
            params={"n_values": (4, 8), "repetitions": 1},
        )
        serial = run_faults(
            "figure5", checkpoint_dir=str(tmp_path / "serial"), **common
        )
        reset_stats()
        with chaos_injection(ChaosPlan(kill_workers=1)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                survived = run_faults(
                    "figure5", checkpoint_dir=str(tmp_path / "chaos"),
                    jobs=2, **common,
                )
        assert survived.ok
        assert get_stats().worker_deaths >= 1
        assert serial.records.keys() == survived.records.keys()
        for key in serial.records:
            assert (
                serial.records[key].to_dict()["digest"]
                == survived.records[key].to_dict()["digest"]
            )

    def test_parallel_interrupt_then_resume_matches_serial(self, tmp_path):
        import warnings

        common = dict(
            plan_spec="stragglers", seed=3,
            params={"n_values": (2, 4, 8), "repetitions": 1},
        )
        serial = run_faults(
            "figure5", checkpoint_dir=str(tmp_path / "serial"), **common
        )
        resumable = dict(common, checkpoint_dir=str(tmp_path / "jobs2"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = run_faults("figure5", jobs=2, max_points=2, **resumable)
            second = run_faults("figure5", jobs=2, **resumable)
        assert first.interrupted and len(first.records) == 2
        assert second.resumed == 2 and not second.interrupted
        assert second.failed == 0
        assert summary_digest(second) == summary_digest(serial)


class TestTracedFaultSweeps:
    """A traced fault sweep emits the same events at any --jobs."""

    def test_event_kinds_independent_of_jobs(self, tmp_path):
        import warnings

        from repro.obs.tracer import Tracer, tracing

        totals, digests = {}, {}
        for jobs in (1, 2):
            tracer = Tracer(run_id=f"jobs{jobs}")
            with tracing(tracer), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                summary = run_faults(
                    "figure5", "stragglers", 3, jobs=jobs,
                    params={"n_values": (4, 8), "repetitions": 1},
                    checkpoint_dir=str(tmp_path / f"jobs{jobs}"),
                )
            totals[jobs] = dict(tracer.event_totals)
            digests[jobs] = summary_digest(summary)
        assert totals[1] == totals[2] == {"exec.experiment_point": 2}
        assert digests[1] == digests[2]
