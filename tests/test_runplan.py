"""RunPlan: golden parity through the single execute() spine.

The acceptance bar for the dispatch-path convergence: every
pre-refactor registry digest (``tests/goldens/registry_parity.json``)
must come out of ``execute(RunPlan(...))`` byte-identical, a fault plan
must produce the resilience records the original keyword-argument
fault runner produced, and one plan must digest identically serial /
parallel / cache-warmed.
"""

import dataclasses

import pytest

from repro.exec.context import ExecConfig, get_exec_config
from repro.exec.plan import (
    FaultOptions,
    MAX_SEED,
    RunPlan,
    execute,
    resolve_exec_config,
    summary_digest,
    validate_seed,
)
from repro.registry import ParameterError, UnknownExperimentError
from tests.test_experiments import FAST_KWARGS
from tests.test_registry_parity import GOLDENS, data_digest, text_digest


class TestGoldenParity:
    """The RunPlan port is digest-transparent for every experiment."""

    @pytest.mark.parametrize("experiment_id", sorted(GOLDENS))
    def test_execute_matches_pre_refactor_golden(self, experiment_id):
        plan = RunPlan(
            experiment_id=experiment_id, params=FAST_KWARGS[experiment_id]
        )
        outcome = execute(plan)
        assert outcome.ok
        assert (
            data_digest(outcome.result.data)
            == GOLDENS[experiment_id]["data_sha256"]
        )
        assert (
            text_digest(outcome.result)
            == GOLDENS[experiment_id]["text_sha256"]
        )

    def test_jobs2_plan_matches_golden(self):
        plan = RunPlan(
            experiment_id="figure5",
            params=FAST_KWARGS["figure5"],
            exec_config=ExecConfig(jobs=2, force_engine=True),
        )
        outcome = execute(plan)
        assert (
            data_digest(outcome.result.data) == GOLDENS["figure5"]["data_sha256"]
        )

    def test_serial_jobs2_warm_cache_digests_identical(self, tmp_path):
        base = RunPlan(
            experiment_id="determinism",
            params={"repetitions": 3, "points": ((2, 0), (4, 0)), "base": 2},
            seed=0,
        )
        serial = execute(base)
        cached = ExecConfig(
            jobs=2, cache=True, cache_dir=str(tmp_path), force_engine=True
        )
        cold = execute(base.with_exec(cached))
        warm = execute(base.with_exec(cached))
        assert serial.digest == cold.digest == warm.digest
        assert warm.stats.get("cache_hits", 0) > 0


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError):
            RunPlan(experiment_id="figure99").validate()

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            RunPlan(experiment_id="figure5", params={"bogus": 1}).validate()

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            RunPlan(experiment_id="figure5", seed=MAX_SEED).validate()

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            RunPlan(experiment_id="figure5", backend="fortran").validate()

    def test_bad_fault_plan(self):
        with pytest.raises(ValueError):
            RunPlan(
                experiment_id="figure5", fault_plan="meteor-strike"
            ).validate()

    def test_validate_seed_bounds(self):
        assert validate_seed(0) == 0
        assert validate_seed(MAX_SEED - 1) == MAX_SEED - 1
        with pytest.raises(ValueError):
            validate_seed(-1)
        with pytest.raises(ValueError):
            validate_seed("nope")


class TestSeedSemantics:
    """Plain runs inject --seed as a param when declared; fault runs
    pass it to the fault schedules instead (the historical CLI split)."""

    def test_seed_injected_when_declared(self):
        plan = RunPlan(
            experiment_id="figure5", params={"n_values": (2,)}, seed=7
        )
        assert plan.overrides()["seed"] == 7

    def test_explicit_param_wins(self):
        plan = RunPlan(
            experiment_id="figure5", params={"seed": 3}, seed=7
        )
        assert plan.overrides()["seed"] == 3

    def test_seed_not_injected_under_fault_plan(self):
        plan = RunPlan(experiment_id="figure5", seed=7, fault_plan="none")
        assert "seed" not in plan.overrides()

    def test_seed_not_injected_when_undeclared(self):
        plan = RunPlan(experiment_id="figure1", seed=7)
        assert "seed" not in plan.overrides()


class TestFaultPortParity:
    """Fault plans reproduce the original keyword fault runner exactly."""

    #: summary_digest of this sweep as computed by the keyword-argument
    #: ``run_experiment_resilient`` entry point before it was folded
    #: into execute(); a moved digest means fault records changed.
    DIRECT_RUNNER_DIGEST = (
        "9e7c1bfd0c1095a9ec1129ef1954129988e08ec6e1090713030319f4c2757838"
    )

    def test_plan_and_direct_runner_digest_identically(self, tmp_path):
        plan = RunPlan(
            experiment_id="figure5",
            params={"n_values": (2, 4), "repetitions": 1},
            seed=1,
            fault_plan="stragglers:probability=0.3",
            faults=FaultOptions(checkpoint_dir=str(tmp_path / "plan")),
        )
        outcome = execute(plan)
        assert outcome.summary is not None and outcome.result is None
        assert outcome.digest == self.DIRECT_RUNNER_DIGEST
        assert outcome.digest == summary_digest(outcome.summary)
        assert list(outcome.summary.records) == ["N=2", "N=4"]
        assert outcome.summary.ok

    def test_none_plan_still_routes_resiliently(self, tmp_path):
        plan = RunPlan(
            experiment_id="figure5",
            params={"n_values": (2,), "repetitions": 1},
            fault_plan="none",
            faults=FaultOptions(checkpoint_dir=str(tmp_path)),
        )
        outcome = execute(plan)
        assert outcome.summary is not None
        assert outcome.ok and not outcome.degraded


class TestContexts:
    def test_plan_is_frozen_and_with_exec_copies(self):
        plan = RunPlan(experiment_id="figure5")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.experiment_id = "figure4"
        copy = plan.with_exec(ExecConfig(jobs=2, force_engine=True))
        assert plan.exec_config is None
        assert copy.exec_config.jobs == 2

    def test_contexts_installs_exec_config(self):
        config = ExecConfig(jobs=2, force_engine=True)
        plan = RunPlan(experiment_id="figure5", exec_config=config)
        with plan.contexts():
            assert get_exec_config() is config
        assert get_exec_config() is not config

    def test_contexts_leaves_ambient_backend_alone(self):
        # A plan without a backend must not reset an ambient choice.
        from repro.barrier.backend import backend_context, get_default_backend

        plan = RunPlan(experiment_id="figure5")
        with backend_context("python"):
            with plan.contexts():
                assert get_default_backend() == "python"


class TestResolveExecConfig:
    def test_no_overrides_returns_ambient(self):
        assert resolve_exec_config() is get_exec_config()

    def test_any_override_forces_engine(self):
        config = resolve_exec_config(jobs=1)
        assert config.force_engine and config.jobs == 1

    def test_sweep_reexport_still_importable(self):
        # barrier.sweep re-exports the helper it used to own.
        from repro.barrier.sweep import resolve_exec_config as reexported

        assert reexported is resolve_exec_config
