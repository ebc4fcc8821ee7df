"""Tests for the repro.check verification system.

Covers the budget/report plumbing, the one registry and runner behind
``repro check`` and ``repro verify``, the schema-derived strategy
construction for every registered experiment, the runner's artifact
output, that every check suite passes in tier 1, and — the critical
property — that a deliberately broken traffic counter is caught by the
invariants suite with a usable single-line repro command.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.check.runner import (
    BUDGETS,
    CHECK_SUITES,
    CHECKS,
    SUITES,
    Check,
    CheckContext,
    CheckFailure,
    CheckOutcome,
    CheckReport,
    resolve_budget,
    run_checks,
)
from repro.check import runner
from repro.check.fuzz import (
    fuzz_experiment,
    kwargs_strategy,
    run_repro_command,
    strategy_for_domain,
)
from repro.registry import UnknownExperimentError, all_specs, get_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def keys(suite):
    return [key for key, entry in CHECKS.items() if entry.suite == suite]


class TestBudgets:
    def test_named_profiles(self):
        for name in ("small", "default", "large"):
            budget = resolve_budget(name)
            assert budget.name == name
            assert budget is BUDGETS[name]
        assert BUDGETS["small"].cases < BUDGETS["large"].cases

    def test_integer_budget(self):
        budget = resolve_budget(3)
        assert budget.cases == 3
        assert budget.examples == 3
        assert budget.repetitions >= 8

    def test_budget_passthrough(self):
        assert resolve_budget(BUDGETS["small"]) is BUDGETS["small"]

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError, match="unknown budget"):
            resolve_budget("huge")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_budget(0)


class TestContext:
    def test_named_streams_are_independent_and_stable(self):
        ctx = CheckContext(seed=7, budget=BUDGETS["small"])
        first = ctx.rng("alpha").integers(0, 2**31)
        again = ctx.rng("alpha").integers(0, 2**31)
        other = ctx.rng("beta").integers(0, 2**31)
        assert first == again
        assert first != other

    def test_suite_repro_is_a_single_line(self):
        ctx = CheckContext(seed=3, budget=BUDGETS["small"])
        repro = ctx.suite_repro("invariants")
        assert "\n" not in repro
        assert "--suite invariants" in repro
        assert "--seed 3" in repro
        assert "--budget small" in repro


class TestSchemaStrategies:
    """Every registered experiment derives strategies from its schema."""

    def test_every_spec_builds_a_strategy(self):
        specs = all_specs()
        assert len(specs) >= 27
        for spec in specs:
            kwargs_strategy(spec)  # must not raise

    def test_no_spec_falls_back_to_const_defaults(self):
        # A const fallback means fuzzing would only ever test the
        # production default — every parameter must have a real domain
        # (name-keyed table or per-spec override).
        for spec in all_specs():
            for param in spec.params:
                domain = param.fuzz_domain()
                assert domain["type"] != "const", (
                    f"{spec.id}.{param.name} has no fuzz domain"
                )

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.id)
    def test_sampled_kwargs_are_complete_and_parseable(self, spec):
        @settings(max_examples=5, deadline=None, database=None)
        @given(kwargs=kwargs_strategy(spec))
        def round_trip(kwargs):
            assert set(kwargs) == set(spec.param_names())
            # Round-trip through the CLI formatting the repro command uses.
            for name, value in kwargs.items():
                text = spec.get_param(name).format(value)
                assert spec.get_param(name).parse(text) == value

        round_trip()

    def test_unknown_domain_type_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz domain"):
            strategy_for_domain({"type": "mystery"})

    @settings(max_examples=5, deadline=None, database=None)
    @given(kwargs=kwargs_strategy(get_spec("figure5")))
    def test_repro_command_is_one_line_and_ordered(self, kwargs):
        spec = get_spec("figure5")
        command = run_repro_command("figure5", kwargs, spec)
        assert command.startswith("PYTHONPATH=src python -m repro run figure5")
        assert "\n" not in command
        for name in kwargs:
            assert f"-p {name}=" in command


class TestRunRegisteredChecks:
    def _run(self, monkeypatch, suite, fns):
        # Register the real suite first, so the runner's import of it
        # cannot add to the stand-in registry.
        importlib.import_module(runner.SUITE_MODULES[suite])
        monkeypatch.setattr(runner, "CHECKS", {
            f"{suite}/{name}": Check(suite, name, fn)
            for name, fn in fns.items()
        })
        return run_checks(
            suites=[suite], budget="small", seed=0, out_dir=None
        ).outcomes

    def test_failure_keeps_the_run_alive(self, monkeypatch):
        def passing(ctx):
            return 2

        def failing(ctx):
            raise CheckFailure("broken thing", repro="echo repro-me")

        outcomes = self._run(
            monkeypatch, "invariants", {"b-fail": failing, "a-pass": passing}
        )
        assert [o.check for o in outcomes] == ["b-fail", "a-pass"]
        assert outcomes[1].passed and outcomes[1].cases == 2
        assert not outcomes[0].passed
        assert outcomes[0].detail == "broken thing"
        assert outcomes[0].repro == "echo repro-me"

    def test_crash_becomes_failed_outcome_with_suite_repro(self, monkeypatch):
        def crashing(ctx):
            raise RuntimeError("boom")

        outcomes = self._run(monkeypatch, "differential", {"crash": crashing})
        assert not outcomes[0].passed
        assert "check crashed" in outcomes[0].detail
        assert "boom" in outcomes[0].detail
        assert "--suite differential" in outcomes[0].repro

    def test_failure_without_repro_gets_the_suite_repro(self, monkeypatch):
        def failing(ctx):
            raise CheckFailure("no repro attached")

        outcomes = self._run(monkeypatch, "invariants", {"f": failing})
        assert "--suite invariants" in outcomes[0].repro

    def test_conditions_become_evidence(self, monkeypatch):
        def claim(ctx):
            return [("a 1 < 2", True), ("b 3 < 2", False)]

        outcomes = self._run(monkeypatch, "claims", {"c": claim})
        assert not outcomes[0].passed
        assert outcomes[0].cases == 2
        assert outcomes[0].detail == "a 1 < 2; NOT b 3 < 2"
        assert "python -m repro verify" in outcomes[0].repro

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(runner, "CHECKS", {})
        runner.check("invariants", "twice")(lambda ctx: 1)
        with pytest.raises(ValueError, match="duplicate check"):
            runner.check("invariants", "twice")(lambda ctx: 1)


class TestInvariantSuite:
    def test_invariants_pass_at_small_budget(self):
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert report.ok, report.render()
        assert [f"{o.suite}/{o.check}" for o in report.outcomes] == keys(
            "invariants"
        )
        assert all(o.cases > 0 for o in report.outcomes)

    def test_broken_traffic_counter_is_caught(self, monkeypatch):
        """The acceptance criterion: a module that under-counts retried
        accesses must fail the episode-traffic conservation law, and
        the failure must carry a single-line repro command."""
        from repro.network.module import MemoryModule

        real_request = MemoryModule.request

        def lossy_request(self, ready_time):
            grant, cost = real_request(self, ready_time)
            if cost > 1:  # drop one access per contended grant
                self.total_accesses -= 1
            return grant, cost

        monkeypatch.setattr(MemoryModule, "request", lossy_request)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert not report.ok
        failed = {o.check for o in report.failures}
        assert "episode-traffic" in failed
        traffic = next(
            o for o in report.failures if o.check == "episode-traffic"
        )
        assert "traffic not conserved" in traffic.detail
        assert "\n" not in traffic.repro
        assert traffic.repro.startswith("PYTHONPATH=src python -m repro check")

    def test_double_grant_is_caught(self, monkeypatch):
        from repro.network.module import MemoryModule

        real_request = MemoryModule.request

        def eager_request(self, ready_time):
            grant, cost = real_request(self, ready_time)
            self.next_free = grant  # allow a second grant in this cycle
            return grant, cost

        monkeypatch.setattr(MemoryModule, "request", eager_request)
        report = run_checks(
            suites=["invariants"], budget="small", seed=0, out_dir=None
        )
        assert not report.ok
        assert "module-single-grant" in {o.check for o in report.failures}


class TestRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_checks(suites=["vibes"], out_dir=None)

    def test_unknown_id_rejected_with_suggestion(self):
        with pytest.raises(UnknownExperimentError, match="did you mean"):
            run_checks(suites=["invariants"], ids=["figure55"], out_dir=None)

    def test_report_and_manifest_written(self, tmp_path):
        out = tmp_path / "checks"
        report = run_checks(
            suites=["invariants"], budget="small", seed=5, out_dir=str(out)
        )
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report.as_dict()
        assert on_disk["ok"] is True
        assert on_disk["seed"] == 5
        assert on_disk["checks_run"] == len(keys("invariants"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment_id"] == "check"
        assert manifest["config"]["suites"] == ["invariants"]
        assert report.manifest_digest
        assert manifest["counters"]["check.passed"] == len(keys("invariants"))

    def test_suite_order_is_canonical(self):
        report = run_checks(
            suites=["differential", "invariants"], budget="small", seed=0,
            out_dir=None,
        )
        suites_seen = []
        for outcome in report.outcomes:
            if outcome.suite not in suites_seen:
                suites_seen.append(outcome.suite)
        assert suites_seen == [s for s in SUITES if s in suites_seen]
        assert suites_seen == ["invariants", "differential"]

    def test_fuzz_suite_covers_requested_ids(self):
        report = run_checks(
            suites=["fuzz"], budget="small", seed=0,
            ids=["figure4", "table1"], out_dir=None,
        )
        assert report.ok, report.render()
        assert {o.check for o in report.outcomes} == {"figure4", "table1"}

    def test_every_check_suite_passes_at_small_budget(self, tmp_path):
        """Tier 1 runs every registered invariant, differential and
        fuzz check, and the report tool reads the report they write."""
        out = tmp_path / "checks"
        report = run_checks(budget="small", seed=0, out_dir=str(out))
        assert report.ok, report.render()
        ran = [f"{o.suite}/{o.check}" for o in report.outcomes]
        assert ran == [key for suite in CHECK_SUITES for key in keys(suite)]
        assert len(keys("fuzz")) == len(all_specs())
        spec = importlib.util.spec_from_file_location(
            "check_report", os.path.join(ROOT, "tools", "check_report.py")
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.main([str(out / "report.json")]) == 0

    def test_render_mentions_failures_with_repro(self):
        report = CheckReport(seed=0, budget="small", suites=["invariants"])
        report.outcomes.append(
            CheckOutcome(
                suite="invariants", check="x", passed=False,
                detail="first line\nsecond line", repro="echo hi",
            )
        )
        text = report.render()
        assert "FAIL  invariants/x" in text
        assert "second line" in text
        assert "repro: echo hi" in text


class TestFuzzShrinking:
    def test_fuzzer_shrinks_to_a_minimal_config(self, monkeypatch):
        """A seeded failure must come back as shrunk kwargs plus error."""
        import repro.registry as registry
        from repro.registry.result import ExperimentResult
        from repro.registry.spec import ExperimentSpec, Param

        spec = ExperimentSpec(
            id="_fuzz_shrink_probe",
            title="probe",
            section="test",
            summary="test-only spec, never registered",
            params=(
                Param("knob", "int", 0, fuzz={"type": "int", "lo": 0,
                                              "hi": 100}),
                Param("seed", "int", 0),
            ),
            run_point=lambda knob, seed: {"knob": knob},
            aggregate=lambda points, params: points,
        )

        def fake_run(experiment_id, **kwargs):
            if kwargs["knob"] > 3:
                raise ValueError(f"knob too hot: {kwargs['knob']}")
            return ExperimentResult(
                experiment_id, "probe", "ok", {"knob": kwargs["knob"]}
            )

        monkeypatch.setattr(registry, "run", fake_run)
        cases, failure = fuzz_experiment(spec, root_seed=0, max_examples=30)
        assert failure is not None
        shrunk, error = failure
        assert isinstance(error, ValueError)
        # hypothesis shrinks the int domain to the boundary.
        assert shrunk["knob"] == 4
        command = run_repro_command(spec.id, shrunk, spec)
        assert "-p knob=4" in command


def test_registry_import_loads_no_verification_code():
    """Every CLI run, ``repro serve`` start and pool worker imports the
    experiment registry; none of them may pay for the checks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.registry; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert "repro.registry" in loaded
    for name in ("repro.check", "repro.analysis.claims", "hypothesis"):
        assert not [m for m in loaded if m == name or m.startswith(name + ".")]
