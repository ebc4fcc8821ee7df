"""Tests for the remaining CLI surface (report command, parser, errors)."""

import os

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        actions = [
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        commands = set(actions[0].choices)
        assert commands == {
            "list", "experiment", "barrier", "trace", "report", "advise",
            "verify", "profile", "faults", "run", "check", "chaos",
            "scenario", "serve",
        }

    def test_barrier_defaults(self):
        args = build_parser().parse_args(["barrier"])
        assert args.n == 64
        assert args.interval_a == 1000
        assert args.policy == "exponential"


class TestUnknownExperimentErrors:
    """Unknown ids exit 2 with a did-you-mean, on every subcommand.

    Ids are validated against the registry, not baked into the parser
    as argparse ``choices``, so every path reports the same error.
    """

    @pytest.mark.parametrize("argv", [
        ["experiment", "figure99", "--describe"],
        ["experiment", "figure99"],
        ["run", "figure99"],
        ["profile", "figure99"],
        ["faults", "figure99"],
        ["check", "--ids", "figure99"],
    ])
    def test_unknown_id_exits_2_with_suggestion(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'figure99'" in err
        assert "did you mean" in err
        assert "figure9" in err

    def test_close_match_suggested_first(self, capsys):
        main(["run", "tabel1"])
        assert "'table1'" in capsys.readouterr().err


class TestRepetitionsValidation:
    """``--repetitions`` below 1 is a usage error, not a traceback."""

    @pytest.mark.parametrize(
        "value,message",
        [
            ("0", "repetitions must be >= 1, got 0"),
            ("-3", "repetitions must be >= 1, got -3"),
            ("many", "repetitions must be an integer, got 'many'"),
        ],
    )
    def test_verify_rejects_bad_repetitions(self, value, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--repetitions", value])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.endswith(f" verify: error: argument --repetitions: {message}")

    @pytest.mark.parametrize("command", [
        ["run", "figure5"],
        ["experiment", "figure5"],
        ["profile", "figure5"],
        ["barrier"],
        ["advise"],
        ["faults", "figure5"],
        ["chaos", "figure5"],
    ], ids=lambda command: command[0])
    def test_every_command_rejects_zero_repetitions(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--repetitions", "0"])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.endswith(
            f" {command[0]}: error: argument --repetitions: "
            "repetitions must be >= 1, got 0"
        )

    def test_verify_accepts_positive_repetitions(self):
        args = build_parser().parse_args(["verify", "--repetitions", "5"])
        assert args.repetitions == 5


class TestSeedValidation:
    """``--seed`` is validated at parse time on every subcommand."""

    @pytest.mark.parametrize("command", ["barrier", "verify", "advise"])
    def test_non_integer_seed_rejected(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--seed", "not-a-seed"])
        assert "seed must be an integer" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["barrier", "--seed", "-1"])
        assert "seed must be in [0, 2**32)" in capsys.readouterr().err

    def test_too_large_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "figure5", "--seed", str(2**32)])
        assert "seed must be in [0, 2**32)" in capsys.readouterr().err

    def test_valid_seed_accepted(self):
        args = build_parser().parse_args(["barrier", "--seed", "123"])
        assert args.seed == 123

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults", "figure5"])
        assert args.plan == "none"
        assert args.seed == 0
        assert args.max_retries == 2
        assert args.max_points is None


class TestReportCommand:
    def test_report_writes_files(self, tmp_path, monkeypatch):
        # Patch the registry to two fast experiments so the test stays
        # quick while exercising the real command path.
        import repro.cli.report as report_cmd
        from repro.exec.plan import PlanOutcome
        from repro.registry import ExperimentResult

        calls = []

        def fake_execute(plan, **kwargs):
            calls.append(plan.experiment_id)
            result = ExperimentResult(
                plan.experiment_id, "t", "body", {"x": 1}
            )
            return PlanOutcome(plan=plan, result=result)

        monkeypatch.setattr(
            report_cmd, "experiment_ids", lambda: ["alpha", "beta"]
        )
        monkeypatch.setattr(report_cmd, "execute", fake_execute)
        out = tmp_path / "reports"
        code = main(["report", "--output", str(out)])
        assert code == 0
        assert calls == ["alpha", "beta"]
        assert sorted(os.listdir(out)) == ["alpha.txt", "beta.txt"]
        assert "body" in (out / "alpha.txt").read_text()

    def test_report_counts_failures(self, tmp_path, monkeypatch):
        import repro.cli.report as report_cmd

        def exploding_execute(plan, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(report_cmd, "experiment_ids", lambda: ["alpha"])
        monkeypatch.setattr(report_cmd, "execute", exploding_execute)
        code = main(["report", "--output", str(tmp_path / "r")])
        assert code == 1


class TestCommandsRunOnTheSpine:
    """``experiment`` and ``report`` run each id through ``execute(plan)``."""

    @pytest.fixture
    def plans(self, monkeypatch):
        import repro.cli.experiment as experiment_cmd
        import repro.cli.report as report_cmd
        import repro.exec.plan as plan_module
        from repro.registry import ExperimentResult

        assert experiment_cmd.execute is plan_module.execute
        assert report_cmd.execute is plan_module.execute
        seen = []

        def recording_execute(plan, **kwargs):
            seen.append(plan)
            result = ExperimentResult(plan.experiment_id, "t", "body", {})
            return plan_module.PlanOutcome(plan=plan, result=result)

        for module in (experiment_cmd, report_cmd):
            monkeypatch.setattr(module, "execute", recording_execute)
        return seen

    def test_experiment_executes_one_plan_per_id(self, plans, capsys):
        argv = ["experiment", "figure5", "table1", "--repetitions", "3"]
        assert main(argv) == 0
        assert [plan.experiment_id for plan in plans] == ["figure5", "table1"]
        assert plans[0].params == {"repetitions": 3}
        assert capsys.readouterr().out.count("== ") == 2

    def test_report_executes_one_plan_per_id(
        self, plans, tmp_path, monkeypatch
    ):
        import repro.cli.report as report_cmd
        from repro.exec.plan import RunPlan

        monkeypatch.setattr(
            report_cmd, "experiment_ids", lambda: ["figure4", "figure5"]
        )
        assert main(["report", "--output", str(tmp_path)]) == 0
        assert plans == [RunPlan("figure4"), RunPlan("figure5")]


class TestProfileCommand:
    def test_profile_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "prof"
        code = main([
            "profile", "figure4", "--output", str(out), "--repetitions", "1",
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "events.jsonl").is_file()
        assert (out / "summary.txt").is_file()
        printed = capsys.readouterr().out
        assert "barrier.accesses" in printed
        assert "manifest" in printed

    def test_profile_manifest_records_config(self, tmp_path):
        import json

        out = tmp_path / "prof"
        main(["profile", "figure5", "--output", str(out), "--repetitions", "1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment_id"] == "figure5"
        assert manifest["config"] == {"repetitions": 1}
        assert manifest["events_emitted"] > 0
        assert manifest["counters"]["barrier.episodes"] > 0
        assert "deterministic_digest" in manifest

    def test_profile_unknown_experiment_rejected(self, capsys):
        assert main(["profile", "figure99"]) == 2
        assert "did you mean" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.suite is None
        assert args.budget == "default"
        assert args.seed == 0
        assert args.ids is None
        assert args.output == "checks"

    def test_invariants_suite_passes_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        import json

        out = tmp_path / "checks"
        code = main([
            "check", "--suite", "invariants", "--budget", "small",
            "--seed", "0", "--output", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS: " in printed
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 0
        assert report["budget"] == "small"
        assert report["suites"] == ["invariants"]
        assert all(o["passed"] for o in report["outcomes"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment_id"] == "check"

    def test_bad_budget_exits_2(self, capsys):
        assert main(["check", "--budget", "bogus"]) == 2
        assert "unknown budget" in capsys.readouterr().err

    def test_bad_suite_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--suite", "everything"])


class TestPolicyBuilder:
    def test_unknown_policy(self):
        from repro.cli.common import build_policy

        with pytest.raises(ValueError):
            build_policy("quadratic", 2, 1)

    def test_linear_policy(self):
        from repro.cli.common import build_policy

        policy = build_policy("linear", 2, 5)
        assert policy.flag_wait(2) == 10


class TestSupervisorFlags:
    """--retries/--deadline/--checkpoint-dir/--resume on run/profile."""

    def test_parser_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["run", "figure5", "--retries", "2", "--deadline", "30",
             "--retry-policy", "linear:step=2"]
        )
        assert args.retries == 2
        assert args.deadline == 30.0
        assert args.retry_policy == "linear:step=2"

    def test_bad_retry_policy_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "figure5", "--retry-policy", "polynomial"]
            )
        assert "retry policy" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["run", "figure5", "--resume",
                     "-p", "n_values=2", "--repetitions", "1"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_run_with_retries_alone_arms_the_engine(self, capsys):
        assert main(
            ["run", "figure5", "--quiet", "--retries", "1",
             "-p", "n_values=2,4", "--repetitions", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution" in out  # supervision armed the exec engine
        assert "results digest" in out

    def test_run_checkpoint_then_resume_replays_points(
        self, tmp_path, capsys
    ):
        argv = [
            "run", "figure5", "--quiet",
            "-p", "n_values=2,4", "--repetitions", "1",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        # The digest line is identical: resume never changes a result.
        digest = [l for l in first.splitlines() if "results digest" in l]
        assert digest == [
            l for l in second.splitlines() if "results digest" in l
        ]

    def test_faults_accepts_retry_policy_aliases(self):
        args = build_parser().parse_args(
            ["faults", "figure5", "--deadline", "10", "--retries", "3",
             "--retry-policy", "none"]
        )
        assert args.timeout == 10.0
        assert args.max_retries == 3
        assert args.retry_policy == "none"


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "figure5"])
        assert args.kill == 1
        assert args.hang == 0
        assert args.corrupt_cache and args.truncate_checkpoint
        assert args.jobs is None  # command default of 4 applied later

    def test_hang_without_deadline_rejected(self, capsys):
        assert main(["chaos", "figure5", "--hang", "1"]) == 2
        assert "deadline" in capsys.readouterr().err

    def test_chaos_smoke_recovers_bit_identically(self, tmp_path, capsys):
        import json
        import warnings

        counters_path = tmp_path / "counters.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "chaos", "figure5", "--jobs", "2", "--seed", "3",
                "-p", "n_values=2,4", "--repetitions", "1",
                "--counters", str(counters_path),
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digests identical" in out
        counters = json.loads(counters_path.read_text())
        assert counters["ok"] and counters["digests_match"]
        assert counters["chaos"]["worker_deaths"] >= 1
        assert counters["recovery"]["cache_quarantined"] >= 1


class TestKeyboardInterruptHandling:
    def test_interrupt_exits_130_and_releases_pools(
        self, monkeypatch, capsys
    ):
        import repro.cli.listing as listing_cmd
        from repro.exec import engine

        engine._get_pool(2)  # a live pool that must not leak

        def interrupted(_args):
            raise KeyboardInterrupt()

        monkeypatch.setattr(listing_cmd, "cmd", interrupted)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err
        assert engine._POOLS == {}
