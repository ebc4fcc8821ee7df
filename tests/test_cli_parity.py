"""CLI surface parity: the cli package decomposition changed nothing.

Pins every subcommand's option surface, --help exit codes, and the
shared validator error text (seed/jobs) so a refactor that drops or
renames a flag — or lets two subcommands drift apart on an error
message — fails loudly.
"""

import pytest

from repro.__main__ import build_parser, main

#: Every subcommand's option strings / positional metavars, in parser
#: order.  Captured from the pre-decomposition monolith (plus the new
#: ``scenario`` family); any drift is an API change, not a refactor.
OPTION_SURFACE = {
    "list": ["-h/--help"],
    "experiment": [
        "-h/--help", "<ID>", "--repetitions", "--scale", "--describe",
        "-p/--param",
    ],
    "run": [
        "-h/--help", "<ID>", "--repetitions", "--scale", "--seed",
        "--quiet", "-p/--param", "--jobs", "--cache/--no-cache",
        "--cache-dir", "--retries", "--deadline", "--retry-policy",
        "--checkpoint-dir", "--resume", "--backend",
    ],
    "barrier": [
        "-h/--help", "--n", "--interval-a", "--policy", "--base",
        "--step", "--repetitions", "--seed", "--barrier-style",
        "--degree", "--backend",
    ],
    "trace": [
        "-h/--help", "--app", "--cpus", "--scale", "--barrier-style",
        "--degree", "--save",
    ],
    "report": ["-h/--help", "--output"],
    "verify": ["-h/--help", "--repetitions", "--seed"],
    "profile": [
        "-h/--help", "<ID>", "--output", "--repetitions", "--scale",
        "--ring-size", "--show-result", "-p/--param", "--jobs",
        "--cache/--no-cache", "--cache-dir", "--retries", "--deadline",
        "--retry-policy", "--checkpoint-dir", "--resume", "--backend",
    ],
    "faults": [
        "-h/--help", "<ID>", "--plan", "--seed", "--checkpoint-dir",
        "--timeout/--deadline", "--max-retries/--retries",
        "--retry-backoff", "--retry-policy", "--max-points", "--fresh",
        "--repetitions", "--scale", "-p/--param", "--jobs",
        "--cache/--no-cache", "--cache-dir", "--backend",
    ],
    "check": [
        "-h/--help", "--suite", "--budget", "--seed", "--ids",
        "--output", "--backend",
    ],
    "chaos": [
        "-h/--help", "<ID>", "--seed", "--jobs", "--kill", "--hang",
        "--hang-seconds", "--corrupt-cache/--no-corrupt-cache",
        "--truncate-checkpoint/--no-truncate-checkpoint", "--work-dir",
        "--keep", "--counters", "--repetitions", "--scale",
        "-p/--param", "--retries", "--deadline", "--retry-policy",
        "--backend",
    ],
    "scenario": ["-h/--help", "<scenario_command>"],
    "serve": [
        "-h/--help", "--host", "--port", "--jobs", "--cache/--no-cache",
        "--cache-dir", "--concurrency", "--retries", "--deadline",
        "--work-dir", "--backend",
    ],
    "advise": [
        "-h/--help", "--app", "--cpus", "--scale", "--waiting-weight",
        "--repetitions", "--seed", "--no-simulate",
    ],
}

SCENARIO_SURFACE = {
    "run": [
        "-h/--help", "<FILE>", "--output", "--against", "--work-dir",
        "--quiet", "--jobs", "--cache/--no-cache", "--cache-dir",
        "--backend",
    ],
    "describe": ["-h/--help", "<FILE>"],
    "diff": ["-h/--help", "<REPORT>", "<BASELINE>"],
}


def surface(parser):
    """Render a parser's actions as option strings / metavar names."""
    rendered = []
    for action in parser._actions:
        if action.option_strings:
            rendered.append("/".join(action.option_strings))
        elif action.dest != "help":
            rendered.append(f"<{action.metavar or action.dest}>")
    return rendered


def subparsers_of(parser):
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            return action.choices
    raise AssertionError("no subparsers found")


class TestOptionSurface:
    def test_commands_and_order(self):
        commands = subparsers_of(build_parser())
        assert list(commands) == list(OPTION_SURFACE)

    @pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
    def test_option_surface_pinned(self, command):
        parser = subparsers_of(build_parser())[command]
        assert surface(parser) == OPTION_SURFACE[command]

    @pytest.mark.parametrize("subcommand", sorted(SCENARIO_SURFACE))
    def test_scenario_surface_pinned(self, subcommand):
        scenario = subparsers_of(build_parser())["scenario"]
        parser = subparsers_of(scenario)[subcommand]
        assert surface(parser) == SCENARIO_SURFACE[subcommand]


class TestHelp:
    @pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--help" in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand", sorted(SCENARIO_SURFACE))
    def test_scenario_help_exits_0(self, subcommand, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", subcommand, "--help"])
        assert excinfo.value.code == 0
        capsys.readouterr()

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestSharedValidatorText:
    """Every subcommand funnels through repro.cli.common, so the error
    text is literally identical — the dedupe satellite's contract."""

    SEED_COMMANDS = [
        ["run", "figure5", "--seed", "nope"],
        ["barrier", "--seed", "nope"],
        ["verify", "--seed", "nope"],
        ["advise", "--seed", "nope"],
        ["faults", "figure5", "--seed", "nope"],
        ["check", "--seed", "nope"],
        ["chaos", "figure5", "--seed", "nope"],
    ]

    @pytest.mark.parametrize(
        "argv", SEED_COMMANDS, ids=[a[0] for a in SEED_COMMANDS]
    )
    def test_seed_type_error_text_identical(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "seed must be an integer, got 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [a[:-1] + [str(2**32)] for a in SEED_COMMANDS],
        ids=[a[0] for a in SEED_COMMANDS],
    )
    def test_seed_range_error_text_identical(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "seed must be in [0, 2**32), got 4294967296" in (
            capsys.readouterr().err
        )

    JOBS_COMMANDS = [
        ["run", "figure5", "--jobs", "0"],
        ["profile", "figure5", "--jobs", "0"],
        ["faults", "figure5", "--jobs", "0"],
        ["chaos", "figure5", "--jobs", "0"],
        ["scenario", "run", "x.json", "--jobs", "0"],
    ]

    @pytest.mark.parametrize(
        "argv", JOBS_COMMANDS, ids=["-".join(a[:2]) for a in JOBS_COMMANDS]
    )
    def test_jobs_error_text_identical(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err

    RETRY_POLICY_COMMANDS = [
        ["run", "figure5", "--retry-policy", "polynomial"],
        ["profile", "figure5", "--retry-policy", "polynomial"],
        ["faults", "figure5", "--retry-policy", "polynomial"],
    ]

    @pytest.mark.parametrize(
        "argv",
        RETRY_POLICY_COMMANDS,
        ids=[a[0] for a in RETRY_POLICY_COMMANDS],
    )
    def test_retry_policy_error_text_identical(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "retry policy" in capsys.readouterr().err


class TestDescribeOutput:
    def test_experiment_describe_pinned(self, capsys):
        assert main(["experiment", "figure5", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "n_values" in out
        assert "repetitions" in out
        assert "seed" in out
