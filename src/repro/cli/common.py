"""Shared CLI options and validation: the one place flags are defined.

Every subcommand that takes ``--seed`` / ``--jobs`` / ``--cache`` /
``--backend`` / the supervision flags gets them from the helpers here,
so the flag names, help text, and — critically — the *error text* are
identical across the whole CLI: a bad seed prints the same one-line
usage error (and exits 2) whether it was passed to ``run``,
``barrier``, ``faults``, ``check`` or ``scenario``.

The argparse ``type=`` callables delegate to the schema-level
validators (:func:`repro.exec.plan.validate_seed`,
:func:`repro.exec.context.validate_jobs`,
:func:`repro.exec.supervisor.parse_backoff_spec`), so the CLI and the
programmatic :class:`~repro.exec.plan.RunPlan` surface reject exactly
the same values with exactly the same messages.

:func:`plan_from_args` is the bridge from a parsed namespace to a
:class:`~repro.exec.plan.RunPlan` — the CLI's half of the "four
dispatch paths, one spine" refactor.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional

from repro.barrier.backend import BACKENDS
from repro.core.backoff import (
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.exec.context import (
    DEFAULT_CACHE_DIR,
    ExecConfig,
    get_stats,
    jobs_arg,
)
from repro.exec.plan import MAX_SEED, RunPlan, validate_seed
from repro.exec.supervisor import SupervisorConfig, parse_backoff_spec

__all__ = [
    "MAX_SEED",
    "add_backend_arg",
    "add_exec_args",
    "add_param_arg",
    "add_supervisor_args",
    "build_policy",
    "exec_config_from_args",
    "experiment_kwargs",
    "jobs_arg",
    "plan_from_args",
    "render_exec_stats",
    "repetitions_arg",
    "retry_policy_arg",
    "seed_arg",
    "supervisor_config_from_args",
]


# -- argparse types ------------------------------------------------------


def seed_arg(text: str) -> int:
    """argparse type for ``--seed``: an integer in ``[0, 2**32)``.

    Validating here turns a bad seed into a one-line usage error
    instead of a raw numpy traceback from deep inside a simulator.
    """
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}"
        ) from None
    try:
        return validate_seed(seed)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def repetitions_arg(text: str) -> int:
    """argparse type for ``--repetitions``: an integer >= 1."""
    try:
        repetitions = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"repetitions must be an integer, got {text!r}"
        ) from None
    if repetitions < 1:
        raise argparse.ArgumentTypeError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    return repetitions


def retry_policy_arg(text: str) -> str:
    """argparse type for ``--retry-policy``: validate the spec up front."""
    try:
        parse_backoff_spec(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


# -- shared argument groups ----------------------------------------------


def add_param_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-p", "--param", action="append", default=None, metavar="NAME=VALUE",
        help="set any declared experiment parameter (repeatable; see "
             "'experiment --describe <id>' for names, types and defaults)",
    )


def add_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="episode engine for barrier sweeps: 'numpy' is the "
             "vectorized kernel (requires the [fast] extra), 'python' "
             "the reference event loop, 'auto' picks numpy when "
             "available; results are bit-identical (docs/vectorization.md)",
    )


def add_exec_args(p: argparse.ArgumentParser) -> None:
    """The shared execution flags: ``--jobs``, ``--cache``, ``--cache-dir``."""
    p.add_argument(
        "--jobs", type=jobs_arg, default=None,
        help="worker processes for sweep execution (>= 1; default: serial)",
    )
    p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="reuse results from the content-addressed cache and store "
             "fresh ones into it",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def add_supervisor_args(
    p: argparse.ArgumentParser, checkpoint: bool = True
) -> None:
    """The shared supervision flags (see docs/resilience.md)."""
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failed or timed-out point up to N times "
             "(default: 0 — fail fast)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget; an expired point raises "
             "PointTimeoutError (and is retried under --retries)",
    )
    p.add_argument(
        "--retry-policy", type=retry_policy_arg, default=None,
        metavar="SPEC",
        help="retry-wait schedule: exponential[:base=B], linear[:step=S] "
             "or none — the paper's own backoff shapes (default: "
             "exponential)",
    )
    if checkpoint:
        p.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="write an atomic digest-verified checkpoint per finished "
                 "point into DIR",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="replay compatible points from --checkpoint-dir before "
                 "running the rest",
        )


# -- namespace -> config resolution --------------------------------------


def exec_config_from_args(args) -> Optional[ExecConfig]:
    """An engine-routed ExecConfig, or None when no exec flag was given.

    Any explicit exec flag — even ``--jobs 1`` — routes the run through
    the exec engine, so serial and parallel runs of the same experiment
    produce identical observability output and manifest digests.
    """
    jobs = getattr(args, "jobs", None)
    cache = getattr(args, "cache", None)
    cache_dir = getattr(args, "cache_dir", None)
    if jobs is None and cache is None and cache_dir is None:
        return None
    return ExecConfig(
        jobs=jobs if jobs is not None else 1,
        cache=bool(cache),
        cache_dir=cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR,
        force_engine=True,
    )


def supervisor_config_from_args(args) -> Optional[SupervisorConfig]:
    """A SupervisorConfig, or None when no supervision flag was given."""
    retries = getattr(args, "retries", None)
    deadline = getattr(args, "deadline", None)
    policy = getattr(args, "retry_policy", None)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    if (
        retries is None
        and deadline is None
        and policy is None
        and checkpoint_dir is None
    ):
        return None
    return SupervisorConfig(
        retries=retries if retries is not None else 0,
        deadline_seconds=deadline,
        backoff=policy if policy is not None else "exponential",
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def experiment_kwargs(
    experiment_id: str, repetitions=None, scale=None, seed=None, params=None
) -> Dict[str, Any]:
    """CLI overrides resolved against the experiment's declared schema.

    The shared flags (``--repetitions`` / ``--scale`` / ``--seed``)
    apply when the spec declares the parameter; ``--param NAME=VALUE``
    entries are parsed by the declared parameter type and reject
    unknown names with the list of valid ones
    (:class:`repro.registry.ParameterError`).
    """
    from repro.registry import ParameterError, get_spec

    spec = get_spec(experiment_id)
    names = set(spec.param_names())
    kwargs: Dict[str, Any] = {}
    for name, value in (
        ("repetitions", repetitions),
        ("scale", scale),
        ("seed", seed),
    ):
        if value is not None and name in names:
            kwargs[name] = value
    for entry in params or ():
        name, sep, text = entry.partition("=")
        if not sep:
            raise ParameterError(
                f"--param expects NAME=VALUE, got {entry!r}"
            )
        kwargs[name] = spec.get_param(name).parse(text)
    return kwargs


def plan_from_args(
    args,
    experiment_id: Optional[str] = None,
    arm_supervision: bool = True,
) -> RunPlan:
    """Build the :class:`RunPlan` a parsed namespace describes.

    Raises ``ValueError`` for flag combinations argparse cannot check
    (``--resume`` without ``--checkpoint-dir``); the caller turns that
    into the usual exit-2 usage error.  With ``arm_supervision`` (the
    ``run``/``profile`` behaviour), a supervision flag alone still
    routes the run through the exec engine, so ``--retries`` takes
    effect without an explicit ``--jobs``.
    """
    config = exec_config_from_args(args)
    supervisor = supervisor_config_from_args(args)
    if arm_supervision and supervisor is not None and config is None:
        # Supervision lives in the exec engine: arm it even without an
        # explicit exec flag, so --retries alone still takes effect.
        config = ExecConfig(force_engine=True)
    if experiment_id is None:
        experiment_id = args.id
    params = experiment_kwargs(
        experiment_id,
        getattr(args, "repetitions", None),
        getattr(args, "scale", None),
        params=getattr(args, "param", None),
    )
    return RunPlan(
        experiment_id=experiment_id,
        params=params,
        seed=getattr(args, "seed", None),
        exec_config=config,
        supervisor=supervisor,
        backend=getattr(args, "backend", None),
    )


# -- presentation helpers ------------------------------------------------


def render_exec_stats(config: ExecConfig) -> str:
    stats = get_stats()
    cache_state = "on" if config.cache else "off"
    line = (
        f"jobs={config.jobs}, cache {cache_state}, "
        f"{stats.cache_hits} hit(s) / {stats.cache_misses} miss(es) / "
        f"{stats.cache_stores} store(s)"
    )
    if stats.shards:
        line += f", {stats.shards} shard(s)"
    recoveries = []
    if stats.points_resumed:
        recoveries.append(f"{stats.points_resumed} resumed")
    if stats.retries:
        recoveries.append(f"{stats.retries} retried")
    if stats.worker_deaths:
        recoveries.append(f"{stats.worker_deaths} worker death(s)")
    if stats.cache_quarantined:
        recoveries.append(f"{stats.cache_quarantined} quarantined")
    if recoveries:
        line += ", " + ", ".join(recoveries)
    return line


def build_policy(name: str, base: int, step: int):
    """A backoff policy from the ``barrier`` subcommand's flag triple."""
    if name == "none":
        return NoBackoff()
    if name == "variable":
        return VariableBackoff()
    if name == "linear":
        return LinearFlagBackoff(step=step)
    if name == "exponential":
        return ExponentialFlagBackoff(base=base)
    raise ValueError(f"unknown policy {name!r}")
