"""``faults``: run one experiment resiliently under a fault plan."""

from __future__ import annotations

import sys

from repro.cli.common import (
    add_backend_arg,
    add_exec_args,
    add_param_arg,
    exec_config_from_args,
    experiment_kwargs,
    repetitions_arg,
    retry_policy_arg,
    scale_arg,
    seed_arg,
)


def add_parser(sub) -> None:
    p = sub.add_parser(
        "faults",
        help="run an experiment resiliently under a fault-injection plan",
    )
    p.add_argument("id", metavar="ID",
                   help="experiment id; see 'python -m repro list'")
    p.add_argument(
        "--plan", default="none",
        help="named plan (none, stragglers, hot-module, lossy-net, "
             "flaky-flags, chaos) or a spec string like "
             "'stragglers:probability=0.2;grants:drop=0.05'",
    )
    p.add_argument("--seed", type=seed_arg, default=0,
                   help="root seed for the fault schedules")
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint directory (default: checkpoints/<experiment-id>)",
    )
    p.add_argument("--timeout", "--deadline", dest="timeout",
                   type=float, default=None,
                   help="per-point wall-clock budget in seconds "
                        "(--deadline is the run/profile spelling)")
    p.add_argument("--max-retries", "--retries", dest="max_retries",
                   type=int, default=2,
                   help="retries per failed point "
                        "(--retries is the run/profile spelling)")
    p.add_argument("--retry-backoff", type=float, default=0.05,
                   help="base retry sleep in seconds; the wait shape "
                        "comes from --retry-policy")
    p.add_argument("--retry-policy", type=retry_policy_arg, default=None,
                   metavar="SPEC",
                   help="retry-wait schedule: exponential[:base=B], "
                        "linear[:step=S] or none (default: exponential, "
                        "the historical doubling schedule)")
    p.add_argument(
        "--max-points", type=int, default=None,
        help="stop after running this many new points (simulates a crash; "
             "rerun to resume from the checkpoint)",
    )
    p.add_argument("--fresh", action="store_true",
                   help="discard any existing checkpoint first")
    p.add_argument("--repetitions", type=repetitions_arg, default=None)
    p.add_argument("--scale", type=scale_arg, default=None)
    add_param_arg(p)
    add_exec_args(p)
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.exec.plan import FaultOptions, RunPlan, execute
    from repro.exec.supervisor import CheckpointMismatchError

    # The faults subcommand owns its retry/checkpoint flags (the fault
    # runner turns them into the sweep's supervisor config), so the
    # plan is assembled here rather than via plan_from_args.
    try:
        plan = RunPlan(
            experiment_id=args.id,
            params=experiment_kwargs(
                args.id, args.repetitions, args.scale, params=args.param
            ),
            seed=args.seed,
            exec_config=exec_config_from_args(args),
            fault_plan=args.plan,
            faults=FaultOptions(
                checkpoint_dir=args.checkpoint_dir,
                timeout_seconds=args.timeout,
                max_retries=args.max_retries,
                retry_backoff_seconds=args.retry_backoff,
                retry_policy=(
                    args.retry_policy
                    if args.retry_policy is not None
                    else "exponential"
                ),
                max_points=args.max_points,
                fresh=args.fresh,
            ),
            backend=args.backend,
        )
        outcome = execute(plan)
    except (ValueError, CheckpointMismatchError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(outcome.summary.render())
    return 0 if outcome.summary.ok else 1
