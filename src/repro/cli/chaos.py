"""``chaos``: crash-recovery drills against the serial baseline."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    add_backend_arg,
    add_param_arg,
    add_supervisor_args,
    experiment_kwargs,
    jobs_arg,
    repetitions_arg,
    scale_arg,
    seed_arg,
)


def add_parser(sub) -> None:
    p = sub.add_parser(
        "chaos",
        help="kill workers and damage durable state mid-sweep, then "
             "assert supervised recovery matches the serial baseline",
    )
    p.add_argument("id", metavar="ID",
                   help="experiment id; see 'python -m repro list'")
    p.add_argument("--seed", type=seed_arg, default=0,
                   help="seeds the victim choice and the fault schedule")
    p.add_argument("--jobs", type=jobs_arg, default=None,
                   help="worker processes for the chaos runs (default: 4)")
    p.add_argument("--kill", type=int, default=1,
                   help="worker kills (SIGKILL) to inject mid-sweep")
    p.add_argument("--hang", type=int, default=0,
                   help="points to hang into their --deadline")
    p.add_argument("--hang-seconds", type=float, default=30.0,
                   help="how long an injected hang sleeps")
    p.add_argument(
        "--corrupt-cache", action=argparse.BooleanOptionalAction,
        default=True,
        help="tear the victim point's cache entry between runs",
    )
    p.add_argument(
        "--truncate-checkpoint", action=argparse.BooleanOptionalAction,
        default=True,
        help="tear the victim point's checkpoint record between runs",
    )
    p.add_argument("--work-dir", default=None,
                   help="directory for the cache + checkpoints "
                        "(default: a temp dir, deleted afterwards)")
    p.add_argument("--keep", action="store_true",
                   help="keep the work dir for post-mortems")
    p.add_argument("--counters", default=None, metavar="PATH",
                   help="also write the recovery counters as JSON to PATH")
    p.add_argument("--repetitions", type=repetitions_arg, default=None)
    p.add_argument("--scale", type=scale_arg, default=None)
    add_param_arg(p)
    add_supervisor_args(p, checkpoint=False)
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    import json
    import os

    from repro.exec.chaos import run_chaos

    overrides = experiment_kwargs(
        args.id, args.repetitions, args.scale, params=args.param
    )
    try:
        report = run_chaos(
            args.id,
            seed=args.seed,
            jobs=args.jobs if args.jobs is not None else 4,
            kill=args.kill,
            hang=args.hang,
            hang_seconds=args.hang_seconds,
            deadline_seconds=args.deadline,
            retries=args.retries if args.retries is not None else 2,
            retry_policy=(
                args.retry_policy
                if args.retry_policy is not None
                else "exponential"
            ),
            corrupt_cache=args.corrupt_cache,
            truncate_checkpoint=args.truncate_checkpoint,
            work_dir=args.work_dir,
            keep=args.keep,
            **overrides,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.counters:
        os.makedirs(os.path.dirname(args.counters) or ".", exist_ok=True)
        with open(args.counters, "w", encoding="utf-8") as handle:
            json.dump(report.counters(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"counters  : {args.counters}")
    return 0 if report.ok else 1
