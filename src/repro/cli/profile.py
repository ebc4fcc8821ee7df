"""``profile``: run one experiment with tracing enabled."""

from __future__ import annotations

import sys

from repro.cli.common import (
    add_backend_arg,
    add_exec_args,
    add_param_arg,
    add_supervisor_args,
    plan_from_args,
    repetitions_arg,
)


def add_parser(sub) -> None:
    p = sub.add_parser(
        "profile",
        help="run one experiment with tracing on; write manifest + events",
    )
    p.add_argument("id", metavar="ID",
                   help="experiment id; see 'python -m repro list'")
    p.add_argument(
        "--output", default=None,
        help="output directory (default: profiles/<experiment-id>)",
    )
    p.add_argument("--repetitions", type=repetitions_arg, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument(
        "--ring-size", type=int, default=4096,
        help="in-memory event buffer size (the JSONL file gets everything)",
    )
    p.add_argument(
        "--show-result", action="store_true",
        help="also print the experiment's report text",
    )
    add_param_arg(p)
    add_exec_args(p)
    add_supervisor_args(p)
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.obs import profile_experiment

    try:
        plan = plan_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with plan.contexts():
        profile = profile_experiment(
            args.id,
            output_dir=args.output,
            ring_size=args.ring_size,
            **plan.overrides(),
        )
    if args.show_result:
        print(profile.result)
        print()
    print(profile.summary)
    print()
    print(f"manifest : {profile.manifest_path}")
    print(f"events   : {profile.events_path} "
          f"({profile.manifest.events_emitted:,} events)")
    print(f"summary  : {profile.summary_path}")
    print(f"digest   : {profile.manifest.deterministic_digest()}")
    return 0
