"""``run``: one experiment through the RunPlan execute spine.

Prints the same results digest as always — the digest covers the
canonicalized result data alone, never wall time or execution mode, so
any two runs of the same experiment and seed can be compared with one
string equality.
"""

from __future__ import annotations

import sys

from repro.cli.common import (
    add_backend_arg,
    add_exec_args,
    add_param_arg,
    add_supervisor_args,
    plan_from_args,
    render_exec_stats,
    repetitions_arg,
    scale_arg,
    seed_arg,
)


def add_parser(sub) -> None:
    p = sub.add_parser(
        "run",
        help="run one experiment, optionally parallel/cached, and print "
             "its results digest",
    )
    p.add_argument("id", metavar="ID",
                   help="experiment id; see 'python -m repro list'")
    p.add_argument("--repetitions", type=repetitions_arg, default=None)
    p.add_argument("--scale", type=scale_arg, default=None)
    p.add_argument("--seed", type=seed_arg, default=None)
    p.add_argument("--quiet", action="store_true",
                   help="print only the run summary, not the report text")
    add_param_arg(p)
    add_exec_args(p)
    add_supervisor_args(p)
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.exec.plan import execute

    try:
        plan = plan_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    outcome = execute(plan, reset_counters=True)
    if not args.quiet:
        print(outcome.result)
        print()
    print(f"experiment     : {args.id}")
    print(f"wall time      : {outcome.wall_time_seconds:.3f}s")
    if plan.exec_config is not None:
        print(f"execution      : {render_exec_stats(plan.exec_config)}")
    print(f"results digest : {outcome.digest}")
    return 0
