"""``experiment``: regenerate paper artifacts by id."""

from __future__ import annotations

from repro.cli.common import (
    add_param_arg,
    plan_from_args,
    repetitions_arg,
    scale_arg,
)
from repro.exec.plan import execute


def add_parser(sub) -> None:
    p = sub.add_parser("experiment", help="run experiments by id")
    p.add_argument("ids", nargs="+", metavar="ID",
                   help="experiment id(s); see 'python -m repro list'")
    p.add_argument("--repetitions", type=repetitions_arg, default=None)
    p.add_argument("--scale", type=scale_arg, default=None)
    p.add_argument(
        "--describe", action="store_true",
        help="print each experiment's parameter schema instead of running",
    )
    add_param_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    if args.describe:
        from repro.registry import get_spec

        for index, experiment_id in enumerate(args.ids):
            if index:
                print()
            print(get_spec(experiment_id).describe())
        return 0
    for experiment_id in args.ids:
        plan = plan_from_args(args, experiment_id=experiment_id)
        print(execute(plan).result)
        print()
    return 0
