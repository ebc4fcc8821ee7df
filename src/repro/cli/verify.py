"""``verify``: re-check the paper's headline claims."""

from __future__ import annotations

from repro.cli.common import repetitions_arg, seed_arg


def add_parser(sub) -> None:
    p = sub.add_parser("verify", help="re-check the paper's headline claims")
    p.add_argument("--repetitions", type=repetitions_arg, default=30)
    p.add_argument("--seed", type=seed_arg, default=0)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    from repro.check.claims import render, verify

    report = verify(repetitions=args.repetitions, seed=args.seed)
    print(render(report))
    return 0 if report.ok else 1
