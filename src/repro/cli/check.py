"""``check``: verify the reproduction itself (see docs/testing.md)."""

from __future__ import annotations

import sys

from repro.cli.common import add_backend_arg, seed_arg


def add_parser(sub) -> None:
    p = sub.add_parser(
        "check",
        help="verify the reproduction: invariants, metamorphic relations, "
             "schema-derived fuzzing",
    )
    p.add_argument(
        "--suite", action="append", default=None,
        choices=("invariants", "differential", "fuzz"),
        help="run only this suite (repeatable; default: all three)",
    )
    p.add_argument(
        "--budget", default="default",
        help="effort profile: small, default, large, or an integer "
             "case count",
    )
    p.add_argument("--seed", type=seed_arg, default=0,
                   help="root seed; every randomized case derives from it")
    p.add_argument(
        "--ids", nargs="+", default=None, metavar="ID",
        help="restrict fuzzing to these experiment ids",
    )
    p.add_argument(
        "--output", default="checks",
        help="directory for report.json + manifest.json artifacts",
    )
    add_backend_arg(p)
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    import os

    from repro.check.runner import run_checks

    try:
        report = run_checks(
            suites=args.suite,
            budget=args.budget,
            seed=args.seed,
            ids=args.ids,
            out_dir=args.output,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.output:
        print()
        print(f"report   : {os.path.join(args.output, 'report.json')}")
        print(f"manifest : {os.path.join(args.output, 'manifest.json')} "
              f"(digest {report.manifest_digest[:16]}…)")
    return 0 if report.ok else 1
