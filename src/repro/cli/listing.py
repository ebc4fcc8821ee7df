"""``list``: print the experiment catalogue."""

from __future__ import annotations

from repro.registry import all_specs


def add_parser(sub) -> None:
    sub.add_parser("list", help="list experiment ids").set_defaults(fn=cmd)


def cmd(_args) -> int:
    for spec in all_specs():
        print(f"{spec.id:12} {spec.summary}")
    return 0
