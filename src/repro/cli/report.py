"""``report``: run every experiment and write reports to a directory."""

from __future__ import annotations

from repro.exec.plan import RunPlan, execute
from repro.registry import experiment_ids


def add_parser(sub) -> None:
    p = sub.add_parser("report", help="run every experiment, write reports")
    p.add_argument("--output", default="reports", help="output directory")
    p.set_defaults(fn=cmd)


def cmd(args) -> int:
    import os

    os.makedirs(args.output, exist_ok=True)
    failures = 0
    for experiment_id in experiment_ids():
        try:
            result = execute(RunPlan(experiment_id)).result
        except Exception as error:  # pragma: no cover - defensive
            print(f"{experiment_id:18} FAILED: {error}")
            failures += 1
            continue
        path = os.path.join(args.output, f"{experiment_id}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(str(result) + "\n")
        print(f"{experiment_id:18} -> {path}")
    return 1 if failures else 0
