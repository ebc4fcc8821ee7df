"""Collect paired benchmark runs of two checkouts and compare them.

    python3 perfbench/compare.py collect --parent DIR --change DIR \\
        --out-dir OUT [--trace 0|1]
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

``collect`` runs ``python3 perfbench/run.py`` in each checkout (its own
copy, which must be identical in both) for every workload of
``BENCHMARK.json`` and seeds 1 to 10, for its ``run_seconds``,
alternating which side runs first from one seed to the next, and
appends each result line to ``OUT/parent.jsonl`` and
``OUT/change.jsonl``.

``report`` pairs the two sides' runs by workload and seed and prints,
for every workload and metric, each side's median and quartiles and a
verdict:

- ``better``: the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (for metrics without a bound,
  the mirror of the ``better`` rule);
- ``unresolved``: fewer than 10 pairs, or the parent's own spread is
  wider than the bound and not every change run beats every parent run;
- ``same``: none of these.

It also reports each workload's failed fraction (failed over attempted
operations) on both sides.  Exits 1 when any metric is ``worse`` or any
failed fraction rose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import ROOT, median, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def classify(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> str:
    """The verdict on one metric from paired runs (index i pairs with i)."""
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return "unresolved"
    parent, change = list(parent[:pairs]), list(change[:pairs])
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = median(change)
    gap = sign * (med_c - med_p)
    iqr = q3 - q1
    if wins >= WIN_SHARE * pairs and gap > iqr:
        return "better"
    if bound is None:
        if losses >= WIN_SHARE * pairs and -gap > iqr:
            return "worse"
        return "same"
    if -gap > bound * abs(med_p):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if med_p and iqr / abs(med_p) > bound and not all_better:
        return "unresolved"
    return "same"


def paired(
    parent: Iterable[dict], change: Iterable[dict]
) -> Dict[str, List[Tuple[dict, dict]]]:
    """Runs of both sides matched by (workload, seed), per workload."""
    index = {(r["workload"], r["seed"]): r for r in change}
    out: Dict[str, List[Tuple[dict, dict]]] = {}
    for run in parent:
        other = index.get((run["workload"], run["seed"]))
        if other is not None:
            out.setdefault(run["workload"], []).append((run, other))
    return out


def report(parent_runs: List[dict], change_runs: List[dict], bench: dict) -> int:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    status = 0
    for workload, pairs in sorted(paired(parent_runs, change_runs).items()):
        print(f"== {workload} ({len(pairs)} pairs)")
        names = sorted({n for p, c in pairs for n in p["result"]["metrics"]}
                       & {n for p, c in pairs for n in c["result"]["metrics"]})
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            p_vals = [p["result"]["metrics"][name]["value"] for p, c in pairs]
            c_vals = [c["result"]["metrics"][name]["value"] for p, c in pairs]
            verdict = classify(p_vals, c_vals, spec["better"], spec.get("bound"))
            if verdict == "worse":
                status = 1
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(f"  {name:34s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {verdict}")
        fractions = []
        for side in (0, 1):
            attempted = sum(pair[side]["result"]["attempted"] for pair in pairs)
            failed = sum(pair[side]["result"]["failed"] for pair in pairs)
            fractions.append(failed / attempted if attempted else 1.0)
        rose = fractions[1] > fractions[0]
        if rose:
            status = 1
        print(f"  {'failed_frac':34s} parent {fractions[0]:.6g}  change "
              f"{fractions[1]:.6g}  {'ROSE' if rose else 'ok'}")
    return status


def run_benchmark(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    bench = load_benchmark(os.path.join(checkout, "BENCHMARK.json"))
    done = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, check=True,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def collect(args) -> int:
    bench = load_benchmark(os.path.join(args.parent, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        for seed in range(1, MIN_PAIRS + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in order:
                result = run_benchmark(sides[side], workload, seed, seconds, args.trace)
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "result": result}
                with open(os.path.join(args.out_dir, f"{side}.jsonl"), "a",
                          encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed} {side}: {json.dumps(result['metrics'])}",
                      file=sys.stderr, flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run both checkouts, alternating")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report", help="compare two sets of runs")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    return report(load_runs(args.parent), load_runs(args.change), load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
