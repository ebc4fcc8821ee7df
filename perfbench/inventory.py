"""Regeneration inventory: every registry id at paper defaults, one process each.

    python3 perfbench/inventory.py [--out FILE] [--record]

A one-shot ledger, not a gated workload: it runs ``python -m repro run
<id> --quiet`` for each of the registry's ids in a fresh process, checks
each printed results digest against the ``inventory`` section of
``expected_digests.json`` and records each id's wall time (process spawn to exit, and the run's own
reported time).  The ledger is written as JSON to ``--out`` (default
``.perfbench/inventory.json``).  ``--record`` stores the digests it sees
as the expected ones instead of checking them.  Exits 1 when any id
fails or mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from typing import Dict, List

from common import EXPECTED_DIGESTS, WORK, child_env, log, program_present

#: A paper-scale id must finish within this (the slowest takes ~50 s).
ID_TIMEOUT = 600.0


def registry_ids() -> List[str]:
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "list"], stdout=subprocess.PIPE,
        env=child_env(), cwd=WORK, check=True,
    ).stdout.decode()
    return [line.split()[0] for line in listing.splitlines() if line.strip()]


def run_id(experiment: str) -> Dict[str, object]:
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", experiment, "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            cwd=WORK, timeout=ID_TIMEOUT, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"id": experiment, "error": f"timed out after {ID_TIMEOUT:.0f}s"}
    process_s = time.monotonic() - spawned
    out = done.stdout.decode()
    digest = re.search(r"results digest : ([0-9a-f]+)", out)
    wall = re.search(r"wall time\s+: ([0-9.]+)s", out)
    if done.returncode != 0 or digest is None:
        return {"id": experiment, "process_s": process_s,
                "error": done.stderr.decode(errors="replace")[-500:]}
    return {"id": experiment, "digest": digest.group(1), "process_s": process_s,
            "run_s": float(wall.group(1)) if wall else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(WORK, "inventory.json"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not program_present():
        log("error: no program sources in this checkout")
        return 2
    os.makedirs(WORK, exist_ok=True)
    ids = registry_ids()
    with open(EXPECTED_DIGESTS, encoding="utf-8") as handle:
        document = json.load(handle)
    expected = document.get("inventory", {})
    entries = []
    failures = 0
    for experiment in ids:
        entry = run_id(experiment)
        if "digest" in entry and not args.record:
            entry["digest_ok"] = expected.get(experiment) == entry["digest"]
        if "error" in entry or entry.get("digest_ok") is False:
            failures += 1
        entries.append(entry)
        log(f"{experiment:18s} {entry.get('process_s', 0):8.2f}s  "
            f"{'ok' if 'error' not in entry and entry.get('digest_ok', True) else 'FAILED'}")
    total = sum(entry.get("process_s", 0.0) for entry in entries)
    ledger = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "total_process_s": total,
        "failures": failures,
        "ids": entries,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    log(f"{len(entries)} ids, {total:.1f}s total, {failures} failed -> {args.out}")
    if args.record:
        recorded = document.setdefault("inventory", {})
        recorded.update(
            (entry["id"], entry["digest"]) for entry in entries if "digest" in entry
        )
        document["inventory"] = dict(sorted(recorded.items()))
        with open(EXPECTED_DIGESTS, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
