#!/usr/bin/env python
"""Digest-check the coherence and network experiments at paper scale.

The coherence goldens (``tests/goldens/coherence_goldens.json``) run at
trace scale 0.05, and the network goldens
(``tests/goldens/network_goldens.json``) at horizons of a few hundred
cycles.  This runs each id below at its paper defaults (full-length
traces and working sets; 20 000-cycle network runs; ``scale1024``'s
Omega-network probe up to 4096 ports) with ``python -m repro run <id>
--quiet``, one process each, and compares the printed results digest
with the ``inventory`` entry of ``perfbench/expected_digests.json``,
which it only reads.

Usage::

    python tools/paper_digests.py

Exits 1 on any mismatch or failed run.  Takes about 60 s on a
2-vCPU x86_64 host.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(REPO_ROOT, "perfbench", "expected_digests.json")
IDS = (
    "table1",
    "table2",
    "figure1",
    "tree_coherence",
    "bus_vs_directory",
    "coherent_barrier",
    "netbackoff",
    "tree_saturation",
    "scale1024",
)


def run_digest(experiment: str) -> str:
    """The results digest ``repro run`` prints for ``experiment``."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", experiment, "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
    )
    found = re.search(r"results digest : ([0-9a-f]+)", done.stdout.decode())
    if done.returncode != 0 or found is None:
        raise RuntimeError(done.stderr.decode(errors="replace")[-500:])
    return found.group(1)


def main() -> int:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)["inventory"]
    failed = 0
    for experiment in IDS:
        try:
            digest = run_digest(experiment)
        except RuntimeError as error:
            print(f"{experiment:18s} FAILED to run: {error}")
            failed += 1
            continue
        ok = digest == expected.get(experiment)
        failed += not ok
        print(f"{experiment:18s} {digest[:16]} {'ok' if ok else 'MISMATCH'}")
    print(f"{len(IDS) - failed}/{len(IDS)} digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
