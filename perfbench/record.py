"""Record the expected result digest of every plan the workloads run.

    PYTHONPATH=src python3 perfbench/record.py

Runs each batch plan (for every simulation-seed variant) and every plan
of the serve universe once through ``execute`` and rewrites the
``digests`` section of ``expected_digests.json``, keeping its
``inventory`` section (see ``inventory.py --record``).  Run it only at a
commit whose results are known good: a change meant only for speed must
leave every digest identical, and the benchmark counts a mismatch as a
failed operation.
"""

from __future__ import annotations

import json
import os
import sys

from dataclasses import replace

from repro.exec.plan import FaultOptions, execute, plan_from_json

from common import EXPECTED_DIGESTS, WORK, log, plan_label
from workloads import BATCH, SEED_VARIANTS, batch_plans, serve_universe


def record(plans, digests) -> None:
    for index, plan in enumerate(plans):
        label = plan_label(plan)
        if label not in digests:
            run_plan = plan_from_json(plan)
            if run_plan.fault_plan is not None:
                # Fault runs checkpoint per experiment id; give each its own.
                run_plan = replace(run_plan, faults=FaultOptions(
                    checkpoint_dir=os.path.join(WORK, "record", str(index)),
                    fresh=True,
                ))
            digests[label] = execute(run_plan).digest
        if index % 50 == 0:
            log(f"{index}/{len(plans)} {label}")


def main() -> int:
    document = {"digests": {}, "inventory": {}}
    if os.path.exists(EXPECTED_DIGESTS):
        with open(EXPECTED_DIGESTS, encoding="utf-8") as handle:
            document["inventory"] = json.load(handle).get("inventory", {})
    digests: dict = {}
    for workload in BATCH:
        for seed in range(SEED_VARIANTS):
            record(batch_plans(workload, seed), digests)
    record(serve_universe(), digests)
    document["digests"] = dict(sorted(digests.items()))
    with open(EXPECTED_DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    log(f"{len(digests)} digests in {EXPECTED_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
