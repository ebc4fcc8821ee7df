"""One pass of a batch workload, in a fresh process.

Run by ``run.py`` (never imported by it)::

    PYTHONPATH=src python3 perfbench/batch_pass.py --workload W --seed S [--trace] [--spans FILE]
    PYTHONPATH=src python3 perfbench/batch_pass.py --probe

Each plan goes through ``plan_from_json`` and ``execute`` with no exec
config and the ambient backend, which is the path ``python -m repro
run <id>`` takes.  A fresh process per pass keeps the per-process trace
cache and other in-process memos cold, as on a command-line run.

Prints one JSON line: the monotonic time at which imports finished
(``ready``), each plan's digest and wall time and their sum, the host probe timed
before the first plan and after each plan (``probes``), the process's
peak RSS, and with ``--trace`` the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import repro.exec.plan as plan_module
import repro.registry  # noqa: F401  (spec modules load at import)

READY = time.monotonic()

from common import host_probe, plan_label  # noqa: E402
from spans import TARGETS, Recorder, install_point_spans, layer_totals  # noqa: E402
from workloads import batch_plans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true",
                        help="exit once imports finish (a set-up sample)")
    args = parser.parse_args(argv)
    report = {"ready": READY}
    probes = [host_probe()]
    if args.probe:
        report["probes"] = probes
        print(json.dumps(report), flush=True)
        return 0
    recorder = None
    if args.trace:
        from repro.barrier.backend import reset_kernel_counters

        reset_kernel_counters()
        recorder = Recorder()
        recorder.install(TARGETS)
        install_point_spans(recorder)
    plans = []
    for plan in batch_plans(args.workload, args.seed):
        label = plan_label(plan)
        if recorder is not None:
            recorder.context = label
        began = time.perf_counter()
        # Looked up through the module, so a traced pass calls the
        # wrapped functions.
        try:
            outcome = plan_module.execute(plan_module.plan_from_json(plan))
        except Exception as error:  # noqa: BLE001 - a failing plan is a counted failure
            plans.append({"label": label, "digest": None,
                          "error": f"{type(error).__name__}: {error}",
                          "wall_s": time.perf_counter() - began})
        else:
            plans.append({"label": label, "digest": outcome.digest,
                          "wall_s": time.perf_counter() - began})
        probes.append(host_probe())
    report["wall_s"] = sum(entry["wall_s"] for entry in plans)
    report["plans"] = plans
    report["probes"] = probes
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        from repro.barrier.backend import get_kernel_counters
        from repro.exec.context import get_stats

        recorder.uninstall()
        counters = get_kernel_counters()
        report["layers"] = layer_totals(recorder.spans)
        report["kernel"] = {
            "vectorized": counters.vectorized_shards,
            "fallback": counters.fallback_shards,
        }
        report["exec"] = get_stats().as_dict()
        if args.spans:
            recorder.dump(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
