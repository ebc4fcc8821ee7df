"""Pinned outputs of the two network simulators.

The Omega-network (``MultistageNetwork``) and packet-switched
(``PacketSwitchedNetwork``) simulators are the heaviest code in the
repository, and speed work on them must keep every simulated statistic.
``tests/goldens/network_goldens.json`` pins:

- the result digests of small-horizon ``netbackoff`` and
  ``tree_saturation`` runs for 4, 8 and 16 ports and seeds 0-7;
- ``netbackoff`` under the named ``lossy-net`` fault plan, both through
  ``execute`` and as raw counters of the ``network.grant`` drop/dup
  branch (``dropped_grants``, ``duplicated_grants``);
- the ``network.*`` counters, observations and run event of a traced
  multistage run.

Regenerate only when a change is meant to alter network results, and
say so::

    PYTHONPATH=src python -m tests.test_network_goldens --record
"""

import json
import os
import sys
import tempfile

import pytest

from repro.exec.plan import FaultOptions, RunPlan, execute
from repro.faults.plan import fault_injection
from repro.faults.spec import parse_plan
from repro.network.hotspot import HotspotWorkload
from repro.network.multistage import MultistageNetwork
from repro.network.netbackoff import ALL_STRATEGIES, QueueFeedbackBackoff
from repro.obs.tracer import Tracer, tracing

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "network_goldens.json"
)

#: Small horizons: every policy and hot fraction, a few hundred cycles.
HORIZONS = {"netbackoff": 300, "tree_saturation": 100}
PORTS = (4, 8, 16)
SEEDS = range(8)
LOSSY_SEEDS = range(4)


def registry_digests(experiment, ports):
    """``{seed: digest}`` of ``experiment`` at a small horizon."""
    return {
        str(seed): execute(
            RunPlan(
                experiment_id=experiment,
                params={
                    "num_ports": ports,
                    "horizon": HORIZONS[experiment],
                    "seed": seed,
                },
            )
        ).digest
        for seed in SEEDS
    }


def lossy_plan_digest(seed):
    """``netbackoff`` under ``lossy-net`` through the fault runner."""
    with tempfile.TemporaryDirectory() as checkpoints:
        outcome = execute(
            RunPlan(
                experiment_id="netbackoff",
                params={"num_ports": 8, "horizon": HORIZONS["netbackoff"]},
                seed=seed,
                fault_plan="lossy-net",
                faults=FaultOptions(checkpoint_dir=checkpoints),
            )
        )
    return outcome.digest


def _result_fields(result):
    return {
        "completed": result.completed,
        "collisions": result.collisions,
        "attempts": result.attempts,
        "dropped_grants": result.dropped_grants,
        "duplicated_grants": result.duplicated_grants,
        "latency": [
            result.latency.count,
            result.latency.mean,
            result.latency.variance,
            result.latency.minimum,
            result.latency.maximum,
        ],
        "attempts_per_message": [
            result.attempts_per_message.count,
            result.attempts_per_message.mean,
            result.attempts_per_message.maximum,
        ],
        "collision_depths": [list(item) for item in result.collision_depths.items()],
    }


def lossy_runs(seed):
    """Every Section 8 policy on an 8-port network under ``lossy-net``."""
    runs = {}
    with fault_injection(parse_plan("lossy-net", seed=seed)) as plan:
        for strategy in ALL_STRATEGIES:
            policy = strategy()
            network = MultistageNetwork(num_ports=8, backoff=policy)
            result = network.run(
                HotspotWorkload(num_ports=8, hot_fraction=0.2, seed=seed), 500
            )
            runs[policy.name] = _result_fields(result)
        runs["fault_counts"] = plan.snapshot()
    return runs


def traced_run():
    """The ``network.*`` tracer state of one multistage run."""
    tracer = Tracer()
    with tracing(tracer):
        network = MultistageNetwork(num_ports=8, backoff=QueueFeedbackBackoff())
        network.run(HotspotWorkload(num_ports=8, hot_fraction=0.5, seed=1), 2000)
    snapshot = tracer.snapshot()
    return {
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("network.")
        },
        "observations": {
            name: value
            for name, value in snapshot["observations"].items()
            if name.startswith("network.")
        },
        "run_event": {
            key: value
            for key, value in tracer.recent(kind="network.run")[-1].items()
            if key != "seq"
        },
    }


def compute_goldens():
    return {
        "registry": {
            experiment: {
                str(ports): registry_digests(experiment, ports) for ports in PORTS
            }
            for experiment in HORIZONS
        },
        "lossy_net": {
            str(seed): {"digest": lossy_plan_digest(seed), "runs": lossy_runs(seed)}
            for seed in LOSSY_SEEDS
        },
        "traced": traced_run(),
    }


def _load():
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDENS = _load() if os.path.exists(GOLDENS_PATH) else None


def _roundtrip(value):
    """``value`` as the JSON file stores it (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("ports", PORTS)
@pytest.mark.parametrize("experiment", sorted(HORIZONS))
def test_registry_digests_pinned(experiment, ports):
    assert registry_digests(experiment, ports) == (
        GOLDENS["registry"][experiment][str(ports)]
    )


@pytest.mark.parametrize("seed", LOSSY_SEEDS)
def test_lossy_net_pinned(seed):
    golden = GOLDENS["lossy_net"][str(seed)]
    runs = _roundtrip(lossy_runs(seed))
    assert runs == golden["runs"]
    # The drop and dup branches both ran, so the pin covers them.
    assert sum(run["dropped_grants"] for run in runs.values() if "completed" in run)
    assert sum(run["duplicated_grants"] for run in runs.values() if "completed" in run)
    assert lossy_plan_digest(seed) == golden["digest"]


def test_traced_multistage_counters_pinned():
    assert _roundtrip(traced_run()) == GOLDENS["traced"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_network_goldens --record")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
