"""Pinned outputs of the two network simulators.

The Omega-network (``MultistageNetwork``) and packet-switched
(``PacketSwitchedNetwork``) simulators are the heaviest code in the
repository, and speed work on them must keep every simulated statistic.
``tests/goldens/network_goldens.json`` pins:

- the result digests of small-horizon ``netbackoff`` and
  ``tree_saturation`` runs for 4, 8 and 16 ports and seeds 0-7, and for
  64 ports (six stages) and seeds 0-3;
- every statistic of packet-network runs the registry never makes: two
  packets served per module per cycle, one-slot queues, and every
  Section 8 policy, reactive and proactive;
- every statistic, and each message's completion time, of an open-loop
  multistage run with several messages per source and ``hold_time=1``
  under every Section 8 policy;
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
from repro.network.multistage import MultistageNetwork, NetworkMessage, Workload
from repro.network.netbackoff import ALL_STRATEGIES, QueueFeedbackBackoff
from repro.network.packet import PacketSwitchedNetwork
from repro.obs.tracer import Tracer, tracing

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "network_goldens.json"
)

#: Small horizons: every policy and hot fraction, a few hundred cycles.
HORIZONS = {"netbackoff": 300, "tree_saturation": 100}
PORTS = (4, 8, 16)
SEEDS = range(8)
WIDE_PORTS = 64
WIDE_SEEDS = range(4)
LOSSY_SEEDS = range(4)
#: Packet-network settings the registry's ``tree_saturation`` never uses.
#: A module is fed at most one packet per cycle by the stage before it,
#: so a second service slot matters only where ports inject straight
#: into the last stage: a 2-port network.
PACKET_VARIANTS = {
    "service2": {"num_ports": 2, "memory_service": 2},
    "capacity1": {"num_ports": 16, "queue_capacity": 1},
}
PACKET_MODES = {"reactive": False, "proactive": True}


def registry_digests(experiment, ports, seeds=SEEDS):
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
        for seed in seeds
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


def _stats(stats):
    return [stats.count, stats.mean, stats.variance, stats.minimum, stats.maximum]


def _result_fields(result):
    return {
        "completed": result.completed,
        "collisions": result.collisions,
        "attempts": result.attempts,
        "dropped_grants": result.dropped_grants,
        "duplicated_grants": result.duplicated_grants,
        "latency": _stats(result.latency),
        "attempts_per_message": [
            result.attempts_per_message.count,
            result.attempts_per_message.mean,
            result.attempts_per_message.maximum,
        ],
        "collision_depths": [list(item) for item in result.collision_depths.items()],
    }


def _packet_fields(result):
    return {
        "delivered_hot": result.delivered_hot,
        "delivered_cold": result.delivered_cold,
        "injected": result.injected,
        "injection_blocked": result.injection_blocked,
        "latency_hot": _stats(result.latency_hot),
        "latency_cold": _stats(result.latency_cold),
    }


def packet_variant_run(variant):
    """A hot-spot packet run with one of ``PACKET_VARIANTS``' settings."""
    network = PacketSwitchedNetwork(**PACKET_VARIANTS[variant])
    result = network.run(horizon=400, injection_rate=0.5, hot_fraction=0.2, seed=3)
    return _packet_fields(result)


def packet_policy_runs(mode):
    """Every Section 8 policy on the packet network, ``mode`` per ``PACKET_MODES``."""
    runs = {}
    for strategy in ALL_STRATEGIES:
        policy = strategy()
        network = PacketSwitchedNetwork(num_ports=16, queue_capacity=2)
        result = network.run(
            horizon=400,
            injection_rate=0.6,
            hot_fraction=0.25,
            backoff=policy,
            proactive=PACKET_MODES[mode],
            seed=5,
        )
        runs[policy.name] = _packet_fields(result)
    return runs


class _Messages(Workload):
    """A fixed open-loop message list."""

    def __init__(self, messages):
        self.messages = messages

    def initial_messages(self):
        return list(self.messages)


def open_loop_messages():
    """Four messages per source on 16 ports, a third of them to module 0."""
    return [
        NetworkMessage(
            source=source,
            dest=0 if (source + k) % 3 == 0 else (7 * source + 3 * k) % 16,
            issue_time=2 * k + source % 4,
        )
        for source in range(16)
        for k in range(4)
    ]


def open_loop_runs():
    """Every Section 8 policy on the open-loop messages, ``hold_time=1``."""
    runs = {}
    for strategy in ALL_STRATEGIES:
        policy = strategy()
        messages = open_loop_messages()
        network = MultistageNetwork(num_ports=16, hold_time=1, backoff=policy)
        result = network.run(_Messages(messages), 60)
        fields = _result_fields(result)
        fields["attempts_per_message"] = _stats(result.attempts_per_message)
        fields["completed_times"] = [message.completed_time for message in messages]
        runs[policy.name] = fields
    return runs


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
        "registry_wide": {
            experiment: registry_digests(experiment, WIDE_PORTS, WIDE_SEEDS)
            for experiment in HORIZONS
        },
        "packet_variants": {
            variant: packet_variant_run(variant) for variant in PACKET_VARIANTS
        },
        "packet_policies": {mode: packet_policy_runs(mode) for mode in PACKET_MODES},
        "open_loop": open_loop_runs(),
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


@pytest.mark.parametrize("experiment", sorted(HORIZONS))
def test_wide_registry_digests_pinned(experiment):
    assert registry_digests(experiment, WIDE_PORTS, WIDE_SEEDS) == (
        GOLDENS["registry_wide"][experiment]
    )


@pytest.mark.parametrize("variant", sorted(PACKET_VARIANTS))
def test_packet_variant_pinned(variant):
    assert _roundtrip(packet_variant_run(variant)) == (
        GOLDENS["packet_variants"][variant]
    )


@pytest.mark.parametrize("mode", sorted(PACKET_MODES))
def test_packet_policies_pinned(mode):
    runs = _roundtrip(packet_policy_runs(mode))
    assert runs == GOLDENS["packet_policies"][mode]
    # Every run blocked some injections, so each policy's delay was used.
    assert all(run["injection_blocked"] for run in runs.values())


def test_open_loop_multistage_pinned():
    runs = _roundtrip(open_loop_runs())
    assert runs == GOLDENS["open_loop"]
    # Messages collided under every policy, and under at least one some
    # were still in flight at the horizon.
    assert all(run["collisions"] for run in runs.values())
    assert any(None in run["completed_times"] for run in runs.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_network_goldens --record")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
