"""Pinned outputs of the trace scheduler and the coherence simulators.

Tables 1-2 and Figure 1 rest on the post-mortem scheduler's traces and
on the Dir_i_NB and snoopy-bus replays of them, so speed work on either
must keep every simulated statistic.  ``tests/goldens/coherence_goldens.json``
pins:

- every ``CoherenceStats`` field and the Figure 1 histogram for each
  application at P = 16 and 64, pointers 1, 2, 3, 4, 5 and 64, with
  synchronization cached and uncached, at trace scale 0.05;
- ``SnoopyStats`` of the invalidate, update and fetch-intent-write
  protocols over the same traces;
- a digest of the scheduled trace columns, its cycle count and its
  barrier observations, for flat, tree-3 and tree-8 barriers;
- 20 seeded random traces on caches of 1-16 sets, replayed by both
  simulators, so the eviction and writeback paths are pinned;
- the per-reference path of the coherent-barrier episodes;
- the tracer counters, observations and events of one traced
  schedule-and-replay.

Regenerate only when a change is meant to alter these results, and say
so::

    PYTHONPATH=src python -m tests.test_coherence_goldens --record
"""

import dataclasses
import hashlib
import json
import os
import random
import sys

import pytest

from repro.barrier.coherent import simulate_coherent_barrier
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator
from repro.obs.tracer import CallbackSink, Tracer, tracing
from repro.trace.apps import build_app
from repro.trace.record import Op, TraceRecord
from repro.trace.scheduler import PostMortemScheduler

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "coherence_goldens.json"
)

SCALE = 0.05
APPS = ("FFT", "SIMPLE", "WEATHER")
CPUS = (16, 64)
POINTERS = (1, 2, 3, 4, 5, 64)
#: (label, barrier_style, tree_degree) of every pinned schedule.
STYLES = (("flat", "flat", 4), ("tree-3", "tree", 3), ("tree-8", "tree", 8))
SNOOPY = {
    "invalidate": {"protocol": "invalidate"},
    "update": {"protocol": "update"},
    "fiw": {"protocol": "invalidate", "fetch_intent_write": True},
}
RANDOM_SEEDS = range(20)
BARRIER_SCHEMES = (
    "snoopy-invalidate",
    "snoopy-invalidate-fiw",
    "snoopy-update",
    "directory",
    "uncached",
)

_TRACES = {}


def schedule(app, num_cpus, style="flat", degree=4):
    """The scheduled trace of ``app`` (memoized: tests share them)."""
    key = (app, num_cpus, style, degree)
    if key not in _TRACES:
        _TRACES[key] = PostMortemScheduler(
            build_app(app, scale=SCALE),
            num_cpus,
            barrier_style=style,
            tree_degree=degree,
        ).run()
    return _TRACES[key]


def _digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_fields(trace):
    """Digest of the columns plus the scalars and barrier observations."""
    return {
        "columns": _digest([list(column) for column in trace.raw_columns()]),
        "refs": len(trace),
        "sync_refs": trace.sync_refs,
        "cycles": trace.cycles,
        "barriers": _digest(
            [
                [
                    barrier.section_name,
                    barrier.variable_address,
                    barrier.flag_address,
                    barrier.arrivals,
                    barrier.first_poll_cycle,
                    barrier.flag_set_cycle,
                ]
                for barrier in trace.barriers
            ]
        ),
        "mean_interval_a": trace.mean_interval_a(),
        "mean_interval_e": trace.mean_interval_e(),
    }


def stats_fields(stats):
    """Every dataclass field of a stats object (histograms as items)."""
    fields = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if hasattr(value, "items"):
            value = [list(item) for item in value.items()]
        fields[field.name] = value
    return fields


def coherence_run(trace, num_cpus, pointers, cache_sync):
    simulator = CoherenceSimulator(
        CoherenceConfig(
            num_cpus=num_cpus, num_pointers=pointers, cache_sync=cache_sync
        )
    )
    return stats_fields(simulator.run(trace))


def coherence_table(app, num_cpus):
    trace = schedule(app, num_cpus)
    return {
        f"{pointers}/{'cached' if cache_sync else 'uncached'}": coherence_run(
            trace, num_cpus, pointers, cache_sync
        )
        for pointers in POINTERS
        for cache_sync in (True, False)
    }


def snoopy_table(app, num_cpus):
    trace = schedule(app, num_cpus)
    return {
        name: stats_fields(
            SnoopySimulator(SnoopyConfig(num_cpus=num_cpus, **options)).run(trace)
        )
        for name, options in SNOOPY.items()
    }


def random_case(seed):
    """A random trace and tiny-cache configuration drawn from ``seed``."""
    rng = random.Random(seed)
    num_cpus = rng.randint(1, 8)
    sets = rng.randint(1, 16)
    pointers = rng.choice([1, 2, 3, num_cpus, 64])
    cache_sync = rng.random() < 0.7
    blocks = 3 * sets + 2
    ops = (Op.READ, Op.WRITE, Op.RMW)
    trace = [
        TraceRecord(
            cpu=rng.randrange(num_cpus),
            op=ops[rng.randrange(3)],
            address=rng.randrange(blocks) * 16 + rng.randrange(16),
            is_sync=rng.random() < 0.3,
        )
        for __ in range(rng.randint(200, 600))
    ]
    return num_cpus, sets * 16, pointers, cache_sync, trace


def random_run(seed):
    """Both simulators over one random trace, one reference at a time."""
    num_cpus, cache_bytes, pointers, cache_sync, trace = random_case(seed)
    directory = CoherenceSimulator(
        CoherenceConfig(
            num_cpus=num_cpus,
            cache_bytes=cache_bytes,
            num_pointers=pointers,
            cache_sync=cache_sync,
        )
    )
    for record in trace:
        directory.process(record)
    directory.check_invariants()
    result = {"directory": stats_fields(directory.stats)}
    for name, options in SNOOPY.items():
        snoopy = SnoopySimulator(
            SnoopyConfig(num_cpus=num_cpus, cache_bytes=cache_bytes, **options)
        )
        for record in trace:
            snoopy.process(record)
        snoopy.check_invariants()
        result[name] = stats_fields(snoopy.stats)
    return result


def coherent_barriers():
    """Transactions per process of the per-reference barrier episodes."""
    runs = {}
    for scheme in BARRIER_SCHEMES:
        for interval_a in (0, 200):
            stats = simulate_coherent_barrier(
                16, scheme, interval_a=interval_a, num_pointers=4,
                repetitions=3, seed=1,
            )
            runs[f"{scheme}/{interval_a}"] = [stats.count, stats.mean, stats.variance]
    return runs


def traced_run():
    """Tracer state of one schedule plus a pointer-limited replay."""
    events = []
    tracer = Tracer(sink=CallbackSink(events.append))
    with tracing(tracer):
        trace = PostMortemScheduler(build_app("SIMPLE", scale=SCALE), 16).run()
        simulator = CoherenceSimulator(CoherenceConfig(num_cpus=16, num_pointers=2))
        simulator.run(trace)
        simulator.run(trace)  # stats and counters stay cumulative
    snapshot = tracer.snapshot()
    overflow = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in events
        if event["kind"] == "directory.overflow"
    ]
    return {
        "event_totals": snapshot["event_totals"],
        "counters": snapshot["counters"],
        "observations": snapshot["observations"],
        "sched_run": [
            {key: value for key, value in event.items() if key != "seq"}
            for event in events
            if event["kind"] == "sched.run"
        ],
        "coherence_run": [
            {key: value for key, value in event.items() if key != "seq"}
            for event in events
            if event["kind"] == "coherence.run"
        ],
        "overflow_events": len(overflow),
        "overflow_digest": _digest(overflow),
        "event_order": _digest([event["kind"] for event in events]),
    }


def compute_goldens():
    return {
        "coherence": {
            app: {str(cpus): coherence_table(app, cpus) for cpus in CPUS}
            for app in APPS
        },
        "snoopy": {
            app: {str(cpus): snoopy_table(app, cpus) for cpus in CPUS}
            for app in APPS
        },
        "schedules": {
            app: {
                str(cpus): {
                    label: trace_fields(schedule(app, cpus, style, degree))
                    for label, style, degree in STYLES
                }
                for cpus in CPUS
            }
            for app in APPS
        },
        "random": {str(seed): random_run(seed) for seed in RANDOM_SEEDS},
        "coherent_barrier": coherent_barriers(),
        "traced": traced_run(),
    }


def _load():
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDENS = _load() if os.path.exists(GOLDENS_PATH) else None


def _roundtrip(value):
    """``value`` as the JSON file stores it (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("app", APPS)
def test_schedules_pinned(app, cpus):
    for label, style, degree in STYLES:
        assert _roundtrip(trace_fields(schedule(app, cpus, style, degree))) == (
            GOLDENS["schedules"][app][str(cpus)][label]
        ), label


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("app", APPS)
def test_directory_stats_pinned(app, cpus):
    assert _roundtrip(coherence_table(app, cpus)) == (
        GOLDENS["coherence"][app][str(cpus)]
    )


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("app", APPS)
def test_snoopy_stats_pinned(app, cpus):
    assert _roundtrip(snoopy_table(app, cpus)) == GOLDENS["snoopy"][app][str(cpus)]


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_tiny_cache_traces_pinned(seed):
    assert _roundtrip(random_run(seed)) == GOLDENS["random"][str(seed)]


def test_random_traces_exercise_eviction():
    """The random cases reach dirty evictions and pointer overflow."""
    runs = GOLDENS["random"].values()
    assert sum(run["directory"]["writebacks"] for run in runs) > 0
    assert sum(run["directory"]["invalidations_on_overflow"] for run in runs) > 0
    assert sum(run["invalidate"]["writebacks"] for run in runs) > 0


def test_coherent_barrier_episodes_pinned():
    assert _roundtrip(coherent_barriers()) == GOLDENS["coherent_barrier"]


def test_traced_counters_pinned():
    assert _roundtrip(traced_run()) == GOLDENS["traced"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_coherence_goldens --record")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
