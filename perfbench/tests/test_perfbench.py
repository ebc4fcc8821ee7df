"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import (  # noqa: E402
    REFERENCE_PROBE_S, ROOT, DigestCheck, calibrated, percentile, plan_label,
)
from compare import classify, paired  # noqa: E402
from run import PER_LAYER, check_pass, end_to_end, per_plan_median  # noqa: E402
from spans import Recorder, Span, covered, layer_totals, self_times  # noqa: E402
import serve_mix as serve_module  # noqa: E402
from workloads import MIX_COUNTS, WORKLOADS, Op, serve_mix, serve_universe  # noqa: E402


# -- span arithmetic -------------------------------------------------------


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert covered(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(3)
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span(1, "a", 0.0, 10.0, None, None),
        Span(2, "b", 1.0, 4.0, 1, None),
        Span(3, "b", 3.0, 6.0, 1, None),  # overlaps span 2 (other thread)
        Span(4, "c", 2.0, 3.0, 2, None),  # grandchild: not span 1's child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)


def test_layer_totals_count_recursion_once_in_busy_time():
    spans = [
        Span(1, "exec.plan", 0.0, 10.0, None, None),
        Span(2, "exec.cache.key", 1.0, 3.0, 1, None),
        Span(3, "exec.cache.key", 1.5, 2.5, 2, None),  # nested same layer
        Span(4, "exec.plan", 4.0, 5.0, 1, None),  # nested same layer
    ]
    totals = layer_totals(spans)
    assert totals["exec.cache.key"]["calls"] == 2
    assert totals["exec.cache.key"]["busy_s"] == pytest.approx(2.0)
    assert totals["exec.cache.key"]["self_s"] == pytest.approx(1.0 + 1.0)
    assert totals["exec.plan"]["busy_s"] == pytest.approx(10.0)
    assert totals["exec.plan"]["self_s"] == pytest.approx(10 - 2 - 1 + 1)


def test_recorder_nests_per_thread_and_restores_patches():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    class Owner:
        def inner(self):
            return "inner"

        def outer(self):
            return self.inner()

    original = Owner.__dict__["inner"]
    recorder.patch(Owner, "inner", "layer.inner")
    recorder.patch(Owner, "outer", "layer.outer", context=lambda self: "job-1")
    assert Owner().outer() == "inner"
    inner, outer = recorder.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.context == outer.context == "job-1"
    assert recorder.context is None

    other = []
    thread = threading.Thread(target=lambda: other.append(Owner().inner()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and other == ["inner"]
    assert recorder.spans[-1].parent is None  # no parent from another thread

    recorder.uninstall()
    assert Owner.__dict__["inner"] is original


# -- the compare rule ------------------------------------------------------


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_compare_calls_a_clear_win_better():
    change = [v - 1.0 for v in PARENT]
    assert classify(PARENT, change, "lower", 0.1) == "better"
    assert classify(change, PARENT, "higher", 0.1) == "better"


def test_compare_needs_nine_of_ten_wins():
    change = [v - 1.0 for v in PARENT]
    change[0] = change[1] = PARENT[0] + 1.0  # two losses: 8/10 wins
    assert classify(PARENT, change, "lower", 0.1) != "better"


def test_compare_ties_count_for_neither_side():
    change = list(PARENT)
    assert classify(PARENT, change, "lower", 0.1) == "same"
    change = [v - 1.0 for v in PARENT]
    change[0] = PARENT[0]  # one tie: 9/10 wins still wins
    assert classify(PARENT, change, "lower", 0.1) == "better"
    change[1] = PARENT[1]  # two ties: 8/10
    assert classify(PARENT, change, "lower", 0.1) == "same"


def test_compare_gap_must_exceed_the_parent_spread():
    change = [v - 0.05 for v in PARENT]  # wins every pair, gap < IQR
    assert classify(PARENT, change, "lower", 0.1) == "same"


def test_compare_flags_a_loss_beyond_the_bound():
    change = [v * 1.2 for v in PARENT]
    assert classify(PARENT, change, "lower", 0.1) == "worse"
    assert classify(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "same"
    # Without a bound, a loss needs the mirror of the win rule.
    assert classify(PARENT, change, "lower", None) == "worse"


def test_compare_is_unresolved_when_noisy_or_short():
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 15.0, 7.0, 13.0, 10.0, 11.0]
    assert classify(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert classify(PARENT[:9], PARENT[:9], "lower", 0.1) == "unresolved"


def test_runs_pair_by_workload_and_seed():
    parent = [{"workload": "w", "seed": s, "result": {}} for s in (1, 2, 3)]
    change = [{"workload": "w", "seed": s, "result": {}} for s in (3, 1)]
    pairs = paired(parent, change)["w"]
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(1, 1), (3, 3)]


# -- the serve mix ---------------------------------------------------------


def test_serve_mix_is_deterministic_in_its_seed():
    assert serve_mix(7) == serve_mix(7)
    assert serve_mix(7) != serve_mix(8)


def test_serve_mix_draws_only_recorded_plans_with_enough_samples():
    universe = {plan_label(plan) for plan in serve_universe()}
    for seed in range(5):
        streams = serve_mix(seed)
        ops = [op for stream in streams for op in stream]
        assert all(plan_label(op.plan) in universe for op in ops)
        assert len(ops) == sum(count for __, count in MIX_COUNTS)
        resubmits = [op for op in ops if op.kind == "resubmit"]
        assert len(resubmits) >= 100 and len(ops) - len(resubmits) >= 100
        for stream in streams:
            seen = set()
            for op in stream:
                label = plan_label(op.plan)
                # A resubmission repeats this client's own earlier plan;
                # anything else is new to the whole pass.
                assert (label in seen) == (op.kind == "resubmit")
                seen.add(label)
        new = [plan_label(op.plan) for op in ops if op.kind != "resubmit"]
        assert len(new) == len(set(new))


# -- digest checking -------------------------------------------------------


def test_digest_mismatch_counts_as_a_failure():
    check = DigestCheck({"a": "1", "b": "2"})
    assert check.check("a", "1")
    assert not check.check("b", "3")
    assert not check.check("c", "4")  # nothing recorded for it
    check.fail("d", "HTTP 500")
    assert (check.attempted, check.failed) == (4, 3)


def test_a_failed_pass_fails_every_plan_it_held():
    check = DigestCheck({"a": "1"})
    report = {"plans": [
        {"label": "a", "digest": "1", "wall_s": 0.1},
        {"label": "a", "digest": "9", "wall_s": 0.1},
        {"label": "a", "digest": None, "error": "ValueError: x", "wall_s": 0.1},
    ]}
    check_pass(report, 3, check, "w")
    assert (check.attempted, check.failed) == (3, 2)
    check_pass(None, 3, check, "w")
    assert (check.attempted, check.failed) == (6, 5)


def _small_mix(monkeypatch, count=3):
    plans = serve_universe()[:2 * count]
    streams = [[Op("fresh", plan) for plan in plans[i::2]] for i in range(2)]
    monkeypatch.setattr(serve_module, "serve_mix", lambda seed: streams)
    return streams


def test_a_malformed_response_fails_only_its_operation(monkeypatch):
    streams = _small_mix(monkeypatch)
    expected = {plan_label(op.plan): "d" for stream in streams for op in stream}
    calls = []

    def one_op(port, op):
        calls.append(op)
        if len(calls) == 2:
            raise TypeError("'str' object is not subscriptable")
        return {"job": "j", "digest": "d", "deduplicated": False, "elapsed": 0.1}

    monkeypatch.setattr(serve_module, "one_op", one_op)
    check = DigestCheck(expected)
    __, stats = serve_module.drive(0, 0, check)
    assert len(calls) == 6
    assert (check.attempted, check.failed) == (6, 1)
    assert len(stats.job_latency_s) == 5


class _ClientDeath(BaseException):
    """Escapes the per-operation handler, ending the client thread."""


def test_a_client_dying_mid_stream_fails_its_remaining_operations(monkeypatch):
    streams = _small_mix(monkeypatch)
    expected = {plan_label(op.plan): "d" for stream in streams for op in stream}
    dying = streams[0][1]

    def one_op(port, op):
        if op is dying:
            raise _ClientDeath()
        return {"job": "j", "digest": "d", "deduplicated": False, "elapsed": 0.1}

    monkeypatch.setattr(serve_module, "one_op", one_op)
    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    check = DigestCheck(expected)
    serve_module.drive(0, 0, check)
    # Client 0 finished one of its three operations before it died.
    assert (check.attempted, check.failed) == (6, 2)


def test_per_plan_median_takes_each_plans_middle_pass():
    passes = [[2.0, 1.0], [1.5, 3.0], [4.0, 2.0]]
    assert per_plan_median(passes) == [2.0, 2.0]
    assert per_plan_median([]) == []


def test_calibration_scales_by_the_mean_of_the_adjacent_probes():
    assert calibrated(2.0, REFERENCE_PROBE_S, REFERENCE_PROBE_S) == pytest.approx(2.0)
    # The host ran at half speed around this sample: half the seconds.
    assert calibrated(2.0, REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S) == pytest.approx(1.0)
    # Work that slows less than the probe is scaled less.
    assert calibrated(2.0, REFERENCE_PROBE_S, 7 * REFERENCE_PROBE_S, 0.5) == pytest.approx(1.0)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile(list(range(11)), 90) == pytest.approx(9)


def test_benchmark_json_names_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    printed = end_to_end([1.0], 2.0, 3.0, 4.0, [5.0, 6.0])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: value["unit"] for name, value in printed.items()
    }
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


# -- child processes -------------------------------------------------------

#: Runs in its own process: starts a child that forks a long sleeper and
#: exits at once, orphaning it (as a service's pool worker would be),
#: then cleans up and reports what is left below it.
_ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, {bench!r})
from common import become_subreaper, descendants, stop_descendants
assert become_subreaper()
sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
parent = subprocess.Popen([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen(%r); sys.exit(0)" % (sleeper,)])
parent.wait()
deadline = time.monotonic() + 10
while not descendants(os.getpid()) and time.monotonic() < deadline:
    time.sleep(0.01)
adopted = len(descendants(os.getpid()))
stop_descendants()
print(adopted, len(descendants(os.getpid())))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_orphaned_grandchildren_are_adopted_killed_and_reaped():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT.format(bench=bench)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["1", "0"]
