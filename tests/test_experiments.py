"""Tests for the experiment registry (miniature configurations).

Trace-driven experiments run at scale 0.1 and barrier experiments at a
handful of repetitions: the goal here is that every registered
experiment runs end-to-end, produces a printable report, and exposes
the data its benchmark asserts on.  Paper-fidelity shape checks live in
test_integration.py.
"""

import pytest

from repro.registry import ExperimentResult, experiment_ids, run
from repro.registry.common import scheduled_trace

SMALL_N = (2, 8, 32)

#: Miniature kwargs per experiment.
FAST_KWARGS = {
    "table1": dict(scale=0.1, num_cpus=16, pointers=(2, 16), apps=("FFT",)),
    "table2": dict(scale=0.1, num_cpus=16, pointers=(2,), apps=("SIMPLE",)),
    "table3": dict(scale=0.1, cpu_counts=(8,), apps=("FFT", "WEATHER")),
    "figure1": dict(scale=0.1, num_cpus=16),
    "figure3": dict(scale=0.1, num_cpus=8, apps=("SIMPLE",), bins=5),
    "figure4": dict(repetitions=3, n_values=SMALL_N, a_values=(0, 100)),
    "figure5": dict(repetitions=3, n_values=SMALL_N),
    "figure6": dict(repetitions=3, n_values=SMALL_N),
    "figure7": dict(repetitions=3, n_values=SMALL_N),
    "figure8": dict(repetitions=3, n_values=SMALL_N),
    "figure9": dict(repetitions=3, n_values=SMALL_N),
    "figure10": dict(repetitions=3, n_values=SMALL_N),
    "hardware": dict(repetitions=3, n_values=(4, 16), a_values=(0, 100)),
    "fft_traffic": dict(scale=0.1, num_cpus=16, repetitions=3),
    "resource": dict(repetitions=3, n_values=(4, 8)),
    "netbackoff": dict(num_ports=16, hot_fractions=(0.0, 0.2), horizon=3_000),
    "combining": dict(repetitions=3, n_values=(16,), a_values=(0,), degrees=(4,)),
    "queueing": dict(repetitions=3, num_processors=16, a_values=(0, 1000)),
    "determinism": dict(repetitions=3, points=((8, 200),)),
    "tree_coherence": dict(scale=0.1, num_cpus=16, num_pointers=4, degrees=(3,)),
    "validation": dict(scale=0.1, num_cpus=8, repetitions=3, apps=("WEATHER",)),
    "application": dict(repetitions=2, num_processors=8, work_interval=200, rounds=3),
    "coupling": dict(repetitions=3, num_processors=16),
    "schedules": dict(repetitions=3, num_processors=16, a_values=(100, 1000)),
    "tree_saturation": dict(num_ports=16, hot_fractions=(0.0, 0.1), horizon=800),
    "coherent_barrier": dict(num_processors=8, interval_a=20, repetitions=2),
    "scale1024": dict(
        repetitions=2, n_values=(8, 16), interval_a=50, probe_horizon=120
    ),
    "bus_vs_directory": dict(scale=0.1, num_cpus=8, pointers=(2,)),
}


class TestRegistry:
    def test_all_experiments_have_fast_kwargs(self):
        assert set(FAST_KWARGS) == set(experiment_ids())

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run("figure99")

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_experiment_runs_and_reports(self, experiment_id):
        result = run(experiment_id, **FAST_KWARGS[experiment_id])
        assert isinstance(result, ExperimentResult)
        assert result.text.strip()
        assert result.data
        assert experiment_id in str(result)


class TestTraceCache:
    def test_same_key_returns_same_object(self):
        a = scheduled_trace("FFT", 8, 0.1)
        b = scheduled_trace("FFT", 8, 0.1)
        assert a is b

    def test_different_scale_differs(self):
        a = scheduled_trace("FFT", 8, 0.1)
        b = scheduled_trace("FFT", 8, 0.05)
        assert a is not b


class TestExperimentData:
    def test_table1_sync_exceeds_data_invalidations(self):
        result = run("table1", **FAST_KWARGS["table1"])
        data = result.data["FFT"]
        for pointers, (data_pct, sync_pct) in data.items():
            if pointers < 16:
                assert sync_pct > data_pct

    def test_figure4_model1_matches_a0_sim(self):
        result = run("figure4", repetitions=5, n_values=(32,), a_values=(0,))
        sim = result.data["sim_A0"][32]
        model = result.data["model1"][32]
        assert sim == pytest.approx(model, abs=3)

    def test_figure7_backoff_beats_baseline(self):
        result = run("figure7", repetitions=5, n_values=(16,))
        baseline = result.data["Without Backoff"][16]
        b2 = result.data["Base 2 Backoff on Barrier Flag"][16]
        assert b2 < baseline / 5

    def test_queueing_reports_three_schemes(self):
        result = run("queueing", **FAST_KWARGS["queueing"])
        assert set(result.data) == {"spin-b2", "block", "hybrid"}
