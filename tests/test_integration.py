"""Integration tests: the paper's headline claims, end-to-end.

These run the actual experiment pipeline (at reduced repetitions /
scale where that does not change the claim) and assert the qualitative
results the paper reports — who wins, by roughly what factor, where the
crossovers fall.
"""

import pytest

from repro.registry import run
from repro.registry.common import scheduled_trace
from repro.barrier.models import model1_accesses, model2_accesses
from repro.barrier.simulator import simulate_barrier
from repro.core.backoff import ExponentialFlagBackoff, NoBackoff, VariableBackoff

REPS = 30


class TestClaimTrafficReductions:
    """'reductions of 20 percent to over 95 percent in synchronization
    traffic can be achieved at no extra cost' when N is small vs A."""

    def test_over_95_percent_at_a1000_n16(self):
        base = simulate_barrier(16, 1000, NoBackoff(), repetitions=REPS)
        b2 = simulate_barrier(16, 1000, ExponentialFlagBackoff(2), repetitions=REPS)
        assert b2.savings_vs(base) > 0.95

    def test_over_90_percent_at_a100_n16_base4(self):
        base = simulate_barrier(16, 100, NoBackoff(), repetitions=REPS)
        b4 = simulate_barrier(16, 100, ExponentialFlagBackoff(4), repetitions=REPS)
        assert b4.savings_vs(base) > 0.90

    def test_about_60_percent_at_a100_n64_base8(self):
        base = simulate_barrier(64, 100, NoBackoff(), repetitions=REPS)
        b8 = simulate_barrier(64, 100, ExponentialFlagBackoff(8), repetitions=REPS)
        assert 0.45 < b8.savings_vs(base) < 0.90

    def test_20_percent_when_n_large_vs_a(self):
        base = simulate_barrier(256, 0, NoBackoff(), repetitions=10)
        var = simulate_barrier(256, 0, VariableBackoff(), repetitions=10)
        assert 0.15 < var.savings_vs(base) < 0.25

    def test_savings_shrink_as_n_grows_at_a100(self):
        # "The proportional benefit due to backoff decreases as N
        # increases" (A=100: ~30% at N=512 with base 8).
        savings = {}
        for n in (16, 128, 512):
            base = simulate_barrier(n, 100, NoBackoff(), repetitions=10)
            b8 = simulate_barrier(n, 100, ExponentialFlagBackoff(8), repetitions=10)
            savings[n] = b8.savings_vs(base)
        assert savings[16] > savings[128] > savings[512]


class TestClaimWaitingTimeTradeoffs:
    """Figures 8-10: favorable binary tradeoff; base-8 blowup; the
    non-monotone waiting-time peak at A=1000."""

    def test_binary_backoff_favourable_tradeoff_at_n64_a1000(self):
        base = simulate_barrier(64, 1000, NoBackoff(), repetitions=REPS)
        b2 = simulate_barrier(64, 1000, ExponentialFlagBackoff(2), repetitions=REPS)
        assert b2.savings_vs(base) > 0.9  # "decreased ... by 97%"
        assert b2.waiting_increase_vs(base) < 0.35  # "only 16%"

    def test_base8_increases_waiting_over_250_percent(self):
        base = simulate_barrier(64, 1000, NoBackoff(), repetitions=REPS)
        b8 = simulate_barrier(64, 1000, ExponentialFlagBackoff(8), repetitions=REPS)
        assert b8.waiting_increase_vs(base) > 2.5  # paper: >350%

    def test_waiting_time_peaks_then_declines_at_a1000(self):
        # "the average waiting times per processor reach a maximum
        # around 64 processors and then actually decline".
        waits = {}
        for n in (16, 64, 512):
            b8 = simulate_barrier(
                n, 1000, ExponentialFlagBackoff(8), repetitions=15
            )
            waits[n] = b8.mean_waiting_time
        assert waits[64] > waits[16]
        assert waits[512] < waits[64]

    def test_a0_waiting_similar_across_policies(self):
        # Figure 8: "the waiting times for all the four curves are
        # similar" at A=0.
        base = simulate_barrier(64, 0, NoBackoff(), repetitions=10)
        b8 = simulate_barrier(64, 0, ExponentialFlagBackoff(8), repetitions=10)
        assert b8.mean_waiting_time == pytest.approx(
            base.mean_waiting_time, rel=0.25
        )


class TestClaimModelAccuracy:
    """Figure 4: Model 1 fits A << N, Model 2 fits A >> N."""

    def test_model1_fits_a0(self):
        for n in (32, 48, 64, 96, 128, 512):
            sim = simulate_barrier(n, 0, NoBackoff(), repetitions=5)
            assert sim.mean_accesses == pytest.approx(
                model1_accesses(n), rel=0.05
            )

    def test_model2_fits_a1000_small_n(self):
        for n in (4, 16, 64):
            sim = simulate_barrier(n, 1000, NoBackoff(), repetitions=REPS)
            assert sim.mean_accesses == pytest.approx(
                model2_accesses(n, 1000), rel=0.08
            )

    def test_model2_underestimates_contention_large_n(self):
        # "When N is greater than 128, the model begins to
        # underestimate the contention" (A=100).
        sim = simulate_barrier(512, 100, NoBackoff(), repetitions=10)
        assert sim.mean_accesses > model2_accesses(512, 100)

    def test_a100_crossover_around_n32(self):
        # For N < 32, A=0 costs less than A=100; for large N the
        # ordering flips (contention relief from spread arrivals).
        small_a0 = simulate_barrier(8, 0, NoBackoff(), repetitions=REPS)
        small_a100 = simulate_barrier(8, 100, NoBackoff(), repetitions=REPS)
        assert small_a0.mean_accesses < small_a100.mean_accesses
        large_a0 = simulate_barrier(256, 0, NoBackoff(), repetitions=10)
        large_a100 = simulate_barrier(256, 100, NoBackoff(), repetitions=10)
        assert large_a100.mean_accesses < large_a0.mean_accesses


class TestClaimTraceDriven:
    """Section 2 and Table 3 claims on the trace substrate (scale 0.25,
    16 CPUs — small but structurally identical)."""

    SCALE = 0.25
    CPUS = 16

    def test_sync_invalidation_far_exceeds_data(self):
        result = run(
            "table1",
            scale=self.SCALE,
            num_cpus=self.CPUS,
            pointers=(2, 3),
            apps=("SIMPLE",),
        )
        for __, (data_pct, sync_pct) in result.data["SIMPLE"].items():
            assert sync_pct > 3 * data_pct

    def test_full_map_kills_sync_invalidations(self):
        result = run(
            "table1",
            scale=self.SCALE,
            num_cpus=self.CPUS,
            pointers=(2, self.CPUS),
            apps=("SIMPLE",),
        )
        limited = result.data["SIMPLE"][2][1]
        full = result.data["SIMPLE"][self.CPUS][1]
        assert full < limited / 4

    def test_uncached_sync_traffic_ordering(self):
        # FFT's share is far below SIMPLE's and WEATHER's (Table 2).
        result = run(
            "table2",
            scale=self.SCALE,
            num_cpus=self.CPUS,
            pointers=(2,),
            apps=("FFT", "SIMPLE", "WEATHER"),
        )
        fft = result.data["FFT"][2]
        simple = result.data["SIMPLE"][2]
        weather = result.data["WEATHER"][2]
        assert fft < simple
        assert fft < weather

    def test_figure1_small_invalidations_dominate(self):
        result = run("figure1", scale=self.SCALE, num_cpus=self.CPUS)
        assert result.data["at_most_3_pct"] > 90.0

    def test_fft_e_much_larger_than_a(self):
        trace = scheduled_trace("FFT", self.CPUS, self.SCALE)
        assert trace.mean_interval_e() > 5 * trace.mean_interval_a()

    def test_fft_traffic_backoff_recovers_most_of_base(self):
        result = run(
            "fft_traffic", scale=self.SCALE, num_cpus=self.CPUS, repetitions=10
        )
        base = result.data["base_rate"]
        with_barriers = result.data["with_barriers"]
        with_base8 = result.data["with_base8"]
        assert with_barriers > base
        assert base <= with_base8 < with_barriers

    def test_barrier_model_predicts_measured_traffic(self):
        # Section 7.1 validation: model vs trace measurement close.
        result = run(
            "fft_traffic", scale=self.SCALE, num_cpus=self.CPUS, repetitions=10
        )
        assert result.data["with_barriers"] == pytest.approx(
            result.data["measured"], rel=0.5
        )


class TestClaimHardwareComparison:
    """Section 5.1: with favourable A, backoff rivals hardware schemes
    at small N and loses badly at large N."""

    def test_small_n_comparable(self):
        result = run("hardware", repetitions=REPS, n_values=(4, 8))
        for n in (4, 8):
            assert result.data["backoff"][n] < 3 * result.data["full-map directory"][n]

    def test_large_n_much_worse(self):
        result = run(
            "hardware", repetitions=10, n_values=(128,), a_values=(0, 100, 1000)
        )
        assert result.data["backoff"][128] > 10 * result.data["Hoshino gate"][128]
