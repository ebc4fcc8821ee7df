"""Tests for the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_quickstart_snippet(self):
        baseline = repro.simulate_barrier(
            16, 1000, repro.NoBackoff(), repetitions=10
        )
        backoff = repro.simulate_barrier(
            16, 1000, repro.ExponentialFlagBackoff(base=2), repetitions=10
        )
        assert backoff.savings_vs(baseline) > 0.9

    def test_experiment_registry_exposed(self):
        assert "figure5" in repro.experiment_ids()
        assert len(repro.experiment_ids()) == 28

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.barrier",
            "repro.network",
            "repro.memory",
            "repro.trace",
            "repro.sim",
            "repro.analysis",
        ):
            importlib.import_module(module)

    def test_paper_constants(self):
        assert repro.PAPER_N_VALUES[-1] == 512
        assert repro.PAPER_A_VALUES == (0, 100, 1000)

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            repro.run("nonexistent")
