"""Registry output parity against pre-refactor goldens, plus spec API.

``tests/goldens/registry_parity.json`` holds, for every experiment id,
the sha256 of the canonicalized ``result.data`` and of ``str(result)``
captured from the monolithic seed runners at the miniature
``FAST_KWARGS`` configurations.  The registry must reproduce both
digests byte-for-byte — serially and through the exec engine with
``jobs=2`` — or the refactor changed science output.
"""

import hashlib
import json
import os

import pytest

from repro.exec.context import ExecConfig, execution, get_stats, reset_stats
from repro.registry import (
    ParameterError,
    all_specs,
    experiment_ids,
    get_spec,
    run,
)
from tests.test_experiments import FAST_KWARGS

GOLDENS_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "registry_parity.json"
)

with open(GOLDENS_PATH, encoding="utf-8") as _handle:
    GOLDENS = json.load(_handle)


def _stringify(value):
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def data_digest(data) -> str:
    canonical = json.dumps(_stringify(data), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def text_digest(result) -> str:
    return hashlib.sha256(str(result).encode()).hexdigest()


class TestGoldensCoverEverything:
    def test_every_experiment_has_a_golden(self):
        assert set(GOLDENS) == set(experiment_ids())

    def test_every_experiment_has_fast_kwargs(self):
        assert set(FAST_KWARGS) == set(experiment_ids())


@pytest.mark.parametrize("experiment_id", sorted(GOLDENS))
class TestSeedParity:
    def test_serial_matches_golden(self, experiment_id):
        result = run(experiment_id, **FAST_KWARGS[experiment_id])
        assert data_digest(result.data) == GOLDENS[experiment_id]["data_sha256"]
        assert text_digest(result) == GOLDENS[experiment_id]["text_sha256"]

    def test_jobs2_matches_golden(self, experiment_id):
        with execution(ExecConfig(jobs=2, force_engine=True)):
            result = run(experiment_id, **FAST_KWARGS[experiment_id])
        assert data_digest(result.data) == GOLDENS[experiment_id]["data_sha256"]
        assert text_digest(result) == GOLDENS[experiment_id]["text_sha256"]


class TestCachedParity:
    def test_cold_then_warm_cache_identical(self, tmp_path):
        config = ExecConfig(jobs=1, cache=True, cache_dir=str(tmp_path),
                            force_engine=True)
        reset_stats()
        with execution(config):
            cold = run("figure5", **FAST_KWARGS["figure5"])
        stats = get_stats()
        assert stats.cache_stores == len(FAST_KWARGS["figure5"]["n_values"])
        reset_stats()
        with execution(config):
            warm = run("figure5", **FAST_KWARGS["figure5"])
        stats = get_stats()
        assert stats.cache_hits == len(FAST_KWARGS["figure5"]["n_values"])
        assert stats.cache_misses == 0
        assert data_digest(cold.data) == data_digest(warm.data)
        assert str(cold) == str(warm)
        assert data_digest(cold.data) == GOLDENS["figure5"]["data_sha256"]


class TestSpecSchema:
    def test_unknown_parameter_lists_valid_names(self):
        with pytest.raises(ParameterError) as excinfo:
            run("figure5", bogus=3)
        message = str(excinfo.value)
        assert "bogus" in message
        assert "n_values" in message and "repetitions" in message

    def test_mistyped_parameter_names_kind_and_example(self):
        spec = get_spec("figure5")
        with pytest.raises(ParameterError) as excinfo:
            spec.get_param("n_values").parse("abc")
        message = str(excinfo.value)
        assert "ints" in message and "abc" in message

    def test_pairs_parsing(self):
        spec = get_spec("determinism")
        assert spec.get_param("points").parse("16:1000,64:1000") == (
            (16, 1000),
            (64, 1000),
        )

    def test_describe_mentions_every_parameter(self):
        for spec in all_specs():
            description = spec.describe()
            assert spec.id in description
            for param in spec.params:
                assert param.name in description

    def test_every_spec_has_section_and_summary(self):
        for spec in all_specs():
            assert spec.section.strip()
            assert spec.summary.strip()

    def test_seed_param_present_wherever_stochastic(self):
        # Experiments that accept repetitions are simulation-driven and
        # must also declare the seed that makes them reproducible.
        for spec in all_specs():
            names = spec.param_names()
            if "repetitions" in names:
                assert "seed" in names, spec.id


class TestExperimentPoints:
    def test_axis_decomposition_keys(self):
        from repro.registry import get_spec

        points = get_spec("figure5").sparse_points({"n_values": (2, 8)})
        assert list(points) == ["N=2", "N=8"]
        assert points["N=2"] == {"n_values": (2,)}

    def test_no_axis_single_point(self):
        from repro.registry import get_spec

        points = get_spec("fft_traffic").sparse_points({"scale": 0.1})
        assert list(points) == ["all"]
        assert points["all"] == {"scale": 0.1}

    def test_empty_axis_raises(self):
        from repro.registry import get_spec

        with pytest.raises(ValueError):
            get_spec("figure5").sparse_points({"n_values": ()})

    def test_unknown_experiment_raises_keyerror_listing_known(self):
        from repro.registry import get_spec

        with pytest.raises(KeyError) as excinfo:
            get_spec("figure99")
        assert "figure5" in str(excinfo.value)
