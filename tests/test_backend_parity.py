"""Backend parity: the numpy kernel vs the reference event loop.

The equivalence contract (docs/vectorization.md) says the two episode
backends are *bit-identical* for every configuration the kernel
accepts, and that unsupported configurations fall back to the event
loop transparently.  These tests pin both halves:

- every barrier-family experiment id produces digest-equal results on
  ``backend=python`` and ``backend=numpy`` at the miniature tier-1
  scale,
- a grid of simulator configurations (arrival processes, policies,
  degraded-mode bounds, tiny and odd N) produces identical episode
  summaries shard-by-shard,
- the no-numpy behavior: ``backend=auto`` silently falls back to the
  event loop while an explicit ``backend=numpy`` raises a clear error
  naming the ``[fast]`` extra (simulated via the availability override
  hook — numpy itself is installed in CI),
- the result cache is shared across backends (bit-identical results
  hash to the same content address),
- ``resolve_backend`` precedence: explicit argument over ambient
  default over ``auto``.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.barrier import backend as backend_mod
from repro.barrier.arrivals import (
    EmpiricalArrivals,
    FixedArrivals,
    UniformArrivals,
)
from repro.barrier.backend import (
    BackendUnavailableError,
    backend_context,
    get_kernel_counters,
    numpy_available,
    reset_kernel_counters,
    resolve_backend,
    set_default_backend,
)
from repro.barrier.simulator import BarrierSimulator, build_simulator
from repro.core.backoff import (
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    VariableBackoff,
)
from repro.core.barrier import SingleVariableBarrier, TangYewBarrier
from repro.exec import payload_digest
from repro.obs.manifest import jsonable
from repro.registry import run
from tests.test_experiments import FAST_KWARGS

#: Experiment ids whose points run the barrier simulator (and so the
#: backend knob); everything else ignores it by schema.
BARRIER_IDS = (
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "hardware",
)


@pytest.fixture(autouse=True)
def _clean_backend_state():
    """Restore the backend default, override hook and counters."""
    set_default_backend(None)
    reset_kernel_counters()
    yield
    backend_mod._availability_override = None
    set_default_backend(None)
    reset_kernel_counters()


def _digest(result) -> str:
    return payload_digest(jsonable(result.data))


def _summaries(simulator, reps, backend):
    return [
        summary.as_tuple()
        for summary in simulator.run_shard(0, reps, backend=backend)
    ]


# -- experiment-level parity ---------------------------------------------


@pytest.mark.parametrize("experiment_id", BARRIER_IDS)
def test_experiment_digests_equal_across_backends(experiment_id):
    kwargs = FAST_KWARGS[experiment_id]
    python_digest = _digest(run(experiment_id, backend="python", **kwargs))
    reset_kernel_counters()
    numpy_digest = _digest(run(experiment_id, backend="numpy", **kwargs))
    assert python_digest == numpy_digest
    # The numpy run must actually have vectorized shards, otherwise the
    # equality above only re-tested the event loop against itself.
    assert get_kernel_counters().vectorized_shards > 0


# -- simulator-level parity grid -----------------------------------------

GRID_POLICIES = (
    NoBackoff(),
    VariableBackoff(),
    LinearFlagBackoff(step=2),
    ExponentialFlagBackoff(base=2),
    ExponentialFlagBackoff(base=8),
)


@pytest.mark.parametrize("policy", GRID_POLICIES, ids=lambda p: repr(p))
@pytest.mark.parametrize("interval_a", (0, 7, 100, 250, 1000))
@pytest.mark.parametrize("n", (1, 2, 5, 16, 33, 64))
def test_uniform_grid_summaries_identical(n, interval_a, policy):
    simulator = build_simulator(n, interval_a, policy, seed=3)
    assert _summaries(simulator, 4, "python") == _summaries(
        simulator, 4, "numpy"
    )


@pytest.mark.parametrize("seed", (0, 0x9E3779B9, 2**32 - 1))
def test_random_seeds_summaries_identical(seed):
    for policy in GRID_POLICIES:
        simulator = build_simulator(48, 150, policy, seed=seed)
        assert _summaries(simulator, 8, "python") == _summaries(
            simulator, 8, "numpy"
        )


@pytest.mark.parametrize(
    "n, arrivals",
    (
        (3, FixedArrivals((0, 2, 9))),
        (4, FixedArrivals((5, 5, 5, 5))),
        (6, EmpiricalArrivals((0, 1, 1, 3, 12, 40))),
        (9, EmpiricalArrivals((0, 4, 17))),
    ),
    ids=lambda value: repr(value),
)
def test_nonuniform_arrivals_summaries_identical(n, arrivals):
    barrier = TangYewBarrier(n, backoff=ExponentialFlagBackoff(base=2))
    simulator = BarrierSimulator(barrier, arrivals, seed=11)
    assert _summaries(simulator, 3, "python") == _summaries(
        simulator, 3, "numpy"
    )


@pytest.mark.parametrize(
    "bounds",
    ({"poll_budget": 1}, {"poll_budget": 3}, {"timeout_cycles": 40}),
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()),
)
def test_degraded_bounds_summaries_identical(bounds):
    barrier = TangYewBarrier(12, backoff=NoBackoff(), **bounds)
    simulator = BarrierSimulator(barrier, UniformArrivals(300), seed=7)
    assert _summaries(simulator, 4, "python") == _summaries(
        simulator, 4, "numpy"
    )


def test_single_variable_falls_back_but_matches():
    barrier = SingleVariableBarrier(8, backoff=NoBackoff())
    simulator = BarrierSimulator(barrier, UniformArrivals(100), seed=5)
    python = _summaries(simulator, 3, "python")
    reset_kernel_counters()
    assert _summaries(simulator, 3, "numpy") == python
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 0
    assert counters.fallback_shards == 1


def test_supported_config_increments_vectorized_counter():
    simulator = build_simulator(16, 100, NoBackoff(), seed=0)
    reset_kernel_counters()
    simulator.run_shard(0, 3, backend="numpy")
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 1
    assert counters.fallback_shards == 0


# -- availability and fallback -------------------------------------------


def test_explicit_numpy_without_numpy_errors():
    backend_mod._availability_override = False
    assert not numpy_available()
    with pytest.raises(BackendUnavailableError, match=r"\[fast\]"):
        resolve_backend("numpy")
    simulator = build_simulator(8, 100, NoBackoff(), seed=0)
    with pytest.raises(BackendUnavailableError):
        simulator.run_shard(0, 2, backend="numpy")


def test_auto_without_numpy_uses_event_loop():
    simulator = build_simulator(8, 100, NoBackoff(), seed=0)
    expected = _summaries(simulator, 3, "python")
    backend_mod._availability_override = False
    assert resolve_backend("auto") == "python"
    assert resolve_backend(None) == "python"
    reset_kernel_counters()
    assert _summaries(simulator, 3, "auto") == expected
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 0
    assert counters.fallback_shards == 0  # never dispatched, not a fallback


def test_experiment_runs_without_numpy_available():
    backend_mod._availability_override = False
    kwargs = FAST_KWARGS["figure4"]
    without = _digest(run("figure4", **kwargs))
    backend_mod._availability_override = None
    with_numpy = _digest(run("figure4", **kwargs))
    assert without == with_numpy


# -- resolution precedence -----------------------------------------------


def test_resolve_backend_precedence():
    assert resolve_backend("python") == "python"
    assert resolve_backend("numpy") == "numpy"
    # auto picks numpy when importable (it is, in CI).
    assert resolve_backend("auto") == "numpy"
    with backend_context("python"):
        # ambient default applies when no explicit argument is given...
        assert resolve_backend(None) == "python"
        # ...but an explicit argument always wins.
        assert resolve_backend("numpy") == "numpy"
    # context restored the auto default.
    assert resolve_backend(None) == "numpy"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("fortran")


# -- cache sharing --------------------------------------------------------


def test_result_cache_is_shared_across_backends():
    from repro.exec import ExecConfig, execution, get_stats, reset_stats

    kwargs = FAST_KWARGS["figure4"]
    with tempfile.TemporaryDirectory(prefix="backend-cache-") as tmp:
        config = ExecConfig(cache=True, cache_dir=tmp, force_engine=True)
        reset_stats()
        with execution(config):
            cold = _digest(run("figure4", backend="python", **kwargs))
        stores = get_stats().cache_stores
        assert stores > 0
        reset_stats()
        with execution(config):
            warm = _digest(run("figure4", backend="numpy", **kwargs))
        stats = get_stats()
    assert warm == cold
    # Every point the python run stored is a hit for the numpy run: the
    # backend knob never enters the content address.
    assert stats.cache_hits == stores
    assert stats.cache_misses == 0
