"""Tree backend parity: the batched tree kernel vs the event loop.

The combining-tree half of the equivalence contract
(docs/vectorization.md): for every configuration
:mod:`repro.barrier.kernel_tree_numpy` accepts, episode summaries are
*bit-identical* to the reference event loop of
:mod:`repro.barrier.tree`, and unsupported configurations fall back to
the loop transparently.  These tests pin:

- a grid of (N, degree, A, policy) configurations shard-by-shard,
  including the degenerate single-node trees (N <= degree) and odd
  processor counts that leave the last node short,
- degraded-mode bounds (poll budgets, timeouts) across degrees — the
  hardest parity surface, because a winner that gives up mid-descent
  changes who (if anyone) writes every flag below it,
- large-N accounting: the kernel must vectorize N >= 1024 shards (one
  ``vectorized_shards`` tick each, no fallback) and still match the
  loop episode-for-episode,
- fallback accounting for configurations outside the contract
  (stateful policies, numpy unavailable),
- the ``scale1024`` registry experiment digesting identically across
  backends, and tree cache keys staying disjoint from flat ones.
"""

from __future__ import annotations

import pytest

from repro.barrier import backend as backend_mod
from repro.barrier.backend import (
    BackendUnavailableError,
    get_kernel_counters,
    reset_kernel_counters,
    resolve_backend,
    set_default_backend,
)
from repro.barrier.tree import build_tree_simulator
from repro.core.backoff import (
    AdaptiveBackoff,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    RandomizedExponentialBackoff,
    VariableBackoff,
)
from repro.exec import payload_digest
from repro.obs.manifest import jsonable
from repro.registry import run
from tests.test_experiments import FAST_KWARGS


@pytest.fixture(autouse=True)
def _clean_backend_state():
    """Restore the backend default, override hook and counters."""
    set_default_backend(None)
    reset_kernel_counters()
    yield
    backend_mod._availability_override = None
    set_default_backend(None)
    reset_kernel_counters()


def _summaries(simulator, reps, backend):
    return [
        summary.as_tuple()
        for summary in simulator.run_shard(0, reps, backend=backend)
    ]


def _assert_parity(simulator, reps=3):
    assert _summaries(simulator, reps, "python") == _summaries(
        simulator, reps, "numpy"
    )


# -- simulator-level parity grid -----------------------------------------

GRID_POLICIES = (
    NoBackoff(),
    VariableBackoff(),
    LinearFlagBackoff(step=2),
    ExponentialFlagBackoff(base=2),
    AdaptiveBackoff(multiplier=1, flag_base=2),
)


@pytest.mark.parametrize("policy", GRID_POLICIES, ids=lambda p: repr(p))
@pytest.mark.parametrize("interval_a", (0, 7, 100, 250, 1000))
@pytest.mark.parametrize("n", (1, 2, 5, 16, 33, 64))
def test_uniform_grid_summaries_identical(n, interval_a, policy):
    simulator = build_tree_simulator(n, interval_a, policy, degree=4, seed=3)
    _assert_parity(simulator)


@pytest.mark.parametrize("seed", (0, 0x9E3779B9, 2**32 - 1))
def test_random_seeds_summaries_identical(seed):
    for policy in GRID_POLICIES:
        simulator = build_tree_simulator(48, 150, policy, degree=3, seed=seed)
        _assert_parity(simulator, reps=8)


@pytest.mark.parametrize("degree", (2, 3, 8, 16))
def test_degree_grid_summaries_identical(degree):
    simulator = build_tree_simulator(
        33, 100, ExponentialFlagBackoff(base=2), degree=degree, seed=11
    )
    _assert_parity(simulator)


# -- degraded-mode bounds -------------------------------------------------


@pytest.mark.parametrize(
    "bounds",
    (
        {"poll_budget": 1},
        {"poll_budget": 3},
        {"timeout_cycles": 40},
        {"poll_budget": 5, "timeout_cycles": 200},
    ),
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()),
)
@pytest.mark.parametrize("degree", (2, 4))
@pytest.mark.parametrize("policy", GRID_POLICIES, ids=lambda p: repr(p))
def test_degraded_bounds_summaries_identical(policy, degree, bounds):
    simulator = build_tree_simulator(
        17, 150, policy, degree=degree, seed=7, **bounds
    )
    _assert_parity(simulator, reps=4)


# -- large-N accounting (the regime the kernel exists for) ----------------


@pytest.mark.parametrize("n", (1024, 2048))
def test_large_n_vectorizes_and_matches(n):
    simulator = build_tree_simulator(
        n, 100, AdaptiveBackoff(multiplier=1, flag_base=2), degree=4, seed=0
    )
    python = _summaries(simulator, 2, "python")
    reset_kernel_counters()
    assert _summaries(simulator, 2, "numpy") == python
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 1
    assert counters.fallback_shards == 0


def test_large_n_degraded_bounds_match():
    simulator = build_tree_simulator(
        1024, 50, NoBackoff(), degree=8, seed=5,
        poll_budget=4, timeout_cycles=3000,
    )
    _assert_parity(simulator, reps=2)


def test_shard_counter_ticks_once_per_shard():
    simulator = build_tree_simulator(64, 100, NoBackoff(), degree=4, seed=0)
    reset_kernel_counters()
    simulator.run_shard(0, 3, backend="numpy")
    simulator.run_shard(3, 6, backend="numpy")
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 2
    assert counters.fallback_shards == 0


# -- fallback accounting --------------------------------------------------


def test_stateful_policy_falls_back_but_matches():
    # Stateful policies advance their own RNG across episodes, so each
    # backend gets a fresh simulator (same seed, same episode order).
    def build():
        return build_tree_simulator(
            16, 100, RandomizedExponentialBackoff(base=2, seed=9),
            degree=4, seed=9,
        )

    python = _summaries(build(), 3, "python")
    reset_kernel_counters()
    assert _summaries(build(), 3, "numpy") == python
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 0
    assert counters.fallback_shards == 1


def test_explicit_numpy_without_numpy_errors():
    backend_mod._availability_override = False
    simulator = build_tree_simulator(8, 100, NoBackoff(), degree=4, seed=0)
    with pytest.raises(BackendUnavailableError, match=r"\[fast\]"):
        simulator.run_shard(0, 2, backend="numpy")


def test_auto_without_numpy_uses_event_loop():
    simulator = build_tree_simulator(8, 100, NoBackoff(), degree=4, seed=0)
    expected = _summaries(simulator, 3, "python")
    backend_mod._availability_override = False
    assert resolve_backend("auto") == "python"
    reset_kernel_counters()
    assert _summaries(simulator, 3, "auto") == expected
    counters = get_kernel_counters()
    assert counters.vectorized_shards == 0
    assert counters.fallback_shards == 0  # never dispatched, not a fallback


# -- experiment- and engine-level parity ----------------------------------


def test_scale1024_digests_equal_across_backends():
    kwargs = FAST_KWARGS["scale1024"]
    python_digest = payload_digest(
        jsonable(run("scale1024", backend="python", **kwargs).data)
    )
    reset_kernel_counters()
    numpy_digest = payload_digest(
        jsonable(run("scale1024", backend="numpy", **kwargs).data)
    )
    assert python_digest == numpy_digest
    assert get_kernel_counters().vectorized_shards > 0


def test_tree_cache_keys_disjoint_from_flat():
    from repro.exec.engine import PointSpec

    flat = PointSpec(
        num_processors=16, interval_a=100, policy=NoBackoff(),
        repetitions=3, seed=0,
    )
    tree = PointSpec(
        num_processors=16, interval_a=100, policy=NoBackoff(),
        repetitions=3, seed=0, tree_degree=4,
    )
    # Tree fields enter the cache address only when set, so flat points
    # keep their historical content addresses...
    assert "tree_degree" not in flat.params()
    # ...and a tree point can never collide with its flat twin.
    assert flat.params() != tree.params()
    assert tree.policy_label == "tree-4/no-backoff"


def test_sweep_tree_engine_matches_serial():
    from repro.barrier.sweep import sweep_tree

    policies = {"exp-2": ExponentialFlagBackoff(base=2)}
    serial = sweep_tree(
        (4, 16), 50, policies, degree=4, repetitions=3, seed=1
    )
    engine = sweep_tree(
        (4, 16), 50, policies, degree=4, repetitions=3, seed=1,
        jobs=1, cache=False,
    )
    for label in policies:
        assert [a.mean_accesses for a in serial[label]] == [
            a.mean_accesses for a in engine[label]
        ]
        assert [a.mean_waiting_time for a in serial[label]] == [
            a.mean_waiting_time for a in engine[label]
        ]
