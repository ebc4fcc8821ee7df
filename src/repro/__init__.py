"""repro — Adaptive Backoff Synchronization Techniques, reproduced.

A production-quality reproduction of Agarwal & Cherian, *Adaptive
Backoff Synchronization Techniques* (ISCA 1989): software-only backoff
policies that use synchronization state to reduce the memory traffic of
busy-wait barriers, evaluated on a cycle-exact multiprocessor
simulation substrate.

Quick start::

    from repro import simulate_barrier, NoBackoff, ExponentialFlagBackoff

    baseline = simulate_barrier(64, 1000, NoBackoff())
    backoff = simulate_barrier(64, 1000, ExponentialFlagBackoff(base=2))
    print(backoff.savings_vs(baseline))   # ~0.97 at A=1000, N=64

Packages:

- :mod:`repro.core` — backoff policies, barrier algorithms, locks.
- :mod:`repro.barrier` — the barrier simulator, analytic models,
  sweeps, and the queueing / combining-tree / resource extensions.
- :mod:`repro.network` — memory-module contention model, multistage
  circuit-switched network, network backoff.
- :mod:`repro.memory` — directory-based cache-coherence simulator.
- :mod:`repro.trace` — synthetic SPMD applications and the post-mortem
  trace scheduler.
- :mod:`repro.registry` — experiment registry regenerating every paper
  table and figure; :mod:`repro.analysis` renders their tables and
  series.
- :mod:`repro.obs` — observability: structured tracing, counters,
  per-run manifests and the ``python -m repro profile`` pipeline.
- :mod:`repro.exec` — parallel sweep execution (``--jobs``) and the
  content-addressed result cache (``--cache``), bit-identical to the
  serial path.
"""

from repro.barrier.application import ApplicationSimulator, simulate_application
from repro.barrier.arrivals import (
    EmpiricalArrivals,
    FixedArrivals,
    UniformArrivals,
)
from repro.barrier.hardware import hardware_baselines
from repro.barrier.metrics import BarrierAggregate, BarrierRunResult
from repro.barrier.models import (
    expected_span,
    model1_accesses,
    model2_accesses,
    model_prediction,
)
from repro.barrier.queueing import (
    QueueingBarrierSimulator,
    simulate_blocking_barrier,
    simulate_threshold_barrier,
)
from repro.barrier.resource import ResourceSimulator, simulate_resource
from repro.barrier.simulator import BarrierSimulator, simulate_barrier
from repro.barrier.sweep import (
    PAPER_A_VALUES,
    PAPER_N_VALUES,
    sweep_accesses,
    sweep_waiting_time,
)
from repro.barrier.tree import TreeBarrierSimulator, simulate_tree_barrier
from repro.barrier.validation import ValidationResult, validate_uniform_model
from repro.core.backoff import (
    AdaptiveBackoff,
    BackoffPolicy,
    ExponentialFlagBackoff,
    LinearFlagBackoff,
    NoBackoff,
    ProportionalBackoff,
    RandomizedExponentialBackoff,
    ThresholdQueueBackoff,
    VariableBackoff,
    paper_policies,
)
from repro.core.selection import (
    PolicyAdvisor,
    Recommendation,
    SynchronizationProfile,
)
from repro.core.barrier import (
    BlockingBarrier,
    CombiningTreeBarrier,
    SingleVariableBarrier,
    TangYewBarrier,
)
from repro.core.locks import BackoffLock, TestAndSetLock, TestAndTestAndSetLock
from repro.exec import ExecConfig, ExecStats, ResultCache, execution, get_stats
from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.obs import (
    NullTracer,
    Tracer,
    get_tracer,
    profile_experiment,
    set_tracer,
    tracing,
)
from repro.registry import ExperimentResult, experiment_ids, run
from repro.trace.apps import build_app
from repro.trace.io import load_trace, save_trace
from repro.trace.scheduler import PostMortemScheduler

__version__ = "1.0.0"

__all__ = [
    # Backoff policies.
    "BackoffPolicy",
    "NoBackoff",
    "VariableBackoff",
    "LinearFlagBackoff",
    "ExponentialFlagBackoff",
    "ThresholdQueueBackoff",
    "ProportionalBackoff",
    "RandomizedExponentialBackoff",
    "AdaptiveBackoff",
    "paper_policies",
    "PolicyAdvisor",
    "Recommendation",
    "SynchronizationProfile",
    # Barrier algorithms.
    "TangYewBarrier",
    "SingleVariableBarrier",
    "CombiningTreeBarrier",
    "BlockingBarrier",
    # Locks.
    "TestAndSetLock",
    "TestAndTestAndSetLock",
    "BackoffLock",
    # Simulation.
    "BarrierSimulator",
    "simulate_barrier",
    "TreeBarrierSimulator",
    "simulate_tree_barrier",
    "QueueingBarrierSimulator",
    "simulate_blocking_barrier",
    "simulate_threshold_barrier",
    "ResourceSimulator",
    "simulate_resource",
    "ApplicationSimulator",
    "simulate_application",
    "UniformArrivals",
    "FixedArrivals",
    "EmpiricalArrivals",
    "BarrierRunResult",
    "BarrierAggregate",
    # Analytic models and baselines.
    "model1_accesses",
    "model2_accesses",
    "model_prediction",
    "expected_span",
    "hardware_baselines",
    # Sweeps.
    "sweep_accesses",
    "sweep_waiting_time",
    "PAPER_N_VALUES",
    "PAPER_A_VALUES",
    # Coherence substrate.
    "CoherenceConfig",
    "CoherenceSimulator",
    # Traces.
    "build_app",
    "PostMortemScheduler",
    "save_trace",
    "load_trace",
    # Validation.
    "ValidationResult",
    "validate_uniform_model",
    # Experiments.
    "experiment_ids",
    "ExperimentResult",
    "run",
    # Observability.
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "profile_experiment",
    # Execution.
    "ExecConfig",
    "ExecStats",
    "ResultCache",
    "execution",
    "get_stats",
    "__version__",
]
