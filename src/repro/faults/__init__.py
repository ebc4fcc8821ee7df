"""Fault injection and resilient experiment execution.

Layer map:

- :mod:`repro.faults.plan` — the :class:`FaultPlan` hook protocol and
  the process-wide active-plan registry the simulators consult (a
  ``None`` lookup when no plan is installed, so the hot path costs one
  ``is not None`` check and results with faults off stay bit-identical).
- :mod:`repro.faults.injectors` — the injector catalog (stragglers,
  module outages, grant drop/dup, flaky flag reads, event jitter).
- :mod:`repro.faults.spec` — the ``--plan`` text grammar and named
  plans (``chaos``, ``lossy-net``, ...).
- :mod:`repro.faults.runner` — per-point derived plans, the
  degraded/completed classification and the resilience summary behind
  ``python -m repro faults``; checkpoints, retries, deadlines and the
  pool come from the exec engine every sweep shares.
"""

from repro.faults.plan import (
    GRANT_DROP,
    GRANT_DUP,
    GRANT_OK,
    FaultInjector,
    FaultPlan,
    clear_fault_plan,
    fault_injection,
    get_fault_plan,
    install_fault_plan,
)
from repro.faults.injectors import (
    EventJitterInjector,
    FlakyFlagInjector,
    GrantFaultInjector,
    ModuleOutageInjector,
    StragglerInjector,
)
from repro.faults.spec import INJECTOR_FACTORIES, NAMED_PLANS, parse_plan

#: Resilience symbols resolved lazily (PEP 562): the runner and the
#: supervisor pull in repro.sim / repro.obs / repro.exec, and the
#: simulators import *this* package at load time — an eager import here
#: would cycle.
_LAZY_EXPORTS = {
    "CheckpointMismatchError": "repro.exec.supervisor",
    "CheckpointStore": "repro.exec.supervisor",
    "PointRecord": "repro.exec.supervisor",
    "PointTimeoutError": "repro.exec.supervisor",
    "time_limit": "repro.exec.supervisor",
    "ResilienceSummary": "repro.faults.runner",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GRANT_DROP",
    "GRANT_DUP",
    "GRANT_OK",
    "FaultInjector",
    "FaultPlan",
    "clear_fault_plan",
    "fault_injection",
    "get_fault_plan",
    "install_fault_plan",
    "EventJitterInjector",
    "FlakyFlagInjector",
    "GrantFaultInjector",
    "ModuleOutageInjector",
    "StragglerInjector",
    "INJECTOR_FACTORIES",
    "NAMED_PLANS",
    "parse_plan",
    "CheckpointMismatchError",
    "CheckpointStore",
    "PointRecord",
    "PointTimeoutError",
    "ResilienceSummary",
    "time_limit",
]
