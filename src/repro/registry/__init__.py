"""repro.registry — the declarative experiment registry.

Every paper artifact (Tables 1-3, Figures 1-10, the extension studies)
is declared as an :class:`ExperimentSpec` in a thin module under
:mod:`repro.registry.experiments`: a typed parameter schema, a sweep
axis decomposing the experiment into independent points, a per-point
``run_point`` callable, and an ``aggregate`` step rebuilding the
report.  :func:`run` executes a spec through the shared
:mod:`repro.exec` engine when an execution config is active, so every
experiment supports ``--jobs``, ``--cache``, fault plans and obs
manifests uniformly.

This package is the one door into the registry: ``repro.run``,
``repro.experiment_ids`` and every CLI command come through it, and
the commands run experiments through :func:`repro.exec.plan.execute`.
The spec modules import the :mod:`repro.analysis` rendering helpers,
so loading the experiment definitions is deferred to
:func:`load_specs` / first registry access.
"""

from repro.registry.result import ExperimentResult
from repro.registry.runner import run
from repro.registry.spec import (
    AXIS_KEY_FORMATS,
    DEFAULT_FUZZ_DOMAINS,
    ExperimentSpec,
    Param,
    ParameterError,
    UnknownExperimentError,
    all_specs,
    experiment_ids,
    get_spec,
    load_specs,
    register,
)

__all__ = [
    "AXIS_KEY_FORMATS",
    "DEFAULT_FUZZ_DOMAINS",
    "ExperimentResult",
    "ExperimentSpec",
    "Param",
    "ParameterError",
    "UnknownExperimentError",
    "all_specs",
    "experiment_ids",
    "get_spec",
    "load_specs",
    "register",
    "run",
]
