"""Reporting: plain-text tables, figure series, experiment registry.

:mod:`repro.analysis.experiments` maps experiment ids (``table1`` ...
``figure10``, plus the Section 5.1/7.1/8 studies) to runner functions;
every paper-shape claim in :mod:`repro.check.claims` and every row
of EXPERIMENTS.md is produced through this registry, so the paper
artifacts can also be
regenerated directly:

    python -m repro.analysis.experiments figure5
"""

from repro.analysis.tables import render_table
from repro.analysis.figures import render_series
from repro.analysis.experiments import EXPERIMENTS, ExperimentResult, run

__all__ = [
    "render_table",
    "render_series",
    "EXPERIMENTS",
    "ExperimentResult",
    "run",
]
