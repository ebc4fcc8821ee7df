"""Reporting: plain-text tables and figure series.

The experiment registry lives in :mod:`repro.registry`; its spec
modules render their reports with these helpers.  Regenerate any paper
artifact with ``python -m repro experiment <id>``.
"""

from repro.analysis.tables import render_table
from repro.analysis.figures import render_series

__all__ = [
    "render_table",
    "render_series",
]
