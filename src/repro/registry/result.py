"""The result type every experiment produces.

Lives in its own module so spec modules and the runner can import it
without touching the registry machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"
