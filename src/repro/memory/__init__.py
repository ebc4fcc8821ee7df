"""Cache-coherence substrate: trace-driven directory and snoopy simulators.

Implements the Section 2 methodology: per-processor direct-mapped
caches kept coherent by a Dir_i_NB directory (i pointers, no broadcast),
driven by a multiprocessor reference trace.  Produces the invalidation
and traffic statistics behind Table 1, Table 2 and Figure 1.
"""

from repro.memory.coherence import CoherenceConfig, CoherenceSimulator
from repro.memory.snoopy import SnoopyConfig, SnoopySimulator, SnoopyStats
from repro.memory.stats import CoherenceStats

__all__ = [
    "CoherenceConfig",
    "CoherenceSimulator",
    "CoherenceStats",
    "SnoopyConfig",
    "SnoopySimulator",
    "SnoopyStats",
]
