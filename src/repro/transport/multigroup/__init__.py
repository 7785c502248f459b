"""Deterministic energy-multigroup discrete-ordinates slab transport.

The noise-free third engine, run by the transport facade for
``engine="deterministic"`` (:mod:`repro.transport.api`): group structures
(:mod:`~repro.transport.multigroup.groups`), flux-weighted
condensation of the continuous-energy cross sections
(:mod:`~repro.transport.multigroup.condense`), and the S_N sweep
solver (:mod:`~repro.transport.multigroup.solver`).
"""

from repro.transport.multigroup.condense import (
    CollapsedMaterial,
    clear_collapse_cache,
    collapse,
    scatter_probabilities,
)
from repro.transport.multigroup.groups import (
    GroupStructure,
    STRUCTURES,
    fine_structure,
)
from repro.transport.multigroup.solver import DeterministicTransportEngine

__all__ = [
    "CollapsedMaterial",
    "clear_collapse_cache",
    "collapse",
    "scatter_probabilities",
    "GroupStructure",
    "STRUCTURES",
    "fine_structure",
    "DeterministicTransportEngine",
]
