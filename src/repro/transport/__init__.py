"""1-D Monte Carlo neutron moderation, albedo and shielding."""

from repro.transport.materials import (
    AIR,
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    GASOLINE,
    Material,
    Nuclide,
    POLYETHYLENE,
    SILICON,
    WATER,
)
from repro.transport.batch import (
    BatchTransportEngine,
    DEFAULT_BATCH_SIZE,
    HISTORIES_PER_STREAM,
    scattered_energies_ev,
)
from repro.transport.montecarlo import (
    Layer,
    ScalarTransportEngine,
    SlabGeometry,
)
from repro.transport.analytic import (
    absorber_transmission,
    diffusion_coefficient_cm,
    diffusion_length_cm,
    uncollided_transmission,
)
from repro.transport.multigroup import (
    DeterministicTransportEngine,
    GroupStructure,
    fine_structure,
)
from repro.transport.tallies import TransportResult, TransportTally

__all__ = [
    "AIR",
    "BORATED_POLYETHYLENE",
    "CADMIUM",
    "CONCRETE",
    "GASOLINE",
    "Material",
    "Nuclide",
    "POLYETHYLENE",
    "SILICON",
    "WATER",
    "BatchTransportEngine",
    "DEFAULT_BATCH_SIZE",
    "HISTORIES_PER_STREAM",
    "scattered_energies_ev",
    "Layer",
    "ScalarTransportEngine",
    "SlabGeometry",
    "absorber_transmission",
    "diffusion_coefficient_cm",
    "diffusion_length_cm",
    "uncollided_transmission",
    "DeterministicTransportEngine",
    "GroupStructure",
    "fine_structure",
    "TransportResult",
    "TransportTally",
]
