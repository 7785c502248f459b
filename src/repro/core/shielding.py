"""Shielding trade-off analysis (paper Section VI, last paragraph).

Thermal neutrons — unlike fast ones — *can* be shielded: a millimetre
of cadmium or a few cm of borated polyethylene removes the band.  The
paper's point is that neither is practical next to an HPC device:
cadmium is toxic and must not be heated, borated poly thermally
insulates the part it protects.  The evaluator quantifies the FIT
reduction each shield buys and carries those practicality flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.fit import FitCalculator
from repro.devices.model import Device
from repro.environment.scenario import FluxScenario
from repro.faults.models import Outcome
from repro.spectra.beamlines import rotax_spectrum
from repro.transport.api import TransportQuery, answer
from repro.transport.materials import (
    BORATED_POLYETHYLENE,
    CADMIUM,
    Material,
)


@dataclass(frozen=True)
class ShieldOption:
    """One candidate shield.

    Attributes:
        material: shield material.
        thickness_cm: layer thickness.
        toxic: unsafe near heat (cadmium).
        thermally_insulating: blocks device cooling (borated poly).
    """

    material: Material
    thickness_cm: float
    toxic: bool = False
    thermally_insulating: bool = False

    def __post_init__(self) -> None:
        if self.thickness_cm <= 0.0:
            raise ValueError(
                f"thickness must be positive, got {self.thickness_cm}"
            )

    @property
    def practical_near_hpc(self) -> bool:
        """Usable next to a hot device / cooling loop?"""
        return not (self.toxic or self.thermally_insulating)


#: The paper's two named options.
CADMIUM_SHEET = ShieldOption(
    CADMIUM, thickness_cm=0.1, toxic=True
)
BORATED_POLY_SLAB = ShieldOption(
    BORATED_POLYETHYLENE, thickness_cm=5.0,
    thermally_insulating=True,
)


@dataclass(frozen=True)
class ShieldEvaluation:
    """Outcome of evaluating one shield for one device/scenario.

    Attributes:
        option: the shield evaluated.
        thermal_transmission: fraction of thermal flux passing.
        fit_unshielded / fit_shielded: total (SDC+DUE) FIT before and
            after.
        practical: the practicality verdict.
    """

    option: ShieldOption
    thermal_transmission: float
    fit_unshielded: float
    fit_shielded: float
    practical: bool

    @property
    def fit_reduction(self) -> float:
        """Fractional FIT reduction the shield buys."""
        if self.fit_unshielded == 0.0:
            raise ValueError("zero unshielded FIT")
        return 1.0 - self.fit_shielded / self.fit_unshielded


class ShieldingEvaluator:
    """Monte-Carlo-backed shield evaluation.

    Args:
        n_neutrons: MC histories per transmission estimate.
        seed: MC seed.
        engine: transport engine policy — ``"batch"`` (default),
            ``"scalar"``, ``"deterministic"`` (noise-free multigroup
            solve; ``n_neutrons``/``seed`` are then inert), or
            ``"auto"``/``"surrogate"`` to let the facade serve from
            a certified response surface when one covers the query.
    """

    def __init__(
        self,
        n_neutrons: int = 5000,
        seed: int = 2020,
        engine: str = "batch",
    ) -> None:
        if n_neutrons <= 0:
            raise ValueError(
                f"n_neutrons must be positive, got {n_neutrons}"
            )
        self.n_neutrons = n_neutrons
        self.seed = seed
        self.calculator = FitCalculator()
        self.engine = engine

    def thermal_transmission(self, option: ShieldOption) -> float:
        """Thermal-band transmission of a shield (via the transport
        facade; the engine policy decides who answers)."""
        result = answer(
            TransportQuery(
                mode="transmission",
                material=option.material,
                thickness_cm=option.thickness_cm,
                source_spectrum=rotax_spectrum(),
                n_neutrons=self.n_neutrons,
                seed=self.seed,
                engine=self.engine,
            )
        )
        return result.result.thermal_transmission_fraction()

    def evaluate(
        self,
        option: ShieldOption,
        device: Device,
        scenario: FluxScenario,
    ) -> ShieldEvaluation:
        """FIT impact of one shield for one deployment."""
        transmission = self.thermal_transmission(option)
        before = self._total_fit(device, scenario, thermal_scale=1.0)
        after = self._total_fit(
            device, scenario, thermal_scale=transmission
        )
        return ShieldEvaluation(
            option=option,
            thermal_transmission=transmission,
            fit_unshielded=before,
            fit_shielded=after,
            practical=option.practical_near_hpc,
        )

    def rank(
        self,
        options: List[ShieldOption],
        device: Device,
        scenario: FluxScenario,
        require_practical: bool = False,
    ) -> List[ShieldEvaluation]:
        """Evaluate several shields, best FIT reduction first."""
        evaluations = [
            self.evaluate(o, device, scenario) for o in options
        ]
        if require_practical:
            evaluations = [e for e in evaluations if e.practical]
        return sorted(
            evaluations, key=lambda e: e.fit_shielded
        )

    # ------------------------------------------------------------------

    def _total_fit(
        self,
        device: Device,
        scenario: FluxScenario,
        thermal_scale: float,
    ) -> float:
        total = 0.0
        for outcome in (Outcome.SDC, Outcome.DUE):
            d = self.calculator.decompose(device, scenario, outcome)
            total += d.fit_high_energy + d.fit_thermal * thermal_scale
        return total
