"""Tallies and results for the slowing-down Monte Carlo."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro import serde


@dataclass
class TransportTally:
    """Mutable event counters filled by a transport run."""

    source: int = 0
    transmitted_thermal: int = 0
    transmitted_epithermal: int = 0
    transmitted_fast: int = 0
    reflected_thermal: int = 0
    reflected_epithermal: int = 0
    reflected_fast: int = 0
    absorbed: int = 0
    absorbed_by_material: Dict[str, int] = field(default_factory=dict)
    collisions: int = 0

    def record_absorption(self, material_name: str) -> None:
        """Count an absorption, attributing it to a material."""
        self.absorbed += 1
        self.absorbed_by_material[material_name] = (
            self.absorbed_by_material.get(material_name, 0) + 1
        )


@dataclass(frozen=True)
class TransportResult:
    """Frozen summary of a transport run.

    All fractions are per source neutron; ``*_stderr`` are binomial
    standard errors, so callers can put error bars on MC answers.
    """

    source: int
    transmitted_thermal: int
    transmitted_epithermal: int
    transmitted_fast: int
    reflected_thermal: int
    reflected_epithermal: int
    reflected_fast: int
    absorbed: int
    collisions: int
    absorbed_by_material: Dict[str, int]
    #: Shards the batch engine recomputed in-process after a pool
    #: worker died or a delivery faulted.  Tallies are unaffected
    #: (shards are deterministic), but the run did not go to plan —
    #: mirrors the ``degraded`` flag on exposures.
    degraded_shards: int = 0

    @classmethod
    def from_tally(
        cls, tally: TransportTally, degraded_shards: int = 0
    ) -> "TransportResult":
        """Freeze a mutable tally.

        Args:
            tally: the counters to freeze.
            degraded_shards: shards that needed the in-process
                fallback (batch engine only).
        """
        return cls(
            source=tally.source,
            transmitted_thermal=tally.transmitted_thermal,
            transmitted_epithermal=tally.transmitted_epithermal,
            transmitted_fast=tally.transmitted_fast,
            reflected_thermal=tally.reflected_thermal,
            reflected_epithermal=tally.reflected_epithermal,
            reflected_fast=tally.reflected_fast,
            absorbed=tally.absorbed,
            collisions=tally.collisions,
            absorbed_by_material=dict(tally.absorbed_by_material),
            degraded_shards=degraded_shards,
        )

    def to_dict(self) -> dict:
        """Plain-dict form, tagged with the ``transport`` schema."""
        return serde.tag(
            "transport",
            {
                "source": self.source,
                "transmitted_thermal": self.transmitted_thermal,
                "transmitted_epithermal": (
                    self.transmitted_epithermal
                ),
                "transmitted_fast": self.transmitted_fast,
                "reflected_thermal": self.reflected_thermal,
                "reflected_epithermal": self.reflected_epithermal,
                "reflected_fast": self.reflected_fast,
                "absorbed": self.absorbed,
                "collisions": self.collisions,
                "absorbed_by_material": dict(
                    self.absorbed_by_material
                ),
                "degraded_shards": self.degraded_shards,
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "TransportResult":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            repro.serde.SchemaError: on a wrong kind tag or an
                unsupported version.
        """
        serde.check("transport", data)
        return cls(
            source=int(data["source"]),
            transmitted_thermal=int(data["transmitted_thermal"]),
            transmitted_epithermal=int(
                data["transmitted_epithermal"]
            ),
            transmitted_fast=int(data["transmitted_fast"]),
            reflected_thermal=int(data["reflected_thermal"]),
            reflected_epithermal=int(data["reflected_epithermal"]),
            reflected_fast=int(data["reflected_fast"]),
            absorbed=int(data["absorbed"]),
            collisions=int(data["collisions"]),
            absorbed_by_material={
                str(k): int(v)
                for k, v in data.get(
                    "absorbed_by_material", {}
                ).items()
            },
            degraded_shards=int(data.get("degraded_shards", 0)),
        )

    # ------------------------------------------------------------------

    def _fraction(self, count: int) -> float:
        if self.source == 0:
            raise ValueError("empty run: no source neutrons")
        return count / self.source

    def _stderr(self, count: int) -> float:
        p = self._fraction(count)
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.source)

    @property
    def transmitted(self) -> int:
        """All neutrons leaving through the far face."""
        return (
            self.transmitted_thermal
            + self.transmitted_epithermal
            + self.transmitted_fast
        )

    @property
    def reflected(self) -> int:
        """All neutrons leaving back through the entry face."""
        return (
            self.reflected_thermal
            + self.reflected_epithermal
            + self.reflected_fast
        )

    def transmission_fraction(self) -> float:
        """Fraction of source neutrons transmitted (any energy)."""
        return self._fraction(self.transmitted)

    def thermal_transmission_fraction(self) -> float:
        """Fraction transmitted below the cadmium cutoff."""
        return self._fraction(self.transmitted_thermal)

    def thermal_albedo(self) -> float:
        """Fraction reflected back *as thermal neutrons*.

        This is the quantity behind the paper's material enhancements:
        a moderator body next to a device sends a thermalized fraction
        of the incident fast population back at it.
        """
        return self._fraction(self.reflected_thermal)

    def thermal_albedo_stderr(self) -> float:
        """Binomial standard error of :meth:`thermal_albedo`."""
        return self._stderr(self.reflected_thermal)

    def thermal_transmission_stderr(self) -> float:
        """Binomial standard error of
        :meth:`thermal_transmission_fraction`."""
        return self._stderr(self.transmitted_thermal)

    def absorption_fraction(self) -> float:
        """Fraction absorbed anywhere in the stack."""
        return self._fraction(self.absorbed)

    def mean_collisions(self) -> float:
        """Average number of collisions per source neutron."""
        if self.source == 0:
            raise ValueError("empty run: no source neutrons")
        return self.collisions / self.source

    def balance_check(self) -> bool:
        """True if every source neutron is accounted for."""
        return (
            self.transmitted + self.reflected + self.absorbed
            == self.source
        )
