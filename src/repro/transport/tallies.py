"""Monte Carlo tallies and the result type every transport engine
returns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro import serde

#: Every channel a result carries, in canonical order.  The first
#: seven are counts or fractions per source neutron; ``collisions``
#: is a count or a mean count per source neutron (may exceed 1).
FRACTION_CHANNELS = (
    "transmitted_thermal",
    "transmitted_epithermal",
    "transmitted_fast",
    "reflected_thermal",
    "reflected_epithermal",
    "reflected_fast",
    "absorbed",
)
CHANNELS = FRACTION_CHANNELS + ("collisions",)

#: The serde kinds a result is written as: Monte Carlo counts,
#: deterministic fractions, certified-surface fractions.
_KINDS = (
    "transport",
    "deterministic-transport",
    "surrogate-transport",
)

#: Balance slack of a deterministic answer: iteration residual, not
#: statistical noise.
_SOLVER_BALANCE_TOL = 1.0e-6

#: Least interpolation slack of a surface-served answer's balance.
_SURFACE_BALANCE_FLOOR = 1.0e-3


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
    """One transport answer, from any engine.

    ``kind`` is the serde kind the result is written as, and it alone
    says what the channels hold and where their errors come from:

    * ``"transport"`` (batch and scalar Monte Carlo): integer counts
      out of ``source`` histories; each ``*_stderr`` is the binomial
      standard error; the balance holds exactly.
    * ``"deterministic-transport"`` (the S_N solver): fractions per
      source neutron (``source`` is 1.0); no statistical error; the
      balance holds to the iteration residual.
    * ``"surrogate-transport"`` (a certified response surface):
      fractions per source neutron (``source`` is 1.0); each
      ``*_stderr`` is the channel's certified bound; the balance
      holds to the interpolation slack.

    The remaining fields are engine extras, left at their defaults by
    the engines that do not fill them.

    Attributes:
        absorbed_by_material: absorptions per material name (Monte
            Carlo and solver).
        absorbed_by_layer: absorbed fraction per geometry layer
            (solver).
        iterations: total within-group source iterations (solver).
        balance_residual: ``|1 - (transmitted + reflected +
            absorbed)|``, bounded by the iteration tolerance
            (solver).
        bounds: certified absolute bound per channel (surface).
    """

    kind: str
    source: float
    transmitted_thermal: float
    transmitted_epithermal: float
    transmitted_fast: float
    reflected_thermal: float
    reflected_epithermal: float
    reflected_fast: float
    absorbed: float
    collisions: float
    absorbed_by_material: Dict[str, float] = field(
        default_factory=dict
    )
    absorbed_by_layer: Tuple[float, ...] = ()
    iterations: int = 0
    balance_residual: float = 0.0
    bounds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown result kind {self.kind!r};"
                f" allowed: {_KINDS}"
            )

    @classmethod
    def from_tally(cls, tally: TransportTally) -> "TransportResult":
        """Freeze a mutable Monte Carlo tally."""
        return cls(
            kind="transport",
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
        )

    def to_dict(self) -> dict:
        """Plain-dict form, tagged with the result's ``kind``.

        Each kind writes the channels and its own extras; Monte Carlo
        counts stay integers.
        """
        body = {
            "source": self.source,
            "transmitted_thermal": self.transmitted_thermal,
            "transmitted_epithermal": self.transmitted_epithermal,
            "transmitted_fast": self.transmitted_fast,
            "reflected_thermal": self.reflected_thermal,
            "reflected_epithermal": self.reflected_epithermal,
            "reflected_fast": self.reflected_fast,
            "absorbed": self.absorbed,
            "collisions": self.collisions,
        }
        if self.kind == "surrogate-transport":
            body["bounds"] = dict(self.bounds)
        else:
            body["absorbed_by_material"] = dict(
                self.absorbed_by_material
            )
            if self.kind == "deterministic-transport":
                body["absorbed_by_layer"] = list(
                    self.absorbed_by_layer
                )
                body["iterations"] = self.iterations
                body["balance_residual"] = self.balance_residual
        return serde.tag(self.kind, body)

    @classmethod
    def from_dict(cls, data: dict) -> "TransportResult":
        """Rebuild from :meth:`to_dict` output.

        Every field the payload's kind writes is required.

        Raises:
            repro.serde.SchemaError: on a missing or unknown kind tag
                or an unsupported version.
            KeyError: on a missing field.
        """
        kind = data.get(serde.SCHEMA_KEY)
        # An untagged or foreign payload fails as a ``transport`` one.
        serde.check(kind if kind in _KINDS else _KINDS[0], data)
        number = int if kind == "transport" else float
        extras: dict = {}
        if kind == "surrogate-transport":
            extras["bounds"] = {
                str(k): float(v) for k, v in data["bounds"].items()
            }
        else:
            extras["absorbed_by_material"] = {
                str(k): number(v)
                for k, v in data["absorbed_by_material"].items()
            }
            if kind == "deterministic-transport":
                extras["absorbed_by_layer"] = tuple(
                    float(v) for v in data["absorbed_by_layer"]
                )
                extras["iterations"] = int(data["iterations"])
                extras["balance_residual"] = float(
                    data["balance_residual"]
                )
        return cls(
            kind=kind,
            source=number(data["source"]),
            **{channel: number(data[channel]) for channel in CHANNELS},
            **extras,
        )

    # ------------------------------------------------------------------

    def _fraction(self, count: float) -> float:
        """``count`` per source neutron.  A fraction kind's ``source``
        is 1.0, and dividing by it returns the value bit for bit."""
        if self.source == 0:
            raise ValueError("empty run: no source neutrons")
        return count / self.source

    def _stderr(self, channel: str) -> float:
        if self.kind == "transport":
            p = self._fraction(getattr(self, channel))
            return math.sqrt(max(p * (1.0 - p), 0.0) / self.source)
        if self.kind == "surrogate-transport":
            return self.bounds[channel]
        return 0.0

    @property
    def transmitted(self) -> float:
        """All neutrons leaving through the far face (any energy)."""
        return (
            self.transmitted_thermal
            + self.transmitted_epithermal
            + self.transmitted_fast
        )

    @property
    def reflected(self) -> float:
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
        """Error of :meth:`thermal_albedo`: binomial, zero or the
        certified bound, by ``kind``."""
        return self._stderr("reflected_thermal")

    def thermal_transmission_stderr(self) -> float:
        """Error of :meth:`thermal_transmission_fraction`: binomial,
        zero or the certified bound, by ``kind``."""
        return self._stderr("transmitted_thermal")

    def absorption_fraction(self) -> float:
        """Fraction absorbed anywhere in the stack."""
        return self._fraction(self.absorbed)

    def mean_collisions(self) -> float:
        """Average number of collisions per source neutron."""
        return self._fraction(self.collisions)

    def balance_check(self) -> bool:
        """True if every source neutron is accounted for: exactly
        (Monte Carlo), to the iteration residual (solver) or to the
        interpolation slack (surface)."""
        if self.kind == "deterministic-transport":
            return self.balance_residual <= _SOLVER_BALANCE_TOL
        total = self.transmitted + self.reflected + self.absorbed
        if self.kind == "transport":
            return total == self.source
        slack = sum(self.bounds[c] for c in FRACTION_CHANNELS)
        return abs(total - 1.0) <= max(slack, _SURFACE_BALANCE_FLOOR)
