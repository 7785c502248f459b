"""Campaign result containers and cross-section estimation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import serde
from repro.analysis.poisson import cross_section
from repro.analysis.ratios import RateRatio, rate_ratio
from repro.faults.models import BeamKind, Outcome


@dataclass(frozen=True)
class CrossSectionEstimate:
    """A measured cross section with its 95 % confidence interval.

    Attributes:
        sigma_cm2: point estimate, cm^2.
        lower_cm2 / upper_cm2: Poisson 95 % CI bounds.
        count: events behind the estimate.
        fluence_per_cm2: fluence behind the estimate.
    """

    sigma_cm2: float
    lower_cm2: float
    upper_cm2: float
    count: int
    fluence_per_cm2: float

    @classmethod
    def from_counts(
        cls, count: int, fluence_per_cm2: float
    ) -> "CrossSectionEstimate":
        """Estimate from a count and a fluence."""
        sigma, lo, hi = cross_section(count, fluence_per_cm2)
        return cls(
            sigma_cm2=sigma,
            lower_cm2=lo,
            upper_cm2=hi,
            count=count,
            fluence_per_cm2=fluence_per_cm2,
        )


@dataclass
class ExposureResult:
    """One device x code x beam exposure.

    Attributes:
        device_name: DUT label.
        code: workload name.
        beam: beam kind.
        fluence_per_cm2: delivered fluence.
        sdc_count / due_count / masked_count: observed outcomes.
        due_mechanisms: DUE mechanism histogram (event-level mode).
        isolated_count: harness crashes isolated by the reboot-and-
            continue protocol and counted as DUEs (never silent).
        degraded: True when the supervised runtime downgraded this
            exposure (event budget exhausted) — the counts are real
            but came from a cheaper fidelity than requested.
    """

    device_name: str
    code: str
    beam: BeamKind
    fluence_per_cm2: float
    sdc_count: int = 0
    due_count: int = 0
    masked_count: int = 0
    due_mechanisms: Dict[str, int] = field(default_factory=dict)
    isolated_count: int = 0
    degraded: bool = False

    def record(self, outcome: Outcome, mechanism: str = "") -> None:
        """Count one fault outcome."""
        if outcome is Outcome.SDC:
            self.sdc_count += 1
        elif outcome is Outcome.DUE:
            self.due_count += 1
            if mechanism:
                self.due_mechanisms[mechanism] = (
                    self.due_mechanisms.get(mechanism, 0) + 1
                )
        else:
            self.masked_count += 1

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; logbooks and checkpoints).

        Tagged by :func:`repro.serde.tag` with the ``exposure``
        schema.
        """
        return serde.tag(
            "exposure",
            {
                "device": self.device_name,
                "code": self.code,
                "beam": self.beam.value,
                "fluence_per_cm2": self.fluence_per_cm2,
                "sdc": self.sdc_count,
                "due": self.due_count,
                "masked": self.masked_count,
                "due_mechanisms": dict(self.due_mechanisms),
                "isolated": self.isolated_count,
                "degraded": self.degraded,
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExposureResult":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            repro.serde.SchemaError: on missing schema tags or a
                version other than the current one.
        """
        serde.check("exposure", data)
        return cls(
            device_name=data["device"],
            code=data["code"],
            beam=BeamKind(data["beam"]),
            fluence_per_cm2=float(data["fluence_per_cm2"]),
            sdc_count=int(data["sdc"]),
            due_count=int(data["due"]),
            masked_count=int(data["masked"]),
            due_mechanisms=dict(data.get("due_mechanisms", {})),
            isolated_count=int(data["isolated"]),
            degraded=bool(data["degraded"]),
        )

    def sdc_cross_section(self) -> CrossSectionEstimate:
        """SDC cross section with CI."""
        return CrossSectionEstimate.from_counts(
            self.sdc_count, self.fluence_per_cm2
        )

    def due_cross_section(self) -> CrossSectionEstimate:
        """DUE cross section with CI."""
        return CrossSectionEstimate.from_counts(
            self.due_count, self.fluence_per_cm2
        )


@dataclass
class CampaignResult:
    """A full campaign: many exposures across beams/devices/codes."""

    exposures: List[ExposureResult] = field(default_factory=list)

    def add(self, exposure: ExposureResult) -> None:
        """Append one exposure."""
        self.exposures.append(exposure)

    def find(
        self,
        device_name: str,
        beam: BeamKind,
        code: Optional[str] = None,
    ) -> List[ExposureResult]:
        """All exposures matching a device/beam (and optional code)."""
        return [
            e
            for e in self.exposures
            if e.device_name == device_name
            and e.beam is beam
            and (code is None or e.code == code)
        ]

    def _totals(
        self,
        device_name: str,
        beam: BeamKind,
        code: Optional[str] = None,
    ) -> Tuple[int, int, float]:
        """(sdc, due, fluence) summed over matching exposures."""
        matches = self.find(device_name, beam, code)
        if not matches:
            raise KeyError(
                f"no exposures for {device_name} in {beam.value}"
                + (f" running {code}" if code else "")
            )
        return (
            sum(e.sdc_count for e in matches),
            sum(e.due_count for e in matches),
            sum(e.fluence_per_cm2 for e in matches),
        )

    def sigma(
        self,
        device_name: str,
        beam: BeamKind,
        outcome: Outcome,
        code: Optional[str] = None,
    ) -> CrossSectionEstimate:
        """Pooled cross section for a device/beam/outcome."""
        sdc, due, fluence = self._totals(device_name, beam, code)
        count = sdc if outcome is Outcome.SDC else due
        return CrossSectionEstimate.from_counts(count, fluence)

    def beam_ratio(
        self,
        device_name: str,
        outcome: Outcome,
        code: Optional[str] = None,
    ) -> RateRatio:
        """High-energy / thermal cross-section ratio (Figure 4).

        Raises:
            KeyError: if either beam has no matching exposures.
            ValueError: if either count is zero.
        """
        sdc_he, due_he, flu_he = self._totals(
            device_name, BeamKind.HIGH_ENERGY, code
        )
        sdc_th, due_th, flu_th = self._totals(
            device_name, BeamKind.THERMAL, code
        )
        if outcome is Outcome.SDC:
            return rate_ratio(sdc_he, flu_he, sdc_th, flu_th)
        return rate_ratio(due_he, flu_he, due_th, flu_th)

    def device_names(self) -> List[str]:
        """Distinct devices in the campaign, in first-seen order."""
        seen: Dict[str, None] = {}
        for e in self.exposures:
            seen.setdefault(e.device_name)
        return list(seen)
