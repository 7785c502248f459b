"""Campaign logbook: serialize results with full provenance.

Beam campaigns are expensive; their data outlives the trip.  The
logbook round-trips a :class:`~repro.beam.results.CampaignResult` (and
the provenance needed to regenerate it — seed, library version) to
JSON, so analyses can be re-run and results merged across trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro import serde
from repro.beam.results import CampaignResult, ExposureResult
from repro.faults.models import BeamKind


@dataclass
class CampaignLogbook:
    """A campaign plus its provenance.

    Attributes:
        result: the campaign data.
        seed: campaign seed (reproducibility).
        notes: free-form trip notes.
        metadata: extra key/value provenance.
    """

    result: CampaignResult
    seed: int = 0
    notes: str = ""
    metadata: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready, :mod:`repro.serde` tagged)."""
        return serde.tag(
            "logbook",
            {
                "seed": self.seed,
                "notes": self.notes,
                "metadata": dict(self.metadata),
                "exposures": [
                    e.to_dict() for e in self.result.exposures
                ],
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignLogbook":
        """Rebuild from :meth:`to_dict` output.

        A ``version`` key, which older writers added next to the
        schema tags, is ignored.

        Raises:
            repro.serde.SchemaError: on missing schema tags or a
                version other than the current one.
        """
        serde.check("logbook", data)
        result = CampaignResult()
        for raw in data.get("exposures", []):
            result.add(ExposureResult.from_dict(raw))
        return cls(
            result=result,
            seed=int(data.get("seed", 0)),
            notes=str(data.get("notes", "")),
            metadata=dict(data.get("metadata", {})),
        )

    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the logbook as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignLogbook":
        """Read a logbook back from JSON."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def merge(self, other: "CampaignLogbook") -> "CampaignLogbook":
        """Combine two trips into one analysis set.

        Exposures are concatenated (the estimators pool fluence), the
        notes joined, metadata merged with ``other`` winning ties.
        """
        merged = CampaignResult()
        for exposure in self.result.exposures + other.result.exposures:
            merged.add(exposure)
        notes = "\n".join(n for n in (self.notes, other.notes) if n)
        metadata = {**self.metadata, **other.metadata}
        return CampaignLogbook(
            result=merged,
            seed=self.seed,
            notes=notes,
            metadata=metadata,
        )


def device_summary(logbook: CampaignLogbook) -> List[dict]:
    """Per-device pooled counts (handy for quick trip reports)."""
    rows = []
    for name in logbook.result.device_names():
        for beam in BeamKind:
            exposures = logbook.result.find(name, beam)
            if not exposures:
                continue
            rows.append(
                {
                    "device": name,
                    "beam": beam.value,
                    "sdc": sum(e.sdc_count for e in exposures),
                    "due": sum(e.due_count for e in exposures),
                    "fluence": sum(
                        e.fluence_per_cm2 for e in exposures
                    ),
                }
            )
    return rows


__all__ = [
    "CampaignLogbook",
    "device_summary",
]
