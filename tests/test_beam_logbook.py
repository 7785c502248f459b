"""Campaign logbook serialization."""

import pytest

from repro import serde
from repro.beam import IrradiationCampaign, chipir, rotax
from repro.beam.logbook import CampaignLogbook, device_summary
from repro.devices import get_device
from repro.faults.models import Outcome


@pytest.fixture
def logbook():
    campaign = IrradiationCampaign(seed=5)
    device = get_device("K20")
    for code in ("MxM", "HotSpot"):
        campaign.expose_counting(chipir(), device, code, 1800.0)
        campaign.expose_counting(rotax(), device, code, 7200.0)
    return CampaignLogbook(
        result=campaign.result,
        seed=5,
        notes="virtual trip",
        metadata={"facility": "ISIS"},
    )


class TestRoundTrip:
    def test_dict_round_trip(self, logbook):
        rebuilt = CampaignLogbook.from_dict(logbook.to_dict())
        assert rebuilt.seed == 5
        assert rebuilt.notes == "virtual trip"
        assert rebuilt.metadata == {"facility": "ISIS"}
        assert len(rebuilt.result.exposures) == len(
            logbook.result.exposures
        )

    def test_file_round_trip(self, logbook, tmp_path):
        path = tmp_path / "trip.json"
        logbook.save(path)
        rebuilt = CampaignLogbook.load(path)
        # The reloaded data supports the same analysis.
        original = logbook.result.beam_ratio("K20", Outcome.SDC)
        reloaded = rebuilt.result.beam_ratio("K20", Outcome.SDC)
        assert reloaded.ratio == pytest.approx(original.ratio)

    def test_version_checked(self, logbook):
        data = logbook.to_dict()
        data[serde.VERSION_KEY] = 999
        with pytest.raises(ValueError, match="version"):
            CampaignLogbook.from_dict(data)

    def test_version_constant_written(self, logbook):
        data = logbook.to_dict()
        assert data[serde.VERSION_KEY] == serde.SCHEMA_VERSIONS["logbook"]


class TestMerge:
    def test_merge_pools_fluence(self, logbook):
        merged = logbook.merge(logbook)
        a = logbook.result.sigma(
            "K20", chipir().kind, Outcome.SDC
        )
        b = merged.result.sigma(
            "K20", chipir().kind, Outcome.SDC
        )
        assert b.fluence_per_cm2 == pytest.approx(
            2.0 * a.fluence_per_cm2
        )
        # Pooled point estimate unchanged in expectation — exactly
        # doubled counts over doubled fluence here.
        assert b.sigma_cm2 == pytest.approx(a.sigma_cm2)

    def test_merge_combines_metadata(self, logbook):
        other = CampaignLogbook(
            result=logbook.result,
            notes="second trip",
            metadata={"beam": "ROTAX"},
        )
        merged = logbook.merge(other)
        assert "virtual trip" in merged.notes
        assert "second trip" in merged.notes
        assert merged.metadata == {
            "facility": "ISIS", "beam": "ROTAX",
        }


class TestSummary:
    def test_summary_rows(self, logbook):
        rows = device_summary(logbook)
        beams = {row["beam"] for row in rows}
        assert beams == {"high-energy", "thermal"}
        for row in rows:
            assert row["fluence"] > 0.0
