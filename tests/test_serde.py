"""Unified result serialization: schema tags and version checks."""

import warnings
from pathlib import Path

import pytest

from repro import serde
from repro.beam.logbook import CampaignLogbook
from repro.beam.results import (
    CampaignResult,
    ExposureResult,
)
from repro.faults.models import BeamKind
from repro.transport.tallies import TransportResult, TransportTally


#: A logbook of :meth:`TestLogbookRoundTrip._logbook`, saved by the
#: code that preceded the current loader.
PARENT_LOGBOOK = Path(__file__).parent / "data" / "campaign-logbook.json"


def _untagged(data):
    """``data`` without its schema tags."""
    return {
        key: value
        for key, value in data.items()
        if key not in (serde.SCHEMA_KEY, serde.VERSION_KEY)
    }


def _exposure():
    result = ExposureResult(
        device_name="ddr3",
        code="matmul",
        beam=BeamKind.THERMAL,
        fluence_per_cm2=1e10,
        sdc_count=3,
        due_count=1,
        masked_count=7,
        due_mechanisms={"hang": 1},
        isolated_count=1,
        degraded=True,
    )
    return result


class TestTag:
    def test_tag_stamps_kind_and_version(self):
        tagged = serde.tag("exposure", {"device": "x"})
        assert tagged[serde.SCHEMA_KEY] == "exposure"
        assert tagged[serde.VERSION_KEY] == (
            serde.SCHEMA_VERSIONS["exposure"]
        )
        assert tagged["device"] == "x"

    def test_tag_does_not_mutate_body(self):
        body = {"device": "x"}
        serde.tag("exposure", body)
        assert body == {"device": "x"}

    def test_tag_rejects_unknown_kind(self):
        with pytest.raises(serde.SchemaError):
            serde.tag("spectrogram", {})

    def test_tag_refuses_double_tagging(self):
        tagged = serde.tag("exposure", {})
        with pytest.raises(serde.SchemaError):
            serde.tag("exposure", tagged)


class TestCheck:
    def test_tagged_payload_passes_silently(self):
        tagged = serde.tag("transport", {"source": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert serde.check("transport", tagged) == 1

    def test_wrong_kind_rejected(self):
        tagged = serde.tag("transport", {})
        with pytest.raises(serde.SchemaError):
            serde.check("exposure", tagged)

    def test_untagged_payload_rejected(self):
        with pytest.raises(serde.SchemaError, match="untagged"):
            serde.check("exposure", {"device": "x"})

    def test_future_version_rejected(self):
        data = serde.tag("exposure", {})
        data[serde.VERSION_KEY] = 99
        with pytest.raises(serde.SchemaError):
            serde.check("exposure", data)

    def test_older_version_rejected(self):
        data = serde.tag("exposure", {})
        data[serde.VERSION_KEY] = 1
        with pytest.raises(serde.SchemaError, match="version 1"):
            serde.check("exposure", data)


class TestExposureRoundTrip:
    def test_round_trip(self):
        original = _exposure()
        data = original.to_dict()
        assert data[serde.SCHEMA_KEY] == "exposure"
        restored = ExposureResult.from_dict(data)
        assert restored == original

    def test_untagged_payload_rejected(self):
        data = _untagged(_exposure().to_dict())
        with pytest.raises(serde.SchemaError, match="untagged"):
            ExposureResult.from_dict(data)


class TestTransportRoundTrip:
    def _result(self):
        tally = TransportTally(
            source=100,
            transmitted_thermal=10,
            transmitted_epithermal=5,
            transmitted_fast=15,
            reflected_thermal=20,
            reflected_epithermal=2,
            reflected_fast=3,
            collisions=940,
        )
        for _ in range(45):
            tally.record_absorption("water")
        return TransportResult.from_tally(tally, degraded_shards=2)

    def test_round_trip(self):
        original = self._result()
        restored = TransportResult.from_dict(original.to_dict())
        assert restored == original
        assert restored.balance_check()

    def test_wrong_kind_rejected(self):
        data = self._result().to_dict()
        data[serde.SCHEMA_KEY] = "exposure"
        with pytest.raises(serde.SchemaError):
            TransportResult.from_dict(data)

    def test_untagged_payload_rejected(self):
        data = _untagged(self._result().to_dict())
        with pytest.raises(serde.SchemaError, match="untagged"):
            TransportResult.from_dict(data)


class TestLogbookRoundTrip:
    def _logbook(self):
        result = CampaignResult()
        result.add(_exposure())
        return CampaignLogbook(
            result=result,
            seed=2020,
            notes="trip one",
            metadata={"facility": "thermal column"},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "logbook.json"
        self._logbook().save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = CampaignLogbook.load(path)
        assert restored.seed == 2020
        assert restored.result.exposures == [_exposure()]

    def test_tag_replaces_version_field(self):
        data = self._logbook().to_dict()
        assert data[serde.SCHEMA_KEY] == "logbook"
        assert data[serde.VERSION_KEY] == serde.SCHEMA_VERSIONS["logbook"]
        assert "version" not in data

    def test_parent_commit_logbook_loads_without_warning(self):
        # Saved by the code that still wrote the pre-serde "version"
        # field next to the schema tags.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = CampaignLogbook.load(PARENT_LOGBOOK)
        assert restored == self._logbook()

    def test_untagged_payload_rejected(self):
        data = _untagged(self._logbook().to_dict())
        with pytest.raises(serde.SchemaError, match="untagged"):
            CampaignLogbook.from_dict(data)

    def test_v2_logbook_rejected(self):
        data = _untagged(self._logbook().to_dict())
        data["version"] = 2
        data["exposures"] = [_untagged(raw) for raw in data["exposures"]]
        with pytest.raises(serde.SchemaError, match="untagged"):
            CampaignLogbook.from_dict(data)

    def test_unknown_version_rejected(self):
        data = self._logbook().to_dict()
        data["version"] = 99
        data[serde.VERSION_KEY] = 99
        with pytest.raises(serde.SchemaError):
            CampaignLogbook.from_dict(data)
