"""Unified result serialization: schema tags and version checks."""

import json
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
from repro.transport.materials import CADMIUM, WATER
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.multigroup import DeterministicTransportEngine
from repro.transport.surrogate.surface import (
    ResponseSurface,
    mono_source_key,
)
from repro.transport.tallies import (
    CHANNELS,
    TransportResult,
    TransportTally,
)


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
            assert serde.check("transport", tagged) == 2

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
        for kind in ("exposure", "transport"):
            data = serde.tag(kind, {})
            data[serde.VERSION_KEY] = 1
            with pytest.raises(serde.SchemaError, match="version 1"):
                serde.check(kind, data)


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


def _mc_result():
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
    return TransportResult.from_tally(tally)


def _solver_result():
    engine = DeterministicTransportEngine(
        SlabGeometry([Layer(WATER, 1.0), Layer(CADMIUM, 0.05)])
    )
    return engine.run(source_energy_ev=1.0e6)


def _surface_result():
    values = {
        "transmitted_thermal": (0.2, 0.1),
        "transmitted_epithermal": (0.1, 0.05),
        "transmitted_fast": (0.05, 0.0),
        "reflected_thermal": (0.3, 0.35),
        "reflected_epithermal": (0.05, 0.05),
        "reflected_fast": (0.0, 0.0),
        "absorbed": (0.3, 0.45),
        "collisions": (8.0, 12.0),
    }
    surface = ResponseSurface(
        mode="transmission",
        material="water",
        source=mono_source_key(1.0e6),
        thickness_cm=(1.0, 2.0),
        channels=values,
        gaps={channel: 0.01 for channel in values},
        sigmas={channel: 0.002 for channel in values},
        k_sigma=3.0,
        confidence=0.997,
    )
    return surface.evaluate(1.5)


#: The fields a kind's writer emits beyond the channels, each of
#: which its reader requires.
_EXTRAS = {
    "transport": ("absorbed_by_material",),
    "deterministic-transport": (
        "absorbed_by_material",
        "absorbed_by_layer",
        "iterations",
        "balance_residual",
    ),
    "surrogate-transport": ("bounds",),
}


@pytest.fixture(scope="module")
def transport_results():
    """One result of each kind: Monte Carlo, solver, surface."""
    return (_mc_result(), _solver_result(), _surface_result())


class TestTransportRoundTrip:
    def test_round_trip(self, transport_results):
        assert [r.kind for r in transport_results] == list(_EXTRAS)
        for original in transport_results:
            data = original.to_dict()
            assert data[serde.SCHEMA_KEY] == original.kind
            assert set(data) == {
                serde.SCHEMA_KEY,
                serde.VERSION_KEY,
                "source",
                *CHANNELS,
                *_EXTRAS[original.kind],
            }
            restored = TransportResult.from_dict(data)
            assert restored == original
            assert restored.balance_check()
            # Counts stay integers and fractions floats, on the wire
            # too.
            assert json.dumps(restored.to_dict()) == json.dumps(data)

    def test_wrong_kind_rejected(self, transport_results):
        for result in transport_results:
            data = result.to_dict()
            data[serde.SCHEMA_KEY] = "exposure"
            with pytest.raises(serde.SchemaError):
                TransportResult.from_dict(data)

    def test_untagged_payload_rejected(self, transport_results):
        for result in transport_results:
            data = _untagged(result.to_dict())
            with pytest.raises(serde.SchemaError, match="untagged"):
                TransportResult.from_dict(data)

    def test_missing_extra_rejected(self, transport_results):
        for result in transport_results:
            for name in _EXTRAS[result.kind]:
                data = result.to_dict()
                del data[name]
                with pytest.raises(KeyError, match=name):
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
