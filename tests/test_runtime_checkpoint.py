"""Checkpoint records: round-trips, addresses, corruption handling."""

import json

import pytest

from repro import serde
from repro.beam import IrradiationCampaign, chipir
from repro.chaos import trials
from repro.devices import get_device
from repro.runtime.checkpoint import Checkpoint, plan_digest
from repro.runtime.errors import (
    CheckpointError,
    CheckpointMismatchError,
)

DIGEST = plan_digest([{"a": 1}])


def _campaign_snapshot():
    campaign = IrradiationCampaign(seed=3)
    campaign.expose_counting(
        chipir(), get_device("K20"), "MxM", 1800.0
    )
    return Checkpoint(
        digest=DIGEST,
        cursor=1,
        state={
            "spawn_position": campaign.spawn_position,
            "events_used": 5,
        },
        done=[e.to_dict() for e in campaign.result.exposures],
        events=[],
    )


class TestPlanDigest:
    def test_stable_under_key_order(self):
        assert plan_digest([{"a": 1, "b": 2}]) == plan_digest(
            [{"b": 2, "a": 1}]
        )

    def test_distinguishes_plans(self):
        assert plan_digest([{"a": 1}]) != plan_digest([{"a": 2}])


class TestCampaignCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        snapshot = _campaign_snapshot()
        snapshot.save(path)
        loaded = Checkpoint.load(path, DIGEST)
        assert loaded == snapshot

    def test_resume_rebuilds_exposures(self, tmp_path):
        path = tmp_path / "ck.json"
        first = trials.make_campaign_runner(path).run(max_steps=1)
        resumed = trials.make_campaign_runner(path).run(
            resume=True, max_steps=0
        )
        assert len(resumed.result.exposures) == 1
        assert [e.to_dict() for e in resumed.result.exposures] == [
            e.to_dict() for e in first.result.exposures
        ]

    def test_digest_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        _campaign_snapshot().save(path)
        with pytest.raises(CheckpointMismatchError, match="address"):
            Checkpoint.load(path, plan_digest([{"other": 1}]))

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            Checkpoint.load(path, DIGEST)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(tmp_path / "absent.json", DIGEST)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        _campaign_snapshot().save(path)
        data = json.loads(path.read_text())
        data[serde.VERSION_KEY] += 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="schema"):
            Checkpoint.load(path, DIGEST)

    def test_wrong_record_kind_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        _campaign_snapshot().save(path)
        data = json.loads(path.read_text())
        data[serde.SCHEMA_KEY] = "exposure"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="schema"):
            Checkpoint.load(path, DIGEST)

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "ck.json"
        _campaign_snapshot().save(path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestFleetCheckpoint:
    def test_round_trip(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(9)
        snapshot = Checkpoint(
            digest=plan_digest([{"fleet": 1}]),
            cursor=30,
            state={"rng_state": rng.bit_generator.state, "raining": True},
            done=[{"day": 0}],
            events=[],
        )
        path = tmp_path / "fleet.json"
        snapshot.save(path)
        loaded = Checkpoint.load(path, snapshot.digest)
        assert loaded.cursor == 30
        assert loaded.state["raining"] is True
        # The RNG state dict survives JSON exactly.
        restored = np.random.default_rng(0)
        restored.bit_generator.state = loaded.state["rng_state"]
        reference = np.random.default_rng(9)
        assert restored.random() == reference.random()

    def test_campaign_file_rejected(self, tmp_path):
        # The runner kind is part of the address: a campaign's
        # checkpoint never resumes a fleet.
        path = tmp_path / "ck.json"
        trials.make_campaign_runner(path).run(max_steps=1)
        with pytest.raises(CheckpointMismatchError):
            trials.make_fleet_runner(path).run(
                n_days=trials.FLEET_N_DAYS, resume=True
            )
