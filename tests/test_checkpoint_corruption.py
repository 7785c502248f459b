"""Corrupted / truncated / stale checkpoints across every load path.

The durability contract (format v3): a checkpoint that is unreadable,
torn, or silently altered at rest must raise ``CheckpointError`` from
every consumer — the snapshot classes, both runners' ``--resume``
paths, and the CLI (which turns it into exit code 4) — never resume
from wrong state.
"""

import json

import pytest

from repro.chaos import trials
from repro.cli import main
from repro.durable import payload_checksum
from repro.exitcodes import ExitCode
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    FleetCheckpoint,
    cleanup_stale_tmp,
)
from repro.runtime.errors import CheckpointError


def _campaign_checkpoint(tmp_path):
    """A genuine mid-run campaign checkpoint on disk."""
    path = tmp_path / "ck.json"
    trials.make_campaign_runner(path).run(max_steps=2)
    return path


def _v2_checkpoint(tmp_path):
    """A campaign checkpoint in format v2, which had no checksum."""
    path = _campaign_checkpoint(tmp_path)
    data = json.loads(path.read_text())
    data["version"] = 2
    del data["checksum"]
    path.write_text(json.dumps(data))
    return path


def _fleet_checkpoint(tmp_path):
    path = tmp_path / "fleet.json"
    trials.make_fleet_runner(path).run(n_days=trials.FLEET_N_DAYS)
    return path


class TestChecksum:
    def test_payload_checksum_ignores_key_order(self):
        assert payload_checksum(
            {"a": 1, "b": 2}
        ) == payload_checksum({"b": 2, "a": 1})

    def test_checksum_key_excluded_from_digest(self):
        payload = {"a": 1}
        digest = payload_checksum(payload)
        payload["checksum"] = digest
        assert payload_checksum(payload) == digest

    def test_written_file_carries_version_and_checksum(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        assert data["version"] == CHECKPOINT_VERSION == 3
        assert data["checksum"] == payload_checksum(data)


class TestAtRestCorruption:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("")
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(path)

    def test_valid_json_with_altered_payload_rejected(self, tmp_path):
        # The case only the checksum can catch: the file still parses
        # and carries plausible fields, but resume state was altered.
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["next_step"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            CampaignCheckpoint.load(path)

    def test_missing_checksum_on_v3_rejected(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            CampaignCheckpoint.load(path)

    def test_old_version_rejected(self, tmp_path):
        path = _v2_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="version 2"):
            CampaignCheckpoint.load(path)

    def test_fleet_truncation_rejected(self, tmp_path):
        path = _fleet_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 3])
        with pytest.raises(CheckpointError):
            FleetCheckpoint.load(path)

    def test_fleet_altered_payload_rejected(self, tmp_path):
        path = _fleet_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["raining"] = not data["raining"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            FleetCheckpoint.load(path)


class TestRunnerResume:
    def test_campaign_resume_refuses_corruption(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["events_used"] += 7
        path.write_text(json.dumps(data))
        runner = trials.make_campaign_runner(path)
        with pytest.raises(CheckpointError):
            runner.run(resume=True)

    def test_fleet_resume_refuses_truncation(self, tmp_path):
        path = _fleet_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        runner = trials.make_fleet_runner(path)
        with pytest.raises(CheckpointError):
            runner.run(n_days=trials.FLEET_N_DAYS, resume=True)

    def test_resume_after_corruption_not_partial(self, tmp_path):
        # The refused resume must leave no half-restored state: a
        # fresh non-resume run still matches a clean one.
        path = _campaign_checkpoint(tmp_path)
        clean = trials.make_campaign_runner().run()
        path.write_text(path.read_text()[:50])
        runner = trials.make_campaign_runner(path)
        with pytest.raises(CheckpointError):
            runner.run(resume=True)
        redone = trials.make_campaign_runner().run()
        assert [e.to_dict() for e in redone.result.exposures] == [
            e.to_dict() for e in clean.result.exposures
        ]


class TestStaleTmp:
    def test_cleanup_removes_leftover(self, tmp_path):
        path = tmp_path / "ck.json"
        tmp = tmp_path / "ck.json.tmp"
        tmp.write_text("{half a checkpoi")
        assert cleanup_stale_tmp(path) is True
        assert not tmp.exists()
        assert cleanup_stale_tmp(path) is False

    def test_runner_construction_sweeps_tmp(self, tmp_path):
        path = tmp_path / "ck.json"
        tmp = tmp_path / "ck.json.tmp"
        tmp.write_text("{torn")
        trials.make_campaign_runner(path)
        assert not tmp.exists()

    def test_fleet_runner_construction_sweeps_tmp(self, tmp_path):
        path = tmp_path / "fleet.json"
        tmp = tmp_path / "fleet.json.tmp"
        tmp.write_text("{torn")
        trials.make_fleet_runner(path)
        assert not tmp.exists()


class TestCliExitCode:
    def test_run_resume_corrupt_checkpoint_exits_4(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ck.json"
        path.write_text("{definitely not a checkpoint")
        code = main(
            [
                "run",
                "--plan",
                "heterogeneous",
                "--checkpoint",
                str(path),
                "--resume",
            ]
        )
        assert code == ExitCode.CHECKPOINT == 4
        out = capsys.readouterr().out
        assert "checkpoint error" in out

    def test_run_resume_checksum_mismatch_exits_4(
        self, tmp_path, capsys
    ):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["next_step"] += 1
        path.write_text(json.dumps(data))
        code = main(
            [
                "run",
                "--plan",
                "heterogeneous",
                "--checkpoint",
                str(path),
                "--resume",
            ]
        )
        assert code == ExitCode.CHECKPOINT
        assert "checksum" in capsys.readouterr().out

    def test_run_resume_v2_checkpoint_exits_4(self, tmp_path, capsys):
        path = _v2_checkpoint(tmp_path)
        code = main(
            [
                "run",
                "--plan",
                "heterogeneous",
                "--checkpoint",
                str(path),
                "--resume",
            ]
        )
        assert code == ExitCode.CHECKPOINT
        assert "version 2" in capsys.readouterr().out
