"""Corrupted / truncated / stale / older checkpoints on every load path.

The durability contract: a checkpoint that is unreadable, torn,
silently altered at rest, or written in an older format must raise
``CheckpointError`` from every consumer — ``Checkpoint.load``, both
runners' ``--resume`` paths, and the CLI (which turns it into exit
code 4) — never resume from wrong state.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import serde
from repro.chaos import trials
from repro.cli import main
from repro.durable import payload_checksum
from repro.exitcodes import ExitCode
from repro.runtime.checkpoint import Checkpoint, cleanup_stale_tmp
from repro.runtime.errors import CheckpointError

#: A campaign checkpoint in format v3, the format before checkpoints
#: became a serde-tagged record (``trials.make_campaign_runner``, two
#: steps).
V3_FILE = (
    Path(__file__).parent / "data" / "durable" / "campaign-checkpoint-v3.json"
)


def _campaign_checkpoint(tmp_path):
    """A genuine mid-run campaign checkpoint on disk."""
    path = tmp_path / "ck.json"
    trials.make_campaign_runner(path).run(max_steps=2)
    return path


def _v3_checkpoint(tmp_path):
    path = tmp_path / "ck.json"
    shutil.copy(V3_FILE, path)
    return path


def _v2_checkpoint(tmp_path):
    """A campaign checkpoint in format v2, which had no checksum."""
    path = _v3_checkpoint(tmp_path)
    data = json.loads(path.read_text())
    data["version"] = 2
    del data["checksum"]
    path.write_text(json.dumps(data))
    return path


def _load(path):
    return Checkpoint.load(path, trials.make_campaign_runner().digest)


def _fleet_checkpoint(tmp_path):
    path = tmp_path / "fleet.json"
    trials.make_fleet_runner(path).run(n_days=trials.FLEET_N_DAYS)
    return path


def _load_fleet(path):
    return Checkpoint.load(path, trials.make_fleet_runner().digest)


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

    def test_written_file_carries_schema_and_checksum(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        assert data[serde.SCHEMA_KEY] == "checkpoint"
        assert data[serde.VERSION_KEY] == 1
        assert data["checksum"] == payload_checksum(data)


class TestAtRestCorruption:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("")
        with pytest.raises(CheckpointError):
            _load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            _load(path)

    def test_valid_json_with_altered_payload_rejected(self, tmp_path):
        # The case only the checksum can catch: the file still parses
        # and carries plausible fields, but resume state was altered.
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["cursor"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            _load(path)

    def test_missing_checksum_rejected(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            _load(path)

    @pytest.mark.parametrize("older", [_v2_checkpoint, _v3_checkpoint])
    def test_older_checkpoint_refused(self, tmp_path, older):
        path = older(tmp_path)
        with pytest.raises(CheckpointError, match="schema"):
            _load(path)
        assert path.exists()

    def test_fleet_truncation_rejected(self, tmp_path):
        path = _fleet_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 3])
        with pytest.raises(CheckpointError):
            _load_fleet(path)

    def test_fleet_altered_payload_rejected(self, tmp_path):
        path = _fleet_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["state"]["raining"] = not data["state"]["raining"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            _load_fleet(path)


class TestRunnerResume:
    def test_campaign_resume_refuses_corruption(self, tmp_path):
        path = _campaign_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["state"]["events_used"] += 7
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
        data["cursor"] += 1
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

    @pytest.mark.parametrize("older", [_v2_checkpoint, _v3_checkpoint])
    def test_run_resume_older_checkpoint_exits_4(
        self, tmp_path, capsys, older
    ):
        path = older(tmp_path)
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
        assert "schema" in capsys.readouterr().out
