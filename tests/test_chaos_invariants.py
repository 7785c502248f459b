"""The invariant checker: matrix cells pass, broken invariants fail.

The second half is the suite's reason to exist: when a durability fix
is (deliberately) reverted — checksum verification disabled, or the
atomic tmp-rename write replaced with an in-place write — the chaos
matrix must FAIL the corresponding cell, proving the harness actually
exercises the invariant rather than vacuously passing.
"""

import json

import pytest

from repro.chaos.invariants import ChaosReport, InvariantChecker
from repro.chaos.schedule import ChaosSpec
from repro.runtime import checkpoint as checkpoint_module


@pytest.fixture()
def checker(tmp_path):
    return InvariantChecker(
        seed=2020, n_trials=1, workdir=tmp_path / "chaos"
    )


class TestCheapCells:
    def test_checkpoint_load_cells_pass(self, checker):
        report = checker.run_matrix(sites=["checkpoint.load"])
        assert report.ok(), report.to_text()
        assert {c.action for c in report.cells} == {
            "truncate",
            "corrupt",
            "duplicate",
        }

    def test_memory_pass_cells_pass(self, checker):
        report = checker.run_matrix(sites=["memory.pass"])
        assert report.ok(), report.to_text()

    def test_campaign_transient_cell_passes(self, checker):
        report = checker.run_matrix(
            sites=["supervisor.step"], actions=["raise-transient"]
        )
        assert report.ok(), report.to_text()

    def test_campaign_crash_cell_passes(self, checker):
        report = checker.run_matrix(
            sites=["campaign.exposure"], actions=["crash"]
        )
        assert report.ok(), report.to_text()

    def test_ledger_append_duplicate_cell_passes(self, checker):
        # The one cell whose site hands ``duplicate`` a ``store``.
        report = checker.run_matrix(
            sites=["studies.ledger_append"], actions=["duplicate"]
        )
        assert report.ok(), report.to_text()
        assert all(
            outcome.fired
            for cell in report.cells
            for outcome in cell.outcomes
        )


class TestReport:
    def test_json_round_trips(self, checker):
        report = checker.run_matrix(
            sites=["checkpoint.load"], actions=["duplicate"]
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["n_violations"] == 0
        assert data["cells"][0]["site"] == "checkpoint.load"

    def test_text_matrix_shows_verdicts(self, checker):
        report = checker.run_matrix(
            sites=["checkpoint.load"], actions=["duplicate"]
        )
        text = report.to_text()
        assert "[PASS]" in text
        assert "all invariants held" in text

    def test_empty_report_is_ok(self):
        assert ChaosReport(seed=1, n_trials=1).ok()


class TestBrokenInvariantsAreCaught:
    def test_disabled_checksum_verification_is_flagged(
        self, checker, monkeypatch
    ):
        # Revert satellite (b): loading no longer verifies payload
        # checksums.  The corrupt cell must now FAIL, because the
        # altered checkpoint resumes silently instead of raising.
        monkeypatch.setattr(
            checkpoint_module,
            "verify_checksum",
            lambda data, path: None,
        )
        spec = ChaosSpec("checkpoint.load", "corrupt", fire_at=0)
        tmpdir = checker.workdir / "broken-checksum"
        tmpdir.mkdir(parents=True)
        violations, fired = checker._run_trial(spec, tmpdir)
        assert fired
        assert any("resumed silently" in v for v in violations)

    def test_non_atomic_write_is_flagged(self, checker, monkeypatch):
        # Revert satellite (a): write the checkpoint in place instead
        # of tmp-fsync-rename.  A SIGKILL mid-write now leaves a torn
        # file on disk, and the kill cell must FAIL with an
        # observable-invalid-checkpoint violation.
        def _non_atomic_write_json(path, payload):
            text = json.dumps(payload, indent=2, sort_keys=True)
            path.write_text(text[: len(text) // 2])
            checkpoint_module.fault_point(
                "checkpoint.write",
                path=str(path),
                tmp=str(path.with_suffix(path.suffix + ".tmp")),
                text=text,
            )
            path.write_text(text)

        monkeypatch.setattr(
            checkpoint_module, "_write_json", _non_atomic_write_json
        )
        # Fire at the second write so a (torn) file already exists.
        spec = ChaosSpec(
            "checkpoint.write", "kill-process", fire_at=1
        )
        tmpdir = checker.workdir / "broken-atomic"
        tmpdir.mkdir(parents=True)
        violations, fired = checker._kill_trial(
            spec, tmpdir, target="campaign"
        )
        assert fired
        assert any("observable invalid" in v for v in violations), (
            violations
        )
