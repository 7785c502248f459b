"""The ``python -m repro chaos`` subcommand."""

import json

import pytest

from repro.chaos.cli import (
    DEFAULT_TRIALS,
    SMOKE_TRIALS,
    default_trials,
)
from repro.chaos.faultpoints import FAULT_POINTS
from repro.cli import main
from repro.runtime.errors import ConfigurationError


class TestArguments:
    def test_list_sites(self, capsys):
        assert main(["chaos", "--list-sites"]) == 0
        out = capsys.readouterr().out
        for site in FAULT_POINTS:
            assert site in out

    def test_unknown_site_rejected(self, capsys):
        assert main(["chaos", "--site", "nope.nope"]) == 2
        assert "unknown site" in capsys.readouterr().out

    def test_unknown_action_rejected(self, capsys):
        assert main(["chaos", "--action", "meteor"]) == 2
        assert "unknown action" in capsys.readouterr().out

    def test_default_trials_honours_smoke_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SMOKE", raising=False)
        assert default_trials() == DEFAULT_TRIALS
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert default_trials() == SMOKE_TRIALS


class TestSweep:
    def test_single_cell_sweep_json(self, tmp_path, capsys):
        out_json = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--site",
                "checkpoint.load",
                "--action",
                "duplicate",
                "--trials",
                "1",
                "--workdir",
                str(tmp_path / "work"),
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] checkpoint.load" in out
        assert "all invariants held" in out
        data = json.loads(out_json.read_text())
        assert data["ok"] is True
        assert data["cells"][0]["trials"][0]["fired"] is True

    def test_violations_exit_1(self, tmp_path, monkeypatch):
        # Disable checksum verification: the corrupt cell must fail
        # the sweep, and the CLI must surface it as exit code 1.
        from repro import durable

        checksum = durable.payload_checksum
        monkeypatch.setattr(
            durable,
            "payload_checksum",
            lambda record: record.get("checksum", checksum(record)),
        )
        code = main(
            [
                "chaos",
                "--site",
                "checkpoint.load",
                "--action",
                "corrupt",
                "--trials",
                "1",
                "--workdir",
                str(tmp_path / "work"),
            ]
        )
        assert code == 1


@pytest.mark.parametrize("flag", ["--site", "--action"])
def test_filters_are_repeatable(flag, tmp_path):
    args = [
        "chaos",
        "--trials",
        "1",
        "--workdir",
        str(tmp_path / "work"),
        "--site",
        "memory.pass",
    ]
    if flag == "--action":
        args += ["--action", "crash", "--action", "raise-transient"]
    else:
        args += ["--site", "checkpoint.load"]
    assert main(args) == 0


class TestChaosParsingMirror:
    """``coerce_policy``'s pattern applied to chaos --site/--action."""

    def test_known_sites_pass(self):
        from repro.chaos.cli import parse_sites
        from repro.chaos.faultpoints import site_names

        sites = list(site_names())[:2]
        assert parse_sites(sites) == sites

    def test_unknown_site_names_the_allowed_set(self):
        from repro.chaos.cli import parse_sites

        with pytest.raises(ConfigurationError) as excinfo:
            parse_sites(["nope.nope"])
        assert "nope.nope" in str(excinfo.value)
        assert "allowed" in str(excinfo.value)

    def test_unknown_action_rejected(self):
        from repro.chaos.cli import parse_actions

        with pytest.raises(ConfigurationError):
            parse_actions(["meteor"])

    def test_known_actions_pass(self):
        from repro.chaos.cli import parse_actions
        from repro.chaos.faultpoints import FAULT_POINTS

        action = sorted(
            {
                a
                for point in FAULT_POINTS.values()
                for a in point.actions
            }
        )[0]
        assert parse_actions([action]) == [action]
