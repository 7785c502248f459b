"""The centralized CLI exit-code contract."""

from enum import IntEnum

from repro.exitcodes import ExitCode


class TestExitCode:
    def test_values_match_documented_contract(self):
        assert ExitCode.OK == 0
        assert ExitCode.FAILURE == 1
        assert ExitCode.USAGE == 2
        assert ExitCode.INCOMPLETE == 3
        assert ExitCode.CHECKPOINT == 4
        assert ExitCode.INTERRUPTED == 5
        assert ExitCode.DEGRADED == 6

    def test_is_int_enum(self):
        assert issubclass(ExitCode, IntEnum)
        assert isinstance(ExitCode.OK, int)

    def test_usable_as_process_exit_code(self):
        # sys.exit / argparse interop: int() round-trips.
        assert int(ExitCode.CHECKPOINT) == 4
        assert ExitCode(3) is ExitCode.INCOMPLETE

    def test_members_are_distinct_and_complete(self):
        assert [m.value for m in ExitCode] == [0, 1, 2, 3, 4, 5, 6]


class TestSubcommandsUseExitCodes:
    def test_chaos_list_sites_ok(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list-sites"]) is ExitCode.OK
        capsys.readouterr()

    def test_chaos_usage_error(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--site", "nope"]) is ExitCode.USAGE
        capsys.readouterr()

    def test_lint_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) is ExitCode.OK
        capsys.readouterr()
