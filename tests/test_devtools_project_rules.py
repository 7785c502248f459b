"""REP101–REP104 project-rule tests against the fixture projects.

Each fixture under ``tests/devtools_fixtures/proj_*`` is a minimal
package with known-good, known-bad, and suppressed code, so every
rule is proven to fire *and* to be silenceable with
``# repro: noqa REPxxx``.
"""

from pathlib import Path

import pytest

from repro.devtools.engine import LintEngine
from repro.devtools.registry import project_rules_for

FIXTURES = Path(__file__).parent / "devtools_fixtures"


def lint_fixture(project, rule):
    engine = LintEngine(profile="library", select=[rule])
    return engine.lint_project([FIXTURES / project])


def located(report):
    """(filename, line) pairs for each violation, sorted."""
    return sorted(
        (Path(v.path).name, v.line) for v in report.violations
    )


def suppressed(report):
    return sorted(
        (Path(v.path).name, v.line) for v in report.suppressed
    )


class TestRegistry:
    def test_project_rules_registered(self):
        ids = {rule.rule_id for rule in project_rules_for(None, None)}
        assert {
            "REP101", "REP102", "REP103", "REP104",
        } <= ids

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            project_rules_for(["REP999"], None)

    def test_file_rules_excluded(self):
        ids = {rule.rule_id for rule in project_rules_for(None, None)}
        assert "REP001" not in ids


class TestSeedFlow:
    """REP101: interprocedural unseeded-entropy taint."""

    def test_fires_on_each_leak(self):
        report = lint_fixture("proj_seedflow", "REP101")
        assert located(report) == [
            ("bad.py", 11),  # bare SeedSequence()
            ("bad.py", 16),  # default_rng(os.getpid())
            ("bad.py", 24),  # default_factory=np.random.default_rng
            ("bad.py", 35),  # make(os.getpid())
        ]
        assert all(v.rule_id == "REP101" for v in report.violations)

    def test_clean_module_untouched(self):
        report = lint_fixture("proj_seedflow", "REP101")
        assert not any(
            Path(v.path).name == "clean.py" for v in report.violations
        )

    def test_suppressible(self):
        report = lint_fixture("proj_seedflow", "REP101")
        assert suppressed(report) == [("quiet.py", 8)]

    def test_interprocedural_message_names_parameter(self):
        report = lint_fixture("proj_seedflow", "REP101")
        caller = next(
            v for v in report.violations if v.line == 35
        )
        assert "seed" in caller.message
        assert "make" in caller.message


class TestRegistryDrift:
    """REP102: instrument literals vs declared registries."""

    def test_orphan_and_dead_both_fire(self):
        report = lint_fixture("proj_drift", "REP102")
        assert located(report) == [
            ("app.py", 26),  # orphan metric literal
            ("registry.py", 5),  # dead fault point
            ("registry.py", 10),  # dead metric
        ]

    def test_orphan_message_names_literal(self):
        report = lint_fixture("proj_drift", "REP102")
        orphan = next(
            v
            for v in report.violations
            if Path(v.path).name == "app.py"
        )
        assert "fixture_orphan_total" in orphan.message

    def test_dead_registration_fails_the_pass(self):
        report = lint_fixture("proj_drift", "REP102")
        dead = [
            v.message
            for v in report.violations
            if Path(v.path).name == "registry.py"
        ]
        assert any("dead.site" in m for m in dead)
        assert any("fixture_dead_total" in m for m in dead)
        assert not report.ok

    def test_call_site_and_registration_site_suppression(self):
        # The noqa on the call site silences the orphan finding and
        # the noqa on the dict entry silences the dead-registration
        # finding — each anchors at its own line, independently.
        report = lint_fixture("proj_drift", "REP102")
        assert suppressed(report) == [
            ("app.py", 27),
            ("registry.py", 11),
        ]


class TestCallSiteUnits:
    """REP103: REP002 suffix dimensions across call boundaries."""

    def test_fires_on_argument_return_and_assignment(self):
        report = lint_fixture("proj_units", "REP103")
        assert located(report) == [
            ("funcs.py", 11),  # return elapsed_s from duration_h
            ("funcs.py", 21),  # positional arg mismatch
            ("funcs.py", 22),  # keyword arg mismatch
            ("funcs.py", 23),  # total_h = elapsed_s()
        ]

    def test_argument_message_spells_out_dimensions(self):
        report = lint_fixture("proj_units", "REP103")
        positional = next(
            v for v in report.violations if v.line == 21
        )
        assert (
            "carries energy-mev (_mev) but parameter 'energy_ev'"
            in positional.message
        )
        assert "absorb()" in positional.message

    def test_computed_expressions_out_of_scope(self):
        report = lint_fixture("proj_units", "REP103")
        assert not any(
            Path(v.path).name == "quiet.py" for v in report.violations
        )

    def test_suppressible(self):
        report = lint_fixture("proj_units", "REP103")
        assert suppressed(report) == [("quiet.py", 16)]


class TestStaleExports:
    """REP104: ``__all__`` entries nobody imports."""

    def test_fires_only_on_the_stale_entry(self):
        report = lint_fixture("proj_exports", "REP104")
        assert located(report) == [("mod.py", 3)]
        assert "stale_fn" in report.violations[0].message

    def test_reexport_chain_counts_as_usage(self):
        # used_fn is consumed via ``from pkg import used_fn`` — the
        # chain pkg.__init__ -> pkg.mod must keep it alive.
        report = lint_fixture("proj_exports", "REP104")
        assert not any(
            "used_fn" in v.message for v in report.violations
        )

    def test_suppressible(self):
        report = lint_fixture("proj_exports", "REP104")
        assert suppressed(report) == [("quiet.py", 3)]


class TestEngineProjectMode:
    def test_all_rules_together(self):
        engine = LintEngine(profile="library")
        report = engine.lint_project(
            [
                FIXTURES / "proj_seedflow",
                FIXTURES / "proj_drift",
                FIXTURES / "proj_units",
                FIXTURES / "proj_exports",
            ]
        )
        fired = {v.rule_id for v in report.violations}
        assert fired == {"REP101", "REP102", "REP103", "REP104"}
        assert report.files_checked >= 12

    def test_report_paths_scopes_output(self):
        engine = LintEngine(profile="library", select=["REP101"])
        root = FIXTURES / "proj_seedflow"
        scoped = engine.lint_project(
            [root], report_paths=[root / "pkg" / "clean.py"]
        )
        assert scoped.violations == ()

    def test_parse_error_reported_as_rep000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        engine = LintEngine(profile="library")
        report = engine.lint_project([tmp_path])
        assert [v.rule_id for v in report.violations] == ["REP000"]
