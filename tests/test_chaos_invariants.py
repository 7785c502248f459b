"""The invariant checker: matrix cells pass, broken invariants fail.

The second half is the suite's reason to exist: the mutation table
switches one recovery mechanism off at a time — checkpoint and ledger
checksums, the atomic tmp-rename write, retries, the stale-tmp sweep,
coalescing, the deadline, artifact verification, the worker-death
flag — and the chaos cell that guards it must FAIL with a named
violation, proving the harness exercises the invariant rather than
vacuously passing.
"""

import itertools
import json
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import pytest

from repro import durable
from repro.chaos import invariants
from repro.chaos.invariants import ChaosReport, InvariantChecker
from repro.chaos.schedule import ChaosSpec
from repro.memory.tester import CorrectLoopTester
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime import supervisor as supervisor_module
from repro.runtime.budget import BudgetTracker
from repro.runtime.supervisor import Supervisor
from repro.service.coalesce import Coalescer
from repro.service.compute import QueryExecutor
from repro.studies import ledger as ledger_module
from repro.transport.surrogate import store as surrogate_store_module


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
        # The one cell whose ``duplicate`` appends a line in place:
        # its context carries the ledger's ``offset``.
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


# ----------------------------------------------------------------------
# The mutation table: one mechanism switched off per row
# ----------------------------------------------------------------------


def _skip_checksum(monkeypatch):
    """The shared record check trusts every stored checksum, so
    checkpoint loads no longer verify payload checksums."""
    checksum = durable.payload_checksum
    monkeypatch.setattr(
        durable,
        "payload_checksum",
        lambda record: record.get("checksum", checksum(record)),
    )


def _write_in_place(monkeypatch):
    """Checkpoints are written in place, not tmp-fsync-rename: a
    SIGKILL mid-write leaves a torn file on disk."""

    def _non_atomic_write(path, text, fault_site=None):
        path.write_text(text[: len(text) // 2])
        checkpoint_module.fault_point(
            fault_site,
            path=str(path),
            tmp=str(durable.tmp_path(path)),
            text=text,
        )
        path.write_text(text)

    monkeypatch.setattr(checkpoint_module, "atomic_write", _non_atomic_write)


def _call_once(monkeypatch):
    """``Supervisor.call`` runs ``fn`` once, with no retries."""
    monkeypatch.setattr(
        Supervisor, "call", lambda self, label, fn, *a, **k: fn()
    )


def _keep_stale_tmp(monkeypatch):
    """Runners no longer sweep a leftover checkpoint tmp on startup."""
    monkeypatch.setattr(
        supervisor_module, "cleanup_stale_tmp", lambda path: False
    )


def _never_share(monkeypatch):
    """The coalescer gives every caller a flight of its own."""
    get_or_compute = Coalescer.get_or_compute
    flights = itertools.count()

    async def _alone(self, key, compute):
        return await get_or_compute(
            self, f"{key}#{next(flights)}", compute
        )

    monkeypatch.setattr(Coalescer, "get_or_compute", _alone)


def _no_deadline(monkeypatch):
    """The wall-clock budget never runs out."""
    monkeypatch.setattr(
        BudgetTracker, "deadline_exceeded", lambda self: False
    )


def _trust_artifacts(monkeypatch):
    """The surrogate store serves whatever parses, quarantining
    nothing."""

    def _unverified(path, kind, address_field, address):
        try:
            return json.loads(path.read_text(encoding="utf-8")), ""
        except (OSError, ValueError):
            return None, ""

    monkeypatch.setattr(
        surrogate_store_module, "read_verified", _unverified
    )


def _skip_ledger_checksum(monkeypatch):
    """Ledger replay trusts every record's stored checksum."""
    checksum = ledger_module.payload_checksum
    monkeypatch.setattr(
        ledger_module,
        "payload_checksum",
        lambda record: record.get("checksum", checksum(record)),
    )


def _crash_after_passes(monkeypatch):
    """The DDR tester crashes once its read passes are done, so the
    supervisor isolates every run, the clean one too."""
    run = CorrectLoopTester.run

    def _crashing(self, *args, **kwargs):
        run(self, *args, **kwargs)
        raise RuntimeError("tester crashed after its passes")

    monkeypatch.setattr(CorrectLoopTester, "run", _crashing)


def _hide_worker_death(monkeypatch):
    """The executor recomputes after a pool worker dies but no longer
    says so."""
    dispatch = QueryExecutor._dispatch

    def _hidden(self, payload, pooled):
        return dispatch(self, payload, pooled)[0], False

    monkeypatch.setattr(QueryExecutor, "_dispatch", _hidden)


@dataclass(frozen=True)
class Mutation:
    """A mechanism switched off, the cell that must notice, and the
    violation it must report.  ``fire_at`` ``None`` takes the fire
    position ``repro chaos --trials 1`` draws."""

    name: str
    patch: Callable[[pytest.MonkeyPatch], None]
    site: str
    action: str
    fire_at: Optional[int]
    expected: str


MUTATIONS = (
    Mutation(
        "checkpoint-checksum-off",
        _skip_checksum,
        "checkpoint.load",
        "corrupt",
        0,
        "resumed silently",
    ),
    Mutation(
        # Fire at the second write so a (torn) file already exists.
        "checkpoint-written-in-place",
        _write_in_place,
        "checkpoint.write",
        "kill-process",
        1,
        "observable invalid",
    ),
    Mutation(
        "no-retry-campaign-step",
        _call_once,
        "supervisor.step",
        "raise-transient",
        1,
        "no RETRY event recorded",
    ),
    Mutation(
        "no-retry-service-dispatch",
        _call_once,
        "service.dispatch",
        "raise-transient",
        0,
        "no RETRY event recorded",
    ),
    Mutation(
        "no-retry-shard-dispatch",
        _call_once,
        "studies.shard_dispatch",
        "raise-transient",
        1,
        "recorded a deterministic failure",
    ),
    Mutation(
        "stale-tmp-kept",
        _keep_stale_tmp,
        "checkpoint.write",
        "kill-process",
        1,
        "stale tmp not cleaned on startup",
    ),
    Mutation(
        "no-coalescing-transient-handoff",
        _never_share,
        "service.handoff",
        "raise-transient",
        0,
        "storm of 100 cost 100 computations, expected 1",
    ),
    Mutation(
        "no-coalescing-crashed-handoff",
        _never_share,
        "service.handoff",
        "crash",
        0,
        "storm responses were not byte-identical",
    ),
    Mutation(
        "no-deadline-fleet-delay",
        _no_deadline,
        "fleet.day",
        "delay",
        3,
        "deadline not enforced after injected delay",
    ),
    Mutation(
        "unverified-truncated-artifact",
        _trust_artifacts,
        "surrogate.artifact_load",
        "truncate",
        0,
        "artifact was not quarantined",
    ),
    Mutation(
        "unverified-corrupt-artifact",
        _trust_artifacts,
        "surrogate.artifact_load",
        "corrupt",
        0,
        "artifact was not quarantined",
    ),
    Mutation(
        "hidden-worker-death",
        _hide_worker_death,
        "service.dispatch",
        "kill-worker",
        0,
        "worker kill produced no degraded response",
    ),
    # Cells that used to abort the sweep, or pass, with the mechanism
    # they guard switched off.
    Mutation(
        "no-retry-fleet-day",
        _call_once,
        "fleet.day",
        "raise-transient",
        3,
        "trial raised TransientHarnessError",
    ),
    Mutation(
        "no-retry-memory-pass",
        _call_once,
        "memory.pass",
        "raise-transient",
        2,
        "raise-transient fault recorded a deterministic failure",
    ),
    Mutation(
        "no-retry-quarantine",
        _call_once,
        "studies.quarantine",
        "raise-transient",
        0,
        "trial raised TransientHarnessError",
    ),
    Mutation(
        "no-retry-checkpoint-write",
        _call_once,
        "checkpoint.write",
        "raise-transient",
        1,
        "trial raised TransientHarnessError",
    ),
    Mutation(
        "ledger-checksum-off",
        _skip_ledger_checksum,
        "studies.ledger_append",
        "corrupt",
        2,
        "corrupt ledger record resumed silently",
    ),
    Mutation(
        "no-deadline-smoke-step-delay",
        _no_deadline,
        "supervisor.step",
        "delay",
        None,
        "deadline not enforced after injected delay",
    ),
    # A clean run the supervisor isolated keeps no data, and every
    # faulted run of a crashing tester then matches it.
    Mutation(
        "tester-crashes-after-passes",
        _crash_after_passes,
        "memory.pass",
        "crash",
        5,
        "clean run did not complete",
    ),
)


class TestBrokenInvariantsAreCaught:
    """Each row runs its trial twice: as built, where it must pass,
    then with the mechanism switched off, where the fault must still
    fire and the row's violation be reported — so no row passes on
    the state of the process it happens to run in.  Each run has a
    checker of its own, so the mutant's clean baseline runs with the
    mechanism switched off too, as under ``repro chaos``."""

    @pytest.mark.parametrize(
        "row", MUTATIONS, ids=[row.name for row in MUTATIONS]
    )
    def test_mutation_is_caught(self, tmp_path, monkeypatch, row):
        if row.action == "kill-worker" and threading.active_count() > 1:
            pytest.skip("the service forks no pool while threads run")
        as_built = InvariantChecker(
            seed=2020, n_trials=1, workdir=tmp_path / "as-built"
        )
        fire_at = row.fire_at
        if fire_at is None:
            horizon = as_built.horizon(row.site, row.action)
            [drawn] = as_built.schedule.trials(
                row.site, row.action, 1, horizon
            )
            fire_at = drawn.fire_at
        spec = ChaosSpec(
            row.site,
            row.action,
            fire_at=fire_at,
            worker_only=row.action == "kill-worker",
        )
        violations, fired = _trial(as_built, spec, row.name)
        assert fired and not violations, violations
        row.patch(monkeypatch)
        mutant = InvariantChecker(
            seed=2020, n_trials=1, workdir=tmp_path / "mutant"
        )
        violations, fired = _trial(mutant, spec, row.name)
        assert fired and any(row.expected in v for v in violations), (
            violations
        )

    def test_a_trial_that_raises_fails_its_cell_and_the_sweep_goes_on(
        self, checker, monkeypatch
    ):
        _call_once(monkeypatch)
        report = checker.run_matrix(
            sites=["checkpoint.write", "fleet.day", "memory.pass"],
            actions=["raise-transient"],
        )
        assert [(c.site, c.ok()) for c in report.cells] == [
            ("checkpoint.write", False),
            ("fleet.day", False),
            ("memory.pass", False),
        ]
        assert all(o.fired for c in report.cells for o in c.outcomes)
        raised = [
            c.site
            for c in report.cells
            for v in c.violations()
            if v.startswith("trial raised TransientHarnessError: chaos")
        ]
        assert raised == ["checkpoint.write", "fleet.day"]
        assert "[FAIL] memory.pass" in report.to_text()

    def test_an_interrupt_still_stops_the_sweep(self, checker, monkeypatch):
        def _interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(invariants, "_run_ddr", _interrupted)
        with pytest.raises(KeyboardInterrupt):
            checker.run_matrix(sites=["memory.pass"])


def _trial(checker, spec, slug):
    tmpdir = checker.workdir / slug
    tmpdir.mkdir(parents=True)
    return checker._run_trial(spec, tmpdir)
