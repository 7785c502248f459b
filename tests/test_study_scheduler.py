"""StudyScheduler: durability, idempotence, quarantine, cascade."""

import json

import pytest

from repro.runtime.budget import Budget, CircuitBreaker, RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.runtime.events import EventKind
from repro.studies import scheduler as scheduler_module
from repro.studies.evaluate import evaluate_shard
from repro.studies.ledger import LedgerError, StudyLedger
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import StudySpec
from repro.transport import batch
from repro.transport.api import LIVE_CASCADE


def _no_sleep(_delay_s):
    pass


def _spec(**overrides):
    base = {
        "name": "sched",
        "axes": {"site": ("nyc", "leadville"), "shield": ("none", "cadmium")},
        "n_neutrons": 128,
        "seed": 11,
    }
    base.update(overrides)
    return StudySpec(**base)


def _scheduler(tmp_path, spec=None, **overrides):
    kwargs = {
        "ledger_path": tmp_path / "ledger.jsonl",
        "store_root": tmp_path / "store",
        "retry": RetryPolicy(),
        "sleep": _no_sleep,
    }
    kwargs.update(overrides)
    return StudyScheduler(spec if spec is not None else _spec(), **kwargs)


def _canon(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestHappyPath:
    def test_complete_run(self, tmp_path):
        outcome = _scheduler(tmp_path).run()
        assert outcome.status == "complete"
        assert not outcome.interrupted
        assert outcome.report.committed == (0, 1, 2, 3)
        assert outcome.report.quarantined == ()
        assert outcome.report.degraded_shards == ()
        assert len(outcome.report.rows) == 4

    def test_rerun_is_byte_identical_and_recomputes_nothing(
        self, tmp_path
    ):
        calls = []

        def counting_evaluate(shard, spec, engine):
            calls.append(shard.index)
            return evaluate_shard(shard, spec, engine)

        first = _scheduler(
            tmp_path, evaluate=counting_evaluate
        ).run()
        assert sorted(calls) == [0, 1, 2, 3]
        again = _scheduler(
            tmp_path, evaluate=counting_evaluate
        ).run()
        assert sorted(calls) == [0, 1, 2, 3]  # nothing recomputed
        assert _canon(again.report) == _canon(first.report)

    def test_finished_record_written_once(self, tmp_path):
        _scheduler(tmp_path).run()
        _scheduler(tmp_path).run()
        state = StudyLedger(tmp_path / "ledger.jsonl").replay()
        kinds = [r["type"] for r in state.records]
        assert kinds.count("study-finished") == 1

    def test_missing_store_entry_is_recomputed_in_report(
        self, tmp_path
    ):
        scheduler = _scheduler(tmp_path)
        first = scheduler.run()
        for entry in sorted((tmp_path / "store").rglob("*.json")):
            entry.unlink()
        rebuilt = _scheduler(tmp_path).run()
        assert _canon(rebuilt.report) == _canon(first.report)


class TestSupervisedRetry:
    def test_a_transient_batch_fault_is_retried_by_the_supervisor(
        self, tmp_path, monkeypatch
    ):
        """The batch engine keeps no retry of its own: a transient
        fault in its sweep reaches the shard's supervisor, whose
        retry gives the clean report."""
        monkeypatch.setattr(scheduler_module, "_usable_cpus", lambda: 1)
        clean = _scheduler(tmp_path / "clean").run()
        real_roll = batch._roll
        sweeps = []

        def flaky_roll(sweep):
            sweeps.append(sweep)
            if len(sweeps) == 1:
                raise TransientHarnessError("injected sweep fault")
            real_roll(sweep)

        monkeypatch.setattr(batch, "_roll", flaky_roll)
        scheduler = _scheduler(tmp_path / "flaky")
        outcome = scheduler.run()
        assert outcome.status == "complete"
        assert _canon(outcome.report) == _canon(clean.report)
        assert scheduler.events.count(EventKind.RETRY) == 1


class TestResume:
    def test_max_shards_stops_then_resumes(self, tmp_path):
        partial = _scheduler(tmp_path, max_shards=2).run()
        assert partial.status == "incomplete"
        assert len(partial.report.committed) == 2
        full = _scheduler(tmp_path).run()
        assert full.status == "complete"
        baseline = _scheduler(tmp_path / "one-shot").run()
        assert _canon(full.report) == _canon(baseline.report)

    def test_interrupt_stops_between_shards(self, tmp_path):
        polls = []

        def interrupt():
            polls.append(1)
            return len(polls) > 2

        outcome = _scheduler(tmp_path, interrupt=interrupt).run()
        assert outcome.interrupted
        assert outcome.status == "incomplete"
        assert len(outcome.report.committed) == 2
        resumed = _scheduler(tmp_path).run()
        assert resumed.status == "complete"
        assert not resumed.interrupted

    def test_orphaned_store_result_is_committed_verbatim(
        self, tmp_path
    ):
        """The at-least-once window: result durable, commit record
        lost.  Resume must adopt the stored bytes, not recompute."""
        spec = _spec()
        scheduler = _scheduler(tmp_path, spec=spec)
        shard = spec.shards()[0]
        key = spec.shard_key(shard)
        payload = evaluate_shard(shard, spec, spec.engine)
        payload["degraded"] = False
        payload["reason"] = ""
        scheduler.store.put(key, payload)
        calls = []

        def counting_evaluate(inner, inner_spec, engine):
            calls.append(inner.index)
            return evaluate_shard(inner, inner_spec, engine)

        outcome = _scheduler(
            tmp_path, spec=spec, evaluate=counting_evaluate
        ).run()
        assert outcome.status == "complete"
        assert 0 not in calls  # shard 0 adopted from the store
        assert sorted(calls) == [1, 2, 3]

    def test_foreign_ledger_is_refused(self, tmp_path):
        _scheduler(tmp_path, spec=_spec(seed=1)).run()
        with pytest.raises(LedgerError, match="refusing to resume"):
            _scheduler(tmp_path, spec=_spec(seed=2)).run()


class TestQuarantine:
    def test_poison_shard_degrades_not_wedges(self, tmp_path):
        spec = _spec(max_shard_failures=2)

        def poison(shard, inner_spec, engine):
            if shard.index == 1:
                raise ValueError("poison")
            return evaluate_shard(shard, inner_spec, engine)

        breakers = {
            e: CircuitBreaker(failure_threshold=10**6)
            for e in LIVE_CASCADE
        }
        outcome = _scheduler(
            tmp_path, spec=spec, evaluate=poison, breakers=breakers
        ).run()
        assert outcome.status == "degraded"
        assert outcome.report.quarantined == (1,)
        assert outcome.report.committed == (0, 2, 3)
        state = StudyLedger(tmp_path / "ledger.jsonl").replay()
        assert state.failures[1] == 2
        # A later run leaves the quarantined shard alone.
        again = _scheduler(
            tmp_path, spec=spec, evaluate=poison, breakers=breakers
        ).run()
        assert _canon(again.report) == _canon(outcome.report)

    def test_transient_exhaustion_counts_toward_quarantine(
        self, tmp_path
    ):
        spec = _spec(
            axes={"site": ("nyc",)}, max_shard_failures=1
        )

        def always_transient(shard, inner_spec, engine):
            raise TransientHarnessError("harness down")

        outcome = _scheduler(
            tmp_path, spec=spec, evaluate=always_transient
        ).run()
        assert outcome.status == "degraded"
        assert outcome.report.quarantined == (0,)


class TestEngineCascade:
    def test_open_breaker_falls_back_and_flags(self, tmp_path):
        engines = []

        def recording(shard, spec, engine):
            engines.append(engine)
            return evaluate_shard(shard, spec, engine)

        breakers = {
            e: CircuitBreaker() for e in LIVE_CASCADE
        }
        while not breakers["batch"].open:
            breakers["batch"].record_failure()
        outcome = _scheduler(
            tmp_path, evaluate=recording, breakers=breakers
        ).run()
        assert set(engines) == {"deterministic"}
        assert outcome.status == "degraded"
        assert len(outcome.report.degraded_shards) == 4
        for entry in outcome.report.degraded_shards:
            assert entry["engine"] == "deterministic"
            assert entry["reason"] == "breaker-open"

    def test_budget_pressure_skips_requested_engine(self, tmp_path):
        # First call (tracker start) reads 0, every later call 60:
        # permanently past half the 100 s budget, never past it all.
        calls = {"n": 0}

        def clock():
            calls["n"] += 1
            return 0.0 if calls["n"] == 1 else 60.0

        engines = []

        def recording(shard, spec, engine):
            engines.append(engine)
            return evaluate_shard(shard, spec, engine)

        outcome = _scheduler(
            tmp_path,
            budget=Budget(wall_clock_s=100.0),
            clock=clock,
            evaluate=recording,
        ).run()
        assert set(engines) == {"deterministic"}
        assert outcome.status == "degraded"
        assert all(
            e["reason"] == "budget-pressure"
            for e in outcome.report.degraded_shards
        )

    def test_deadline_stops_incomplete(self, tmp_path):
        ticks = {"now": 0.0}

        def clock():
            ticks["now"] += 10_000.0
            return ticks["now"]

        outcome = _scheduler(
            tmp_path,
            budget=Budget(wall_clock_s=1.0),
            clock=clock,
        ).run()
        assert outcome.status == "incomplete"

    def test_degraded_results_rerun_stays_stable(self, tmp_path):
        """A degraded commit is durable: re-running with healthy
        breakers must not silently upgrade committed shards."""
        breakers = {e: CircuitBreaker() for e in LIVE_CASCADE}
        while not breakers["batch"].open:
            breakers["batch"].record_failure()
        first = _scheduler(tmp_path, breakers=breakers).run()
        assert first.status == "degraded"
        healthy = _scheduler(tmp_path).run()
        assert _canon(healthy.report) == _canon(first.report)
