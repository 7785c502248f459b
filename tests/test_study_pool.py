"""StudyScheduler's worker pool: same bytes, parent-only writes.

The scheduler evaluates shards' first attempts on a fork pool sized
to the usable CPUs.  Every test substitutes the scheduler's CPU probe,
so the in-process path (one CPU) and the pool path (two or three
workers) both run on any host, and compares what each leaves behind
byte for byte.
"""

import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import Future

import pytest

from repro.obs.core import Observer, observing
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import Budget, CircuitBreaker, RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.runtime.events import EventKind
from repro.studies import evaluate as evaluation
from repro.studies import scheduler as scheduler_module
from repro.studies.ledger import StudyLedger
from repro.studies.scheduler import StudyScheduler
from repro.studies.service import StudyGateway
from repro.studies.spec import StudySpec
from repro.transport.api import LIVE_CASCADE

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the study pool forks its workers",
)

#: Six one-point shards: unshielded, cadmium and water at two sites.
SPEC = StudySpec(
    name="pool",
    axes={
        "site": ("nyc", "leadville"),
        "shield": ("none", "cadmium", "water"),
    },
    n_neutrons=256,
    seed=17,
    shard_size=1,
)

#: Twenty-four one-point shards: more than the pool queues ahead.
LONG_SPEC = StudySpec(
    name="pool-long",
    axes={
        "site": ("nyc", "leadville", "lanl", "isis"),
        "shield": ("none", "cadmium", "water"),
        "weather": ("sunny", "rain"),
    },
    n_neutrons=256,
    seed=23,
    shard_size=1,
)

#: Shards a two-worker pool keeps submitted ahead.
TWO_WORKER_DEPTH = 2 * scheduler_module._SHARDS_PER_WORKER


def _no_sleep(_delay_s):
    pass


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the scheduler believes it may use."""

    def set_cpus(n):
        monkeypatch.setattr(scheduler_module, "_usable_cpus", lambda: n)

    return set_cpus


def _scheduler(root, spec=SPEC, **overrides):
    kwargs = {
        "ledger_path": root / "ledger.jsonl",
        "store_root": root / "store",
        "retry": RetryPolicy(),
        "sleep": _no_sleep,
    }
    kwargs.update(overrides)
    return StudyScheduler(spec, **kwargs)


def _observed_run(scheduler):
    """Run under a metrics observer; returns (outcome, registry)."""
    registry = MetricsRegistry()
    with observing(Observer(registry=registry)):
        outcome = scheduler.run()
    return outcome, registry


def _durable_bytes(root, outcome):
    """Everything a run leaves behind: ledger, store and report."""
    store = root / "store"
    return {
        "ledger": (root / "ledger.jsonl").read_bytes(),
        "store": {
            str(path.relative_to(store)): path.read_bytes()
            for path in sorted(store.rglob("*"))
            if path.is_file()
        },
        "report": json.dumps(outcome.report.to_dict(), sort_keys=True),
    }


def _open_batch_breakers():
    breakers = {engine: CircuitBreaker() for engine in LIVE_CASCADE}
    while not breakers["batch"].open:
        breakers["batch"].record_failure()
    return breakers


def _commits_per_shard(root):
    counts = {}
    for record in StudyLedger(root / "ledger.jsonl").replay().records:
        if record["type"] == "shard-committed":
            shard = record["body"]["shard"]
            counts[shard] = counts.get(shard, 0) + 1
    return counts


class TestByteIdentity:
    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_pool_run_matches_in_process(self, tmp_path, cpus, n_cpus):
        cpus(1)
        serial, serial_metrics = _observed_run(
            _scheduler(tmp_path / "serial")
        )
        assert serial_metrics.counter("repro_study_pool_shards_total") == 0
        cpus(n_cpus)
        pooled, metrics = _observed_run(_scheduler(tmp_path / "pooled"))
        assert pooled.status == "complete"
        assert metrics.counter("repro_study_pool_shards_total") == (
            SPEC.n_shards
        )
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_breaker_open_run_matches_in_process(
        self, tmp_path, cpus, n_cpus
    ):
        cpus(1)
        serial = _scheduler(
            tmp_path / "serial", breakers=_open_batch_breakers()
        ).run()
        cpus(n_cpus)
        pooled, metrics = _observed_run(
            _scheduler(tmp_path / "pooled", breakers=_open_batch_breakers())
        )
        assert pooled.status == "degraded"
        assert {
            entry["engine"] for entry in pooled.report.degraded_shards
        } == {"deterministic"}
        assert metrics.counter("repro_study_pool_shards_total") == (
            SPEC.n_shards
        )
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_max_shards_stop_and_resume_match_in_process(
        self, tmp_path, cpus, n_cpus
    ):
        cpus(1)
        serial_partial = _scheduler(tmp_path / "serial", max_shards=2).run()
        serial_partial_bytes = _durable_bytes(
            tmp_path / "serial", serial_partial
        )
        serial = _scheduler(tmp_path / "serial").run()
        cpus(n_cpus)
        partial = _scheduler(tmp_path / "pooled", max_shards=2).run()
        assert partial.status == "incomplete"
        assert partial.report.committed == (0, 1)
        # Shards the stopped run had in flight are discarded: nothing
        # past the stop reaches the store or the ledger.
        assert _durable_bytes(tmp_path / "pooled", partial) == (
            serial_partial_bytes
        )
        resumed, metrics = _observed_run(_scheduler(tmp_path / "pooled"))
        assert resumed.status == "complete"
        assert metrics.counter("repro_study_pool_shards_total") == (
            SPEC.n_shards - 2
        )
        assert _durable_bytes(tmp_path / "pooled", resumed) == (
            _durable_bytes(tmp_path / "serial", serial)
        )


class TestInProcessFallbacks:
    def test_changed_pick_is_evaluated_in_process(self, tmp_path, cpus):
        def run(root):
            breakers = {engine: CircuitBreaker() for engine in LIVE_CASCADE}
            polls = []

            def open_batch_after_first_shard():
                # The first take queued every shard with batch, so
                # the parent must evaluate shards 1 to 5 in-process.
                polls.append(1)
                if len(polls) == 2:
                    while not breakers["batch"].open:
                        breakers["batch"].record_failure()
                return False

            return _observed_run(
                _scheduler(
                    root,
                    breakers=breakers,
                    interrupt=open_batch_after_first_shard,
                )
            )

        cpus(1)
        serial, _ = run(tmp_path / "serial")
        cpus(2)
        pooled, metrics = run(tmp_path / "pooled")
        assert TWO_WORKER_DEPTH >= SPEC.n_shards
        assert metrics.counter(
            "repro_study_pool_fallbacks_total", reason="changed-pick"
        ) == SPEC.n_shards - 1
        assert metrics.counter("repro_study_pool_shards_total") == 1
        assert len(pooled.report.degraded_shards) == SPEC.n_shards - 1
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )

    def test_orphaned_store_result_is_not_sent_to_a_worker(
        self, tmp_path, cpus, monkeypatch
    ):
        """A result already in the store (its commit record lost) is
        adopted by the parent; no worker recomputes it."""
        orphan = SPEC.shards()[0]
        evaluated = tmp_path / "evaluated.jsonl"
        real = evaluation.evaluate_point

        def recording(point, **kwargs):
            with open(evaluated, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(point, sort_keys=True) + "\n")
            return real(point, **kwargs)

        def orphan_then_run(root):
            scheduler = _scheduler(root)
            payload = evaluation.evaluate_shard(orphan, SPEC, SPEC.engine)
            payload["degraded"] = False
            payload["reason"] = ""
            scheduler.store.put(SPEC.shard_key(orphan), payload)
            with monkeypatch.context() as patch:
                # Forked workers inherit the patched module global.
                patch.setattr(evaluation, "evaluate_point", recording)
                return _observed_run(scheduler)

        cpus(1)
        serial, _ = orphan_then_run(tmp_path / "serial")
        cpus(2)
        evaluated.unlink()
        pooled, metrics = orphan_then_run(tmp_path / "pooled")
        points = evaluated.read_text(encoding="utf-8").splitlines()
        assert len(points) == SPEC.n_shards - 1
        assert json.dumps(orphan.points[0], sort_keys=True) not in points
        assert metrics.counter("repro_study_pool_shards_total") == (
            SPEC.n_shards - 1
        )
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )


class _RecordingExecutor:
    """Stands in for the worker processes: records each submission
    and runs nothing."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, shard, spec, engine):
        self.submitted.append((shard.index, engine))
        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestQueueDepth:
    def test_first_take_queues_the_depth_in_plan_order(self):
        shards = LONG_SPEC.shards()
        stored = {1, 4}
        executor = _RecordingExecutor()
        engine = ["batch"]
        pool = scheduler_module._ShardPool(
            executor,
            2,
            LONG_SPEC,
            shards,
            pick=lambda: engine[0],
            stored=lambda shard: shard.index in stored,
        )
        unstored = [
            shard.index for shard in shards if shard.index not in stored
        ]
        assert TWO_WORKER_DEPTH < len(unstored)
        assert pool.take(shards[0])[0] == "batch"
        assert executor.submitted == [
            (index, "batch") for index in unstored[:TWO_WORKER_DEPTH]
        ]
        # A stored shard is never queued; the next take tops the
        # queue up, with the engine picked now.
        engine[0] = "deterministic"
        assert pool.take(shards[1]) is None
        assert executor.submitted[TWO_WORKER_DEPTH:] == [
            (unstored[TWO_WORKER_DEPTH], "deterministic")
        ]

    def test_pool_keeps_computing_after_budget_pressure(
        self, tmp_path, cpus
    ):
        n_shards = LONG_SPEC.n_shards
        # The budget pressure starts at the middle shard, and the
        # pool has queued a full depth of batch shards past it.
        assert TWO_WORKER_DEPTH < n_shards // 2

        def run(root):
            now = [0.0]

            def one_step_per_shard():
                # The fake clock moves with the shards alone, so the
                # pick changes at the same shard however often the
                # pool reads it.
                now[0] += 100.0 / (n_shards + 1)
                return False

            return _observed_run(
                _scheduler(
                    root,
                    spec=LONG_SPEC,
                    budget=Budget(wall_clock_s=100.0),
                    clock=lambda: now[0],
                    interrupt=one_step_per_shard,
                )
            )

        cpus(1)
        serial, _ = run(tmp_path / "serial")
        cpus(2)
        pooled, metrics = run(tmp_path / "pooled")
        assert pooled.status == "degraded"
        degraded = pooled.report.degraded_shards
        assert {entry["engine"] for entry in degraded} == {"deterministic"}
        assert {entry["reason"] for entry in degraded} == {
            "budget-pressure"
        }
        assert len(degraded) == n_shards // 2
        # Only the shards queued with batch before the change fall
        # back; every shard submitted after it runs on the pool.
        assert metrics.counter(
            "repro_study_pool_fallbacks_total", reason="changed-pick"
        ) == TWO_WORKER_DEPTH
        assert metrics.counter("repro_study_pool_shards_total") == (
            n_shards - TWO_WORKER_DEPTH
        )
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )


class TestWorkerFaults:
    def test_killed_worker_falls_back_in_process(
        self, tmp_path, cpus, monkeypatch
    ):
        cpus(1)
        serial = _scheduler(tmp_path / "serial").run()
        parent = os.getpid()
        marker = tmp_path / "fired"
        real = evaluation.evaluate_point

        def killed_in_a_worker(point, **kwargs):
            if os.getpid() != parent:
                flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
                try:
                    fd = os.open(marker, flags)
                except FileExistsError:
                    pass
                else:
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(point, **kwargs)

        # Forked workers inherit the patched module global.
        monkeypatch.setattr(
            evaluation, "evaluate_point", killed_in_a_worker
        )
        cpus(2)
        pooled, metrics = _observed_run(_scheduler(tmp_path / "pooled"))
        assert marker.exists(), "no worker was killed"
        assert int(marker.read_text()) != parent  # never in this process
        assert pooled.status == "complete"
        assert _commits_per_shard(tmp_path / "pooled") == {
            shard: 1 for shard in range(SPEC.n_shards)
        }
        state = StudyLedger(tmp_path / "pooled" / "ledger.jsonl").replay()
        assert state.failures == {}
        assert metrics.counter(
            "repro_study_pool_fallbacks_total", reason="broken-pool"
        ) >= 1
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )

    def test_worker_transient_is_retried_in_process(
        self, tmp_path, cpus, monkeypatch
    ):
        cpus(1)
        serial = _scheduler(tmp_path / "serial").run()
        parent = os.getpid()
        marker = tmp_path / "fired"
        real = evaluation.evaluate_point

        def flaky_in_a_worker(point, **kwargs):
            if os.getpid() != parent:
                try:
                    os.close(
                        os.open(marker, os.O_CREAT | os.O_EXCL)
                    )
                except FileExistsError:
                    pass
                else:
                    raise TransientHarnessError("worker blip")
            return real(point, **kwargs)

        # Forked workers inherit the patched module global.
        monkeypatch.setattr(
            evaluation, "evaluate_point", flaky_in_a_worker
        )
        cpus(2)
        scheduler = _scheduler(tmp_path / "pooled")
        pooled, metrics = _observed_run(scheduler)
        assert marker.exists(), "the worker-side transient never fired"
        assert scheduler.events.count(EventKind.RETRY) == 1
        assert metrics.counter("repro_study_pool_shards_total") == (
            SPEC.n_shards - 1
        )
        state = StudyLedger(tmp_path / "pooled" / "ledger.jsonl").replay()
        assert state.failures == {}
        assert _durable_bytes(tmp_path / "pooled", pooled) == (
            _durable_bytes(tmp_path / "serial", serial)
        )


class TestInProcessCases:
    def test_caller_hook_runs_in_the_callers_process(
        self, tmp_path, cpus
    ):
        cpus(2)
        calls = []

        def hook(shard, spec, engine):
            calls.append((os.getpid(), shard.index))
            return evaluation.evaluate_shard(shard, spec, engine)

        _scheduler(tmp_path, evaluate=hook).run()
        assert calls == [(os.getpid(), i) for i in range(SPEC.n_shards)]

    def test_gateway_study_never_forks(self, tmp_path, cpus, monkeypatch):
        cpus(2)
        forks = []
        real_fork_pool = scheduler_module.fork_pool

        def spy(n_workers):
            forks.append(real_fork_pool(n_workers))
            return forks[-1]

        monkeypatch.setattr(scheduler_module, "fork_pool", spy)
        before = {child.pid for child in multiprocessing.active_children()}
        gateway = StudyGateway(tmp_path / "studies")
        digest = gateway.submit(SPEC.to_dict())["study"]
        deadline = time.monotonic() + 60.0
        while gateway.status(digest)["state"] != "idle":
            assert time.monotonic() < deadline, "study never went idle"
            children = {
                child.pid for child in multiprocessing.active_children()
            }
            assert children <= before
            time.sleep(0.005)
        assert gateway.status(digest)["status"] == "complete"
        # The study runs on the gateway's thread: no pool opens.
        assert forks == [None]
