"""The crash-tolerant study scheduler.

Executes a :class:`~repro.studies.spec.StudySpec`'s shard plan with
the robustness contract the runtime already gives campaigns, applied
to whole grids:

* **Durability** — every state transition is a write-ahead-ledger
  record, fsynced before the scheduler acts on it.  Re-running the
  same command after a SIGKILL replays the ledger and continues;
  committed shards are never recomputed and never double-counted.
* **At-least-once, idempotent** — a shard that crashed between its
  result write and its commit record is re-executed; its
  content-addressed result key lands on the same bytes, so the merged
  report is byte-identical either way.
* **Retry, then quarantine** — transient faults retry on the
  runtime's deterministic backoff; a shard that fails
  ``max_shard_failures`` times deterministically is quarantined as
  poison and the study completes ``degraded`` instead of wedging.
* **Engine-degradation cascade** — per-engine circuit breakers
  (:class:`~repro.runtime.budget.CircuitBreaker`, as in the service)
  walk batch -> deterministic -> scalar under repeated failures or
  budget pressure; every fallback is flagged on the shard in the
  report.

**Who computes, who writes.**  Shards are independent, so a run
evaluates their *first attempts* on a worker pool
(:func:`~repro.runtime.forkpool.fork_pool`, one worker per usable
CPU, at most one per pending shard) when all of these hold: two or
more shards are pending, more than one CPU is usable, the evaluator
is the library's own :func:`~repro.studies.evaluate.evaluate_shard`
and ``fork_pool`` opens a pool (it refuses while another Python
thread runs: ``fork`` is only safe from a single-threaded process).
A caller-supplied ``evaluate`` hook always runs in the caller's
process, where its side effects belong.  The pool opens inside
:meth:`StudyScheduler.run`, never in the constructor, and closes
before it returns.

Workers only compute.  The parent alone touches the ledger, the
store, the breakers, the supervisor and the budget tracker, and it
consumes results in plan order: each pending shard goes through the
same ``_run_shard`` steps as in-process, and its first attempt,
still behind the ``studies.shard_dispatch`` fault point, takes the
worker's payload instead of evaluating.  The pool keeps
:data:`_SHARDS_PER_WORKER` shards per worker queued ahead in plan
order, each with the engine the parent would pick at submission, so
a worker that finishes while the parent commits (about four fsyncs
a shard) starts the next shard at once; the parent takes a payload
only if it would pick that engine now.  Everything else evaluates
in-process exactly as without a pool: a changed pick, every retry,
every shard after a worker death breaks the pool, and every run
with one usable CPU.  Ledger, store and report bytes therefore do
not depend on the process count.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.chaos.faultpoints import fault_point
from repro.obs import core as obs
from repro.runtime.budget import (
    Budget,
    BudgetTracker,
    CircuitBreaker,
    RetryPolicy,
)
from repro.runtime.events import EventLog
from repro.runtime.forkpool import fork_pool
from repro.runtime.supervisor import Supervisor
from repro.runtime.errors import TransientHarnessError
from repro.studies import evaluate as evaluation
from repro.studies.evaluate import evaluate_shard
from repro.studies.ledger import StudyLedger
from repro.studies.report import StudyReport, build_report
from repro.studies.spec import Shard, StudySpec
from repro.studies.store import ShardResultStore
from repro.transport.api import LIVE_CASCADE, pick_live_engine

__all__ = ["StudyOutcome", "StudyScheduler"]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask).

    1 where there is no affinity API (macOS, Windows), which keeps
    studies in-process there: ``fork`` is missing or unsafe on both.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


#: A prefetched first attempt: the engine it was submitted with, and
#: the worker's pending payload.
_Prefetched = Tuple[str, Future]

#: Shards queued per worker ahead of the parent's commits.  With one,
#: a worker that finishes a cheap shard idles while the parent
#: commits the shard before it.
_SHARDS_PER_WORKER = 4


class _ShardPool:
    """Upcoming shards' first attempts, evaluated on worker processes.

    Keeps up to :data:`_SHARDS_PER_WORKER` shards per worker submitted
    ahead, in plan order; the scheduler takes them back in the same
    order.  A shard's engine is the one picked when it was submitted.

    Args:
        executor: the worker processes.
        n_workers: their number.
        spec: the study (sent to workers with each shard).
        shards: the pending shards, in plan order.
        pick: the engine the scheduler would pick now.
        stored: whether a shard's result is already in the store
            (such a shard is committed from there, never computed).
    """

    def __init__(
        self,
        executor: ProcessPoolExecutor,
        n_workers: int,
        spec: StudySpec,
        shards: List[Shard],
        pick: Callable[[], str],
        stored: Callable[[Shard], bool],
    ) -> None:
        self._executor = executor
        self._depth = _SHARDS_PER_WORKER * n_workers
        self._spec = spec
        self._ahead = deque(shards)
        self._pick = pick
        self._stored = stored
        self._inflight: Dict[int, _Prefetched] = {}

    def take(self, shard: Shard) -> Optional[_Prefetched]:
        """``shard``'s first attempt, if a worker has it."""
        self._fill()
        return self._inflight.pop(shard.index, None)

    def collect(
        self, prefetched: _Prefetched, engine: str
    ) -> Optional[dict]:
        """The worker's payload, or ``None`` to evaluate in-process.

        ``None`` when the payload was computed with another engine
        than ``engine`` or the pool broke; a worker's own exception
        is raised here, as an in-process attempt would raise it.
        """
        submitted, future = prefetched
        if submitted != engine:
            future.cancel()
            obs.inc(
                "repro_study_pool_fallbacks_total", reason="changed-pick"
            )
            return None
        try:
            payload = future.result()
        except BrokenProcessPool:
            self._break()
            return None
        finally:
            self._fill()
        obs.inc("repro_study_pool_shards_total")
        return payload

    def close(self) -> None:
        """Shut the pool down; shards not yet handed to a worker are
        cancelled, the rest finish, unused."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _fill(self) -> None:
        """Submit the next shards in plan order until the queue is
        full."""
        while (
            self._executor is not None
            and self._ahead
            and len(self._inflight) < self._depth
        ):
            shard = self._ahead.popleft()
            if self._stored(shard):
                continue
            engine = self._pick()
            try:
                future = self._executor.submit(
                    evaluation.evaluate_shard, shard, self._spec, engine
                )
            except BrokenProcessPool:
                self._break()
                return
            self._inflight[shard.index] = (engine, future)

    def _break(self) -> None:
        """A worker died: the shard at hand, every shard in flight and
        the rest of the run evaluate in-process."""
        lost = 1 + len(self._inflight)
        obs.event("study.pool", state="broken", lost=lost)
        obs.inc(
            "repro_study_pool_fallbacks_total",
            lost,
            reason="broken-pool",
        )
        self._inflight.clear()
        self._ahead.clear()
        self.close()


@dataclass(frozen=True)
class StudyOutcome:
    """One scheduler run's result.

    Attributes:
        status: ``complete`` / ``degraded`` / ``incomplete``.
        interrupted: True when an interrupt callback stopped the run
            between shards.
        report: the merged durable-state report.
    """

    status: str
    interrupted: bool
    report: StudyReport


class StudyScheduler:
    """Runs a study's shard plan durably (see module docstring).

    Args:
        spec: the study to run.
        ledger_path: write-ahead ledger file (created on first run;
            an existing ledger resumes, after a spec-digest check).
        store_root: content-addressed shard-result directory.
        budget: optional wall-clock/event budget; the run stops
            cleanly (``incomplete``) at the deadline, and degrades
            the engine under budget pressure before that.
        retry: transient-fault backoff policy.
        sleep: injectable backoff sleeper.
        clock: injectable monotonic clock for the budget tracker.
        interrupt: polled between shards; returning True stops the
            run cleanly (``incomplete``, ``interrupted`` flagged).
        evaluate: shard evaluation hook (tests and chaos trials
            inject failures); defaults to the real evaluator.  A
            hook always runs in this process, never on the pool.
        max_shards: stop after committing/quarantining this many
            shards this run (``None`` = no limit) — the smoke jobs'
            deterministic mid-run stop.
        breakers: injectable per-engine circuit breakers.
    """

    def __init__(
        self,
        spec: StudySpec,
        ledger_path: Union[str, Path],
        store_root: Union[str, Path],
        budget: Optional[Budget] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        interrupt: Optional[Callable[[], bool]] = None,
        evaluate: Optional[
            Callable[[Shard, StudySpec, str], dict]
        ] = None,
        max_shards: Optional[int] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
    ) -> None:
        self.spec = spec
        self.budget = budget
        self._clock = clock if clock is not None else time.monotonic
        self._interrupt = interrupt
        self._evaluate = (
            evaluate if evaluate is not None else evaluate_shard
        )
        self._max_shards = max_shards
        # The ledger, the store and the supervisor share one backoff
        # policy and sleeper (each defaults a ``None`` alike).
        self.ledger = StudyLedger(ledger_path, retry=retry, sleep=sleep)
        self.store = ShardResultStore(store_root, retry=retry, sleep=sleep)
        self.breakers = (
            breakers
            if breakers is not None
            else {engine: CircuitBreaker() for engine in LIVE_CASCADE}
        )
        self.events = EventLog()
        self._supervisor = Supervisor(
            retry=retry, events=self.events, sleep=sleep
        )
        self._committed: Dict[int, dict] = {}
        self._failures: Dict[int, int] = {}
        self._quarantined: Set[int] = set()
        self._pool: Optional[_ShardPool] = None

    # -- the run -------------------------------------------------------

    def run(self) -> StudyOutcome:
        """Execute (or resume) the study; never wedges.

        Raises:
            repro.studies.ledger.LedgerError: when the ledger is
                corrupt or belongs to a different spec — detected
                up front, never silently resumed.
        """
        with obs.span("study.run", study=self.spec.name):
            state = self.ledger.require_spec_digest(self.spec.digest())
            if state.started is None:
                self.ledger.append(
                    "study-started",
                    {
                        "digest": self.spec.digest(),
                        "name": self.spec.name,
                        "n_shards": self.spec.n_shards,
                    },
                )
            self._committed = dict(state.committed)
            self._failures = dict(state.failures)
            self._quarantined = set(state.quarantined)
            tracker = (
                BudgetTracker(self.budget, clock=self._clock)
                if self.budget is not None
                else None
            )
            pending = [
                shard
                for shard in self.spec.shards()
                if shard.index not in self._committed
                and shard.index not in self._quarantined
            ]
            self._pool = self._open_pool(pending, tracker)
            try:
                interrupted = self._run_pending(pending, tracker)
            finally:
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
            report = build_report(
                self.spec, self._replayed_state(), self.store
            )
            if (
                report.status in ("complete", "degraded")
                and state.finished is None
            ):
                self.ledger.append(
                    "study-finished", {"status": report.status}
                )
            return StudyOutcome(
                status=report.status,
                interrupted=interrupted,
                report=report,
            )

    def _run_pending(
        self, pending: List[Shard], tracker: Optional[BudgetTracker]
    ) -> bool:
        """Resolve ``pending`` in plan order until done or stopped;
        True when the interrupt callback stopped the run."""
        for resolved_this_run, shard in enumerate(pending):
            if self._interrupt is not None and self._interrupt():
                return True
            if tracker is not None and tracker.deadline_exceeded():
                break
            if (
                self._max_shards is not None
                and resolved_this_run >= self._max_shards
            ):
                break
            self._run_shard(shard, tracker)
        return False

    def _replayed_state(self):
        """Fresh durable view (what a resume would actually see)."""
        return self.ledger.replay()

    def _open_pool(
        self, pending: List[Shard], tracker: Optional[BudgetTracker]
    ) -> Optional[_ShardPool]:
        """A worker pool for ``pending``'s first attempts, or ``None``
        to evaluate them all in-process (see module docstring)."""
        n_workers = min(_usable_cpus(), len(pending))
        if n_workers < 2 or self._evaluate is not evaluation.evaluate_shard:
            return None
        executor = fork_pool(n_workers)
        if executor is None:
            return None
        return _ShardPool(
            executor,
            n_workers,
            self.spec,
            pending,
            pick=lambda: self._pick_engine(tracker)[0],
            stored=lambda shard: self.store.entry_path(
                self.spec.shard_key(shard)
            ).exists(),
        )

    # -- one shard -----------------------------------------------------

    def _run_shard(
        self, shard: Shard, tracker: Optional[BudgetTracker]
    ) -> None:
        """Drive one shard to committed or quarantined."""
        key = self.spec.shard_key(shard)
        failures = self._failures.get(shard.index, 0)
        prefetched = (
            self._pool.take(shard) if self._pool is not None else None
        )
        while True:
            stored = self.store.get(key)
            if stored is not None:
                # At-least-once residue: the work is durable already
                # (this run or a killed predecessor); commit it
                # verbatim so resume stays byte-identical.
                self._commit(shard, key, stored)
                return
            engine, reason = self._pick_engine(tracker)
            # Only the first attempt may take a worker's payload.
            first = iter((prefetched,))
            prefetched = None
            try:
                payload = self._supervisor.call(
                    f"shard-{shard.index}",
                    lambda: self._dispatch(
                        shard, engine, next(first, None)
                    ),
                    step=shard.index,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except TransientHarnessError:
                # Retries exhausted: deterministic enough to count.
                failures = self._record_failure(
                    shard, engine, "TransientHarnessError", failures
                )
            except Exception as exc:  # noqa: BLE001 — quarantine path
                failures = self._record_failure(
                    shard, engine, type(exc).__name__, failures
                )
            else:
                self._breaker_for(engine).record_success()
                degraded = engine != self.spec.engine
                payload["degraded"] = degraded
                payload["reason"] = reason if degraded else ""
                self.store.put(key, payload)
                self._commit(shard, key, payload)
                return
            if failures >= self.spec.max_shard_failures:
                self._quarantine(shard, failures)
                return

    def _dispatch(
        self,
        shard: Shard,
        engine: str,
        prefetched: Optional[_Prefetched] = None,
    ) -> dict:
        """One evaluation attempt (the chaos dispatch window); takes
        a worker's ``prefetched`` payload when it is usable."""
        with obs.span(
            "study.shard", shard=shard.index, engine=engine
        ):
            fault_point(
                "studies.shard_dispatch",
                shard=shard.index,
                engine=engine,
            )
            if prefetched is not None and self._pool is not None:
                payload = self._pool.collect(prefetched, engine)
                if payload is not None:
                    return payload
            return self._evaluate(shard, self.spec, engine)

    def _pick_engine(
        self, tracker: Optional[BudgetTracker]
    ) -> "tuple[str, str]":
        """Walk the shared cascade; returns (engine, reason).

        Negotiation policies (``auto``/``surrogate``) pass through
        to the evaluator unless a live fallback is being forced —
        the transport facade resolves them per query.
        """
        pressure = (
            tracker is not None
            and tracker.budget.wall_clock_s is not None
            and tracker.elapsed_s()
            >= 0.5 * tracker.budget.wall_clock_s
        )
        blocked = frozenset(
            engine
            for engine in LIVE_CASCADE
            if self.breakers[engine].open
        )
        engine, reason = pick_live_engine(
            self.spec.engine,
            blocked=blocked,
            budget_pressure=pressure,
        )
        if self.spec.engine not in LIVE_CASCADE and not reason:
            # Nothing forced a downgrade: keep the policy so the
            # facade can serve shielded points from the surrogate.
            return self.spec.engine, ""
        return engine, reason

    # -- durable transitions -------------------------------------------

    def _commit(self, shard: Shard, key: str, payload: dict) -> None:
        """Record a shard's durable result in the ledger."""
        self.ledger.append(
            "shard-committed",
            {
                "shard": shard.index,
                "key": key,
                "engine": payload.get("engine", self.spec.engine),
                "degraded": bool(payload.get("degraded", False)),
                "reason": payload.get("reason", ""),
            },
        )
        self._committed[shard.index] = {"shard": shard.index}
        obs.inc("repro_study_shards_total")
        if payload.get("degraded"):
            obs.inc("repro_study_shards_degraded_total")

    def _breaker_for(self, engine: str) -> CircuitBreaker:
        """Breaker bucket for an engine string.  Negotiation
        policies (``auto``/``surrogate``) resolve to live engines
        per query, so their health is charged to the cascade head."""
        if engine in self.breakers:
            return self.breakers[engine]
        return self.breakers[LIVE_CASCADE[0]]

    def _record_failure(
        self, shard: Shard, engine: str, error: str, failures: int
    ) -> int:
        """Count one deterministic shard failure durably."""
        failures += 1
        self._failures[shard.index] = failures
        self._breaker_for(engine).record_failure()
        self.ledger.append(
            "shard-failed",
            {
                "shard": shard.index,
                "engine": engine,
                "error": error,
                "failures": failures,
            },
        )
        return failures

    def _quarantine(self, shard: Shard, failures: int) -> None:
        """Mark a poison shard aside; the study degrades, not wedges."""
        self._supervisor.call(
            f"quarantine-{shard.index}",
            lambda: fault_point("studies.quarantine", shard=shard.index),
            step=shard.index,
        )
        self.ledger.append(
            "shard-quarantined",
            {"shard": shard.index, "failures": failures},
        )
        self._quarantined.add(shard.index)
        obs.event("study.quarantine", shard=shard.index)
        obs.inc("repro_study_shards_quarantined_total")
