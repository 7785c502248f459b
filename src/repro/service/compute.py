"""Query execution: worker pool, bounded retry, circuit breaker.

The execution layer turns a validated
:class:`~repro.service.protocol.Query` into a plain result dict,
surviving the ways real compute backends die:

* **Transient faults** are retried with the supervisor's bounded
  deterministic backoff (:class:`~repro.runtime.supervisor.Supervisor`
  around every dispatch).
* **Worker death** (a SIGKILL'd pool process) breaks the pool; the
  executor recomputes the query in-process, flagging the response
  ``degraded`` — the service answer is late, never wrong, never a
  hang.  It does not fork a new pool: a running server has other
  threads (the event loop's workers), and a child forked from a
  threaded process can inherit a lock held forever.  Every later
  live query runs in-process until the server restarts, counted in
  ``repro_service_in_process_total`` and reported by ``/healthz``
  (:meth:`QueryExecutor.pool_state`).
* **Repeated failure** (a transmission that would run batch first
  and whose retries ran out or that crashed, or a worker death) trips
  a :class:`~repro.runtime.budget.CircuitBreaker` that blocks the
  batch engine; blocked transmission queries walk
  the shared cascade policy of :mod:`repro.transport.api`
  (batch -> deterministic -> scalar, same as the studies scheduler)
  until enough consecutive successes close the breaker again.

``_execute_query`` is a module-level function on purpose: it must be
picklable for the ``fork`` process pool, and it hosts the
``service.dispatch`` fault point so chaos can kill a *worker*
mid-query.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.chaos.faultpoints import fault_point
from repro.core.fit import FitCalculator
from repro.devices import get_device
from repro.environment import (
    WeatherCondition,
    datacenter_scenario,
    outdoor_scenario,
)
from repro.faults.models import BeamKind, Outcome
from repro.obs import core as obs
from repro.runtime.budget import CircuitBreaker, RetryPolicy
from repro.runtime.events import EventLog
from repro.runtime.forkpool import fork_pool
from repro.runtime.supervisor import Supervisor
from repro.service.protocol import SERVICE_SITES, SHIELDS, Query
from repro.spectra.beamlines import rotax_spectrum
from repro.transport.api import (
    AccuracyTarget,
    TransportQuery,
    answer,
    cascade_for,
    surrogate_serves,
)

__all__ = [
    "ExecutionOutcome",
    "QueryExecutor",
]


def _scenario(payload: dict):
    """Build the flux scenario a query describes."""
    site = SERVICE_SITES[payload["site"]]
    weather = (
        WeatherCondition.RAIN
        if payload["rain"]
        else WeatherCondition.SUNNY
    )
    if payload["room"]:
        return datacenter_scenario(
            site,
            liquid_cooled=not payload["air_cooled"],
            weather=weather,
        )
    return outdoor_scenario(site, weather=weather)


def _decomposition(decomp) -> dict:
    """JSON-ready form of one FIT decomposition."""
    return {
        "fit_high_energy": decomp.fit_high_energy,
        "fit_thermal": decomp.fit_thermal,
        "total": decomp.total,
        "thermal_share": (
            decomp.thermal_share if decomp.total > 0.0 else None
        ),
    }


def _fit(payload: dict) -> dict:
    """FIT decomposition for a device in a scenario."""
    device = get_device(payload["device"])
    scenario = _scenario(payload)
    code = payload["code"] or None
    report = FitCalculator().report(device, scenario, code)
    return {
        "device": device.name,
        "code": payload["code"],
        "scenario": scenario.label,
        "sdc": _decomposition(report.sdc),
        "due": _decomposition(report.due),
        "total_fit": report.total_fit,
        "mtbf_h": (
            report.mtbf_hours() if report.total_fit > 0.0 else None
        ),
    }


def _cross_section(payload: dict) -> dict:
    """Per-beam cross sections and HE/thermal ratios."""
    device = get_device(payload["device"])
    code = payload["code"] or None
    out: dict = {"device": device.name, "code": payload["code"]}
    for outcome in (Outcome.SDC, Outcome.DUE):
        sigma_he = device.sigma(BeamKind.HIGH_ENERGY, outcome, code)
        sigma_th = device.sigma(BeamKind.THERMAL, outcome, code)
        out[outcome.value.lower()] = {
            "sigma_high_energy_cm2": sigma_he,
            "sigma_thermal_cm2": sigma_th,
            "ratio": (
                sigma_he / sigma_th if sigma_th > 0.0 else None
            ),
        }
    return out


def _flux(payload: dict) -> dict:
    """Environmental flux description of a scenario."""
    scenario = _scenario(payload)
    return {
        "scenario": scenario.label,
        "fast_flux_per_h": scenario.fast_flux_per_h(),
        "thermal_flux_per_h": scenario.thermal_flux_per_h(),
        "thermal_to_fast_ratio": scenario.thermal_to_fast_ratio(),
    }


def _transport_query(payload: dict) -> TransportQuery:
    """The facade query a transmission payload asks."""
    return TransportQuery(
        mode="transmission",
        material=SHIELDS[payload["shield"]][0],
        thickness_cm=payload["thickness_cm"],
        source_spectrum=rotax_spectrum(),
        n_neutrons=payload["n_neutrons"],
        seed=payload["seed"],
        engine=payload["engine"],
        accuracy=AccuracyTarget(
            rel_err=payload.get("rel_err", 0.05),
            confidence=payload.get("confidence", 0.95),
        ),
    )


def _transmission(payload: dict) -> dict:
    """Shield transmission through the transport facade.

    The facade negotiates who answers: a certified surrogate
    surface, or a live engine picked by the shared cascade policy
    (``payload["blocked"]`` lists engines the breaker disabled).
    """
    # The helper's query carries the request payload's seed; taint
    # cannot see through its return value.
    served = answer(
        _transport_query(payload),  # repro: noqa REP101
        blocked=frozenset(payload.get("blocked", ())),
    )
    result = served.result
    return {
        "shield": payload["shield"],
        "thickness_cm": payload["thickness_cm"],
        # The engine that actually answered (the policy asked for
        # is in provenance.requested_engine).
        "engine": served.provenance.engine,
        "thermal_transmission": (
            result.thermal_transmission_fraction()
        ),
        "transport": result.to_dict(),
        "provenance": served.provenance.to_dict(),
    }


_KIND_HANDLERS = {
    "fit": _fit,
    "cross-section": _cross_section,
    "flux": _flux,
    "transmission": _transmission,
}


def _execute_query(payload: dict) -> dict:
    """Compute one canonical query payload (pool-worker entry).

    Module-level and dict-in/dict-out so the ``fork`` pool can pickle
    both ends; the ``service.dispatch`` fault point sits before any
    RNG work so a retried query replays identical draws.
    """
    fault_point("service.dispatch", kind=payload.get("kind", ""))
    return _KIND_HANDLERS[payload["kind"]](payload)


@dataclass(frozen=True)
class ExecutionOutcome:
    """One executed query: its result plus degradation flags.

    Attributes:
        result: the computed result dict.
        degraded: True when the service had to fall back (worker
            death recompute, breaker-forced engine downgrade,
            surrogate fallback).
        reason: machine-readable degradation cause (``""`` = clean;
            e.g. ``worker-retry`` / ``breaker-open``).
        provenance: the transport facade's provenance block, for
            kinds that have one (transmission).
    """

    result: dict
    degraded: bool = False
    reason: str = ""
    provenance: Optional[dict] = None


class QueryExecutor:
    """Executes queries with retry, pooling, and degradation.

    Args:
        n_workers: queries that need a live transport engine
            (:meth:`needs_engine`) dispatch to a ``fork`` process
            pool of this size when > 1
            (:func:`~repro.runtime.forkpool.fork_pool`: its workers
            exit when the server dies), forked only while no other
            thread runs and never again after a worker death; every
            other query is cheap and runs in-process.
        retry: transient-fault backoff policy around every dispatch.
        sleep: injectable backoff sleeper.
        breaker: injectable circuit breaker (tests/chaos assert its
            transitions).
    """

    def __init__(
        self,
        n_workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker()
        )
        self.events = EventLog()
        self._supervisor = Supervisor(
            retry=retry,
            events=self.events,
            sleep=time.sleep if sleep is None else sleep,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Set by a worker death: live queries then run in-process
        #: until restart.
        self._pool_lost = False
        #: Queries actually computed (the coalescing tests' witness).
        self.compute_count = 0

    # -- lifecycle -----------------------------------------------------

    def warm(self) -> None:
        """Pre-spawn the worker pool from the current thread.

        Call it before the server's event loop and executor threads
        exist: the pool is forked only while no other thread runs.
        A no-op for in-process executors.
        """
        if self.n_workers > 1:
            self._ensure_pool()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def pool_state(self) -> str:
        """Where live queries run: ``in-process`` (``n_workers`` 1),
        ``pooled`` (the pool is up), ``unforked`` (not forked yet, or
        refused while other threads ran) or ``lost`` (a worker died;
        in-process until restart)."""
        if self.n_workers == 1:
            return "in-process"
        if self._pool_lost:
            return "lost"
        return "unforked" if self._pool is None else "pooled"

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The worker pool, forked on first use; ``None`` after a
        worker death, or while another thread runs."""
        if self._pool is None and not self._pool_lost:
            self._pool = fork_pool(self.n_workers)
            if self._pool is not None:
                # Fork the workers now so they inherit current
                # process state (the chaos controller, for one).
                self._pool.submit(_noop).result()
        return self._pool

    # -- execution -----------------------------------------------------

    @staticmethod
    def needs_engine(query: Query) -> bool:
        """Whether answering ``query`` runs a live transport engine.

        ``fit``, ``cross-section`` and ``flux`` answers never do; a
        transmission answer does unless the configured surrogate
        store would serve it (:func:`~repro.transport.api.surrogate_serves`,
        the facade's own negotiation).  The breaker does not enter:
        surrogate serving ignores blocked engines.  Counts nothing.
        """
        return query.kind == "transmission" and not surrogate_serves(
            _transport_query(query.to_dict())
        )

    def execute(self, query: Query) -> ExecutionOutcome:
        """Compute one query; degrade rather than fail or hang.

        A transmission whose dispatch still fails after the
        supervisor's retries (or crashes) counts one breaker failure
        before its error propagates, as a failed study shard does,
        when the batch engine is the one it charges: its policy's
        cascade starts at batch (``batch``, ``auto``, ``surrogate``)
        and the breaker did not already block batch.
        """
        payload = query.to_dict()
        transmission = query.kind == "transmission"
        blocked = transmission and self.breaker.open
        if blocked:
            # Hand the open breaker to the shared cascade policy
            # (transport.api) instead of hard-coding a downgrade —
            # batch-blocked queries walk batch -> deterministic ->
            # scalar, same as the studies scheduler.
            payload["blocked"] = ["batch"]
        pooled = self.n_workers > 1 and self.needs_engine(query)
        try:
            result, worker_died = self._supervisor.call(
                query.kind, lambda: self._dispatch(payload, pooled)
            )
        except Exception:
            if (
                transmission
                and not blocked
                and cascade_for(payload["engine"])[0] == "batch"
            ):
                self.breaker.record_failure()
                obs.set_gauge(
                    "repro_service_breaker_open",
                    float(self.breaker.open),
                )
            raise
        self.compute_count += 1
        provenance = (
            result.get("provenance")
            if isinstance(result, dict)
            else None
        )
        degraded = bool(provenance and provenance.get("degraded"))
        reason = (
            str(provenance.get("reason", "")) if degraded else ""
        )
        if worker_died:
            degraded = True
            reason = reason or "worker-retry"
            self.breaker.record_failure()
        elif transmission:
            self.breaker.record_success()
        obs.set_gauge(
            "repro_service_breaker_open", float(self.breaker.open)
        )
        if degraded:
            obs.inc("repro_service_degraded_total")
        return ExecutionOutcome(
            result=result,
            degraded=degraded,
            reason=reason,
            provenance=provenance,
        )

    def _dispatch(
        self, payload: dict, pooled: bool
    ) -> Tuple[dict, bool]:
        """Run one payload, on the pool when ``pooled``; survive
        pool-worker death.

        Returns:
            ``(result, worker_died)`` — when the pool broke (a
            worker was SIGKILL'd mid-query) the result comes from an
            in-process recompute and ``worker_died`` is True.  A
            query the pool cannot take (lost, or never forked) is
            computed in-process too, and counted.
        """
        if not pooled:
            return _execute_query(payload), False
        pool = self._ensure_pool()
        worker_died = False
        if pool is not None:
            try:
                return (
                    pool.submit(_execute_query, payload).result(),
                    False,
                )
            except BrokenProcessPool:
                self.close()
                self._pool_lost = worker_died = True
        obs.inc("repro_service_in_process_total")
        return _execute_query(payload), worker_died


def _noop() -> None:
    """Pool warm-up task (forces eager worker spawn)."""
