"""Request coalescing: one computation per identical in-flight query.

A thundering herd of clients asking the same question (same cache
key) must cost one computation, with every waiter receiving the
single shared result — or the single shared error.  The
:class:`Coalescer` keeps a dict of in-flight computations keyed by
cache key; late arrivals attach to the existing flight instead of
starting their own.

Cancellation safety is the subtle part: the flight is owned by its
own task and every waiter awaits the shared future through
``asyncio.shield``, so the *initiating* client disconnecting (its
handler task cancelled) never cancels the computation out from under
the other waiters — the handoff survives the initiator.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict

from repro.chaos.faultpoints import fault_point
from repro.obs import core as obs

__all__ = ["Coalescer"]


class _Flight:
    """One in-flight computation and its subscriber count."""

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future
        self.waiters = 1
        self.task: "asyncio.Task | None" = None


class Coalescer:
    """Deduplicates concurrent identical computations by key."""

    def __init__(self) -> None:
        self._flights: Dict[str, _Flight] = {}

    @property
    def inflight(self) -> int:
        """Number of distinct computations currently in flight."""
        return len(self._flights)

    async def get_or_compute(
        self, key: str, compute: Callable[[], Any]
    ) -> Any:
        """Await the result for ``key``, computing it at most once.

        ``compute`` is a blocking callable; it runs in the event
        loop's default thread pool.  The server hands it only
        live-engine jobs: answers that need no engine are computed
        on the loop and never come here.  Concurrent callers with the
        same key all await one shared future.  If this caller is
        cancelled, the computation continues for the others.
        """
        loop = asyncio.get_running_loop()
        flight = self._flights.get(key)
        if flight is None:
            future = loop.create_future()
            # A flight whose every waiter got cancelled would
            # otherwise log "exception was never retrieved".
            future.add_done_callback(_consume_exception)
            flight = _Flight(future)
            self._flights[key] = flight
            flight.task = loop.create_task(
                self._run(key, flight, compute)
            )
        else:
            flight.waiters += 1
            obs.inc("repro_service_coalesced_total")
        return await asyncio.shield(flight.future)

    async def _run(
        self, key: str, flight: _Flight, compute: Callable[[], Any]
    ) -> None:
        """Drive one computation and hand the result to all waiters."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, compute)
            # The computed-but-not-yet-delivered instant: a fault
            # here must become one clean error shared by every
            # waiter, never a wedge or a partial delivery.
            fault_point(
                "service.handoff", key=key, waiters=flight.waiters
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 — shared handoff
            self._flights.pop(key, None)
            if not flight.future.done():
                flight.future.set_exception(exc)
            return
        self._flights.pop(key, None)
        if not flight.future.done():
            flight.future.set_result(result)

    async def drain(self) -> None:
        """Wait for every in-flight computation to settle."""
        tasks = [
            flight.task
            for flight in list(self._flights.values())
            if flight.task is not None
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def _consume_exception(future: "asyncio.Future") -> None:
    """Mark a settled future's exception as retrieved."""
    if not future.cancelled():
        future.exception()
