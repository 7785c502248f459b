"""Durable content-addressed result cache for the FIT service.

Entries are :class:`~repro.durable.ContentStore` records keyed by the
query's :meth:`~repro.service.protocol.Query.cache_key` — SHA-256
over (plan digest, seed) — and written under the crash model of
:mod:`repro.durable`.

Failure policy, in one sentence: **the cache is an accelerator, never
an authority** — a corrupt, torn, or unreadable entry is quarantined
(renamed aside for post-mortem) and reported as a miss so the query
recomputes, and a write that keeps failing is abandoned with a
metric, never surfaced to the client.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro.durable import ContentStore
from repro.obs import core as obs
from repro.runtime.budget import RetryPolicy
from repro.service.protocol import Query

__all__ = ["ResultCache"]


class ResultCache:
    """Filesystem-backed result cache with corruption quarantine.

    Args:
        root: cache directory (created on demand).  Stale ``*.tmp``
            leftovers from interrupted writes are swept immediately.
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper (tests and chaos trials
            pass a no-op).
    """

    def __init__(
        self,
        root: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._entries = ContentStore(
            root,
            kind="service-cache-entry",
            # Each write crosses this fault_point between its tmp
            # fsync and its rename: a fault costs a retry at most.
            fault_site="service.cache_write",
            retry=retry,
            sleep=sleep,
            quarantine_metric="repro_service_cache_quarantined_total",
        )
        self.root = self._entries.root
        #: Stale ``*.tmp`` files removed at construction — exposed so
        #: ``repro serve`` can count the sweep in a metric.
        self.swept_on_init = self._sweep_stale_tmp()

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or ``None``.

        A missing entry is a plain miss; one that fails verification
        is quarantined and reported as a miss, so corrupt bytes are
        never served and never fatal.
        """
        body = self._entries.get(key)
        return None if body is None else body.get("result")

    def put(self, key: str, query: Query, result: dict) -> bool:
        """Durably store one computed result.

        Transient write faults are retried with backoff; anything
        still failing afterwards — or any non-transient failure —
        abandons the write with a failure metric.  The caller's
        response is never affected.

        Returns:
            True when the entry landed on disk.
        """
        try:
            self._entries.put(
                key, {"query": query.to_dict(), "result": result}
            )
        except Exception:  # noqa: BLE001 — cache is best-effort
            obs.inc("repro_service_cache_write_failures_total")
            return False
        obs.inc("repro_service_cache_writes_total")
        return True

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out)."""
        return self._entries.entry_path(key)

    def _sweep_stale_tmp(self) -> int:
        """Remove ``*.tmp`` leftovers from interrupted writes."""
        swept = 0
        for tmp in self.root.rglob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                continue
            swept += 1
        return swept
