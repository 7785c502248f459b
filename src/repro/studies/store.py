"""Durable content-addressed shard results.

The shard result store is what makes at-least-once shard execution
safe: results are keyed on ``(shard digest, seed)`` — the service
cache's key scheme — so re-executing a shard after a crash lands on
the same key with the same bytes.  Entries are
:class:`~repro.durable.ContentStore` records, so a torn, corrupt or
misfiled entry is quarantined and read as a *miss* (the shard is
deterministic, so a recompute reproduces it exactly), never a wrong
answer.

The store never sweeps stale tmp files: concurrent studies share one
root, and a re-put after a crash overwrites its own leftover tmp.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro.durable import ContentStore
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.studies.ledger import LedgerError

__all__ = ["ShardResultStore"]


class ShardResultStore:
    """Content-addressed durable storage for shard result payloads.

    Args:
        root: store directory (two-level fan-out, like the service
            cache).
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper.
    """

    def __init__(
        self,
        root: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._entries = ContentStore(
            root,
            kind="study-shard-result",
            # Each write crosses this fault_point between its tmp
            # fsync and its rename: a kill there must leave the shard
            # recomputable, a duplicate there must be idempotent.
            fault_site="studies.shard_commit",
            retry=retry,
            sleep=sleep,
        )

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out)."""
        return self._entries.entry_path(key)

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        body = self._entries.get(key)
        return None if body is None else body.get("payload")

    def put(self, key: str, payload: dict) -> None:
        """Durably store ``payload`` under ``key``.

        Raises:
            LedgerError: when every write attempt failed — the shard
                result could not be made durable, so committing it to
                the ledger would be a lie.
        """
        try:
            self._entries.put(key, {"payload": payload})
        except (OSError, TransientHarnessError) as exc:
            raise LedgerError(
                f"shard result write failed after"
                f" {self._entries.retry.max_attempts} attempts: {exc}"
            ) from exc
