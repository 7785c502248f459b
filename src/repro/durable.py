"""The crash model every on-disk store shares.

The paper's beam protocol logs a DUE or SEFI, reboots the board and
carries on (§III-C).  The harness applies the same reboot-and-continue
rule to its own files — the service result cache, the study shard
store, surrogate artifacts and campaign checkpoints — and this module
is the one implementation of it:

* **Publish atomically.**  :func:`atomic_write` writes ``<path>.tmp``,
  flushes and fsyncs it, renames it over ``path`` and fsyncs the
  directory.  A crash at any instant leaves the old file or the new
  one, never a torn one; at worst it leaks the tmp, which no reader
  opens and the owner's sweep or next write removes.
* **Verify on read.**  Every record carries a serde tag, a SHA-256
  :func:`payload_checksum` over its canonical JSON, and its own
  address (a key, the digest its file is named after, or the digest
  of the run a checkpoint resumes).  :func:`record_defect` is the one
  check: schema and version, then checksum, then address.
* **Quarantine, never serve.**  :func:`read_verified` renames a record
  that fails the check to ``*.quarantined`` for post-mortem and reads
  it as a miss, so its owner recomputes it.  A checkpoint is its run's
  authority rather than an accelerator, so its load runs the same
  check and raises :class:`~repro.runtime.errors.CheckpointError`
  instead, leaving the file where it is.

:class:`ContentStore` combines the three for the content-addressed
stores (the service result cache and the study shard store).
Checkpoints and surrogate artifacts use the pieces directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from repro import serde
from repro.chaos.faultpoints import fault_point
from repro.obs import core as obs
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError

__all__ = [
    "ContentStore",
    "QUARANTINE_SUFFIX",
    "atomic_write",
    "fsync_dir",
    "payload_checksum",
    "read_verified",
    "record_defect",
    "tmp_path",
]

#: Suffix a record that fails verification is renamed to.
QUARANTINE_SUFFIX = ".quarantined"

#: Record fields :class:`ContentStore` adds around a stored body.
_ENVELOPE = ("key", "checksum", serde.SCHEMA_KEY, serde.VERSION_KEY)


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload`` sans checksum.

    The ``checksum`` key itself is excluded so the digest can be both
    computed at write time and re-verified at load time from the same
    function.
    """
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fsync_dir(directory: Path) -> None:
    """Flush a rename to disk by fsyncing the parent directory.

    Best-effort: some filesystems refuse O_RDONLY fsync on
    directories, and durability of the *data* was already ensured by
    the tmp-file fsync.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def tmp_path(path: Path) -> Path:
    """Where :func:`atomic_write` stages ``path`` before publishing."""
    return path.with_name(path.name + ".tmp")


def atomic_write(
    path: Path, text: str, fault_site: Optional[str] = None
) -> None:
    """Durably replace ``path`` with ``text``.

    Write-to-tmp, fsync, rename, fsync-directory.  The parent
    directory must exist.

    Args:
        path: the file to publish.
        text: its complete new contents.
        fault_site: chaos site crossed after the tmp fsync and before
            the rename, with ``path``/``tmp``/``text`` as context.

    Raises:
        OSError: when the tmp cannot be written or renamed; the
            previous ``path`` is then untouched.
    """
    tmp = tmp_path(path)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    if fault_site is not None:
        # The durable-tmp / not-yet-renamed instant: a fault here must
        # leave the previous file intact and at most leak the tmp.
        fault_point(fault_site, path=str(path), tmp=str(tmp), text=text)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def read_verified(
    path: Path, kind: str, address_field: str, address: str
) -> Tuple[Optional[dict], str]:
    """Load one record, quarantining it if it fails verification.

    Args:
        path: the record file.
        kind: serde kind the record must pass :func:`serde.check` as.
        address_field: the record field naming where it belongs.
        address: the value that field must hold.

    Returns:
        ``(record, "")`` for a verified record, ``(None, "")`` when
        no file exists, else ``(None, defect)`` after renaming the
        file to ``*.quarantined``; ``defect`` is ``unreadable``,
        ``schema``, ``checksum`` or ``address``.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, ""
    except (OSError, ValueError):
        defect = "unreadable"
    else:
        defect = record_defect(record, kind, address_field, address)
        if not defect:
            return record, ""
    try:
        os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
    except OSError:
        pass  # best-effort: the record is still never served
    return None, defect


def record_defect(
    record: object, kind: str, address_field: str, address: str
) -> str:
    """The first check a parsed record fails, or ``""``.

    Args:
        record: the parsed JSON document.
        kind: serde kind it must pass :func:`serde.check` as.
        address_field: the record field naming where it belongs.
        address: the value that field must hold.

    Returns:
        ``"schema"`` (not an object, or the wrong serde kind or
        version), ``"checksum"`` (missing, or not the payload's), or
        ``"address"`` (filed under another key or run); ``""`` when
        the record verifies.
    """
    if not isinstance(record, dict):
        return "schema"
    try:
        serde.check(kind, record)
    except serde.SchemaError:
        return "schema"
    if record.get("checksum") != payload_checksum(record):
        return "checksum"
    if record.get(address_field) != address:
        return "address"
    return ""


class ContentStore:
    """Checksummed records at ``<root>/<key[:2]>/<key>.json``.

    Args:
        root: store directory (created on first write).
        kind: serde kind every record is tagged and checked as.
        fault_site: chaos site crossed between each write's tmp fsync
            and its rename.
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper (tests never wait).
        quarantine_metric: counter bumped for each quarantined entry.
    """

    def __init__(
        self,
        root: Union[str, Path],
        kind: str,
        fault_site: str,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        quarantine_metric: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.kind = kind
        self.fault_site = fault_site
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep if sleep is not None else time.sleep
        self._quarantine_metric = quarantine_metric

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The body stored under ``key``, or ``None`` on a miss.

        An entry that does not verify (see :func:`read_verified`,
        with the stored ``key`` as its address) is quarantined and
        read as a miss.
        """
        record, defect = read_verified(
            self.entry_path(key), self.kind, "key", key
        )
        if defect and self._quarantine_metric is not None:
            obs.inc(self._quarantine_metric)
        if record is None:
            return None
        return {k: v for k, v in record.items() if k not in _ENVELOPE}

    def put(self, key: str, body: dict) -> None:
        """Durably store ``body`` under ``key``.

        ``OSError`` and :class:`TransientHarnessError` (a torn tmp
        write included) are retried with backoff; each attempt
        rewrites the tmp from scratch.

        Raises:
            OSError, TransientHarnessError: the last fault, once every
                attempt failed.  Any other exception propagates at
                once — retrying would repeat it.
        """
        record = serde.tag(self.kind, {"key": key, **body})
        record["checksum"] = payload_checksum(record)
        text = json.dumps(record, sort_keys=True)
        path = self.entry_path(key)
        for delay_s in self.retry.delays_s() + (None,):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write(path, text, self.fault_site)
                return
            except (OSError, TransientHarnessError):
                if delay_s is None:
                    raise
                self._sleep(delay_s)
