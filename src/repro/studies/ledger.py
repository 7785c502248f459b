"""The study write-ahead ledger: append-only, fsync'd, checksummed.

One JSON-lines file records everything that ever *happened* to a
study: ``study-started``, per-shard ``shard-committed`` /
``shard-failed`` / ``shard-quarantined``, and ``study-finished``.
Each line is a serde-tagged record carrying a sequence number and a
SHA-256 payload checksum; every append is flushed and fsynced before
the scheduler acts on it, so a SIGKILL at any instant loses at most
the record in flight.

Replay is strict about *corruption* and tolerant of *crashes*:

* A **torn tail** — a trailing line that is not complete, parseable
  JSON — is what a power cut or SIGKILL mid-append leaves behind.  It
  is discarded and healed (truncated away) by the next append.
* A **duplicate record** — the same sequence number with byte-equal
  content, the residue of an at-least-once retry — is skipped.
* Anything else (a checksum mismatch, a record mid-stream that does
  not parse, an out-of-order sequence number) is corruption, and
  replay refuses with :class:`LedgerError` rather than resuming from
  state it cannot trust.  A well-formed record with a bad checksum is
  *never* treated as a torn tail: torn writes produce partial lines,
  not valid JSON with wrong checksums.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from repro import serde
from repro.chaos.faultpoints import fault_point
from repro.durable import fsync_dir, payload_checksum
from repro.obs import core as obs
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import (
    CheckpointError,
    TransientHarnessError,
)

__all__ = [
    "LEDGER_RECORD_TYPES",
    "LedgerError",
    "LedgerState",
    "StudyLedger",
]

#: Every record type the ledger may carry, in no particular order.
LEDGER_RECORD_TYPES = (
    "study-started",
    "shard-committed",
    "shard-failed",
    "shard-quarantined",
    "study-finished",
)


class LedgerError(CheckpointError):
    """The ledger is corrupt or inconsistent; refuse to resume."""


@dataclass
class LedgerState:
    """Replayed view of one ledger file.

    Attributes:
        records: every valid record, in sequence order.
        started: the ``study-started`` body, if present.
        committed: shard index -> ``shard-committed`` body.
        failures: shard index -> count of ``shard-failed`` records.
        quarantined: shard indices with a ``shard-quarantined``
            record.
        finished: the ``study-finished`` body, if present.
        valid_end: byte offset of the end of the last valid record
            (appends resume here, truncating any torn tail).
        torn_tail: True when a trailing partial line was discarded.
    """

    records: List[dict] = field(default_factory=list)
    started: Optional[dict] = None
    committed: Dict[int, dict] = field(default_factory=dict)
    failures: Dict[int, int] = field(default_factory=dict)
    quarantined: Set[int] = field(default_factory=set)
    finished: Optional[dict] = None
    valid_end: int = 0
    torn_tail: bool = False


def _parse_record(text: str) -> dict:
    """One ledger line -> validated record dict.

    Raises:
        LedgerError: for anything that is not a complete, correctly
            checksummed ledger record.  The *caller* decides whether
            an unparseable line is a tolerable torn tail; a parseable
            record that fails validation is always fatal, so the
            distinction is surfaced via :attr:`LedgerError.parsed`.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        error = LedgerError(f"unparseable ledger line: {text[:80]!r}")
        error.parsed = False
        return _raise(error)
    if not isinstance(data, dict):
        error = LedgerError(
            f"ledger line is not an object: {text[:80]!r}"
        )
        error.parsed = False
        return _raise(error)
    try:
        serde.check("study-ledger-record", data)
    except serde.SchemaError as exc:
        error = LedgerError(f"bad ledger record schema: {exc}")
        error.parsed = True
        return _raise(error)
    stored = data.get("checksum")
    if stored != payload_checksum(data):
        error = LedgerError(
            f"ledger record seq={data.get('seq')!r} checksum"
            " mismatch (corrupt record)"
        )
        error.parsed = True
        return _raise(error)
    if data.get("type") not in LEDGER_RECORD_TYPES:
        error = LedgerError(
            f"unknown ledger record type {data.get('type')!r}"
        )
        error.parsed = True
        return _raise(error)
    if not isinstance(data.get("seq"), int) or data["seq"] < 0:
        error = LedgerError(
            f"bad ledger sequence number {data.get('seq')!r}"
        )
        error.parsed = True
        return _raise(error)
    return data


def _raise(error: LedgerError) -> dict:
    raise error


class StudyLedger:
    """Append-only durable event log for one study.

    Args:
        path: the ledger file (created on first append).
        retry: backoff policy for transient append faults.
        sleep: injectable backoff sleeper (tests never wait).
    """

    def __init__(
        self,
        path: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.path = Path(path)
        self._retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep if sleep is not None else time.sleep
        self._valid_end: Optional[int] = None
        self._next_seq: Optional[int] = None

    # -- replay --------------------------------------------------------

    def replay(self) -> LedgerState:
        """Read the ledger back into a :class:`LedgerState`.

        Raises:
            LedgerError: on corruption (see the module docstring for
                what is tolerated vs fatal).
        """
        obs.inc("repro_study_ledger_replays_total")
        state = LedgerState()
        if not self.path.exists():
            self._valid_end = 0
            self._next_seq = 0
            return state
        raw = self.path.read_bytes()
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            terminated = newline >= 0
            end = newline if terminated else len(raw)
            line = raw[offset:end]
            next_offset = end + 1 if terminated else len(raw)
            remainder = raw[next_offset:]
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                offset = next_offset
                continue
            try:
                record = _parse_record(text)
            except LedgerError as exc:
                if getattr(exc, "parsed", True) or remainder.strip():
                    # Corruption: a well-formed-but-invalid record,
                    # or garbage with real records after it.
                    raise
                # A trailing partial line: the torn tail of a crashed
                # append.  Discard it; the next append truncates it.
                state.torn_tail = True
                break
            seq = record["seq"]
            if seq == len(state.records):
                state.records.append(record)
                self._absorb(state, record)
            elif (
                seq < len(state.records)
                and state.records[seq] == record
            ):
                pass  # at-least-once duplicate: idempotent, skip
            else:
                raise LedgerError(
                    f"ledger sequence broken at seq={seq}"
                    f" (expected {len(state.records)})"
                )
            state.valid_end = next_offset if terminated else end
            offset = next_offset
        self._valid_end = state.valid_end
        self._next_seq = len(state.records)
        return state

    @staticmethod
    def _absorb(state: LedgerState, record: dict) -> None:
        """Fold one record into the state's derived views."""
        kind = record["type"]
        body = record.get("body", {})
        if kind == "study-started":
            if state.started is not None:
                raise LedgerError(
                    "ledger carries two study-started records"
                )
            state.started = body
        elif kind == "shard-committed":
            shard = int(body["shard"])
            if shard in state.committed:
                raise LedgerError(
                    f"shard {shard} committed twice"
                    " (double-counted result)"
                )
            state.committed[shard] = body
        elif kind == "shard-failed":
            shard = int(body["shard"])
            state.failures[shard] = state.failures.get(shard, 0) + 1
        elif kind == "shard-quarantined":
            shard = int(body["shard"])
            if shard in state.quarantined:
                raise LedgerError(
                    f"shard {shard} quarantined twice"
                )
            state.quarantined.add(shard)
        elif kind == "study-finished":
            if state.finished is not None:
                raise LedgerError(
                    "ledger carries two study-finished records"
                )
            state.finished = body

    # -- append --------------------------------------------------------

    def append(self, record_type: str, body: dict) -> dict:
        """Durably append one record; returns the written record.

        The record is written, flushed, and fsynced before this
        returns.  Transient faults (including torn writes injected at
        the ``studies.ledger_append`` fault point) are retried with
        deterministic backoff; each retry first truncates the file
        back to the last valid end, so a torn tail never survives a
        successful append.

        Raises:
            LedgerError: when every attempt failed, or on an unknown
                record type.
        """
        if record_type not in LEDGER_RECORD_TYPES:
            raise LedgerError(
                f"unknown ledger record type {record_type!r}"
            )
        if self._valid_end is None or self._next_seq is None:
            self.replay()
        record = serde.tag(
            "study-ledger-record",
            {
                "seq": self._next_seq,
                "type": record_type,
                "body": dict(body),
            },
        )
        record["checksum"] = payload_checksum(record)
        line = json.dumps(record, sort_keys=True) + "\n"
        attempts = self._retry.delays_s() + (None,)
        anchor = self._valid_end
        for delay_s in attempts:
            try:
                # A failed attempt may have torn this record half-way
                # onto disk; roll the valid end back so the retry
                # truncates the fragment before rewriting.
                self._valid_end = anchor
                self._append_line(line)
            except (OSError, TransientHarnessError) as exc:
                if delay_s is None:
                    raise LedgerError(
                        f"ledger append failed after"
                        f" {len(attempts)} attempts: {exc}"
                    ) from exc
                self._sleep(delay_s)
                continue
            break
        self._next_seq += 1
        obs.inc("repro_study_ledger_appends_total")
        return record

    def _append_line(self, line: str) -> None:
        """One durable append attempt (truncate-heal, write, fsync)."""
        payload = line.encode("utf-8")
        start = self._valid_end
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "r+b" if self.path.exists() else "wb"
        with open(self.path, mode) as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size > start:
                # Heal the torn tail of a previous failed attempt.
                handle.seek(start)
                handle.truncate()
            start = min(size, start)
            if start > 0:
                # A crash can leave a valid record without its
                # trailing newline; never glue two records together.
                handle.seek(start - 1)
                if handle.read(1) != b"\n":
                    payload = b"\n" + payload
            handle.seek(start)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(self.path.parent)
        self._valid_end = start + len(payload)
        # The chaos window: everything after the durable write, so a
        # kill here proves the record survives and a torn write here
        # proves the retry heals the tail.
        fault_point(
            "studies.ledger_append",
            path=str(self.path),
            tmp=str(self.path),
            text=line,
            offset=start,
        )

    # -- guards --------------------------------------------------------

    def require_spec_digest(self, digest: str) -> LedgerState:
        """Replay and refuse to resume under a different spec.

        Raises:
            LedgerError: when the ledger was started by a study with
                a different digest.
        """
        state = self.replay()
        if state.started is not None:
            recorded = state.started.get("digest", "")
            if recorded != digest:
                raise LedgerError(
                    f"ledger {self.path} belongs to study digest"
                    f" {recorded[:12]}..., not {digest[:12]}...;"
                    " refusing to resume"
                )
        return state
