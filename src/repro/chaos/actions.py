"""Failure actions a chaos controller can fire at a fault point.

Each action reproduces one way real campaign infrastructure dies:

* ``raise-transient`` — the beam-room power blip: a
  :class:`~repro.runtime.errors.TransientHarnessError` the supervised
  runtime must retry with backoff.
* ``crash`` — a persistent harness bug: a plain exception (outside
  the ``ReproError`` hierarchy on purpose) the runtime must isolate.
* ``kill-process`` / ``kill-worker`` — the host reboot / OOM kill:
  ``SIGKILL`` to the current process, no cleanup, no excuses.
* ``delay`` — a hung device or stalled filesystem: the injected
  clock jumps past the wall-clock budget.
* ``torn-write`` — power loss mid-write: half the checkpoint bytes
  land in the temp file, then a transient fault.
* ``truncate`` / ``corrupt`` — storage rot: the file on disk is cut
  in half, or its payload is silently altered while remaining valid
  JSON and passing every check but its checksum.
* ``duplicate`` — at-least-once delivery: a checkpoint write, a
  checkpoint read, or a study-ledger append happens twice; the
  consumer must be idempotent.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path

from repro.runtime.errors import TransientHarnessError

#: Action name constants (JSON-stable, used in CLI verdict matrices).
RAISE_TRANSIENT = "raise-transient"
CRASH = "crash"
KILL_PROCESS = "kill-process"
KILL_WORKER = "kill-worker"
DELAY = "delay"
TORN_WRITE = "torn-write"
TRUNCATE = "truncate"
CORRUPT = "corrupt"
DUPLICATE = "duplicate"

#: Every action, in documentation order.
ALL_ACTIONS = (
    RAISE_TRANSIENT,
    CRASH,
    KILL_PROCESS,
    KILL_WORKER,
    DELAY,
    TORN_WRITE,
    TRUNCATE,
    CORRUPT,
    DUPLICATE,
)

#: Payload fields whose value the ``corrupt`` action bumps (whichever
#: exists first) — each changes what a resume or a served answer
#: means, and nothing but the checksum checks it, so a reader
#: without checksum verification resumes silently wrong.  A
#: checkpoint's ``cursor`` is the next unit its run resumes at.  A
#: ledger record is bumped in its ``body`` (the ``study-started``
#: record's ``n_shards``, from which the study service reports a
#: job's pending shards): its ``seq`` would trip the sequence check
#: first.
_CORRUPTIBLE_FIELDS = (
    "cursor",
    "n_points",
    "n_shards",
)


class ChaosCrashError(Exception):
    """An injected persistent harness crash.

    Deliberately **not** a ``ReproError``: the supervised runtime
    retries only transient faults, so this must travel the isolation
    path, exactly like an unexpected bug would.
    """


def perform(action: str, context: dict, controller) -> None:
    """Execute ``action`` with the fault point's ``context``.

    Args:
        action: one of :data:`ALL_ACTIONS`.
        context: the keyword arguments of the ``fault_point`` call.
        controller: the firing controller (supplies the injected
            clock and the configured delay for ``delay``).

    Raises:
        TransientHarnessError: for ``raise-transient`` and
            ``torn-write`` (after tearing the temp file).
        ChaosCrashError: for ``crash``.
        ValueError: for an unknown action name.
    """
    if action == RAISE_TRANSIENT:
        raise TransientHarnessError("chaos: injected transient fault")
    if action == CRASH:
        raise ChaosCrashError("chaos: injected harness crash")
    if action in (KILL_PROCESS, KILL_WORKER):
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover — unreachable
    if action == DELAY:
        controller.advance_clock()
        return
    if action == TORN_WRITE:
        _torn_write(context)
        raise TransientHarnessError("chaos: torn checkpoint write")
    if action == TRUNCATE:
        _truncate(Path(context["path"]))
        return
    if action == CORRUPT:
        _corrupt(context)
        return
    if action == DUPLICATE:
        _duplicate(context)
        return
    raise ValueError(f"unknown chaos action {action!r}")


def _torn_write(context: dict) -> None:
    """Write only the first half of the payload to the temp file.

    With an ``offset`` in the context (the study ledger, which
    appends in place rather than tmp-then-rename), the tear keeps
    every byte before the offset intact and leaves half the new
    record dangling — exactly what power loss mid-append produces.
    """
    tmp = Path(context["tmp"])
    text = str(context["text"])
    half = text[: len(text) // 2]
    if "offset" in context:
        offset = int(context["offset"])
        with open(tmp, "r+b") as handle:
            handle.truncate(offset)
            handle.seek(offset)
            handle.write(half.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        return
    tmp.write_text(half)


def _truncate(path: Path) -> None:
    """Cut the checkpoint file in half (storage-level truncation)."""
    data = path.read_text()
    path.write_text(data[: len(data) // 2])


def _corrupt(context: dict) -> None:
    """Alter the payload while keeping the file parseable.

    The stored checksum is left untouched, so a checksum-verifying
    reader refuses the file while a naive reader resumes from
    silently wrong state — the invariant the chaos suite exists to
    catch.  The study ledger (its context carries an ``offset``; it
    is JSON lines, even while it holds one record) gets its first
    record's body altered in place; a whole-file JSON document (a
    checkpoint, a surrogate artifact) is rewritten.
    """
    path = Path(context["path"])
    if "offset" in context:
        lines = path.read_text().split("\n")
        record = json.loads(lines[0])
        _bump(record["body"])
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines))
        return
    data = _bump(json.loads(path.read_text()))
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _bump(data: dict) -> dict:
    """Increment the first corruptible field present (in place)."""
    for field in _CORRUPTIBLE_FIELDS:
        if field in data:
            data[field] = int(data[field]) + 1
            break
    return data


def _duplicate(context: dict) -> None:
    """Deliver the site's payload a second time.

    * ``studies.ledger_append`` passes an ``offset`` (it appends in
      place): append the durable line ``text`` to ``path`` a second
      time, fsynced.  It passes ``tmp`` too, so this case is checked
      first.
    * ``checkpoint.write`` passes ``tmp``/``path``/``text``: perform
      one full extra write before the real one.
    * ``checkpoint.load`` passes ``path``: read the file an extra
      time and discard the result.
    """
    if "offset" in context:
        with open(context["path"], "ab") as handle:
            handle.write(str(context["text"]).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        return
    if "text" in context:
        tmp = Path(context["tmp"])
        tmp.write_text(str(context["text"]))
        os.replace(tmp, Path(context["path"]))
        return
    if "path" in context:
        json.loads(Path(context["path"]).read_text())


__all__ = [
    "ALL_ACTIONS",
    "ChaosCrashError",
    "DELAY",
    "DUPLICATE",
    "KILL_PROCESS",
    "KILL_WORKER",
    "RAISE_TRANSIENT",
    "TORN_WRITE",
    "perform",
]
