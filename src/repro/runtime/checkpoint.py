"""Checkpoints: one record for every supervised run.

A checkpoint captures *everything* a supervised run needs to continue
in a fresh process and still produce a byte-identical result: the
cursor (the next unit of work to run), the runner's own state (the
``SeedSequence`` spawn position and strikes used for a beam campaign,
the generator's bit-level state and the weather for a fleet year),
the finished units' records and the harness events so far.

A checkpoint is a durable record like any other (see
:mod:`repro.durable`):

* it is tagged as the ``checkpoint`` serde kind and carries a SHA-256
  ``checksum`` over its canonical JSON;
* its address is the runner's digest, which covers the runner kind,
  the plan or fleet configuration and the seed, so one address check
  refuses another run's checkpoint
  (:class:`~repro.runtime.errors.CheckpointMismatchError`);
* it is written with :func:`repro.durable.atomic_write`, so a crash
  at any instant leaves the previous checkpoint or the new one, never
  a torn file (a stale ``*.tmp`` leftover is swept by
  :func:`cleanup_stale_tmp` on runner startup).

A load runs the shared :func:`repro.durable.record_defect` check.  A
checkpoint is its run's authority, not an accelerator, so a record
that fails it raises :class:`CheckpointError` naming the defect and
stays where it is; nothing is quarantined.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Union

from repro import serde
from repro.chaos.faultpoints import fault_point
from repro.durable import (
    atomic_write,
    payload_checksum,
    record_defect,
    tmp_path,
)
from repro.obs import core as obs
from repro.runtime.errors import CheckpointError, CheckpointMismatchError

#: The serde kind every checkpoint is tagged and checked as.
KIND = "checkpoint"


def plan_digest(plan_dicts: List[dict]) -> str:
    """Stable SHA-256 digest of a serialized plan."""
    canonical = json.dumps(plan_dicts, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cleanup_stale_tmp(path: Union[str, Path]) -> bool:
    """Remove a leftover ``<path>.tmp`` from an interrupted write.

    A crash between the tmp write and the rename leaks the tmp file;
    runners call this on startup so the leak is bounded to one write.

    Returns:
        True when a stale tmp file was found and removed.
    """
    try:
        tmp_path(Path(path)).unlink()
    except OSError:
        # No tmp, or an unremovable one: never blocks startup.
        return False
    return True


@dataclass
class Checkpoint:
    """One supervised run's resume point.

    Attributes:
        digest: the run's address (runner kind, configuration, seed).
        cursor: index of the next unit of work to run.
        state: what the runner saves and restores besides its
            finished units.
        done: the finished units' records (dict form), in order.
        events: harness events recorded so far (dict form).
    """

    digest: str
    cursor: int
    state: dict
    done: List[dict]
    events: List[dict]

    def save(self, path: Path) -> None:
        """Durably and atomically write the record as JSON.

        Traced as the ``checkpoint.write`` span; the span carries no
        path attribute so traces stay byte-identical across working
        directories.

        Raises:
            CheckpointError: when the write fails; the previous
                checkpoint (or no file) is left in place.
        """
        record = serde.tag(KIND, asdict(self))
        record["checksum"] = payload_checksum(record)
        with obs.span("checkpoint.write"):
            obs.inc("repro_checkpoint_writes_total")
            text = json.dumps(record, indent=2, sort_keys=True)
            try:
                atomic_write(path, text, "checkpoint.write")
            except OSError as exc:
                raise CheckpointError(
                    f"cannot write checkpoint {path}: {exc}"
                ) from exc

    @classmethod
    def load(cls, path: Path, digest: str) -> "Checkpoint":
        """Read back the checkpoint ``digest`` names.

        Traced as the ``checkpoint.load`` span (path-free, like the
        write span, so traces stay location-independent).

        Raises:
            CheckpointMismatchError: when the file is another run's
                checkpoint.
            CheckpointError: when the file cannot be read or parsed,
                or fails its schema or checksum check.
        """
        with obs.span("checkpoint.load"):
            obs.inc("repro_checkpoint_loads_total")
            fault_point("checkpoint.load", path=str(path))
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise CheckpointError(
                    f"cannot read checkpoint {path}: {exc}"
                ) from exc
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint {path} is not valid JSON: {exc}"
                ) from exc
            defect = record_defect(record, KIND, "digest", digest)
            if defect == "address":
                stored = str(record.get("digest"))
                raise CheckpointMismatchError(
                    f"checkpoint {path} failed its address check: it"
                    f" belongs to a different run (stored digest"
                    f" {stored[:12]}…, current {digest[:12]}…); start a"
                    " fresh run or pass the original plan and seed"
                )
            if defect == "schema":
                raise CheckpointError(
                    f"checkpoint {path} failed its schema check: not a"
                    f" {KIND} record at version"
                    f" {serde.SCHEMA_VERSIONS[KIND]} (an older"
                    " checkpoint format is not read)"
                )
            if defect:
                raise CheckpointError(
                    f"checkpoint {path} failed its {defect} check:"
                    " file corrupted at rest"
                )
            return cls(
                digest=record["digest"],
                cursor=record["cursor"],
                state=record["state"],
                done=record["done"],
                events=record["events"],
            )


__all__ = [
    "Checkpoint",
    "cleanup_stale_tmp",
    "plan_digest",
]
