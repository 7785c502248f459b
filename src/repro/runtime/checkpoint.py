"""Deterministic campaign/fleet checkpoints (JSON snapshots).

A checkpoint captures *everything* a supervised run needs to continue
in a fresh process and still produce a byte-identical result:

* for beam campaigns — the seed, the ``SeedSequence`` spawn position,
  the exposures completed so far, and the cursor into the plan;
* for fleet simulations — the generator's bit-level state, the
  weather chain state, and the days simulated so far.

A digest of the plan is stored so a checkpoint can refuse to resume a
*different* run (:class:`~repro.runtime.errors.CheckpointMismatchError`).

Durability (format v3):

* writes follow the crash model of :mod:`repro.durable`, so a crash
  at any instant leaves either the previous checkpoint or the new one
  — never a torn file (a stale ``*.tmp`` leftover is swept by
  :func:`cleanup_stale_tmp` on runner startup);
* every payload carries a SHA-256 ``checksum`` over its canonical
  JSON, so a checkpoint that was silently altered on disk while
  remaining valid JSON raises :class:`CheckpointError` instead of
  resuming from wrong state.  A checkpoint is the run's authority,
  not an accelerator, so a bad one is never quarantined.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.beam.results import CampaignResult, ExposureResult
from repro.chaos.faultpoints import fault_point
from repro.durable import atomic_write, payload_checksum, tmp_path
from repro.obs import core as obs
from repro.runtime.errors import CheckpointError, CheckpointMismatchError

#: Format version written into, and the only one read from, every
#: checkpoint file.
CHECKPOINT_VERSION = 3


def plan_digest(plan_dicts: List[dict]) -> str:
    """Stable SHA-256 digest of a serialized plan."""
    canonical = json.dumps(plan_dicts, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verify_checksum(data: dict, path: Union[str, Path]) -> None:
    """Validate the stored payload checksum of a loaded checkpoint.

    Raises:
        CheckpointError: when the checkpoint is missing its checksum
            or the stored value does not match the payload (the file
            was altered at rest).
    """
    stored = data.get("checksum")
    if stored is None:
        raise CheckpointError(
            f"checkpoint {path} has no payload checksum"
        )
    expected = payload_checksum(data)
    if stored != expected:
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification"
            f" (stored {str(stored)[:12]}…, payload"
            f" {expected[:12]}…): file corrupted at rest"
        )


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


def _write_json(path: Path, payload: dict) -> None:
    """Durably and atomically write ``payload`` as JSON.

    Traced as the ``checkpoint.write`` span; the span carries no path
    attribute so traces stay byte-identical across working
    directories.

    Raises:
        CheckpointError: when the write fails; the previous
            checkpoint (or no file) is left in place.
    """
    with obs.span("checkpoint.write"):
        obs.inc("repro_checkpoint_writes_total")
        text = json.dumps(payload, indent=2, sort_keys=True)
        try:
            atomic_write(path, text, "checkpoint.write")
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc


def _read_json(path: Path) -> dict:
    """Read and parse a checkpoint file.

    Traced as the ``checkpoint.load`` span (path-free, like the write
    span, so traces stay location-independent).
    """
    with obs.span("checkpoint.load"):
        obs.inc("repro_checkpoint_loads_total")
        fault_point("checkpoint.load", path=str(path))
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint {path} has no top-level object"
            )
        return data


def _check_version(data: dict, path: Union[str, Path]) -> None:
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path};"
            f" supported: {CHECKPOINT_VERSION}"
        )


@dataclass
class CampaignCheckpoint:
    """Snapshot of a supervised beam campaign.

    Attributes:
        seed: campaign seed.
        digest: digest of the serialized plan being executed.
        next_step: index of the first step not yet completed.
        spawn_position: ``SeedSequence`` children spawned so far.
        events_used: simulated strikes consumed from the event budget.
        exposures: completed exposures (dict form).
        events: harness events recorded so far (dict form).
    """

    seed: int
    digest: str
    next_step: int = 0
    spawn_position: int = 0
    events_used: int = 0
    exposures: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready, checksum included)."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "campaign",
            "seed": self.seed,
            "digest": self.digest,
            "next_step": self.next_step,
            "spawn_position": self.spawn_position,
            "events_used": self.events_used,
            "exposures": list(self.exposures),
            "events": list(self.events),
        }
        payload["checksum"] = payload_checksum(payload)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCheckpoint":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            CheckpointError: on a missing/unsupported version or a
                non-campaign snapshot.
        """
        _check_version(data, "<dict>")
        if data.get("kind") != "campaign":
            raise CheckpointError(
                f"not a campaign checkpoint: kind={data.get('kind')!r}"
            )
        return cls(
            seed=int(data["seed"]),
            digest=str(data["digest"]),
            next_step=int(data["next_step"]),
            spawn_position=int(data["spawn_position"]),
            events_used=int(data.get("events_used", 0)),
            exposures=list(data.get("exposures", [])),
            events=list(data.get("events", [])),
        )

    def restore_result(self) -> CampaignResult:
        """Rebuild the partial :class:`CampaignResult`."""
        result = CampaignResult()
        for raw in self.exposures:
            result.add(ExposureResult.from_dict(raw))
        return result

    def require_digest(self, digest: str) -> None:
        """Refuse to resume a different plan.

        Raises:
            CheckpointMismatchError: when the plan digests differ.
        """
        if digest != self.digest:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different plan"
                f" (stored digest {self.digest[:12]}…, current"
                f" {digest[:12]}…); start a fresh run or pass the"
                " original plan"
            )

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot as JSON (atomic rename)."""
        _write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignCheckpoint":
        """Read a snapshot back from JSON.

        Raises:
            CheckpointError: on unreadable/invalid files, an
                unsupported version, or a checksum mismatch.
        """
        data = _read_json(Path(path))
        _check_version(data, path)
        verify_checksum(data, path)
        return cls.from_dict(data)


@dataclass
class FleetCheckpoint:
    """Snapshot of a supervised fleet-year simulation.

    Attributes:
        seed: simulator seed (provenance only).
        digest: digest of the fleet configuration.
        next_day: first day not yet simulated.
        rng_state: the generator's ``bit_generator.state`` dict.
        raining: weather-chain state entering ``next_day``.
        days: simulated days (dict form).
        events: harness events recorded so far (dict form).
    """

    seed: int
    digest: str
    next_day: int = 0
    rng_state: Dict = field(default_factory=dict)
    raining: bool = False
    days: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready, checksum included)."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "fleet",
            "seed": self.seed,
            "digest": self.digest,
            "next_day": self.next_day,
            "rng_state": self.rng_state,
            "raining": self.raining,
            "days": list(self.days),
            "events": list(self.events),
        }
        payload["checksum"] = payload_checksum(payload)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "FleetCheckpoint":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            CheckpointError: on a missing/unsupported version or a
                non-fleet snapshot.
        """
        _check_version(data, "<dict>")
        if data.get("kind") != "fleet":
            raise CheckpointError(
                f"not a fleet checkpoint: kind={data.get('kind')!r}"
            )
        return cls(
            seed=int(data["seed"]),
            digest=str(data["digest"]),
            next_day=int(data["next_day"]),
            rng_state=dict(data["rng_state"]),
            raining=bool(data["raining"]),
            days=list(data.get("days", [])),
            events=list(data.get("events", [])),
        )

    def require_digest(self, digest: str) -> None:
        """Refuse to resume a different fleet configuration.

        Raises:
            CheckpointMismatchError: when the digests differ.
        """
        if digest != self.digest:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different fleet"
                f" configuration (stored digest {self.digest[:12]}…,"
                f" current {digest[:12]}…)"
            )

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot as JSON (atomic rename)."""
        _write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FleetCheckpoint":
        """Read a snapshot back from JSON.

        Raises:
            CheckpointError: on unreadable/invalid files, an
                unsupported version, or a checksum mismatch.
        """
        data = _read_json(Path(path))
        _check_version(data, path)
        verify_checksum(data, path)
        return cls.from_dict(data)


__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignCheckpoint",
    "FleetCheckpoint",
    "cleanup_stale_tmp",
    "plan_digest",
]
