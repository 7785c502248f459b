"""Content-addressed surrogate artifact store.

Artifacts live as ``<root>/<digest>.json`` where ``digest`` is the
payload's SHA-256 checksum — the filename *is* the content address,
so a partially-written or tampered file is detectable without any
sidecar metadata.  Saving and loading follow the crash model of
:mod:`repro.durable`: artifacts are published atomically, and one
that fails verification is quarantined and skipped, never served.
The ``surrogate.artifact_load`` chaos fault point sits directly on
the load path so the matrix can prove corrupt artifacts degrade to a
live engine instead of poisoning answers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import serde
from repro.chaos.faultpoints import fault_point
from repro.durable import atomic_write, payload_checksum, read_verified
from repro.obs import core as obs
from repro.runtime.errors import TransientHarnessError
from repro.transport.surrogate.surface import ResponseSurface

__all__ = ["SurrogateStore"]


class SurrogateStore:
    """Load/save checksummed surrogate artifacts under one root.

    Loading is lazy and cached: the first lookup scans the root,
    validates every artifact, and indexes its surfaces by
    ``(mode, material, source)``; later lookups are dict hits.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._loaded = False
        # (mode, material, source) -> list of (surface, digest);
        # later artifacts may widen coverage of the same family.
        self._surfaces: Dict[
            Tuple[str, str, str], List[Tuple[ResponseSurface, str]]
        ] = {}
        self._digests: List[str] = []

    # -- persistence ---------------------------------------------------

    def save(self, artifact: dict) -> Path:
        """Persist an artifact at its content address.

        Returns:
            Path of the written ``<digest>.json``.
        """
        serde.check("surrogate-artifact", artifact)
        digest = payload_checksum(artifact)
        if artifact.get("checksum") != digest:
            raise ValueError(
                "artifact checksum does not match its body"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{digest}.json"
        atomic_write(path, json.dumps(artifact, sort_keys=True))
        # Invalidate the cache so the next lookup sees the new file.
        self._loaded = False
        self._surfaces.clear()
        self._digests.clear()
        return path

    # -- loading -------------------------------------------------------

    def _load_file(self, path: Path) -> Optional[dict]:
        """Verify one artifact file; quarantine it on any defect.

        An artifact's address is its checksum: it must be filed as
        ``<checksum>.json``.
        """
        fault_point("surrogate.artifact_load", path=str(path))
        artifact, defect = read_verified(
            path, "surrogate-artifact", "checksum", path.stem
        )
        if defect:
            obs.inc("repro_surrogate_quarantined_total", reason=defect)
            obs.event(
                "surrogate.artifact_quarantined",
                path=str(path),
                reason=defect,
            )
        return artifact

    def _load_all(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            try:
                artifact = self._load_file(path)
            except TransientHarnessError:
                # Injected transient: skip this artifact for now
                # (miss, not quarantine) — a fresh store retries.
                continue
            if artifact is None:
                continue
            digest = str(artifact["checksum"])
            self._digests.append(digest)
            for data in artifact["surfaces"]:
                try:
                    surface = ResponseSurface.from_dict(data)
                except (KeyError, TypeError, ValueError):
                    continue
                key = (surface.mode, surface.material, surface.source)
                self._surfaces.setdefault(key, []).append(
                    (surface, digest)
                )

    # -- queries -------------------------------------------------------

    def digests(self) -> List[str]:
        """Digests of every valid artifact under the root."""
        self._load_all()
        return list(self._digests)

    def surfaces(self) -> List[Tuple[ResponseSurface, str]]:
        """Every loaded ``(surface, digest)`` pair, family-sorted."""
        self._load_all()
        pairs: List[Tuple[ResponseSurface, str]] = []
        for key in sorted(self._surfaces):
            pairs.extend(self._surfaces[key])
        return pairs

    def lookup(
        self,
        mode: str,
        material: str,
        source: str,
        thickness_cm: float,
    ) -> Optional[Tuple[ResponseSurface, str]]:
        """The first certified surface covering a query, or None.

        Returns:
            ``(surface, artifact_digest)`` when some loaded surface
            of the (mode, material, source) family has the thickness
            inside its envelope.
        """
        self._load_all()
        for surface, digest in self._surfaces.get(
            (mode, material, source), ()
        ):
            if surface.in_envelope(thickness_cm):
                return surface, digest
        return None
