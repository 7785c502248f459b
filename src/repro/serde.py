"""Unified result serialization: schema tags and version checks.

Every result record the harness persists — exposures, transport
tallies, chaos verdicts, logbooks, study and service records — carries
the same two tags:

* :func:`tag` stamps a payload with ``"schema"`` (the record kind) and
  ``"schema_version"`` (the kind's current format version from
  :data:`SCHEMA_VERSIONS`).
* :func:`check` validates an incoming payload: both tags present, the
  expected kind, and the kind's current version.

A failed check raises :class:`SchemaError`, a ``ValueError``
subclass, so callers that reject bad input as ``ValueError`` catch it
too.
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_KEY",
    "SCHEMA_VERSIONS",
    "SchemaError",
    "VERSION_KEY",
    "check",
    "tag",
]

#: Payload key naming the record kind.
SCHEMA_KEY = "schema"

#: Payload key carrying the record's format version.
VERSION_KEY = "schema_version"

#: Current format version per record kind; loaders read this version
#: only.  Bump a kind's entry when its payload shape changes.
SCHEMA_VERSIONS = {
    # One beam exposure: outcome counts, fluence and the robustness
    # fields (isolated crashes, degraded fidelity).
    "exposure": 2,
    # A TransportResult from a Monte Carlo engine (counts per
    # channel).  Version 2: no count of retried batch shards.
    "transport": 2,
    # The chaos harness's verdict matrix.
    "chaos-report": 2,
    # A campaign logbook: exposures plus their provenance.
    "logbook": 3,
    # The service response envelope with its accuracy-aware
    # "provenance" block (engine used, error bound, artifact digest).
    "service-response": 2,
    # Durable on-disk result-cache entries (carry their own SHA-256
    # payload checksum).  Version 2: deterministic answers from the
    # layer-wise response build, which differ from version 1's in
    # their last bits.  Version 3: Monte Carlo answers carry a
    # version 2 ``transport`` block.
    "service-cache-entry": 3,
    # A TransportResult from the deterministic engine (noise-free
    # fractions per source neutron).
    "deterministic-transport": 1,
    # Group-collapsed cross-section tables (the golden-test payload
    # for the condensation step).
    "collapsed-material": 1,
    # Declarative sharded-study specifications.
    "study-spec": 1,
    # One write-ahead-ledger record (carries its own SHA-256 payload
    # checksum and sequence number).
    "study-ledger-record": 1,
    # Durable content-addressed shard results.
    "study-shard-result": 1,
    # The merged study report.
    "study-report": 1,
    # Certified surrogate response-surface bundles (carry their own
    # SHA-256 payload checksum).
    "surrogate-artifact": 1,
    # A TransportResult served from a surrogate surface (fractions
    # plus certified per-channel bounds).
    "surrogate-transport": 1,
    # A supervised run's checkpoint: cursor, runner state, finished
    # units and harness events, addressed by the runner's digest
    # (carries its own SHA-256 payload checksum).
    "checkpoint": 1,
}


class SchemaError(ValueError):
    """A payload declares a kind or version the decoder cannot read."""


def tag(kind: str, body: dict) -> dict:
    """Stamp ``body`` with the schema kind and current version.

    Args:
        kind: record kind; must appear in :data:`SCHEMA_VERSIONS`.
        body: the payload fields (not mutated; a new dict returns).

    Raises:
        SchemaError: on an undeclared kind, or if ``body`` already
            carries conflicting schema keys.
    """
    current = _current_version(kind)
    for key in (SCHEMA_KEY, VERSION_KEY):
        if key in body:
            raise SchemaError(
                f"payload already carries {key!r}; refusing to"
                " double-tag"
            )
    tagged = dict(body)
    tagged[SCHEMA_KEY] = kind
    tagged[VERSION_KEY] = current
    return tagged


def check(kind: str, data: dict) -> int:
    """Validate a payload's schema tags; return its version.

    Args:
        kind: expected record kind.
        data: the payload to inspect.

    Returns:
        The kind's current version, the only one a payload may
        declare.

    Raises:
        SchemaError: a missing tag, a wrong kind, or a version other
            than the kind's current one.
    """
    current = _current_version(kind)
    declared_kind = data.get(SCHEMA_KEY)
    version = data.get(VERSION_KEY)
    if declared_kind is None or version is None:
        raise SchemaError(
            f"untagged {kind} payload: {SCHEMA_KEY!r} and"
            f" {VERSION_KEY!r} are required"
        )
    if declared_kind != kind:
        raise SchemaError(
            f"expected a {kind!r} payload, got {declared_kind!r}"
        )
    if version != current:
        raise SchemaError(
            f"unsupported {kind} version {version!r};"
            f" expected {current}"
        )
    return current


def _current_version(kind: str) -> int:
    """The kind's current version, or a :class:`SchemaError`."""
    try:
        return SCHEMA_VERSIONS[kind]
    except KeyError:
        raise SchemaError(
            f"unknown schema kind {kind!r};"
            f" declared: {sorted(SCHEMA_VERSIONS)}"
        ) from None
