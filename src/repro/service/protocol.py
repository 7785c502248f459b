"""Wire protocol of the FIT query service.

One request per line, one response per line, both JSON objects — the
shape a batch scheduler or a curl-equipped operator can speak without
a client library.  A request is::

    {"id": "q1", "kind": "fit",
     "params": {"device": "K20", "site": "leadville", "room": true},
     "tenant": "ci", "timeout_ms": 5000}

``kind`` selects the computation (:data:`QUERY_KINDS`); ``params``
are validated *here*, at the protocol boundary, so a malformed query
becomes a structured ``bad-request`` error payload instead of an
exception deep inside a worker.  Responses are tagged with the
``service-response`` schema (:mod:`repro.serde`) and carry either an
``ok`` result envelope (with ``cached``/``degraded`` flags) or an
``error`` object whose ``code`` is one of :data:`ERROR_CODES`.

A parsed :class:`Query` canonicalizes to a plan dict whose
:func:`~repro.runtime.checkpoint.plan_digest` — combined with the
seed — is the service's content-addressed cache key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro import serde
from repro.devices import DEVICES
from repro.environment import (
    ISIS,
    LEADVILLE,
    LOS_ALAMOS,
    NEW_YORK,
    Site,
)
from repro.runtime.checkpoint import plan_digest
from repro.runtime.errors import ReproError
from repro.transport.api import ENGINE_POLICIES
from repro.transport.materials import (
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    WATER,
    Material,
)

__all__ = [
    "ERROR_CODES",
    "MAX_N_NEUTRONS",
    "PROTOCOL_VERSIONS",
    "QUERY_KINDS",
    "STUDY_KINDS",
    "Query",
    "Request",
    "SERVICE_SITES",
    "SHIELDS",
    "ServiceError",
    "decode_request",
    "encode_response",
    "error_body",
    "ok_body",
    "parse_request",
]

#: Computations the service answers, by request ``kind``.
QUERY_KINDS = ("fit", "cross-section", "flux", "transmission")

#: Study control-plane verbs, answered by the study gateway rather
#: than the query path (see :mod:`repro.studies.service`).
STUDY_KINDS = ("study-submit", "study-status", "study-cancel")

#: Structured error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "bad-request",
    "unknown-plan",
    "overloaded",
    "budget-exhausted",
    "deadline",
    "internal",
    "shutting-down",
)

#: Named deployment sites a query may reference; the CLI's ``--site``
#: choices read this table too.
SERVICE_SITES: Dict[str, Site] = {
    "nyc": NEW_YORK,
    "leadville": LEADVILLE,
    "lanl": LOS_ALAMOS,
    "isis": ISIS,
}

#: Shield materials a transmission query may name, with the default
#: thickness used when the query omits ``thickness_cm``.
SHIELDS: Dict[str, Tuple[Material, float]] = {
    "cadmium": (CADMIUM, 0.1),
    "borated-poly": (BORATED_POLYETHYLENE, 5.0),
    "water": (WATER, 10.0),
    "concrete": (CONCRETE, 30.0),
}

#: Per-query Monte Carlo history cap (admission control for the one
#: parameter that directly buys CPU time).
MAX_N_NEUTRONS = 200_000

#: Wire protocol versions this server accepts.  v1 requests carry no
#: ``accuracy`` field (defaults apply); v2 adds ``accuracy`` on
#: requests and ``provenance`` on responses.
PROTOCOL_VERSIONS = (1, 2)


class ServiceError(ReproError):
    """A structured service failure with a wire-visible error code.

    Args:
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail for the error payload.
        request_id: the offending request's ``id`` when it could be
            extracted (echoed back so clients can correlate).
    """

    def __init__(
        self, code: str, message: str, request_id: str = ""
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(
                f"unknown service error code {code!r};"
                f" valid: {ERROR_CODES}"
            )
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id

    def to_payload(self) -> dict:
        """The response's ``error`` object."""
        return {"code": self.code, "message": self.message}


@dataclass(frozen=True)
class Query:
    """One validated, canonical FIT-service computation.

    Fields irrelevant to a query's kind are pinned to their defaults
    by :meth:`from_params`, so equal computations always canonicalize
    to equal dicts — the property the coalescer and the cache key
    both rely on.

    Attributes:
        kind: one of :data:`QUERY_KINDS`.
        device: device catalog name (fit / cross-section).
        code: optional workload restriction (fit / cross-section).
        site: named site (fit / flux).
        room: machine-room scenario instead of outdoor.
        rain: thunderstorm weather.
        air_cooled: machine room without liquid cooling.
        shield: :data:`SHIELDS` name (transmission).
        thickness_cm: shield thickness (transmission).
        n_neutrons: Monte Carlo histories (transmission).
        seed: RNG seed (transmission; part of the cache key).
        engine: requested transport engine policy (transmission).
        rel_err: accuracy target — max relative error on the
            headline value (transmission; gates surrogate serving).
        confidence: accuracy target — min coverage of the error
            bound (transmission).
    """

    kind: str
    device: str = ""
    code: str = ""
    site: str = "nyc"
    room: bool = False
    rain: bool = False
    air_cooled: bool = False
    shield: str = "cadmium"
    thickness_cm: float = 0.0
    n_neutrons: int = 0
    seed: int = 2020
    engine: str = "batch"
    rel_err: float = 0.05
    confidence: float = 0.95

    @classmethod
    def from_params(cls, kind: str, params: dict) -> "Query":
        """Validate raw request params into a canonical query.

        Raises:
            ServiceError: (code ``bad-request``) for an unknown kind,
                unknown parameter names, or out-of-range values.
        """
        if kind not in QUERY_KINDS:
            raise ServiceError(
                "bad-request",
                f"unknown query kind {kind!r};"
                f" valid: {QUERY_KINDS}",
            )
        if not isinstance(params, dict):
            raise ServiceError(
                "bad-request", "params must be a JSON object"
            )
        allowed = _ALLOWED_PARAMS[kind]
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ServiceError(
                "bad-request",
                f"unknown parameter(s) {unknown} for kind"
                f" {kind!r}; allowed: {sorted(allowed)}",
            )
        builder = {
            "fit": cls._fit_params,
            "cross-section": cls._fit_params,
            "flux": cls._flux_params,
            "transmission": cls._transmission_params,
        }[kind]
        return cls(kind=kind, **builder(params))

    # -- per-kind validators -------------------------------------------

    @staticmethod
    def _fit_params(params: dict) -> dict:
        device = params.get("device", "")
        if device not in DEVICES:
            raise ServiceError(
                "bad-request",
                f"unknown device {device!r};"
                f" valid: {sorted(DEVICES)}",
            )
        code = str(params.get("code", "") or "")
        if code and code not in DEVICES[device].supported_codes:
            raise ServiceError(
                "bad-request",
                f"device {device!r} does not support code {code!r}"
                f" (supported:"
                f" {DEVICES[device].supported_codes})",
            )
        out = Query._flux_params(params)
        out.update(device=str(device), code=code)
        return out

    @staticmethod
    def _flux_params(params: dict) -> dict:
        site = params.get("site", "nyc")
        if site not in SERVICE_SITES:
            raise ServiceError(
                "bad-request",
                f"unknown site {site!r};"
                f" valid: {sorted(SERVICE_SITES)}",
            )
        return {
            "site": str(site),
            "room": _flag(params, "room"),
            "rain": _flag(params, "rain"),
            "air_cooled": _flag(params, "air_cooled"),
        }

    @staticmethod
    def _transmission_params(params: dict) -> dict:
        shield = params.get("shield", "cadmium")
        if shield not in SHIELDS:
            raise ServiceError(
                "bad-request",
                f"unknown shield {shield!r};"
                f" valid: {sorted(SHIELDS)}",
            )
        default_cm = SHIELDS[shield][1]
        thickness_cm = _number(
            params, "thickness_cm", default_cm
        )
        if thickness_cm <= 0.0:
            raise ServiceError(
                "bad-request",
                f"thickness_cm must be positive, got {thickness_cm}",
            )
        n_neutrons = _integer(params, "n_neutrons", 4096)
        if not 1 <= n_neutrons <= MAX_N_NEUTRONS:
            raise ServiceError(
                "bad-request",
                f"n_neutrons must be in [1, {MAX_N_NEUTRONS}],"
                f" got {n_neutrons}",
            )
        # Any engine policy may be requested.  The deterministic
        # engine and the surrogate ignore n_neutrons/seed (their
        # answers are noise-free fractions), but the cap above still
        # applies to them.
        engine = params.get("engine", "batch")
        if engine not in ENGINE_POLICIES:
            raise ServiceError(
                "bad-request",
                f"unknown engine {engine!r}; valid: {ENGINE_POLICIES}",
            )
        return {
            "shield": str(shield),
            "thickness_cm": float(thickness_cm),
            "n_neutrons": n_neutrons,
            "seed": _integer(params, "seed", 2020),
            "engine": str(engine),
        }

    def with_accuracy(
        self, rel_err: float, confidence: float
    ) -> "Query":
        """A copy carrying an explicit accuracy target."""
        return replace(
            self, rel_err=rel_err, confidence=confidence
        )

    # -- canonical forms -----------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plan dict (JSON-ready, digest input)."""
        return {
            "kind": self.kind,
            "device": self.device,
            "code": self.code,
            "site": self.site,
            "room": self.room,
            "rain": self.rain,
            "air_cooled": self.air_cooled,
            "shield": self.shield,
            "thickness_cm": self.thickness_cm,
            "n_neutrons": self.n_neutrons,
            "seed": self.seed,
            "engine": self.engine,
            "rel_err": self.rel_err,
            "confidence": self.confidence,
        }

    def digest(self) -> str:
        """Plan digest over the seed-free canonical form."""
        body = self.to_dict()
        del body["seed"]
        return plan_digest([body])

    def cache_key(self) -> str:
        """Content address: SHA-256 over (plan digest, seed)."""
        token = f"{self.digest()}:{self.seed}"
        return hashlib.sha256(token.encode("utf-8")).hexdigest()


#: Parameter names each kind accepts (strict: anything else is a
#: ``bad-request``, so typos fail loudly instead of silently running
#: the default computation).
_ALLOWED_PARAMS: Dict[str, Tuple[str, ...]] = {
    "fit": ("device", "code", "site", "room", "rain", "air_cooled"),
    "cross-section": (
        "device", "code", "site", "room", "rain", "air_cooled",
    ),
    "flux": ("site", "room", "rain", "air_cooled"),
    "transmission": (
        "shield", "thickness_cm", "n_neutrons", "seed", "engine",
    ),
}


@dataclass(frozen=True)
class Request:
    """One parsed request envelope.

    Attributes:
        request_id: client-chosen correlation id, echoed in the
            response.
        tenant: admission-control tenant name.
        timeout_s: client deadline (``None`` = server default).
        query: the validated computation.
    """

    request_id: str
    tenant: str
    timeout_s: Optional[float]
    query: Query


def _parse_accuracy(
    data: dict, request_id: str
) -> Optional[Tuple[float, float]]:
    """Validate an optional top-level ``accuracy`` object.

    Returns:
        ``(rel_err, confidence)`` when present, else ``None``.
    """
    raw = data.get("accuracy")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ServiceError(
            "bad-request",
            f"accuracy must be a JSON object, got {raw!r}",
            request_id,
        )
    unknown = sorted(set(raw) - {"rel_err", "confidence"})
    if unknown:
        raise ServiceError(
            "bad-request",
            f"unknown accuracy field(s) {unknown};"
            " allowed: ['confidence', 'rel_err']",
            request_id,
        )
    rel_err = raw.get("rel_err", 0.05)
    confidence = raw.get("confidence", 0.95)
    for name, value in (
        ("rel_err", rel_err), ("confidence", confidence)
    ):
        if not _is_finite_number(value):
            raise ServiceError(
                "bad-request",
                f"accuracy.{name} must be a finite number,"
                f" got {value!r}",
                request_id,
            )
    if not 0.0 < float(rel_err) <= 1.0:
        raise ServiceError(
            "bad-request",
            f"accuracy.rel_err must be in (0, 1], got {rel_err}",
            request_id,
        )
    if not 0.0 < float(confidence) < 1.0:
        raise ServiceError(
            "bad-request",
            "accuracy.confidence must be in (0, 1),"
            f" got {confidence}",
            request_id,
        )
    return float(rel_err), float(confidence)


def decode_request(line: str) -> dict:
    """Decode one request line into its JSON object.

    The server decodes each line once and hands the object to either
    the study gateway or :func:`parse_request`.

    Raises:
        ServiceError: ``bad-request`` when the line is not JSON or
            not a JSON object.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(
            "bad-request", f"request is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ServiceError(
            "bad-request", "request must be a JSON object"
        )
    return data


def parse_request(data: dict, plans: Dict[str, dict]) -> Request:
    """Validate one decoded request object.

    Args:
        data: one request line as :func:`decode_request` returns it.
        plans: named plan presets (from ``--plan-root``); a request
            carrying ``"plan": name`` starts from that preset's
            params (and kind), overridden by its own ``params``.

    Raises:
        ServiceError: ``bad-request`` for malformed fields or an
            unsupported protocol version, or ``unknown-plan`` for an
            undeclared plan name.
    """
    request_id = str(data.get("id", ""))
    if not request_id:
        raise ServiceError(
            "bad-request",
            "request must carry a non-empty string 'id'",
        )
    version = data.get("v", 1)
    if (
        isinstance(version, bool)
        or not isinstance(version, int)
        or version not in PROTOCOL_VERSIONS
    ):
        raise ServiceError(
            "bad-request",
            f"unsupported protocol version {version!r};"
            f" this server speaks {PROTOCOL_VERSIONS}",
            request_id,
        )
    accuracy = _parse_accuracy(data, request_id)
    kind = data.get("kind", "")
    params = data.get("params", {})
    plan_name = data.get("plan")
    if plan_name is not None:
        if plan_name not in plans:
            raise ServiceError(
                "unknown-plan",
                f"unknown plan {plan_name!r};"
                f" loaded: {sorted(plans)}",
                request_id,
            )
        preset = plans[plan_name]
        kind = kind or preset.get("kind", "")
        merged = dict(preset.get("params", {}))
        if isinstance(params, dict):
            merged.update(params)
        params = merged
    timeout_s = None
    if data.get("timeout_ms") is not None:
        raw = data["timeout_ms"]
        if not _is_finite_number(raw) or raw <= 0:
            raise ServiceError(
                "bad-request",
                "timeout_ms must be a positive finite number,"
                f" got {raw!r}",
                request_id,
            )
        timeout_s = float(raw) / 1000.0
    try:
        query = Query.from_params(str(kind), params)
    except ServiceError as exc:
        # Re-raise with the id attached so the error payload still
        # correlates to the request that caused it.
        raise ServiceError(
            exc.code, exc.message, request_id
        ) from exc
    if accuracy is not None and query.kind == "transmission":
        query = query.with_accuracy(*accuracy)
    return Request(
        request_id=request_id,
        tenant=str(data.get("tenant", "default")),
        timeout_s=timeout_s,
        query=query,
    )


def ok_body(request_id: str, envelope: dict) -> dict:
    """Build a tagged success response body.

    Args:
        request_id: echoed correlation id.
        envelope: ``result`` / ``cached`` / ``degraded`` /
            ``degraded_reason`` fields from the execution layer.
    """
    body = {"id": request_id, "ok": True}
    body.update(envelope)
    return serde.tag("service-response", body)


def error_body(request_id: str, error: ServiceError) -> dict:
    """Build a tagged structured-error response body."""
    return serde.tag(
        "service-response",
        {
            "id": request_id,
            "ok": False,
            "error": error.to_payload(),
        },
    )


def encode_response(body: dict) -> str:
    """Serialize a response body to its canonical wire line."""
    return json.dumps(body, sort_keys=True)


def _flag(params: dict, name: str) -> bool:
    """Read an optional boolean parameter strictly."""
    value = params.get(name, False)
    if not isinstance(value, bool):
        raise ServiceError(
            "bad-request",
            f"{name} must be a boolean, got {value!r}",
        )
    return value


def _is_finite_number(value: object) -> bool:
    """True for a JSON number that is a finite float.

    ``json.loads`` accepts ``NaN``, ``Infinity`` and ``1e400`` (read
    as ``inf``), and integers of any size.  None is a usable
    parameter, and ``NaN`` slips through range checks such as
    ``value <= 0.0``, which are false for it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _number(params: dict, name: str, default: float) -> float:
    """Read an optional numeric parameter strictly."""
    value = params.get(name, default)
    if not _is_finite_number(value):
        raise ServiceError(
            "bad-request",
            f"{name} must be a finite number, got {value!r}",
        )
    return float(value)


def _integer(params: dict, name: str, default: int) -> int:
    """Read an optional integer parameter strictly."""
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            "bad-request",
            f"{name} must be an integer, got {value!r}",
        )
    return int(value)
