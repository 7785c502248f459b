"""Wire protocol v2: versioning, accuracy targets, provenance."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.chaos import trials
from repro.service import (
    AdmissionController,
    FitService,
    Query,
    QueryExecutor,
    ServiceError,
)
from repro.service.protocol import (
    PROTOCOL_VERSIONS,
    decode_request,
    parse_request,
)
from repro.transport import api as transport_api

pytestmark = pytest.mark.usefixtures("no_fork_while_threaded")


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper for tests (never waits)."""


def _service() -> FitService:
    return FitService(
        executor=QueryExecutor(n_workers=1, sleep=_no_sleep),
        admission=AdmissionController(max_inflight=256),
    )


def _line(request_id="q1", kind="flux", params=None, **extra) -> str:
    body = {
        "id": request_id,
        "kind": kind,
        "params": params if params is not None else {"site": "nyc"},
    }
    body.update(extra)
    return json.dumps(body)


def _answer(service: FitService, line: str) -> dict:
    return json.loads(asyncio.run(service.handle_line(line)))


def _parse(line: str, plans: dict):
    """Decode and validate one line, as the server does."""
    return parse_request(decode_request(line), plans)


# -- version negotiation -----------------------------------------------


def test_v1_and_v2_requests_are_both_accepted():
    assert PROTOCOL_VERSIONS == (1, 2)
    for extra in ({}, {"v": 1}, {"v": 2}):
        request = _parse(_line(**extra), {})
        assert request.query.kind == "flux"


@pytest.mark.parametrize("version", [3, 0, -1, True, "2", 1.0])
def test_future_and_malformed_versions_get_structured_errors(version):
    with pytest.raises(ServiceError) as excinfo:
        _parse(_line(v=version), {})
    assert excinfo.value.code == "bad-request"
    assert "unsupported protocol version" in excinfo.value.message
    assert excinfo.value.request_id == "q1"


# -- accuracy targets --------------------------------------------------


def test_accuracy_applies_to_transmission_queries():
    request = _parse(
        _line(
            kind="transmission",
            params={"shield": "cadmium"},
            v=2,
            accuracy={"rel_err": 0.02, "confidence": 0.9},
        ),
        {},
    )
    assert request.query.rel_err == pytest.approx(0.02)
    assert request.query.confidence == pytest.approx(0.9)


def test_accuracy_defaults_when_omitted():
    request = _parse(
        _line(kind="transmission", params={"shield": "cadmium"}), {}
    )
    assert request.query.rel_err == pytest.approx(0.05)
    assert request.query.confidence == pytest.approx(0.95)


def test_accuracy_is_inert_for_non_transmission_kinds():
    request = _parse(
        _line(accuracy={"rel_err": 0.01, "confidence": 0.99}), {}
    )
    # Flux queries have no headline bound to negotiate; the field
    # must not perturb their canonical form (or cache keys).
    assert request.query.rel_err == pytest.approx(0.05)
    assert request.query.confidence == pytest.approx(0.95)


@pytest.mark.parametrize(
    "accuracy",
    [
        "tight",
        {"rel_err": 0.02, "bogus": 1},
        {"rel_err": 0.0},
        {"rel_err": 1.5},
        {"confidence": 0.0},
        {"confidence": 1.0},
        {"rel_err": True},
        {"confidence": "high"},
    ],
)
def test_malformed_accuracy_is_a_bad_request(accuracy):
    with pytest.raises(ServiceError) as excinfo:
        _parse(
            _line(
                kind="transmission",
                params={"shield": "cadmium"},
                accuracy=accuracy,
            ),
            {},
        )
    assert excinfo.value.code == "bad-request"


def test_cache_key_depends_on_the_accuracy_target():
    base = Query.from_params(
        "transmission", {"shield": "water", "n_neutrons": 64}
    )
    tighter = base.with_accuracy(rel_err=0.01, confidence=0.99)
    same = base.with_accuracy(rel_err=0.05, confidence=0.95)
    assert base.cache_key() != tighter.cache_key()
    assert base.cache_key() == same.cache_key()


# -- provenance on the wire --------------------------------------------


def test_transmission_envelope_carries_provenance():
    body = _answer(
        _service(),
        _line(
            kind="transmission",
            params={"shield": "water", "n_neutrons": 256},
            v=2,
        ),
    )
    assert body["ok"]
    stamp = body["provenance"]
    assert stamp["engine"] == "batch"
    assert stamp["requested_engine"] == "batch"
    assert stamp["degraded"] is False
    assert stamp["artifact_digest"] == ""
    assert body["result"]["provenance"] == stamp


def test_non_transport_envelopes_have_no_provenance():
    body = _answer(_service(), _line())
    assert body["ok"]
    assert body["provenance"] is None


def test_auto_engine_serves_from_the_configured_surrogate(tmp_path):
    digest = trials.make_surrogate_root(tmp_path)
    before = transport_api.default_store()
    transport_api.configure(str(tmp_path))
    try:
        body = _answer(
            _service(),
            _line(
                kind="transmission",
                params={
                    "shield": "cadmium",
                    "thickness_cm": trials.SURROGATE_THICKNESS_CM,
                    "n_neutrons": 256,
                    "engine": "auto",
                },
                v=2,
                accuracy={"rel_err": 0.05, "confidence": 0.95},
            ),
        )
    finally:
        transport_api.set_default_store(before)
    assert body["ok"]
    assert body["result"]["engine"] == "surrogate"
    stamp = body["provenance"]
    assert stamp["engine"] == "surrogate"
    assert stamp["artifact_digest"] == digest
    assert stamp["degraded"] is False
    assert 0.0 < stamp["error_bound"] <= 0.005
