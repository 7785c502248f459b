"""Study verbs over the service: submit / status / cancel."""

import asyncio
import json
import time

import pytest

from repro.service.protocol import STUDY_KINDS
from repro.service.server import FitService
from repro.studies.ledger import StudyLedger
from repro.studies.service import StudyGateway
from repro.studies.spec import StudySpec

pytestmark = pytest.mark.usefixtures("no_fork_while_threaded")

SPEC = {
    "name": "svc-study",
    "axes": {"site": ["nyc", "leadville"]},
    "n_neutrons": 128,
    "seed": 5,
}


def _rpc(service, payload):
    line = json.dumps(payload)
    return json.loads(asyncio.run(service.handle_line(line)))


def _service(tmp_path):
    return FitService(studies=StudyGateway(tmp_path / "studies"))


def _await_idle(service, digest, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        response = _rpc(
            service,
            {"id": "poll", "kind": "study-status", "study": digest},
        )
        assert response["ok"], response
        if response["result"]["state"] == "idle":
            return response["result"]
        time.sleep(0.05)
    raise AssertionError("study never went idle")


class TestSubmit:
    def test_submit_runs_to_complete(self, tmp_path):
        service = _service(tmp_path)
        response = _rpc(
            service,
            {"id": "s1", "kind": "study-submit", "spec": SPEC},
        )
        assert response["ok"], response
        digest = response["result"]["study"]
        assert digest == StudySpec.from_dict(SPEC).digest()
        assert response["result"]["state"] == "accepted"
        status = _await_idle(service, digest)
        assert status["status"] == "complete"
        assert status["committed"] == 2
        assert status["quarantined"] == 0
        assert status["error"] == ""
        # The durable artefacts are real, not gateway bookkeeping.
        ledger_path, _ = service.studies.paths(digest)
        state = StudyLedger(ledger_path).replay()
        assert sorted(state.committed) == [0, 1]

    def test_resubmit_is_idempotent(self, tmp_path):
        service = _service(tmp_path)
        first = _rpc(
            service,
            {"id": "a", "kind": "study-submit", "spec": SPEC},
        )
        digest = first["result"]["study"]
        _await_idle(service, digest)
        again = _rpc(
            service,
            {"id": "b", "kind": "study-submit", "spec": SPEC},
        )
        assert again["ok"]
        assert again["result"]["study"] == digest
        status = _await_idle(service, digest)
        assert status["status"] == "complete"

    def test_bad_spec_is_bad_request(self, tmp_path):
        response = _rpc(
            _service(tmp_path),
            {
                "id": "s1",
                "kind": "study-submit",
                "spec": {"name": "x", "engine": "warp"},
            },
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"

    def test_missing_spec_is_bad_request(self, tmp_path):
        response = _rpc(
            _service(tmp_path),
            {"id": "s1", "kind": "study-submit"},
        )
        assert response["error"]["code"] == "bad-request"


class TestStatusAndCancel:
    def test_unknown_study_is_bad_request(self, tmp_path):
        for kind in ("study-status", "study-cancel"):
            response = _rpc(
                _service(tmp_path),
                {"id": "q", "kind": kind, "study": "f" * 64},
            )
            assert response["error"]["code"] == "bad-request"

    def test_missing_digest_is_bad_request(self, tmp_path):
        response = _rpc(
            _service(tmp_path),
            {"id": "q", "kind": "study-status"},
        )
        assert response["error"]["code"] == "bad-request"

    def test_cancel_idle_study_is_a_no_op(self, tmp_path):
        service = _service(tmp_path)
        digest = _rpc(
            service,
            {"id": "a", "kind": "study-submit", "spec": SPEC},
        )["result"]["study"]
        _await_idle(service, digest)
        response = _rpc(
            service,
            {"id": "c", "kind": "study-cancel", "study": digest},
        )
        assert response["ok"]
        assert response["result"]["cancelled"] is False

    def test_status_survives_gateway_restart(self, tmp_path):
        """Status reads the ledger, so a fresh gateway (a restarted
        server) still answers for a finished study."""
        service = _service(tmp_path)
        digest = _rpc(
            service,
            {"id": "a", "kind": "study-submit", "spec": SPEC},
        )["result"]["study"]
        _await_idle(service, digest)
        reborn = _service(tmp_path)
        response = _rpc(
            reborn,
            {"id": "s", "kind": "study-status", "study": digest},
        )
        assert response["ok"], response
        assert response["result"]["status"] == "complete"
        assert response["result"]["state"] == "idle"


class TestRouting:
    def test_verbs_disabled_without_study_root(self):
        service = FitService()
        for kind in STUDY_KINDS:
            response = _rpc(
                service, {"id": "x", "kind": kind, "study": "d"}
            )
            assert response["error"]["code"] == "bad-request"
            assert "--study-root" in response["error"]["message"]

    def test_study_verb_requires_id(self, tmp_path):
        response = _rpc(
            _service(tmp_path), {"kind": "study-status", "study": "d"}
        )
        assert response["error"]["code"] == "bad-request"
        assert response["id"] == ""

    def test_shutting_down_rejects_study_verbs(self, tmp_path):
        service = _service(tmp_path)
        service.begin_shutdown()
        response = _rpc(
            service,
            {"id": "x", "kind": "study-submit", "spec": SPEC},
        )
        assert response["error"]["code"] == "shutting-down"

    def test_query_kinds_unaffected(self, tmp_path):
        response = _rpc(
            _service(tmp_path),
            {
                "id": "q1",
                "kind": "fit",
                "params": {
                    "device": "K20", "site": "nyc", "room": True,
                },
            },
        )
        assert response["ok"], response

    def test_gateway_drain_returns_clean(self, tmp_path):
        gateway = StudyGateway(tmp_path / "studies")
        gateway.submit(dict(SPEC))
        assert gateway.drain(deadline_s=60.0) is True


class TestCancelMidRun:
    def test_cancel_stops_between_shards(self, tmp_path):
        """A submitted study with a slow evaluator stops at the next
        shard boundary when cancelled; resubmitting resumes it."""
        import threading

        from repro.studies import scheduler as scheduler_module
        from repro.studies.evaluate import evaluate_shard

        gate = threading.Event()
        original = scheduler_module.evaluate_shard

        def slow(shard, spec, engine):
            gate.wait(timeout=30.0)
            return evaluate_shard(shard, spec, engine)

        scheduler_module.evaluate_shard = slow
        try:
            service = _service(tmp_path)
            digest = _rpc(
                service,
                {"id": "a", "kind": "study-submit", "spec": SPEC},
            )["result"]["study"]
            cancel = _rpc(
                service,
                {"id": "c", "kind": "study-cancel", "study": digest},
            )
            assert cancel["ok"]
            gate.set()
            status = _await_idle(service, digest)
            assert status["status"] in ("incomplete", "complete")
        finally:
            scheduler_module.evaluate_shard = original
            gate.set()
        # Resume with the real evaluator finishes the study.
        resumed = _rpc(
            service,
            {"id": "r", "kind": "study-submit", "spec": SPEC},
        )
        assert resumed["ok"]
        final = _await_idle(service, digest)
        assert final["status"] == "complete"
