"""The FIT query service: NDJSON protocol handler and HTTP metrics.

:class:`FitService` wires the layers together.  Its contract is
that **every line in produces exactly one line out** — a success
envelope or a structured error with a code from
:data:`~repro.service.protocol.ERROR_CODES` — and no client input or
backend failure escapes as an unhandled exception.

A request takes one of two paths after parse → admit, chosen by
:meth:`~repro.service.compute.QueryExecutor.needs_engine`:

* **Inline** — ``fit``, ``cross-section`` and ``flux`` queries, and
  transmission queries the configured surrogate store serves: execute
  on the event loop → yield one loop turn → respond.  These answers
  take well under a millisecond, less than the worker-thread
  hand-off; no cache read, no coalescer, and no deadline (nothing
  could preempt them).  The yield bounds what one connection holds
  the loop for to one inline answer, even when it pipelines lines.
* **Live** — every query that runs a live transport engine: cache
  read → coalesce → execute on a worker thread (or the ``--workers``
  fork pool) → cache-fill → respond, under the request's deadline.

The durable cache holds only clean live-engine transmission answers
(:func:`_cacheable`), each a transport run of tens of milliseconds.
Every inline answer is recomputed: it is cheaper than the fsync'd
write that would store it.  A surrogate answer must also not outlive
its artifact, and the cache key (plan digest, seed) does not name
the artifact.

The same listening socket also answers plain ``GET /metrics`` (and
``/healthz``) HTTP requests: a connection whose first bytes look
like an HTTP request line is served a Prometheus scrape instead of
the NDJSON loop, so one port carries both queries and telemetry.
The ``/healthz`` body names the service status and where live
queries run (:meth:`~repro.service.compute.QueryExecutor.pool_state`:
``lost`` after a worker death, until restart).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING, Dict, Optional

from repro.chaos.faultpoints import fault_point
from repro.obs import core as obs
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.coalesce import Coalescer
from repro.service.compute import ExecutionOutcome, QueryExecutor
from repro.service.protocol import (
    STUDY_KINDS,
    ServiceError,
    decode_request,
    encode_response,
    error_body,
    ok_body,
    parse_request,
)
from repro.transport.api import LIVE_CASCADE

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.studies.service import StudyGateway

__all__ = ["FitService"]


def _cacheable(result: object, degraded: bool) -> bool:
    """Whether the durable cache may hold (and serve) ``result``.

    Only a transmission answer from a live engine qualifies, and only
    when neither the facade nor the executor degraded it: a degraded
    answer is correct but second-choice, and caching it would pin the
    degradation past recovery.  Checked on write and again on read,
    so an entry of any other kind is a miss, never an answer.
    """
    provenance = (
        result.get("provenance") if isinstance(result, dict) else None
    )
    return (
        not degraded
        and isinstance(provenance, dict)
        and provenance.get("engine") in LIVE_CASCADE
        and provenance.get("degraded") is False
    )


def _envelope(outcome: ExecutionOutcome) -> dict:
    """The success envelope of a freshly computed answer."""
    return {
        "result": outcome.result,
        "cached": False,
        "degraded": outcome.degraded,
        "degraded_reason": outcome.reason,
        "provenance": outcome.provenance,
    }


class FitService:
    """One FIT query service instance (transport-agnostic core).

    Args:
        executor: query execution layer (defaults to in-process).
        cache: durable result cache (``None`` disables caching).
        admission: admission controller (defaults to permissive).
        coalescer: request coalescer (defaults to a fresh one).
        plans: named query presets clients may reference by
            ``plan``; loaded from ``--plan-root`` by the CLI.
        studies: study gateway answering the
            ``study-submit``/``study-status``/``study-cancel`` verbs
            (``None`` rejects them with a structured error).
    """

    def __init__(
        self,
        executor: Optional[QueryExecutor] = None,
        cache: Optional[ResultCache] = None,
        admission: Optional[AdmissionController] = None,
        coalescer: Optional[Coalescer] = None,
        plans: Optional[Dict[str, dict]] = None,
        studies: Optional["StudyGateway"] = None,
    ) -> None:
        self.executor = (
            executor if executor is not None else QueryExecutor()
        )
        self.cache = cache
        self.admission = (
            admission
            if admission is not None
            else AdmissionController()
        )
        self.coalescer = (
            coalescer if coalescer is not None else Coalescer()
        )
        self.plans = dict(plans or {})
        self.studies = studies
        self._closing = False

    # -- lifecycle -----------------------------------------------------

    def begin_shutdown(self) -> None:
        """Refuse new queries; in-flight ones run to completion."""
        if not self._closing:
            self._closing = True
            obs.event("service.shutdown")

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self.executor.close()

    # -- request path --------------------------------------------------

    async def handle_line(self, line: str) -> str:
        """Answer one NDJSON request line with one response line."""
        try:
            data = decode_request(line)
        except ServiceError as exc:
            return self._error_line(exc.request_id, exc)
        if data.get("kind") in STUDY_KINDS:
            return await self._handle_study(data)
        try:
            request = parse_request(data, self.plans)
        except ServiceError as exc:
            return self._error_line(exc.request_id, exc)
        if self._closing:
            return self._error_line(
                request.request_id,
                ServiceError(
                    "shutting-down",
                    "service is shutting down; retry elsewhere",
                ),
            )
        timeout_s = (
            request.timeout_s
            if request.timeout_s is not None
            else 0.0
        )
        with obs.span("service.request", kind=request.query.kind):
            obs.inc("repro_service_requests_total")
            started_s = time.monotonic()
            try:
                self.admission.admit(
                    request.tenant,
                    request.query.kind,
                    timeout_s,
                )
            except ServiceError as exc:
                return self._error_line(request.request_id, exc)
            try:
                envelope = await self._answer(request, timeout_s)
            except asyncio.TimeoutError:
                return self._error_line(
                    request.request_id,
                    ServiceError(
                        "deadline",
                        f"query missed its {timeout_s:.3f} s"
                        " deadline",
                    ),
                )
            except ServiceError as exc:
                return self._error_line(request.request_id, exc)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 — wire boundary
                return self._error_line(
                    request.request_id,
                    ServiceError(
                        "internal",
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
            finally:
                self.admission.release()
                self.admission.observe_latency(
                    request.query.kind,
                    time.monotonic() - started_s,
                )
        return self._ok_line(request.request_id, envelope)

    async def _handle_study(self, data: dict) -> str:
        """Answer one decoded study verb (submit / status / cancel).

        Study verbs bypass query parsing and admission: they are
        control-plane operations whose heavy lifting runs on the
        gateway's background thread, not on the event loop.
        """
        request_id = str(data.get("id", ""))
        if not request_id:
            return self._error_line(
                "",
                ServiceError(
                    "bad-request",
                    "request must carry a non-empty string 'id'",
                ),
            )
        if self._closing:
            return self._error_line(
                request_id,
                ServiceError(
                    "shutting-down",
                    "service is shutting down; retry elsewhere",
                ),
            )
        if self.studies is None:
            return self._error_line(
                request_id,
                ServiceError(
                    "bad-request",
                    "study verbs are disabled; start the server"
                    " with --study-root",
                ),
            )
        with obs.span("service.request", kind=str(data["kind"])):
            obs.inc("repro_service_requests_total")
            try:
                result = await asyncio.to_thread(
                    self.studies.handle, data
                )
            except ServiceError as exc:
                return self._error_line(request_id, exc)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 — wire boundary
                return self._error_line(
                    request_id,
                    ServiceError(
                        "internal",
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
        return self._ok_line(
            request_id,
            {
                "result": result,
                "cached": False,
                "degraded": False,
                "degraded_reason": "",
                "provenance": None,
            },
        )

    async def _answer(self, request, timeout_s: float) -> dict:
        """Produce the success envelope for an admitted request.

        A query that needs no live engine is computed right here on
        the event loop: its answer takes well under a millisecond,
        less than the thread hand-off, and the cache never holds it.
        Only live-engine runs pay for the cache read, the coalescer
        and the worker thread.
        """
        query = request.query
        if not self.executor.needs_engine(query):
            envelope = _envelope(self.executor.execute(query))
            # Reading a buffered line and writing a small answer do
            # not suspend: yield one loop turn, so a client pipelining
            # many lines cannot hold off every other connection.
            await asyncio.sleep(0)
            return envelope
        key = query.cache_key()
        cache = self.cache

        def job() -> dict:
            if cache is not None:
                cached = cache.get(key)
                if _cacheable(cached, degraded=False):
                    obs.inc("repro_service_cache_hits_total")
                    return {
                        "result": cached,
                        "cached": True,
                        "degraded": False,
                        "degraded_reason": "",
                        "provenance": cached["provenance"],
                    }
                obs.inc("repro_service_cache_misses_total")
            outcome = self.executor.execute(query)
            if cache is not None and _cacheable(
                outcome.result, outcome.degraded
            ):
                cache.put(key, query, outcome.result)
            return _envelope(outcome)

        if timeout_s > 0.0:
            return await asyncio.wait_for(
                self.coalescer.get_or_compute(key, job),
                timeout=timeout_s,
            )
        return await self.coalescer.get_or_compute(key, job)

    # -- response encoding ---------------------------------------------

    def _ok_line(self, request_id: str, envelope: dict) -> str:
        """Encode a success envelope; degrade to an error line."""
        body = ok_body(request_id, envelope)
        try:
            # Last instant before bytes hit the wire: a fault here
            # must become a structured error, not a dropped line.
            fault_point(
                "service.respond", request_id=request_id
            )
            return encode_response(body)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 — wire boundary
            return self._error_line(
                request_id,
                ServiceError(
                    "internal",
                    f"response serialization failed:"
                    f" {type(exc).__name__}: {exc}",
                ),
            )

    def _error_line(
        self, request_id: str, error: ServiceError
    ) -> str:
        """Encode a structured error line (fault-free path)."""
        obs.inc("repro_service_errors_total", code=error.code)
        return encode_response(error_body(request_id, error))

    # -- connection handling -------------------------------------------

    async def handle_connection(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        """Serve one client connection (NDJSON or HTTP scrape)."""
        try:
            first = await reader.readline()
            if first.startswith(b"GET "):
                await self._serve_http(first, reader, writer)
                return
            while first:
                line = first.decode("utf-8", errors="replace")
                if line.strip():
                    response = await self.handle_line(line)
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
                first = await reader.readline()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _serve_http(
        self,
        request_line: bytes,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        """Answer one HTTP/1.0-style GET on the shared port."""
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        parts = request_line.decode("ascii", errors="replace").split()
        target = parts[1] if len(parts) > 1 else "/"
        if target == "/metrics":
            observer = obs.active()
            registry = (
                observer.registry if observer is not None else None
            )
            text = (
                registry.to_prometheus()
                if registry is not None
                else ""
            )
            status = "200 OK"
            content_type = "text/plain; version=0.0.4"
        elif target == "/healthz":
            text = json.dumps(
                {
                    "status": "shutting-down" if self._closing else "ok",
                    "pool": self.executor.pool_state(),
                },
                sort_keys=True,
            )
            status = "200 OK"
            content_type = "application/json"
        else:
            text = f"no route for {target}\n"
            status = "404 Not Found"
            content_type = "text/plain"
        body = text.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
