"""Fault-tolerant FIT query service.

A long-running asyncio server answering FIT / cross-section / flux /
shield-transmission queries over newline-delimited JSON, built to
stay correct under failure: a durable content-addressed result cache
that quarantines corruption (:mod:`repro.service.cache`), request
coalescing so identical concurrent queries cost one computation
(:mod:`repro.service.coalesce`), per-tenant admission control with
structured rejections (:mod:`repro.service.admission`), and a
retry/circuit-breaker execution layer that degrades rather than
fails (:mod:`repro.service.compute`).  Boot it with
``python -m repro serve``; talk to it with
:class:`~repro.service.client.ServiceClient`.
"""

from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.coalesce import Coalescer
from repro.service.compute import ExecutionOutcome, QueryExecutor
from repro.service.protocol import (
    ERROR_CODES,
    QUERY_KINDS,
    Query,
    Request,
    ServiceError,
)
from repro.service.server import FitService

__all__ = [
    "AdmissionController",
    "Coalescer",
    "ERROR_CODES",
    "ExecutionOutcome",
    "FitService",
    "QUERY_KINDS",
    "Query",
    "QueryExecutor",
    "Request",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
]
