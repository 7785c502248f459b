"""Outside-in span tracing for the benchmark's traced runs.

:func:`install` replaces each measured layer's public entry points
with wrappers that record a span (name, start, end, parent, attrs)
into a :class:`Tracer`.  Nothing in ``src/`` changes: classes get
wrapped methods, and free functions are wrapped where their callers
look them up (``repro.service.server.parse_request``, not
``repro.service.protocol.parse_request``).  Spans stay in memory and
are written once, when the traced process ends.

Parents come from one stack of open spans.  That is sound because
the workloads keep exactly one request (or one study) in flight: a
span opened in the coalescer's worker thread still nests inside the
request span that the event-loop thread holds open.

Span names follow the layer boundaries ROADMAP.md names for the
per-layer ledger, as ``<module>.<entry point>``, so spans emitted from
inside the program later can keep them.  :class:`Layers` reduces a
span list to the per-layer table, and :func:`layer_metrics` to the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from typing import Callable, Dict, List, Optional

#: Root span of a served request.
REQUEST_SPAN = "service.request"

#: Root span of one study run.
STUDY_SPAN = "studies.scheduler.run"

ROOT_SPANS = (REQUEST_SPAN, STUDY_SPAN)


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start_ns, end_ns, parent_index, attrs]``;
    ``parent_index`` is -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._open.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        if self._open and self._open[-1] == index:
            self._open.pop()
        else:
            self._open.remove(index)

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``attrs(args, result)`` runs after the span closes, so its
        cost is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                self.spans[index][4] = {"error": type(exc).__name__}
                raise
            self._close(index)
            if attrs is not None:
                self.spans[index][4] = attrs(args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine wrapper recording one span per awaited call."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def dump(self, path: str) -> None:
        """Write every span recorded so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _wrap_method(tracer, cls, attr, name, attrs=None) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))


def _wrap_lookup(tracer, modules, attr, name, attrs=None) -> None:
    """Wrap a free function in each module that imported it by name."""
    for module in modules:
        setattr(
            module, attr, tracer.wrap(name, getattr(module, attr), attrs)
        )


def _put_attrs(args, result) -> dict:
    cache, key = args[0], args[1]
    size = os.path.getsize(cache.entry_path(key)) if result else 0
    return {"ok": bool(result), "bytes": size}


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's entry points (see the module doc)."""
    from repro.core.fit import FitCalculator
    from repro.service import compute, server
    from repro.service.admission import AdmissionController
    from repro.service.cache import ResultCache
    from repro.service.coalesce import Coalescer
    from repro.service.compute import QueryExecutor
    from repro.spectra.spectrum import Spectrum
    from repro.studies import evaluate
    from repro.studies.ledger import StudyLedger
    from repro.studies.scheduler import StudyScheduler
    from repro.studies.store import ShardResultStore
    from repro.transport.batch import BatchTransportEngine
    from repro.transport.multigroup import solver
    from repro.transport.surrogate.store import SurrogateStore
    from repro.transport.surrogate.surface import ResponseSurface
    from repro.transport.tallies import TransportResult

    server.FitService.handle_line = tracer.wrap_async(
        REQUEST_SPAN, server.FitService.handle_line
    )
    _wrap_lookup(
        tracer, [server], "parse_request", "service.protocol.parse"
    )
    _wrap_lookup(
        tracer, [server], "encode_response", "service.protocol.encode"
    )
    _wrap_method(
        tracer, AdmissionController, "admit", "service.admission.admit"
    )
    _wrap_method(
        tracer,
        ResultCache,
        "get",
        "service.cache.get",
        lambda args, result: {"hit": result is not None},
    )
    _wrap_method(
        tracer, ResultCache, "put", "service.cache.put", _put_attrs
    )

    get_or_compute = Coalescer.get_or_compute

    async def coalesce(self, key, compute_job):
        job = tracer.wrap("service.coalesce.job", compute_job)
        return await get_or_compute(self, key, job)

    Coalescer.get_or_compute = tracer.wrap_async(
        "service.coalesce.get_or_compute", coalesce
    )
    _wrap_method(
        tracer,
        QueryExecutor,
        "execute",
        "service.compute.execute",
        lambda args, result: {"degraded": bool(result.degraded)},
    )
    _wrap_lookup(
        tracer,
        [compute, evaluate],
        "rotax_spectrum",
        "spectra.rotax_spectrum",
    )
    _wrap_method(
        tracer, Spectrum, "sample_energies", "spectra.sample_energies"
    )
    _wrap_method(tracer, FitCalculator, "report", "core.fit.report")
    _wrap_lookup(
        tracer,
        [compute, evaluate],
        "answer",
        "transport.api.answer",
        lambda args, result: {
            "engine": result.provenance.engine,
            "policy": args[0].engine,
        },
    )
    _wrap_method(
        tracer, SurrogateStore, "lookup", "transport.surrogate.lookup"
    )
    _wrap_method(
        tracer, ResponseSurface, "meets", "transport.surrogate.meets"
    )
    _wrap_method(
        tracer,
        ResponseSurface,
        "evaluate",
        "transport.surrogate.evaluate",
    )
    _wrap_method(
        tracer,
        BatchTransportEngine,
        "run",
        "transport.batch.run",
        lambda args, result: {
            "histories": int(result.source),
            "collisions": int(result.collisions),
        },
    )
    TransportResult.from_tally = classmethod(
        tracer.wrap(
            "transport.batch.from_tally",
            TransportResult.__dict__["from_tally"].__func__,
        )
    )
    _wrap_method(
        tracer,
        solver.DeterministicTransportEngine,
        "__init__",
        "transport.multigroup.build",
    )
    _wrap_method(
        tracer,
        solver.DeterministicTransportEngine,
        "run",
        "transport.multigroup.solve",
        lambda args, result: {"iterations": int(result.iterations)},
    )
    _wrap_lookup(
        tracer, [solver], "collapse", "transport.multigroup.collapse"
    )
    _wrap_method(tracer, StudyLedger, "append", "studies.ledger.append")
    _wrap_method(tracer, StudyLedger, "replay", "studies.ledger.replay")
    _wrap_method(tracer, ShardResultStore, "get", "studies.store.get")
    _wrap_method(tracer, ShardResultStore, "put", "studies.store.put")
    _wrap_method(tracer, StudyScheduler, "run", STUDY_SPAN)


# -- reduction ---------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Layers:
    """Per-span-name statistics over the measured roots of a trace.

    Attributes:
        calls / durations / selfs / attrs: per span name, over the
            spans under measured roots (times in seconds).
        root_total: summed duration of the measured roots.
        overlaps: spans whose children together last longer than
            they do.  Self time is duration minus child durations, so
            the self times under a root sum to the root exactly unless
            such a span's self time had to be clamped to 0; the
            reduction counts these instead of hiding them.
        first: duration of each name's first span in the whole trace,
            warm-up included.
    """

    def __init__(self, spans: List[list], warmup_roots: int) -> None:
        children: List[List[int]] = [[] for _ in spans]
        roots: List[int] = []
        self.first: Dict[str, float] = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            self.first.setdefault(name, (end - start) / 1e9)
            if parent < 0:
                roots.append(index)
            else:
                children[parent].append(index)
        self.children = children
        self.spans = spans
        self.roots = [
            r for r in roots[warmup_roots:] if spans[r][0] in ROOT_SPANS
        ]
        self.orphans = len(roots) - warmup_roots - len(self.roots)
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.selfs: Dict[str, List[float]] = {}
        self.attrs: Dict[str, List[dict]] = {}
        self.root_total = 0.0
        self.unattributed = 0.0
        self.overlaps = 0
        for root in self.roots:
            self.root_total += self.duration(root)
            stack = [root]
            while stack:
                index = stack.pop()
                stack.extend(children[index])
                name = self.spans[index][0]
                own = self.duration(index) - sum(
                    self.duration(c) for c in children[index]
                )
                if own < 0.0:
                    self.overlaps += 1
                    own = 0.0
                if index == root:
                    self.unattributed += own
                self.calls[name] = self.calls.get(name, 0) + 1
                self.durations.setdefault(name, []).append(
                    self.duration(index)
                )
                self.selfs.setdefault(name, []).append(own)
                self.attrs.setdefault(name, []).append(
                    self.spans[index][4] or {}
                )

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return (end - start) / 1e9

    def descendants(self, index: int, name: str) -> List[int]:
        """Indices of ``name`` spans anywhere under ``index``."""
        found, stack = [], list(self.children[index])
        while stack:
            child = stack.pop()
            if self.spans[child][0] == name:
                found.append(child)
            stack.extend(self.children[child])
        return found

    # -- accessors -----------------------------------------------------

    def p(self, name: str, q: float, scale: float = 1e6) -> float:
        return quantile(self.durations.get(name, []), q) * scale

    def total(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, [])) for n in names)

    def share(self, *names: str) -> float:
        if self.root_total <= 0.0:
            return 0.0
        return self.total(*names) / self.root_total

    def count(self, name: str, attr: str, value=True) -> int:
        return sum(
            1 for a in self.attrs.get(name, []) if a.get(attr) == value
        )

    def attr_sum(self, name: str, attr: str) -> float:
        return float(sum(a.get(attr, 0) for a in self.attrs.get(name, [])))

    # -- report --------------------------------------------------------

    def table(self) -> str:
        """The per-span table: calls, p50, p99, total, self, share."""
        header = (
            f"{'span':<34}{'calls':>8}{'p50_us':>11}{'p99_us':>11}"
            f"{'total_ms':>11}{'self_ms':>11}{'share':>8}{'self':>8}"
        )
        lines = [header]
        names = sorted(
            self.durations, key=lambda n: -sum(self.durations[n])
        )
        for name in names:
            total = sum(self.durations[name])
            own = sum(self.selfs[name])
            lines.append(
                f"{name:<34}{self.calls[name]:>8}"
                f"{self.p(name, 0.5):>11.1f}{self.p(name, 0.99):>11.1f}"
                f"{total * 1e3:>11.1f}{own * 1e3:>11.1f}"
                f"{_ratio(total, self.root_total):>8.3f}"
                f"{_ratio(own, self.root_total):>8.3f}"
            )
        lines.append(
            f"{'unattributed':<34}{'':>8}{'':>11}{'':>11}"
            f"{self.unattributed * 1e3:>11.1f}"
            f"{self.unattributed * 1e3:>11.1f}"
            f"{_ratio(self.unattributed, self.root_total):>8.3f}"
            f"{_ratio(self.unattributed, self.root_total):>8.3f}"
        )
        lines.append(
            f"roots={len(self.roots)} root_total_ms="
            f"{self.root_total * 1e3:.1f} overlapping spans="
            f"{self.overlaps} (0: self times + unattributed sum to"
            f" each root exactly)"
        )
        return "\n".join(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def load_spans(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def layer_metrics(layers: Layers) -> Dict[str, float]:
    """Every per-layer metric the trace defines (0 where unused)."""
    L = layers
    gets = L.calls.get("service.cache.get", 0)
    puts = [
        a for a in L.attrs.get("service.cache.put", []) if a.get("ok")
    ]
    coalesce_selfs = L.selfs.get("service.coalesce.get_or_compute", [])
    answers = L.attrs.get("transport.api.answer", [])
    negotiated = [a for a in answers if a.get("policy") in
                  ("auto", "surrogate")]
    engines = [a.get("engine") for a in answers]
    batch_s = L.total("transport.batch.run")
    histories = L.attr_sum("transport.batch.run", "histories")
    solves = L.calls.get("transport.multigroup.solve", 0)
    serve_us = []
    rotax_in_surrogate = 0.0
    surrogate_roots = 0.0
    for root in L.roots:
        for answer in L.descendants(root, "transport.api.answer"):
            if (L.spans[answer][4] or {}).get("engine") != "surrogate":
                continue
            serve_us.append(
                sum(
                    L.duration(i)
                    for n in (
                        "transport.surrogate.meets",
                        "transport.surrogate.evaluate",
                    )
                    for i in L.descendants(answer, n)
                )
                * 1e6
            )
            surrogate_roots += L.duration(root)
            rotax_in_surrogate += sum(
                L.duration(i)
                for i in L.descendants(root, "spectra.rotax_spectrum")
            )
    return {
        "service.protocol.parse_p50_us": L.p(
            "service.protocol.parse", 0.5
        ),
        "service.protocol.encode_p50_us": L.p(
            "service.protocol.encode", 0.5
        ),
        "service.protocol.share": L.share(
            "service.protocol.parse", "service.protocol.encode"
        ),
        "service.admission.admit_p50_us": L.p(
            "service.admission.admit", 0.5
        ),
        "service.admission.rejected": float(
            sum(
                1
                for a in L.attrs.get("service.admission.admit", [])
                if "error" in a
            )
        ),
        "service.cache.get_p50_us": L.p("service.cache.get", 0.5),
        "service.cache.get_share": L.share("service.cache.get"),
        "service.cache.hit_ratio": _ratio(
            L.count("service.cache.get", "hit"), gets
        ),
        "service.cache.put_p50_us": L.p("service.cache.put", 0.5),
        "service.cache.put_p99_us": L.p("service.cache.put", 0.99),
        "service.cache.put_share": L.share("service.cache.put"),
        "service.cache.bytes_per_put": _ratio(
            sum(a["bytes"] for a in puts), len(puts)
        ),
        "service.coalesce.handoff_p50_us": quantile(coalesce_selfs, 0.5)
        * 1e6,
        "service.coalesce.coalesced": float(
            L.calls.get("service.coalesce.get_or_compute", 0)
            - L.calls.get("service.coalesce.job", 0)
        ),
        "service.compute.execute_p50_us": L.p(
            "service.compute.execute", 0.5
        ),
        "service.compute.execute_share": L.share(
            "service.compute.execute"
        ),
        "service.compute.degraded": float(
            L.count("service.compute.execute", "degraded")
        ),
        "spectra.rotax_spectrum.calls": float(
            L.calls.get("spectra.rotax_spectrum", 0)
        ),
        "spectra.rotax_spectrum.p50_ms": L.p(
            "spectra.rotax_spectrum", 0.5, 1e3
        ),
        "spectra.rotax_spectrum.share": L.share("spectra.rotax_spectrum"),
        "core.fit.report_p50_us": L.p("core.fit.report", 0.5),
        "core.fit.report_share": L.share("core.fit.report"),
        "transport.api.answer_p50_ms": L.p(
            "transport.api.answer", 0.5, 1e3
        ),
        "transport.api.answer_share": L.share("transport.api.answer"),
        "transport.api.surrogate_hit_ratio": _ratio(
            sum(1 for a in negotiated if a.get("engine") == "surrogate"),
            len(negotiated),
        ),
        "transport.api.engine_share.surrogate": _ratio(
            engines.count("surrogate"), len(engines)
        ),
        "transport.api.engine_share.batch": _ratio(
            engines.count("batch"), len(engines)
        ),
        "transport.api.engine_share.deterministic": _ratio(
            engines.count("deterministic"), len(engines)
        ),
        "transport.surrogate.lookup_p50_us": L.p(
            "transport.surrogate.lookup", 0.5
        ),
        "transport.surrogate.serve_p50_us": quantile(serve_us, 0.5),
        "transport.surrogate.first_lookup_ms": L.first.get(
            "transport.surrogate.lookup", 0.0
        )
        * 1e3,
        "transport.batch.run_calls": float(
            L.calls.get("transport.batch.run", 0)
        ),
        "transport.batch.run_share": L.share("transport.batch.run"),
        "transport.batch.histories_per_s": _ratio(histories, batch_s),
        "transport.batch.source_share": _ratio(
            L.total("spectra.sample_energies"), batch_s
        ),
        "transport.batch.merge_share": _ratio(
            L.total("transport.batch.from_tally"), batch_s
        ),
        "transport.batch.sweep_share": _ratio(
            sum(L.selfs.get("transport.batch.run", [])), batch_s
        ),
        "transport.batch.collisions_per_history": _ratio(
            L.attr_sum("transport.batch.run", "collisions"), histories
        ),
        "transport.multigroup.build_p50_ms": L.p(
            "transport.multigroup.build", 0.5, 1e3
        ),
        "transport.multigroup.solve_p50_ms": L.p(
            "transport.multigroup.solve", 0.5, 1e3
        ),
        "transport.multigroup.iterations_per_solve": _ratio(
            L.attr_sum("transport.multigroup.solve", "iterations"),
            solves,
        ),
        "transport.multigroup.collapse_calls": float(
            L.calls.get("transport.multigroup.collapse", 0)
        ),
        "transport.multigroup.collapse_ms": L.total(
            "transport.multigroup.collapse"
        )
        * 1e3,
        "studies.ledger.append_p50_us": L.p(
            "studies.ledger.append", 0.5
        ),
        "studies.ledger.append_p99_us": L.p(
            "studies.ledger.append", 0.99
        ),
        "studies.ledger.append_share": L.share("studies.ledger.append"),
        "studies.ledger.replay_calls": float(
            L.calls.get("studies.ledger.replay", 0)
        ),
        "studies.store.put_p50_us": L.p("studies.store.put", 0.5),
        "studies.store.put_share": L.share("studies.store.put"),
        "studies.scheduler.evaluate_share": L.share(
            "studies.scheduler.evaluate"
        ),
        "trace.unattributed_share": _ratio(L.unattributed, L.root_total),
        "finding.rotax_share_of_surrogate_request": _ratio(
            rotax_in_surrogate, surrogate_roots
        ),
        "finding.multigroup_builds_per_solve": _ratio(
            L.calls.get("transport.multigroup.build", 0), solves
        ),
    }


def counter_expectations(spans: List[list]) -> Dict[str, int]:
    """What the server's own counters must read, counted from every
    span of the trace (warm-up included)."""
    counts = {
        "repro_service_requests_total": 0,
        "repro_service_cache_hits_total": 0,
        "repro_service_cache_misses_total": 0,
        "repro_service_cache_writes_total": 0,
        "repro_surrogate_hits_total": 0,
        "repro_surrogate_misses_total": 0,
        "repro_service_degraded_total": 0,
    }
    for name, _, _, _, attrs in spans:
        attrs = attrs or {}
        if name == REQUEST_SPAN:
            counts["repro_service_requests_total"] += 1
        elif name == "service.cache.get":
            hit = attrs.get("hit")
            counts[
                "repro_service_cache_hits_total"
                if hit
                else "repro_service_cache_misses_total"
            ] += 1
        elif name == "service.cache.put" and attrs.get("ok"):
            counts["repro_service_cache_writes_total"] += 1
        elif name == "transport.api.answer":
            if attrs.get("engine") == "surrogate":
                counts["repro_surrogate_hits_total"] += 1
            elif attrs.get("policy") in ("auto", "surrogate"):
                counts["repro_surrogate_misses_total"] += 1
        elif name == "service.compute.execute" and attrs.get("degraded"):
            counts["repro_service_degraded_total"] += 1
    return counts


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sum every series of each metric in a Prometheus scrape."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals
