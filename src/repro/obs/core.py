"""Structured tracing: the observer, spans, and module helpers.

Mirrors the :mod:`repro.chaos.faultpoints` contract — one installable
module-global handler, and instrumentation call sites that cost a
single global read plus a ``None`` check while observability is off
(benchmarked in ``benchmarks/test_bench_obs_overhead.py``).  The
instrumented packages call the module helpers::

    from repro.obs import core as obs

    with obs.span("supervisor.step", step=idx):
        ...
    obs.inc("repro_retries_total")

With no :class:`Observer` installed (the default), ``span`` returns a
shared stateless null span and the metric helpers return immediately.
With one installed, spans emit paired ``begin``/``end`` records to a
JSON-lines trace sink, time themselves against injectable wall/CPU
clocks (so determinism tests can demand byte-identical traces), feed
a ``repro_span_seconds`` histogram, and optionally capture a
``cProfile`` of one flagged span.

Design rules, inherited from the fault-point layer:

* **No dependency cycles.**  This module imports only the standard
  library, so every instrumented package can import it freely.
* **Spans sit at step / checkpoint / sweep / read-pass granularity**,
  never inside per-neutron or per-strike inner loops.
"""

from __future__ import annotations

import cProfile
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, IO, Iterator, Optional, Union

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "NullSpan",
    "Observer",
    "SPAN_HISTOGRAM",
    "Span",
    "active",
    "detach",
    "enabled",
    "event",
    "inc",
    "install",
    "observe",
    "observing",
    "set_gauge",
    "span",
    "uninstall",
]

#: The active observer (``None`` = observability off, the default).
_active: Optional["Observer"] = None

#: Histogram every completed span feeds (labelled by span name).
SPAN_HISTOGRAM = "repro_span_seconds"


class NullSpan:
    """The do-nothing span returned while observability is off.

    A single shared instance; carries no state, so re-entering it
    concurrently is safe.  ``elapsed_s`` stays 0.0 — callers deriving
    rates must guard against it (they should anyway: a real span can
    complete within clock resolution).
    """

    #: Wall-clock duration; always 0.0 on the null span.
    elapsed_s = 0.0

    def __enter__(self) -> "NullSpan":
        """No-op."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op; never swallows exceptions."""
        return False

    def annotate(self, **attrs) -> None:
        """No-op."""


_NULL_SPAN = NullSpan()


class Span:
    """One live traced operation (use as a context manager).

    Created by :meth:`Observer.span`; emits a ``begin`` record on
    entry and an ``end`` record (with wall and CPU durations) on
    exit.

    Attributes:
        elapsed_s: wall-clock duration, set on exit (0.0 until then).
    """

    __slots__ = (
        "_observer",
        "name",
        "attrs",
        "_t0_wall_s",
        "_t0_cpu_s",
        "_profile",
        "elapsed_s",
    )

    def __init__(self, observer: "Observer", name: str, attrs: dict):
        self._observer = observer
        self.name = name
        self.attrs = attrs
        self._t0_wall_s = 0.0
        self._t0_cpu_s = 0.0
        self._profile: Optional[cProfile.Profile] = None
        self.elapsed_s = 0.0

    def __enter__(self) -> "Span":
        """Emit the ``begin`` record; arm profiling if flagged."""
        observer = self._observer
        self._t0_wall_s = observer.clock()
        self._t0_cpu_s = observer.cpu_clock()
        observer._emit("begin", self.name, self.attrs)
        if observer.profile_span == self.name:
            self._profile = cProfile.Profile()
            self._profile.enable()
        return self

    def annotate(self, **attrs) -> None:
        """Add attributes known only once the work is done; the
        ``end`` record carries them."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Emit the ``end`` record with durations; never swallows."""
        observer = self._observer
        if self._profile is not None:
            self._profile.disable()
            observer._dump_profile(self._profile)
            self._profile = None
        wall_s = observer.clock() - self._t0_wall_s
        cpu_s = observer.cpu_clock() - self._t0_cpu_s
        self.elapsed_s = wall_s
        extra = dict(self.attrs)
        extra["wall_s"] = wall_s
        extra["cpu_s"] = cpu_s
        if exc_type is not None:
            extra["error"] = exc_type.__name__
        observer._emit("end", self.name, extra)
        if observer.registry is not None:
            observer.registry.observe(
                SPAN_HISTOGRAM, wall_s, span=self.name
            )
        return False


class Observer:
    """Collects trace records and metrics for one process.

    Args:
        trace_path: JSON-lines sink for trace records (``None`` =
            metrics only).  Opened lazily in append mode — a resumed
            process continues the same file — and flushed per record
            so a SIGKILL loses at most the record in flight.
        registry: metrics accumulator (``None`` = tracing only).
        clock: wall clock, seconds.  Defaults to
            ``time.perf_counter``; inject a deterministic fake to make
            traces byte-stable.
        cpu_clock: CPU clock, seconds.  Defaults to
            ``time.process_time``; inject alongside ``clock`` for
            byte-stable traces.
        profile_span: span name to capture a ``cProfile`` of (the
            profiler covers each entry of that span).
        profile_path: where the profile stats are dumped (required
            when ``profile_span`` is set).
    """

    def __init__(
        self,
        trace_path: Optional[Union[str, Path]] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        cpu_clock: Optional[Callable[[], float]] = None,
        profile_span: str = "",
        profile_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if profile_span and profile_path is None:
            raise ValueError(
                "profile_span requires profile_path to dump stats to"
            )
        self.trace_path = (
            Path(trace_path) if trace_path is not None else None
        )
        self.registry = registry
        self.clock = clock if clock is not None else time.perf_counter
        self.cpu_clock = (
            cpu_clock if cpu_clock is not None else time.process_time
        )
        self.profile_span = profile_span
        self.profile_path = (
            Path(profile_path) if profile_path is not None else None
        )
        self._seq = 0
        self._sink: Optional[IO[str]] = None

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new live span (enter it with ``with``)."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit one point-in-time trace record."""
        self._emit("point", name, attrs)

    def _emit(self, kind: str, name: str, attrs: dict) -> None:
        """Write one trace record; no-op without a trace sink."""
        if self.trace_path is None:
            return
        if self._sink is None:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(
                self.trace_path, "a", encoding="utf-8"
            )
        record = {
            "seq": self._seq,
            "kind": kind,
            "name": name,
            "t_s": self.clock(),
        }
        if attrs:
            record["attrs"] = attrs
        self._seq += 1
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")
        self._sink.flush()

    def _dump_profile(self, profile: cProfile.Profile) -> None:
        """Persist a captured profile to ``profile_path``."""
        if self.profile_path is not None:
            profile.dump_stats(str(self.profile_path))

    def close(self) -> None:
        """Close the trace sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None


# ----------------------------------------------------------------------
# Module helpers — the instrumentation call sites
# ----------------------------------------------------------------------


def span(name: str, **attrs):
    """A span for ``name``; the shared null span while off.

    Disabled cost: one module-global read and a ``None`` check.
    """
    observer = _active
    if observer is None:
        return _NULL_SPAN
    return observer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Emit a point trace record; a no-op while off."""
    observer = _active
    if observer is not None:
        observer.event(name, **attrs)


def inc(name: str, amount: float = 1, **labels: str) -> None:
    """Increment a counter; a no-op while off or metrics-less."""
    observer = _active
    if observer is not None and observer.registry is not None:
        observer.registry.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge; a no-op while off or metrics-less."""
    observer = _active
    if observer is not None and observer.registry is not None:
        observer.registry.set_gauge(name, value, **labels)


def observe(name: str, value_s: float, **labels: str) -> None:
    """Record a histogram sample; a no-op while off."""
    observer = _active
    if observer is not None and observer.registry is not None:
        observer.registry.observe(name, value_s, **labels)


def enabled() -> bool:
    """True while an observer is installed."""
    return _active is not None


def active() -> Optional[Observer]:
    """The installed observer, or ``None``."""
    return _active


def install(observer: Observer) -> None:
    """Install ``observer`` as the process-wide trace handler.

    Raises:
        RuntimeError: if an observer is already installed (traces
            must not interleave — uninstall the old one first).
    """
    global _active
    if _active is not None:
        raise RuntimeError(
            "an observer is already installed;"
            " uninstall it before installing another"
        )
    _active = observer


def uninstall() -> None:
    """Remove the installed observer, closing its sink (idempotent)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def detach() -> None:
    """Remove the installed observer *without* closing its sink.

    For a forked worker: the observer it inherited writes to the
    parent's open trace file, which only the parent may write,
    flush or close.
    """
    global _active
    _active = None


@contextmanager
def observing(observer: Observer) -> Iterator[Observer]:
    """Context manager: install ``observer``, always uninstall."""
    install(observer)
    try:
        yield observer
    finally:
        uninstall()
