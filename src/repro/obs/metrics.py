"""Counters, gauges, and timing histograms for harness telemetry.

A :class:`MetricsRegistry` is a plain in-process accumulator — no
threads, no sockets, no dependencies.  The runtime increments it
through the module helpers in :mod:`repro.obs.core` (one global read
when observability is off), and the CLI exports it after a run as
JSON or Prometheus text exposition format.

Metric naming follows Prometheus conventions: ``repro_*_total`` for
counters, plain gauges, and ``*_seconds`` histograms with fixed
bucket bounds (suffix ``_s``: all observed values are seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "DEFAULT_BUCKET_BOUNDS_S",
    "EVENTS",
    "HistogramState",
    "METRICS",
    "MetricsRegistry",
    "SPANS",
]

# ---------------------------------------------------------------------
# Machine-readable name registries.
#
# Every span, event, and metric name used at a call site must be
# declared here, and every declaration must have a call site — the
# REP102 registry-drift rule (``repro lint --project``) enforces both
# directions, the same way ``FAULT_POINTS`` anchors chaos site names
# in :mod:`repro.chaos.faultpoints`.
# ---------------------------------------------------------------------

#: Registered metric names → one-line description.
METRICS: Dict[str, str] = {
    "repro_retries_total": "supervised step retries",
    "repro_isolations_total": "steps isolated after retry exhaustion",
    "repro_degradations_total": "campaign results degraded by isolation",
    "repro_fleet_days_total": "fleet-days simulated",
    "repro_checkpoint_writes_total": "checkpoint files written",
    "repro_checkpoint_loads_total": "checkpoint files loaded",
    "repro_chaos_fires_total": "chaos faults injected",
    "repro_chaos_trials_total": "chaos trials executed",
    "repro_exposures_total": "beam exposures simulated",
    "repro_events_observed_total": "SDC/DUE events tallied",
    "repro_transport_histories_total": "Monte Carlo histories run",
    "repro_histories_per_s": "transport throughput gauge",
    "repro_deterministic_solves_total": (
        "deterministic multigroup transport solves"
    ),
    "repro_deterministic_iterations_total": (
        "deterministic solver source iterations swept"
    ),
    "repro_memory_passes_total": "memory test passes completed",
    "repro_span_seconds": "wall-clock histogram over all spans",
    "repro_retries_exhausted_total": (
        "supervised calls that failed every budgeted attempt"
    ),
    "repro_service_requests_total": "FIT service queries received",
    "repro_service_errors_total": (
        "FIT service structured errors returned"
    ),
    "repro_service_cache_hits_total": (
        "transmission queries served a cached live-engine answer"
    ),
    "repro_service_cache_misses_total": (
        "transmission queries with no servable cache entry"
        " (fit/cross-section/flux never consult the cache)"
    ),
    "repro_service_cache_writes_total": (
        "clean live-engine transmission answers durably cached"
    ),
    "repro_service_cache_write_failures_total": (
        "service result-cache writes abandoned after retries"
    ),
    "repro_service_cache_quarantined_total": (
        "corrupt service cache entries quarantined"
    ),
    "repro_service_coalesced_total": (
        "service queries attached to an in-flight computation"
    ),
    "repro_service_shed_total": (
        "service queries rejected by admission control"
    ),
    "repro_service_degraded_total": (
        "service responses flagged as degraded"
    ),
    "repro_service_breaker_open": (
        "service circuit breaker state (1 = batch engine disabled)"
    ),
    "repro_service_in_process_total": (
        "live service queries computed in-process because the worker"
        " pool was lost to a worker death or not forked while other"
        " threads ran"
    ),
    "repro_service_cache_swept_total": (
        "orphaned cache tmp files swept at server start"
    ),
    "repro_study_shards_total": "study shards committed",
    "repro_study_shards_degraded_total": (
        "study shards served by a fallback engine"
    ),
    "repro_study_shards_quarantined_total": (
        "poison study shards quarantined"
    ),
    "repro_study_ledger_appends_total": (
        "study write-ahead-ledger records durably appended"
    ),
    "repro_study_ledger_replays_total": (
        "study write-ahead-ledger replays"
    ),
    "repro_study_pool_shards_total": (
        "study shards whose first attempt a pool worker computed"
    ),
    "repro_study_pool_fallbacks_total": (
        "study shards handed to a pool worker but evaluated in-process"
        " (reason: broken-pool, changed-pick)"
    ),
    "repro_surrogate_hits_total": (
        "transport queries served from a certified surrogate surface"
    ),
    "repro_surrogate_misses_total": (
        "surrogate-eligible queries the surfaces could not serve"
    ),
    "repro_surrogate_fallbacks_total": (
        "surrogate-policy queries answered by a live engine instead"
    ),
    "repro_surrogate_quarantined_total": (
        "corrupt surrogate artifacts quarantined at load"
    ),
}

#: Registered span names → one-line description.
SPANS: Dict[str, str] = {
    "run.campaign": "one accelerated campaign end to end",
    "run.fleet": "one fleet simulation end to end",
    "supervisor.step": "one supervised campaign step",
    "fleet.day": "one simulated fleet day",
    "fleet.year": "one simulated fleet year",
    "checkpoint.write": "checkpoint serialization and fsync",
    "checkpoint.load": "checkpoint read and validation",
    "chaos.trial": "one chaos trial subprocess",
    "campaign.exposure": "one beam exposure",
    "transport.run": (
        "one batch transport call: every run it sweeps (histories,"
        " runs, collision rounds, scatters, and the moderated ones"
        " off the thermal-bath floor that ran the isotope pick and"
        " the kinematics)"
    ),
    "transport.deterministic": (
        "one deterministic multigroup solve"
    ),
    "memory.run": "one memory test campaign",
    "service.request": "one FIT service query end to end",
    "study.run": "one sharded study end to end",
    "study.shard": "one study shard evaluation attempt",
    "surrogate.build": (
        "one surrogate artifact build (grid fill + certification)"
    ),
}

#: Registered event names → one-line description.
EVENTS: Dict[str, str] = {
    "supervisor.retry": "a supervised step was retried",
    "supervisor.isolation": "a step was isolated",
    "chaos.fire": "a chaos fault fired",
    "memory.pass": "a memory test pass completed",
    "supervisor.exhausted": (
        "a supervised call failed its final retry attempt"
    ),
    "service.shutdown": "the FIT service began graceful shutdown",
    "study.quarantine": "a poison study shard was quarantined",
    "study.pool": (
        "a study's worker pool broke; its shards run in-process"
    ),
    "surrogate.artifact_quarantined": (
        "a corrupt surrogate artifact was quarantined"
    ),
}

#: Histogram bucket upper bounds, seconds.  Spans range from
#: sub-millisecond checkpoint writes to multi-minute campaigns.
DEFAULT_BUCKET_BOUNDS_S: Tuple[float, ...] = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
    600.0,
)

#: A metric identity: name plus sorted ``(label, value)`` pairs.
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


@dataclass
class HistogramState:
    """One histogram series: bucket counts, total count, and sum.

    Attributes:
        bounds_s: bucket upper bounds, seconds (ascending).
        bucket_counts: observations at or below each bound.
        count: total observations.
        sum_s: sum of observed values, seconds.
    """

    bounds_s: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS_S
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    sum_s: float = 0.0

    def __post_init__(self) -> None:
        """Size the bucket array to the bounds."""
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.bounds_s)

    def observe(self, value_s: float) -> None:
        """Record one observation (seconds).

        ``bucket_counts`` are per-bucket (not cumulative); values
        above the last bound land only in ``count``/``sum_s`` (the
        implicit ``+Inf`` bucket).
        """
        self.count += 1
        self.sum_s += value_s
        for i, bound_s in enumerate(self.bounds_s):
            if value_s <= bound_s:
                self.bucket_counts[i] += 1
                break


class MetricsRegistry:
    """In-process metric store: counters, gauges, histograms.

    Series are keyed by metric name plus an optional label set, e.g.
    ``registry.inc("repro_retries_total", task="ddr")``.  Exports are
    deterministic: series render sorted by name then labels.
    """

    def __init__(self) -> None:
        self._counters: Dict[_Key, float] = {}
        self._gauges: Dict[_Key, float] = {}
        self._histograms: Dict[_Key, HistogramState] = {}

    # -- recording -----------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: str) -> None:
        """Add ``amount`` to a counter series (creating it at zero)."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge series to ``value``."""
        self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value_s: float, **labels: str) -> None:
        """Record one histogram observation (seconds)."""
        key = _key(name, labels)
        state = self._histograms.get(key)
        if state is None:
            state = self._histograms[key] = HistogramState()
        state.observe(value_s)

    # -- reading -------------------------------------------------------

    def counter(self, name: str, **labels: str) -> float:
        """Current value of a counter series (0 if never touched)."""
        return self._counters.get(_key(name, labels), 0)

    def gauge(self, name: str, **labels: str) -> float:
        """Current value of a gauge series (0.0 if never set)."""
        return self._gauges.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels: str) -> HistogramState:
        """A histogram series' state (empty if never observed)."""
        return self._histograms.get(_key(name, labels), HistogramState())

    # -- export --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every series."""
        return {
            "counters": {
                _series_name(key): value
                for key, value in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(key): value
                for key, value in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(key): {
                    "bounds_s": list(state.bounds_s),
                    "buckets": list(state.bucket_counts),
                    "count": state.count,
                    "sum_s": state.sum_s,
                }
                for key, state in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in sorted({key[0] for key in self._counters}):
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(self._counters.items()):
                if key[0] == metric:
                    lines.append(f"{_series_name(key)} {_num(value)}")
        for metric in sorted({key[0] for key in self._gauges}):
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(self._gauges.items()):
                if key[0] == metric:
                    lines.append(f"{_series_name(key)} {_num(value)}")
        for metric in sorted({key[0] for key in self._histograms}):
            lines.append(f"# TYPE {metric} histogram")
            for key, state in sorted(self._histograms.items()):
                if key[0] != metric:
                    continue
                cumulative = 0
                for bound_s, n in zip(
                    state.bounds_s, state.bucket_counts
                ):
                    cumulative += n
                    lines.append(_bucket_line(key, bound_s, cumulative))
                lines.append(_bucket_line(key, None, state.count))
                lines.append(
                    f"{_series_name(key, suffix='_sum')}"
                    f" {_num(state.sum_s)}"
                )
                lines.append(
                    f"{_series_name(key, suffix='_count')} {state.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _key(name: str, labels: Dict[str, str]) -> _Key:
    """Normalize a (name, labels) pair into a dict key."""
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(key: _Key, suffix: str = "") -> str:
    """Render ``name{label="value"}`` for exports."""
    name, labels = key
    if not labels:
        return name + suffix
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{suffix}{{{body}}}"


def _bucket_line(key: _Key, bound_s, cumulative: int) -> str:
    """One ``_bucket`` sample line with the ``le`` label appended."""
    name, labels = key
    le = "+Inf" if bound_s is None else _num(bound_s)
    pairs = list(labels) + [("le", le)]
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return f"{name}_bucket{{{body}}} {cumulative}"


def _num(value: float) -> str:
    """Render a number without a trailing ``.0`` for integers."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
