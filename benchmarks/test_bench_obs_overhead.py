"""Observability overhead: disabled call sites and enabled tracing.

The observability contract mirrors the chaos fault-point one — an
uninstrumented process must pay only a module-global read plus a
``None`` check per span/metric call site.  Two gates:

* **Disabled**: a large batch of disabled span entries stays far
  below a microsecond each.
* **Enabled**: full tracing + metrics on the batch-transport
  benchmark workload (1e5 histories; fewer under ``REPRO_SMOKE=1``)
  costs <= 5 % wall time versus the unobserved run — spans sit at
  step/run granularity, never in per-neutron loops, so the overhead
  is fixed, not proportional.  Unobserved and observed runs
  alternate in pairs, and the gate reads the median of the per-pair
  ratios: a ratio of two short runs swings by tens of percent on a
  shared host, and pairing cancels the drift between them.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import run_once
from repro.obs.core import Observer, detach, enabled, inc, install, span
from repro.obs.metrics import MetricsRegistry
from repro.transport import WATER
from repro.transport.api import TransportQuery, answer

N_CALLS = 200_000

_SOURCE_ENERGY_EV = 1.0e6
_THICKNESS_CM = 5.0

#: Enabled-overhead gate: the median over pairs of the observed /
#: unobserved wall-time ratio.
_MAX_ENABLED_RATIO = 1.05

#: Unobserved/observed run pairs the enabled gate times.  On a shared
#: 2-vCPU host the smoke median over 21 pairs read 0.995-1.051 (and
#: once 1.228) across 30 processes; over 41 it read 1.000-1.022.
_PAIRS = 41


def _span_many() -> int:
    for idx in range(N_CALLS):
        with span("supervisor.step", step=idx):
            pass
    return N_CALLS


def _inc_many() -> int:
    for _ in range(N_CALLS):
        inc("repro_exposures_total")
    return N_CALLS


def test_bench_disabled_span(benchmark, announce):
    assert not enabled()
    calls = run_once(benchmark, _span_many)

    per_call_ns = benchmark.stats["mean"] / calls * 1e9
    announce(
        "obs off: "
        f"{calls} span entries, {per_call_ns:.0f} ns per entry"
    )

    # A disabled span is a global read + None check returning the
    # shared null span; anything near campaign-step cost would mean
    # the instrumentation leaked into the hot path.
    assert per_call_ns < 5_000


def test_bench_disabled_counter(benchmark, announce):
    assert not enabled()
    calls = run_once(benchmark, _inc_many)

    per_call_ns = benchmark.stats["mean"] / calls * 1e9
    announce(
        "obs off: "
        f"{calls} counter incs, {per_call_ns:.0f} ns per call"
    )
    assert per_call_ns < 5_000


def _transport_run(n_histories: int) -> float:
    """One seeded batch-transport run; returns wall seconds."""
    query = TransportQuery(
        mode="transmission",
        material=WATER,
        thickness_cm=_THICKNESS_CM,
        source_energy_ev=_SOURCE_ENERGY_EV,
        n_neutrons=n_histories,
        seed=2020,
        engine="batch",
    )
    start = time.perf_counter()
    result = answer(query, store=None).result
    assert result.balance_check()
    return time.perf_counter() - start


def _measure_overhead(tmp_path, smoke: bool) -> dict:
    n_histories = 5_000 if smoke else 100_000
    # Warm-up outside every timed run (imports, worker pools).
    _transport_run(1_000)
    observer = Observer(
        trace_path=tmp_path / "trace.jsonl",
        registry=MetricsRegistry(),
    )

    def observed_run() -> float:
        install(observer)
        try:
            return _transport_run(n_histories)
        finally:
            # Detach, not uninstall: uninstalling closes the trace
            # sink, and reopening it for every run would charge each
            # one a cost an observed process pays once.
            detach()

    baseline_s, observed_s = [], []
    try:
        for pair in range(_PAIRS):
            # Alternate which run goes first, so neither side always
            # runs second.
            if pair % 2:
                observed_s.append(observed_run())
                baseline_s.append(_transport_run(n_histories))
            else:
                baseline_s.append(_transport_run(n_histories))
                observed_s.append(observed_run())
    finally:
        observer.close()
    ratios = [o / b for o, b in zip(observed_s, baseline_s)]
    return {
        "n_histories": n_histories,
        "baseline_s": statistics.median(baseline_s),
        "observed_s": statistics.median(observed_s),
        "ratios": ratios,
        "ratio": statistics.median(ratios),
    }


def test_bench_enabled_overhead(benchmark, announce, tmp_path):
    smoke = bool(os.environ.get("REPRO_SMOKE"))
    payload = run_once(benchmark, _measure_overhead, tmp_path, smoke)

    announce(
        "obs on (trace + metrics): "
        f"{payload['n_histories']} histories, {_PAIRS} pairs, "
        f"median baseline {payload['baseline_s']:.3f} s, "
        f"median observed {payload['observed_s']:.3f} s, "
        f"pair ratios {min(payload['ratios']):.3f}"
        f"-{max(payload['ratios']):.3f}, "
        f"median ratio {payload['ratio']:.3f}"
    )
    assert payload["ratio"] <= _MAX_ENABLED_RATIO, (
        f"enabled observability overhead {payload['ratio']:.3f}x"
        f" exceeds {_MAX_ENABLED_RATIO}x"
    )
