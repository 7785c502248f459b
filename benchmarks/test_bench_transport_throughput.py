"""Throughput benchmark: scalar vs batch vs deterministic engines.

Times the engines on the same slab/source configurations and writes
``BENCH_transport.json`` at the repo root (histories/sec and speedup),
so the performance trajectory is tracked across PRs.  The committed
JSON is the "benchmark result" two acceptance criteria point at:

* single point — batch >= 10x scalar throughput at 1e5 histories;
* thickness sweep — the deterministic multigroup engine >= 10x the
  batch engine's wall clock over the committed water sweep (one
  noise-free solve per point vs 1e5 histories per point).

``REPRO_SMOKE=1`` shrinks the history counts for CI smoke lanes; the
smoke assertions only demand that the faster engine is not *slower*
than its baseline, while the full run enforces the 10x bars.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import run_once
from repro.analysis import format_table
from repro.transport import WATER
from repro.transport.api import TransportQuery, answer

_REPO_ROOT = Path(__file__).resolve().parent.parent
_RESULT_PATH = _REPO_ROOT / "BENCH_transport.json"

_SOURCE_ENERGY_EV = 1.0e6
_THICKNESS_CM = 5.0

#: The committed sweep scenario for the deterministic lane: water
#: shield thicknesses, one transmission answer per point.
_SWEEP_THICKNESSES_CM = (1.0, 2.0, 3.0, 4.0, 5.0)


def _run(engine: str, thickness_cm: float, n_histories: int):
    """One live-engine answer for the water slab, surrogates bypassed."""
    return answer(
        TransportQuery(
            mode="transmission",
            material=WATER,
            thickness_cm=thickness_cm,
            source_energy_ev=_SOURCE_ENERGY_EV,
            n_neutrons=n_histories,
            seed=2020,
            engine=engine,
        ),
        store=None,
    ).result


def _time_engine(engine: str, n_histories: int) -> dict:
    start = time.perf_counter()
    result = _run(engine, _THICKNESS_CM, n_histories)
    elapsed = time.perf_counter() - start
    assert result.balance_check()
    return {
        "engine": engine,
        "seconds": round(elapsed, 4),
        "histories_per_s": round(n_histories / elapsed, 1),
    }


def _time_sweep(engine: str, n_histories: int) -> dict:
    """One engine over the committed thickness sweep.

    Each point is a fresh facade answer, which builds a fresh engine —
    exactly what a shielding scan does — so the deterministic lane
    pays its full per-geometry setup (mesh + response matrices) every
    point.  Only the module-level memos carry over: the condensed
    tables and the source's continuous-energy kernel.
    """
    start = time.perf_counter()
    for thickness_cm in _SWEEP_THICKNESSES_CM:
        result = _run(engine, thickness_cm, n_histories)
        assert result.balance_check()
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "n_histories_per_point": n_histories,
        "seconds": round(elapsed, 4),
        "seconds_per_point": round(
            elapsed / len(_SWEEP_THICKNESSES_CM), 4
        ),
    }


def _run_benchmark(smoke: bool) -> dict:
    n_histories = 5_000 if smoke else 100_000
    scalar = _time_engine("scalar", n_histories)
    batch = _time_engine("batch", n_histories)
    speedup = (
        batch["histories_per_s"] / scalar["histories_per_s"]
    )
    # Deterministic sweep lane: n_neutrons is 1 because the answer
    # is a noise-free fraction — the comparison is per sweep point.
    sweep_histories = 10_000 if smoke else 100_000
    batch_sweep = _time_sweep("batch", sweep_histories)
    deterministic_sweep = _time_sweep("deterministic", 1)
    sweep_speedup = (
        batch_sweep["seconds"] / deterministic_sweep["seconds"]
    )
    return {
        "benchmark": "slab transport throughput",
        "geometry": f"water {_THICKNESS_CM} cm",
        "source_energy_ev": _SOURCE_ENERGY_EV,
        "n_histories": n_histories,
        "smoke": smoke,
        "scalar": scalar,
        "batch": batch,
        "speedup": round(speedup, 2),
        "sweep": {
            "thicknesses_cm": list(_SWEEP_THICKNESSES_CM),
            "batch": batch_sweep,
            "deterministic": deterministic_sweep,
            "speedup": round(sweep_speedup, 2),
        },
    }


def test_bench_transport_throughput(benchmark, announce):
    smoke = bool(os.environ.get("REPRO_SMOKE"))
    payload = run_once(benchmark, _run_benchmark, smoke)

    rows = [
        [
            entry["engine"],
            f"{entry['seconds']:.3f}",
            f"{entry['histories_per_s']:.0f}",
        ]
        for entry in (payload["scalar"], payload["batch"])
    ]
    rows.append(["speedup", "", f"{payload['speedup']:.1f}x"])
    sweep = payload["sweep"]
    for entry in (sweep["batch"], sweep["deterministic"]):
        rows.append(
            [
                f"sweep:{entry['engine']}",
                f"{entry['seconds']:.3f}",
                f"{entry['seconds_per_point']:.4f} s/pt",
            ]
        )
    rows.append(
        ["sweep speedup", "", f"{sweep['speedup']:.1f}x"]
    )
    announce(
        format_table(
            ["engine", "seconds", "histories/s"],
            rows,
            title=(
                f"Transport throughput — {payload['n_histories']}"
                " histories, water slab"
            ),
        )
    )

    # Smoke lanes only guard the sign of the win (tiny runs are
    # dominated by fixed overheads); the full benchmark enforces the
    # acceptance bars.
    if smoke:
        assert payload["speedup"] >= 1.0, (
            f"batch slower than scalar: {payload['speedup']:.2f}x"
        )
        assert sweep["speedup"] >= 1.0, (
            "deterministic sweep slower than batch:"
            f" {sweep['speedup']:.2f}x"
        )
    else:
        assert payload["speedup"] >= 10.0, (
            f"batch speedup below 10x: {payload['speedup']:.2f}x"
        )
        assert sweep["speedup"] >= 10.0, (
            "deterministic sweep speedup below 10x:"
            f" {sweep['speedup']:.2f}x"
        )
        _RESULT_PATH.write_text(
            json.dumps(payload, indent=2) + "\n"
        )
