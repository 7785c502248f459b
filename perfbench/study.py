"""The ``shield-study`` workload: a durable shielding sweep.

A study child (``child.py study``) runs the public ``StudyScheduler``
the way ``repro studies run`` does, with a fresh ledger and store
directory per study.  It runs whole studies back to back, starting
another while the window has time left, so every figure covers whole
studies.  A study's latency is its time to solution: scheduler run
start to the finished report.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import List, Tuple

import workloads
from common import (
    SETUP_REPEATS,
    Child,
    Context,
    Outcome,
    RunFailed,
)
from tracing import Layers, load_spans, quantile

#: MC rows and unshielded rows re-evaluated in-process per run.
MC_SAMPLES = 3
PLAIN_SAMPLES = 1


def _run(ctx, index, seconds, trace_out=None) -> Tuple[dict, float]:
    """One study child through its window; returns (result, setup_s),
    the set-up being the time until the child is ready.

    With ``seconds`` 0 the child only sets up and exits."""
    result_path = ctx.work / f"result-{index}.json"
    args = [
        "study",
        "--spec", str(ctx.work / "spec.json"),
        "--workdir", str(ctx.work / f"studies-{index}"),
        "--seconds", str(seconds),
        "--result", str(result_path),
    ]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    child = Child(ctx, ctx.child_argv(*args), f"study-{index}")
    try:
        child.wait_ready("ready")
        setup_s = time.perf_counter() - start
        code, _ = child.finish(seconds + 120.0)
    finally:
        child.close()
    if code != 0:
        raise RunFailed(f"{child.name} exited {code}: {child.log_tail()}")
    return json.loads(result_path.read_text(encoding="utf-8")), setup_s


def _write_spec(ctx: Context) -> dict:
    spec = workloads.study_spec(ctx.seed)
    (ctx.work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def _check(result: dict, spec_dict: dict, seed: int, outcome: Outcome):
    """Study outcomes, then sampled rows against ``evaluate_point``."""
    from repro.studies.evaluate import evaluate_point
    from repro.studies.spec import StudySpec

    spec = StudySpec.from_dict(spec_dict)
    rows: List[dict] = []
    for study in result["studies"]:
        outcome.attempted += len(study["rows"])
        outcome.check(
            study["status"] == "complete"
            and study["quarantined"] == 0
            and study["degraded"] == 0,
            f"study ended {study['status']} with {study['quarantined']}"
            f" quarantined and {study['degraded']} degraded shards",
        )
        rows.extend(study["rows"])
    rng = random.Random(seed)
    mc = [r for r in rows if r["mc_source"] > 0]
    plain = [r for r in rows if r["point"]["shield"] == "none"]
    sampled = rng.sample(mc, min(MC_SAMPLES, len(mc))) + rng.sample(
        plain, min(PLAIN_SAMPLES, len(plain))
    )
    for row in sampled:
        expected = evaluate_point(
            row["point"],
            n_neutrons=spec.n_neutrons,
            seed=spec.point_seed(row["point"]),
            engine=spec.engine,
        )
        outcome.check(
            json.loads(json.dumps(expected)) == row,
            f"study row {row['point']} differs from evaluate_point",
        )
    return rows


def _figures(result: dict, rows: List[dict]) -> dict:
    """Points/s, figure of merit/s and the workload's input shares."""
    wall_s = result["wall_s"]
    mc = [r for r in rows if r["mc_source"] > 0]
    fom = 0.0
    for row in mc:
        n, hits = row["mc_source"], row["mc_transmitted_thermal"]
        p = hits / n
        if 0.0 < p < 1.0:
            # 1 / sigma_rel^2 of a binomial fraction: p N / (1 - p).
            fom += p * n / (1.0 - p)
    latencies = [study["wall_s"] for study in result["studies"]]
    return {
        "points_per_s": len(rows) / wall_s,
        "fom_per_s": fom / wall_s,
        "mc_point_share": len(mc) / len(rows),
        "zero_count_point_share": (
            sum(r["mc_transmitted_thermal"] == 0 for r in mc) / len(mc)
            if mc
            else 0.0
        ),
        "latencies": latencies,
        "cpu_util": result["cpu_s"] / wall_s,
    }


def _note(result: dict, figures: dict, label: str) -> str:
    studies = result["studies"]
    return (
        f"shield-study{label}: {len(studies)} whole studies,"
        f" {figures['points_per_s'] * result['wall_s']:.0f} points in"
        f" {result['wall_s']:.2f} s; mc_point_share="
        f"{figures['mc_point_share']:.4g} zero_count_point_share="
        f"{figures['zero_count_point_share']:.4g} fom_per_s="
        f"{figures['fom_per_s']:.6g}"
    )


def run_untraced(ctx: Context) -> Outcome:
    """End-to-end metrics: ``SETUP_REPEATS`` set-ups, one window in the
    child of the last set-up before it."""
    outcome = Outcome()
    spec = _write_spec(ctx)
    measured = SETUP_REPEATS // 2 - 1
    setups = []
    for index in range(SETUP_REPEATS):
        if index == measured:
            result, setup_s = _run(ctx, index, ctx.seconds)
        else:
            setup_s = _run(ctx, index, 0.0)[1]
        setups.append(setup_s)
    rows = _check(result, spec, ctx.seed, outcome)
    figures = _figures(result, rows)
    outcome.notes.append(_note(result, figures, ""))
    outcome.notes.append(
        "setup_s samples: " + " ".join(f"{s:.3f}" for s in setups)
    )
    latencies = figures["latencies"]
    outcome.metrics = {
        "setup_s": quantile(setups, 0.5),
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "throughput_per_s": figures["points_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return outcome


def run_traced(ctx: Context) -> Tuple[Outcome, dict]:
    """Per-layer metrics: an untraced and a traced window of half the
    run each; returns the outcome and the reduced trace."""
    from repro.studies.ledger import StudyLedger

    outcome = Outcome()
    spec = _write_spec(ctx)
    half = ctx.seconds / 2.0
    spans_path = ctx.work / "spans.json"
    plain, _ = _run(ctx, 0, half)
    traced, _ = _run(ctx, 1, half, trace_out=spans_path)
    plain_figures = _figures(plain, _check(plain, spec, ctx.seed, outcome))
    traced_figures = _figures(
        traced, _check(traced, spec, ctx.seed, outcome)
    )
    spans = load_spans(str(spans_path))
    appends = sum(1 for s in spans if s[0] == "studies.ledger.append")
    records = sum(
        len(StudyLedger(path).replay().records)
        for path in sorted(Path(ctx.work, "studies-1").glob("*/ledger.jsonl"))
    )
    outcome.check(
        appends == records,
        f"wrappers saw {appends} ledger appends but the ledgers hold"
        f" {records} records",
    )
    outcome.notes.append(_note(plain, plain_figures, " (untraced)"))
    outcome.notes.append(_note(traced, traced_figures, " (traced)"))
    extra = {
        "process.study.cpu_util": plain_figures["cpu_util"],
        "trace.overhead_ratio": plain_figures["points_per_s"]
        / traced_figures["points_per_s"],
        "workload.mc_point_share": plain_figures["mc_point_share"],
        "workload.zero_count_point_share": plain_figures[
            "zero_count_point_share"
        ],
        "workload.fom_per_s": plain_figures["fom_per_s"],
    }
    return outcome, {"layers": Layers(spans, warmup_roots=0), "extra": extra}
