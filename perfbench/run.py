"""The repository benchmark: one command, two seeded workloads.

Run from the checkout root:

    python3 perfbench/run.py --workload shield-serve --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures an untraced and a traced window of half the
run each on the same inputs, prints the per-layer table, and reports
the per-layer metrics.  Both check the program's outputs; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every check passed.  ``BENCHMARK.json``
at the checkout root lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("shield-serve", "shield-study")
MAX_PROBLEMS_SHOWN = 20


def _in_declared_order(measured: dict, section: str) -> dict:
    """The measured metrics as BENCHMARK.json declares them.

    BENCHMARK.json is the one list of names and units; a metric it
    declares that the run did not measure (or the reverse) is a bug
    in the benchmark, not a slow program.
    """
    from common import RunFailed

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [entry["name"] for entry in declared]
    if set(names) != set(measured):
        raise RunFailed(
            f"{section} metrics differ from BENCHMARK.json:"
            f" missing {sorted(set(names) - set(measured))},"
            f" undeclared {sorted(set(measured) - set(names))}"
        )
    return {
        entry["name"]: {
            "value": float(measured[entry["name"]]),
            "unit": entry["unit"],
        }
        for entry in declared
    }


def _per_layer(reduced: dict, outcome) -> dict:
    from tracing import layer_metrics

    layers = reduced["layers"]
    print(layers.table())
    outcome.check(
        layers.overlaps == 0,
        f"{layers.overlaps} spans last less than their children, so"
        f" self times no longer sum to their root",
    )
    outcome.check(
        layers.orphans == 0, f"{layers.orphans} spans outside any root"
    )
    metrics = {
        "process.server.cpu_ms_per_request": 0.0,
        "process.study.cpu_util": 0.0,
        "workload.cache_miss_share": 0.0,
        "workload.surrogate_p50_ms": 0.0,
        "workload.mc_point_share": 0.0,
        "workload.zero_count_point_share": 0.0,
        "workload.fom_per_s": 0.0,
    }
    metrics.update(layer_metrics(layers))
    metrics.update(reduced["extra"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import serving
    import study
    from common import Context, RunFailed

    work = ROOT / ".perfbench-work" / f"{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds
    )
    try:
        module = study if args.workload == "shield-study" else serving
        if args.trace:
            outcome, reduced = module.run_traced(ctx)
        else:
            outcome = module.run_untraced(ctx)
        if args.trace:
            outcome.metrics = _per_layer(reduced, outcome)
        metrics = _in_declared_order(
            outcome.metrics, "per_layer" if args.trace else "end_to_end"
        )
    except RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shown = outcome.problems[:MAX_PROBLEMS_SHOWN]
    for line in outcome.notes + [f"FAILED: {p}" for p in shown]:
        print(line)
    if len(outcome.problems) > len(shown):
        print(f"FAILED: ... and {len(outcome.problems) - len(shown)} more")
    print(
        f"error_rate={outcome.failed / max(outcome.attempted, 1):.6g}"
        f" ({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
