"""Child-process launcher for the benchmark.

Usage (run from the checkout root; ``run.py`` starts these):

    python3 perfbench/child.py surrogate DIR
        Write the cadmium/ROTAX surrogate artifact under DIR
        (``repro.chaos.trials.make_surrogate_root``).
    python3 perfbench/child.py serve [--trace-out F] -- SERVE_ARGS...
        Install the layer wrappers, then run ``repro serve`` in this
        process through ``repro.service.cli.run_serve``; write the
        spans to F after its SIGTERM clean shutdown.
    python3 perfbench/child.py study --spec F --workdir D --seconds S
                                     --result R [--trace-out T]
        Load the study spec, construct the scheduler, print "ready",
        then run whole fresh studies back to back, starting another
        while less than S seconds have passed (none when S is 0), and
        write the outcome to R.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import proc_vmhwm_mb  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def _tracer(trace_out):
    if trace_out is None:
        return None
    tracer = Tracer()
    install(tracer)
    return tracer


def cmd_surrogate(args) -> int:
    from repro.chaos.trials import make_surrogate_root

    make_surrogate_root(args.dir)
    return 0


def cmd_serve(args) -> int:
    tracer = _tracer(args.trace_out)
    from repro.service.cli import add_serve_arguments, run_serve

    parser = argparse.ArgumentParser(prog="repro serve")
    add_serve_arguments(parser)
    code = run_serve(parser.parse_args(args.serve_args))
    if tracer is not None:
        tracer.dump(args.trace_out)
    return code


def _study_record(outcome, wall_s: float) -> dict:
    report = outcome.report
    return {
        "status": report.status,
        "quarantined": len(report.quarantined),
        "degraded": len(report.degraded_shards),
        "rows": list(report.rows),
        "wall_s": wall_s,
    }


def cmd_study(args) -> int:
    tracer = _tracer(args.trace_out)
    from repro.studies.evaluate import evaluate_shard
    from repro.studies.scheduler import StudyScheduler
    from repro.studies.spec import StudySpec

    with open(args.spec, encoding="utf-8") as handle:
        spec = StudySpec.from_dict(json.load(handle))
    spec.shards()
    evaluate = (
        tracer.wrap("studies.scheduler.evaluate", evaluate_shard)
        if tracer is not None
        else None
    )
    def scheduler(index: int) -> StudyScheduler:
        root = Path(args.workdir) / f"study-{index}"
        return StudyScheduler(
            spec, root / "ledger.jsonl", root / "store", evaluate=evaluate
        )

    current = scheduler(0)
    print("ready", flush=True)
    cpu_start = os.times()
    start = time.perf_counter()
    studies = []
    # Whole studies only: a study cut short would commit its cheap
    # unshielded shards first and skew every figure of the run.
    while time.perf_counter() - start < args.seconds:
        if studies:
            current = scheduler(len(studies))
        began = time.perf_counter()
        outcome = current.run()
        studies.append(_study_record(outcome, time.perf_counter() - began))
    wall_s = time.perf_counter() - start
    cpu_end = os.times()
    result = {
        "wall_s": wall_s,
        "cpu_s": (cpu_end.user + cpu_end.system)
        - (cpu_start.user + cpu_start.system),
        "peak_rss_mb": proc_vmhwm_mb("self"),
        "studies": studies,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    surrogate = sub.add_parser("surrogate")
    surrogate.add_argument("dir")
    serve = sub.add_parser("serve")
    serve.add_argument("--trace-out", default=None)
    serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    study = sub.add_parser("study")
    study.add_argument("--spec", required=True)
    study.add_argument("--workdir", required=True)
    study.add_argument("--seconds", type=float, required=True)
    study.add_argument("--result", required=True)
    study.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.command == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    handler = {
        "surrogate": cmd_surrogate,
        "serve": cmd_serve,
        "study": cmd_study,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
