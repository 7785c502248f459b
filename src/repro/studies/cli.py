"""``repro studies`` — run, plan, and report durable sharded studies.

Examples::

    python -m repro studies plan --spec study.json
    python -m repro studies run --spec study.json \\
        --ledger study.ledger --store store/
    python -m repro studies report --spec study.json \\
        --ledger study.ledger --store store/ --json report.json

``run`` is crash-tolerant by construction: re-running the identical
command after a SIGKILL (or a SIGINT, which stops cleanly between
shards) resumes from the write-ahead ledger.  The exit code
distinguishes the three terminal states:

* ``complete``   -> :attr:`~repro.exitcodes.ExitCode.OK`
* ``degraded``   -> :attr:`~repro.exitcodes.ExitCode.DEGRADED`
  (quarantined poison shards and/or engine fallbacks — results
  present, flags raised)
* ``incomplete`` -> :attr:`~repro.exitcodes.ExitCode.INCOMPLETE`
  (shards pending: deadline, ``--max-shards``, or interrupt; an
  interrupt exits :attr:`~repro.exitcodes.ExitCode.INTERRUPTED`)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.exitcodes import ExitCode
from repro.runtime.budget import Budget
from repro.runtime.errors import ConfigurationError
from repro.runtime.supervisor import signal_interrupt
from repro.studies.ledger import LedgerError, StudyLedger
from repro.studies.report import build_report
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import StudySpec
from repro.studies.store import ShardResultStore

__all__ = ["add_studies_arguments", "run_studies"]


def _load_spec(path: str) -> StudySpec:
    """Read and validate a study spec file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file is not JSON: {exc}")
    return StudySpec.from_dict(data)


def add_studies_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``studies`` sub-subcommands to ``parser``."""
    sub = parser.add_subparsers(dest="studies_command", required=True)

    p = sub.add_parser(
        "plan", help="print the deterministic shard plan of a spec"
    )
    p.add_argument(
        "--spec", required=True, help="study spec JSON file"
    )
    p.set_defaults(studies_func=_cmd_plan)

    p = sub.add_parser(
        "run", help="execute (or resume) a study durably"
    )
    p.add_argument(
        "--spec", required=True, help="study spec JSON file"
    )
    p.add_argument(
        "--ledger", required=True,
        help="write-ahead ledger path (re-use to resume)",
    )
    p.add_argument(
        "--store", required=True,
        help="content-addressed shard-result directory",
    )
    p.add_argument(
        "--deadline-s", type=float, default=None,
        help="wall-clock budget in seconds (stops incomplete)",
    )
    p.add_argument(
        "--max-shards", type=int, default=None,
        help="resolve at most this many shards this run, then stop",
    )
    p.add_argument(
        "--json", default="",
        help="write the study report JSON to this path",
    )
    p.set_defaults(studies_func=_cmd_run)

    p = sub.add_parser(
        "report",
        help="rebuild the merged report from durable state only",
    )
    p.add_argument(
        "--spec", required=True, help="study spec JSON file"
    )
    p.add_argument(
        "--ledger", required=True, help="write-ahead ledger path"
    )
    p.add_argument(
        "--store", required=True,
        help="content-addressed shard-result directory",
    )
    p.add_argument(
        "--json", default="",
        help="write the report JSON to this path",
    )
    p.set_defaults(studies_func=_cmd_report)


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    print(
        f"study {spec.name} [{spec.digest()[:12]}]:"
        f" {len(spec.points())} points in {spec.n_shards} shards"
        f" of {spec.shard_size}"
    )
    for shard in spec.shards():
        labels = ",".join(
            "/".join(point[axis] for axis in sorted(point))
            for point in shard.points
        )
        print(
            f"  shard {shard.index}"
            f" [{spec.shard_key(shard)[:12]}]: {labels}"
        )
    return ExitCode.OK


_STATUS_EXIT = {
    "complete": ExitCode.OK,
    "degraded": ExitCode.DEGRADED,
    "incomplete": ExitCode.INCOMPLETE,
}


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    budget = (
        Budget(wall_clock_s=args.deadline_s)
        if args.deadline_s is not None
        else None
    )
    # Graceful interrupt, mirroring `repro run`: the scheduler polls
    # the flag between shards, so the in-flight ledger append still
    # lands and the study resumes exactly where it stopped.
    with signal_interrupt() as interrupt:
        scheduler = StudyScheduler(
            spec,
            ledger_path=args.ledger,
            store_root=args.store,
            budget=budget,
            interrupt=interrupt,
            max_shards=args.max_shards,
        )
        try:
            outcome = scheduler.run()
        except LedgerError as exc:
            print(f"ledger error: {exc}")
            print(
                "the ledger was not used; move it aside to start over,"
                " or restore an uncorrupted copy to resume"
            )
            return ExitCode.CHECKPOINT
    print(outcome.report.to_text())
    if args.json:
        Path(args.json).write_text(
            json.dumps(outcome.report.to_dict(), sort_keys=True)
        )
        print(f"report written to {args.json}")
    if outcome.status == "incomplete":
        print(
            f"resume with: python -m repro studies run"
            f" --spec {args.spec} --ledger {args.ledger}"
            f" --store {args.store}"
        )
    if outcome.interrupted:
        print("INTERRUPTED: stopped cleanly between shards")
        return ExitCode.INTERRUPTED
    return _STATUS_EXIT[outcome.status]


def _cmd_report(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    ledger = StudyLedger(args.ledger)
    try:
        state = ledger.replay()
    except LedgerError as exc:
        print(f"ledger error: {exc}")
        return ExitCode.CHECKPOINT
    report = build_report(spec, state, ShardResultStore(args.store))
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), sort_keys=True)
        )
        print(f"report written to {args.json}")
    return ExitCode.OK


def run_studies(args: argparse.Namespace) -> int:
    """Entry point for the ``studies`` subcommand."""
    try:
        return args.studies_func(args)
    except ConfigurationError as exc:
        print(f"usage error: {exc}")
        return ExitCode.USAGE
