"""The ``python -m repro chaos`` subcommand.

Sweeps the (site, action) fault matrix with
:class:`~repro.chaos.invariants.InvariantChecker` and prints a
verdict per cell; ``--json`` additionally writes the machine-readable
matrix.  Exit codes follow :class:`repro.exitcodes.ExitCode`: ``OK``
(0) means every recovery invariant held in every trial, ``FAILURE``
(1) means at least one violation (the printed matrix says which),
``USAGE`` (2) means an unknown ``--site``/``--action``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import List, Sequence

from repro.chaos.faultpoints import FAULT_POINTS, site_names
from repro.exitcodes import ExitCode
from repro.runtime.errors import ConfigurationError

#: Trials per matrix cell (fewer under ``REPRO_SMOKE=1`` CI runs).
DEFAULT_TRIALS = 2
SMOKE_TRIALS = 1


def parse_sites(raw: Sequence[str]) -> List[str]:
    """Validate ``--site`` values against the declared fault points.

    Mirrors :func:`repro.transport.api.coerce_policy`: bare strings
    stay the user interface, but unknown values fail fast with the
    allowed set spelled out.

    Raises:
        ConfigurationError: on a site no fault point declares.
    """
    for site in raw:
        if site not in FAULT_POINTS:
            raise ConfigurationError(
                f"unknown site {site!r}; allowed: {site_names()}"
            )
    return list(raw)


def parse_actions(raw: Sequence[str]) -> List[str]:
    """Validate ``--action`` values against the declared actions.

    Raises:
        ConfigurationError: on an action no fault point supports.
    """
    known = sorted(
        {
            action
            for point in FAULT_POINTS.values()
            for action in point.actions
        }
    )
    for action in raw:
        if action not in known:
            raise ConfigurationError(
                f"unknown action {action!r}; allowed: {tuple(known)}"
            )
    return list(raw)


def default_trials() -> int:
    """Default trials/cell, honouring the ``REPRO_SMOKE`` switch."""
    if os.environ.get("REPRO_SMOKE"):
        return SMOKE_TRIALS
    return DEFAULT_TRIALS


def add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the chaos options to a subparser."""
    parser.add_argument(
        "--plan",
        choices=("heterogeneous", "figure4"),
        default="heterogeneous",
        help="campaign plan the trials execute",
    )
    parser.add_argument(
        "--seed", type=int, default=2020,
        help="chaos seed (fire positions; independent of workloads)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help=(
            "trials per (site, action) cell (default:"
            f" {DEFAULT_TRIALS}, or {SMOKE_TRIALS} under"
            " REPRO_SMOKE=1)"
        ),
    )
    parser.add_argument(
        "--site", action="append", default=[],
        help="restrict to this fault site (repeatable; default: all)",
    )
    parser.add_argument(
        "--action", action="append", default=[],
        help="restrict to this action (repeatable; default: all)",
    )
    parser.add_argument(
        "--workdir", default="",
        help=(
            "scratch directory for trial checkpoints (default: a"
            " fresh temporary directory)"
        ),
    )
    parser.add_argument(
        "--json", dest="json_path", default="",
        help="also write the JSON verdict matrix to this path",
    )
    parser.add_argument(
        "--list-sites", action="store_true",
        help="print the declared fault sites and actions, then exit",
    )


def run_chaos(args: argparse.Namespace) -> int:
    """Execute the chaos sweep described by parsed arguments."""
    if args.list_sites:
        for site in site_names():
            point = FAULT_POINTS[site]
            print(f"{site}: {', '.join(point.actions)}")
        return ExitCode.OK
    try:
        sites = parse_sites(args.site)
        actions = parse_actions(args.action)
    except ConfigurationError as exc:
        print(f"repro chaos: {exc}")
        return ExitCode.USAGE

    from repro.chaos.invariants import InvariantChecker

    n_trials = (
        args.trials if args.trials is not None else default_trials()
    )
    checker = InvariantChecker(
        seed=args.seed,
        n_trials=n_trials,
        plan=args.plan,
        workdir=args.workdir or None,
    )
    report = checker.run_matrix(
        sites=sites or None, actions=actions or None
    )
    print(report.to_text())
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"verdict matrix written to {args.json_path}")
    return ExitCode.OK if report.ok() else ExitCode.FAILURE


__all__ = [
    "DEFAULT_TRIALS",
    "SMOKE_TRIALS",
    "add_chaos_arguments",
    "default_trials",
    "parse_actions",
    "parse_sites",
    "run_chaos",
]
