"""Argument wiring for ``python -m repro lint``.

Kept separate from :mod:`repro.cli` so the linter can be driven
programmatically (tests, pre-commit hooks) without argparse.

Three modes:

* default — per-file rules (REP001–REP004) over the given paths;
* ``--project`` — the whole-program REP1xx pass over the full roots,
  checked against the committed baseline ratchet
  (:mod:`repro.devtools.baseline`);
* ``--changed`` — incremental: only files changed vs the git
  merge-base are *reported*; with ``--project`` the symbol table is
  still built over everything, so cross-module rules stay sound.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.baseline import (
    DEFAULT_BASELINE_PATH,
    apply_baseline,
    load_baseline,
    save_baseline,
    shrunk_baseline,
)
from repro.devtools.engine import LintEngine, LintReport
from repro.devtools.registry import PROFILES, all_rules
from repro.devtools.reporters import (
    render_json,
    render_sarif,
    render_text,
)
from repro.exitcodes import ExitCode

#: Default lint roots, relative to the working directory.
DEFAULT_ROOTS = ("src/repro", "tests", "benchmarks", "examples")

#: Render function per ``--format`` choice.
_RENDERERS = {
    "json": lambda report, args: render_json(report),
    "sarif": lambda report, args: render_sarif(report),
    "text": lambda report, args: render_text(
        report, statistics=args.statistics
    ),
}


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` options to an argparse parser."""
    parser.add_argument(
        "paths", nargs="*",
        help=(
            "files or directories to lint (default:"
            f" {', '.join(DEFAULT_ROOTS)} when present)"
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="REPxxx",
        help="run only these rules (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="REPxxx",
        help="skip these rules (repeatable / comma-separated)",
    )
    parser.add_argument(
        "--profile", choices=("auto",) + PROFILES, default="auto",
        help="force a lint profile instead of deriving it per file",
    )
    parser.add_argument(
        "--project", action="store_true",
        help=(
            "run the whole-program REP1xx rules and check the"
            " committed baseline ratchet"
        ),
    )
    parser.add_argument(
        "--changed", action="store_true",
        help=(
            "report only files changed vs the git merge-base"
            " (--project still indexes everything)"
        ),
    )
    parser.add_argument(
        "--base", default=None, metavar="REF",
        help=(
            "merge-base reference for --changed (default: origin/main,"
            " then main)"
        ),
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=(
            "baseline file for --project"
            f" (default: {DEFAULT_BASELINE_PATH})"
        ),
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "rewrite the baseline as current ∩ existing (the ratchet:"
            " it can only shrink)"
        ),
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="append a per-rule violation tally (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns a process exit code."""
    if args.list_rules:
        for rule in all_rules():
            profiles = ",".join(sorted(rule.profiles))
            scope = " [project]" if rule.scope == "project" else ""
            print(
                f"{rule.rule_id} [{profiles}]{scope} {rule.description}"
            )
        return ExitCode.OK
    try:
        changed = changed_paths(args.base) if args.changed else None
        if args.project:
            return _run_project(args, changed)
        if changed is not None:
            # An empty change set is a clean report, not "lint the
            # default roots".
            report = LintReport(violations=()) if not changed else lint(
                paths=changed,
                select=_split_codes(args.select),
                ignore=_split_codes(args.ignore),
                profile=(
                    None if args.profile == "auto" else args.profile
                ),
            )
        else:
            report = lint(
                paths=[Path(p) for p in args.paths] or None,
                select=_split_codes(args.select),
                ignore=_split_codes(args.ignore),
                profile=(
                    None if args.profile == "auto" else args.profile
                ),
            )
    except FileNotFoundError as exc:
        print(f"repro lint: {exc.args[0]}")
        return ExitCode.USAGE
    except (KeyError, RuntimeError) as exc:
        print(f"repro lint: {exc.args[0]}")
        return ExitCode.USAGE
    print(_RENDERERS[args.format](report, args))
    return ExitCode.OK if report.ok else ExitCode.FAILURE


def _run_project(
    args: argparse.Namespace, changed: Optional[List[Path]]
) -> int:
    """The ``--project`` mode: REP1xx pass plus baseline ratchet."""
    baseline_path = Path(args.baseline or DEFAULT_BASELINE_PATH)
    try:
        entries = load_baseline(baseline_path)
        report = lint_project(
            paths=[Path(p) for p in args.paths] or None,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            profile=None if args.profile == "auto" else args.profile,
            report_paths=changed,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc.args[0]}")
        return ExitCode.USAGE
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}")
        return ExitCode.USAGE
    if args.update_baseline:
        kept = shrunk_baseline(report, entries)
        save_baseline(kept, baseline_path)
        print(
            f"baseline {baseline_path}: kept {len(kept)} of"
            f" {len(entries)} entries"
        )
        entries = kept
    outcome = apply_baseline(report, entries)
    print(_RENDERERS[args.format](outcome.report, args))
    for entry in outcome.stale:
        print(
            "stale baseline entry (fixed? run --update-baseline):"
            f" {entry.format()}"
        )
    return ExitCode.OK if outcome.ok else ExitCode.FAILURE


def lint(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    profile: Optional[str] = None,
) -> LintReport:
    """Programmatic entry point used by the CLI and the test gate."""
    engine = LintEngine(
        select=select or None, ignore=ignore or None, profile=profile
    )
    return engine.lint_paths(_resolve_roots(paths))


def lint_project(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    profile: Optional[str] = None,
    report_paths: Optional[Sequence[Path]] = None,
) -> LintReport:
    """Programmatic whole-program pass (no baseline applied)."""
    engine = LintEngine(
        select=select or None, ignore=ignore or None, profile=profile
    )
    return engine.lint_project(
        _resolve_roots(paths),
        report_paths=(
            [str(p) for p in report_paths]
            if report_paths is not None
            else None
        ),
    )


def changed_paths(base: Optional[str] = None) -> List[Path]:
    """Python files changed vs the merge-base, plus untracked ones.

    Raises:
        RuntimeError: when git is unavailable or no usable base
            reference exists.
    """
    merge_base = _merge_base(base)
    diff = _git("diff", "--name-only", merge_base, "--")
    untracked = _git("ls-files", "--others", "--exclude-standard")
    seen = []
    for name in diff.splitlines() + untracked.splitlines():
        path = Path(name.strip())
        if (
            name.strip()
            and path.suffix == ".py"
            and path.is_file()
            and path not in seen
        ):
            seen.append(path)
    return seen


def _merge_base(base: Optional[str]) -> str:
    candidates = [base] if base else ["origin/main", "main"]
    for ref in candidates:
        try:
            return _git("merge-base", "HEAD", ref).strip()
        except RuntimeError:
            continue
    raise RuntimeError(
        "no merge base found; pass --base REF with a valid reference"
    )


def _git(*argv: str) -> str:
    try:
        proc = subprocess.run(
            ("git",) + argv,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError as exc:
        raise RuntimeError(f"git unavailable: {exc}") from exc
    if proc.returncode != 0:
        raise RuntimeError(
            f"git {' '.join(argv)} failed:"
            f" {proc.stderr.strip() or proc.returncode}"
        )
    return proc.stdout


def _resolve_roots(
    paths: Optional[Sequence[Path]],
) -> List[Path]:
    if paths:
        return list(paths)
    found = [Path(root) for root in DEFAULT_ROOTS if Path(root).is_dir()]
    if not found:
        raise FileNotFoundError(
            "no default roots found; pass paths explicitly"
        )
    return found


def _split_codes(raw: Sequence[str]) -> List[str]:
    codes: List[str] = []
    for chunk in raw:
        codes.extend(c for c in chunk.split(",") if c)
    return codes


__all__ = [
    "add_lint_arguments",
    "changed_paths",
    "lint",
    "lint_project",
    "run_lint",
]
