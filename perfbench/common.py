"""Shared plumbing: run context, child processes, /proc accounting."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: Set-ups per untraced run; ``setup_s`` is their median.  Half run
#: before the measured window and half after it: set-ups in one run
#: read alike, but the host's speed shifts over tens of seconds, and
#: the median of four then averages the two ends of the run.
SETUP_REPEATS = 4

#: Longest wait for a child to print its ready line.
START_TIMEOUT_S = 90.0

#: Longest wait for a child to exit once told to.
STOP_TIMEOUT_S = 30.0


class RunFailed(Exception):
    """The run cannot produce a result (e.g. the server died)."""


@dataclass
class Context:
    """Where and with what a run works.

    Attributes:
        root: the checkout root (holds ``src/`` and ``perfbench/``).
        work: this run's scratch directory inside the checkout.
        seed: workload seed.
        seconds: measured time of the run.
    """

    root: Path
    work: Path
    seed: int
    seconds: float

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work)
        return env

    def child_argv(self, *args: str) -> List[str]:
        return [sys.executable, str(self.root / "perfbench" / "child.py")]\
            + list(args)


@dataclass
class Outcome:
    """What one run reports.

    Attributes:
        metrics: name -> measured value (units live in
            BENCHMARK.json).
        attempted / failed: operations tried and failed (error
            responses, failed checks, quarantined or degraded shards).
        problems: one line per failure, printed before the result.
        notes: human-readable summary lines.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """A correctness check; a failed one counts as a failure."""
        if not ok:
            self.fail(problem)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_vmhwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, MB, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed(f"process {pid} reports no VmHWM")


class Child:
    """A child process with a ready line on stdout.

    Every child is stopped and reaped by :meth:`close`, which the
    workloads call from ``finally`` blocks.
    """

    def __init__(self, ctx: Context, argv: List[str], name: str) -> None:
        self.name = name
        self.log_path = ctx.work / f"{name}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv,
            cwd=ctx.root,
            env=ctx.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, prefix: str) -> str:
        """Block until the child prints a line starting ``prefix``."""
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], START_TIMEOUT_S
        )
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(prefix):
            self.close()
            raise RunFailed(
                f"{self.name} never became ready (got {line!r});"
                f" log: {self.log_tail()}"
            )
        return line.strip()

    def log_tail(self) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8")
        except OSError:
            return ""
        return text[-2000:]

    def finish(self, timeout_s: float = STOP_TIMEOUT_S) -> tuple:
        """Wait for exit; returns (returncode, rest of stdout)."""
        try:
            out, _ = self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.close()
            raise RunFailed(f"{self.name} did not exit in {timeout_s} s")
        self._log.close()
        return self.proc.returncode, out or ""

    def terminate(self) -> tuple:
        """SIGTERM the child and wait for it."""
        self.proc.send_signal(signal.SIGTERM)
        return self.finish()

    def close(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass
        if not self._log.closed:
            self._log.close()

