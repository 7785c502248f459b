"""Graceful interrupt handling and retry-exhaustion telemetry."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exitcodes import ExitCode
from repro.obs import core as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report, summarize
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.errors import TransientHarnessError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.supervisor import (
    CampaignRunner,
    Supervisor,
    signal_interrupt,
)
from repro.chaos.trials import build_campaign_plan

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper for tests (never waits)."""


# -- in-process interrupt plumbing -------------------------------------


def test_interrupt_stops_between_steps_and_flushes(tmp_path):
    checkpoint = tmp_path / "ck.json"
    seen = []

    def interrupt() -> bool:
        # Trip after two completed steps.
        seen.append(1)
        return len(seen) > 2

    runner = CampaignRunner(
        build_campaign_plan(),
        seed=2020,
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        sleep=_no_sleep,
        interrupt=interrupt,
    )
    outcome = runner.run()
    assert outcome.interrupted
    assert not outcome.completed
    assert outcome.steps_completed == 2
    assert any(
        e.kind == EventKind.INTERRUPT for e in outcome.events
    )
    # The final checkpoint flushed and resumes to completion.
    assert Checkpoint.load(checkpoint, runner.digest).cursor == 2
    resumed = CampaignRunner(
        build_campaign_plan(),
        seed=2020,
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        sleep=_no_sleep,
    ).run(resume=True)
    assert resumed.completed
    assert not resumed.interrupted


def test_uninterrupted_run_reports_no_interrupt(tmp_path):
    outcome = CampaignRunner(
        build_campaign_plan(),
        seed=2020,
        checkpoint_path=tmp_path / "ck.json",
        sleep=_no_sleep,
    ).run()
    assert outcome.completed
    assert outcome.interrupted is False


def test_signal_interrupt_sets_the_flag_and_restores_handlers():
    before = {
        signum: signal.getsignal(signum)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    with signal_interrupt() as interrupted:
        assert not interrupted()
        # Raises no KeyboardInterrupt: the handler only sets the flag.
        signal.raise_signal(signal.SIGINT)
        assert interrupted()
    after = {signum: signal.getsignal(signum) for signum in before}
    assert after == before


def test_signal_interrupt_installs_nothing_off_the_main_thread():
    before = signal.getsignal(signal.SIGINT)
    seen = []

    def _embedded():
        with signal_interrupt() as interrupted:
            seen.append((signal.getsignal(signal.SIGINT), interrupted()))

    thread = threading.Thread(target=_embedded)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [(before, False)]
    assert signal.getsignal(signal.SIGINT) is before


# -- fresh-process signal test -----------------------------------------


def _spawn_run(checkpoint: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run",
            "--plan", "figure4",
            "--checkpoint", str(checkpoint),
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def test_sigint_exits_interrupted_with_flushed_checkpoint(tmp_path):
    """Acceptance: SIGINT mid-run -> distinct exit code, valid
    checkpoint, resumable to completion."""
    for _attempt in range(3):
        checkpoint = tmp_path / f"ck-{_attempt}.json"
        proc = _spawn_run(checkpoint)
        try:
            # The first checkpoint write proves the handlers are
            # installed and the run is mid-flight.
            deadline = time.monotonic() + 60.0
            while (
                not checkpoint.exists()
                and time.monotonic() < deadline
                and proc.poll() is None
            ):
                time.sleep(0.002)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode == int(ExitCode.OK):
            # Lost the race on a loaded machine: the run finished
            # before the signal landed.  Try again.
            continue
        assert proc.returncode == int(ExitCode.INTERRUPTED), out
        assert "INTERRUPTED" in out
        assert "resume with:" in out
        runner = CampaignRunner(
            build_campaign_plan("figure4"),
            seed=2020,
            checkpoint_path=checkpoint,
            checkpoint_every=1,
            sleep=_no_sleep,
        )
        snapshot = Checkpoint.load(checkpoint, runner.digest)
        assert 0 < snapshot.cursor < 52
        resumed = runner.run(resume=True)
        assert resumed.completed
        return
    pytest.skip("run finished before SIGINT landed in 3 attempts")


def test_exitcode_interrupted_is_distinct():
    codes = [int(code) for code in ExitCode]
    assert len(codes) == len(set(codes))
    assert int(ExitCode.INTERRUPTED) == 5


# -- retry-exhaustion telemetry ----------------------------------------


def test_exhausted_retries_counted_and_evented(tmp_path):
    registry = MetricsRegistry()
    trace = tmp_path / "trace.jsonl"
    events = EventLog()
    supervisor = Supervisor(events=events, sleep=_no_sleep)
    calls = []

    def always_fails():
        calls.append(1)
        raise TransientHarnessError("backend down")

    with obs.observing(
        obs.Observer(trace_path=trace, registry=registry)
    ):
        with pytest.raises(TransientHarnessError):
            supervisor.call("doomed", always_fails)
    assert len(calls) == 3  # default policy: 3 attempts
    assert registry.counter("repro_retries_total") == 2
    assert registry.counter("repro_retries_exhausted_total") == 1
    # The trace surfaces the terminal give-up in `obs summarize`.
    names = [
        json.loads(line)["name"]
        for line in trace.read_text().splitlines()
    ]
    assert "supervisor.exhausted" in names
    report = render_report(summarize(trace))
    assert "supervisor.exhausted" in report


def test_ridden_out_retry_is_not_counted_exhausted():
    registry = MetricsRegistry()
    supervisor = Supervisor(events=EventLog(), sleep=_no_sleep)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 2:
            raise TransientHarnessError("once")
        return "ok"

    with obs.observing(obs.Observer(registry=registry)):
        assert supervisor.call("flaky", flaky) == "ok"
    assert registry.counter("repro_retries_total") == 1
    assert registry.counter("repro_retries_exhausted_total") == 0
