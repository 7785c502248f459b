"""Observability threaded through the runtime: end-to-end invariants.

The load-bearing guarantee: with the same seed and an injected clock,
a supervised campaign's trace file is **byte-identical** across runs —
including when the run is interrupted at a checkpoint and resumed, and
regardless of where the checkpoint lives on disk.
"""

import json
import multiprocessing

import pytest

from repro.obs.core import Observer, install, observing
from repro.obs.metrics import MetricsRegistry
from repro.runtime.supervisor import (
    CampaignRunner,
    heterogeneous_plan,
)

from tests.test_obs_trace import stepping_clock


def _plan():
    return heterogeneous_plan(
        duration_s=600.0, max_events_per_step=10
    )


def _observer(trace_path, registry=None):
    return Observer(
        trace_path=trace_path,
        registry=registry,
        clock=stepping_clock(),
        cpu_clock=stepping_clock(0.25),
    )


def _run_full(workdir):
    """One uninterrupted campaign under observation."""
    trace = workdir / "trace.jsonl"
    registry = MetricsRegistry()
    with observing(_observer(trace, registry)):
        outcome = CampaignRunner(
            _plan(),
            seed=7,
            checkpoint_path=workdir / "ck.json",
            sleep=lambda _s: None,
        ).run()
    assert outcome.completed
    return trace.read_bytes(), registry


def _run_interrupted(workdir):
    """The same campaign as two segments: stop at step 2, resume.

    The observer is reinstalled for the resumed segment — as a fresh
    process after a kill would — and appends to the same trace file.
    """
    trace = workdir / "trace.jsonl"
    path = workdir / "ck.json"
    with observing(_observer(trace)):
        first = CampaignRunner(
            _plan(), seed=7, checkpoint_path=path,
            sleep=lambda _s: None,
        ).run(max_steps=2)
    assert not first.completed
    with observing(_observer(trace)):
        second = CampaignRunner(
            _plan(), seed=7, checkpoint_path=path,
            sleep=lambda _s: None,
        ).run(resume=True)
    assert second.completed
    return trace.read_bytes()


class TestByteIdenticalTraces:
    def test_same_seed_same_trace(self, tmp_path):
        first, _ = _run_full(tmp_path / "one")
        second, _ = _run_full(tmp_path / "two")
        assert first
        assert first == second

    def test_trace_is_checkpoint_path_independent(self, tmp_path):
        """Span attrs carry no absolute paths, by design."""
        deep = tmp_path / "a" / "much" / "deeper" / "workdir"
        deep.mkdir(parents=True)
        first, _ = _run_full(tmp_path / "one")
        second, _ = _run_full(deep)
        assert first == second

    def test_interrupt_resume_traces_are_byte_identical(
        self, tmp_path
    ):
        first = _run_interrupted(tmp_path / "one")
        second = _run_interrupted(tmp_path / "two")
        assert first
        assert first == second

    def test_trace_has_no_absolute_paths(self, tmp_path):
        trace_bytes, _ = _run_full(tmp_path / "one")
        assert str(tmp_path).encode() not in trace_bytes


def _observed_chaos_child(spec, checkpoint_path, trace_path):
    """Forked child: observed campaign that chaos will SIGKILL."""
    from repro.chaos import trials
    from repro.chaos.faultpoints import install as chaos_install
    from repro.chaos.schedule import ChaosController

    chaos_install(ChaosController(spec))
    install(_observer(trace_path))
    trials.make_campaign_runner(checkpoint_path).run()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="SIGKILL trials need the fork start method",
)
class TestKillProcessResume:
    """Byte-identical traces across a chaos kill + resume cycle."""

    def _cycle(self, workdir):
        from repro.chaos import trials
        from repro.chaos.schedule import ChaosSpec

        workdir.mkdir(parents=True, exist_ok=True)
        trace = workdir / "trace.jsonl"
        checkpoint = workdir / "ck.json"
        marker = workdir / "fired.marker"
        spec = ChaosSpec(
            "supervisor.step",
            "kill-process",
            fire_at=2,
            marker_path=str(marker),
        )
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_observed_chaos_child,
            args=(spec, str(checkpoint), trace),
        )
        child.start()
        child.join(trials.CHILD_TIMEOUT_S)
        assert not child.is_alive()
        assert child.exitcode == -9
        assert marker.exists()
        # Resume in this process under a fresh observer appending to
        # the killed run's trace, as a restarted harness would.
        with observing(_observer(trace)):
            outcome = trials.make_campaign_runner(checkpoint).run(
                resume=True
            )
        assert outcome.completed
        return trace.read_bytes()

    def test_kill_resume_traces_are_byte_identical(self, tmp_path):
        first = self._cycle(tmp_path / "one")
        second = self._cycle(tmp_path / "two")
        assert first
        assert first == second

    def test_killed_trace_records_the_firing(self, tmp_path):
        trace_bytes = self._cycle(tmp_path / "one")
        names = [
            json.loads(line)["name"]
            for line in trace_bytes.decode().splitlines()
        ]
        assert "chaos.fire" in names


class TestCampaignMetrics:
    def test_counters_track_campaign_work(self, tmp_path):
        _, registry = _run_full(tmp_path)
        exposures = registry.counter("repro_exposures_total")
        assert exposures == len(_plan())
        assert registry.counter("repro_events_observed_total") > 0
        assert registry.counter("repro_checkpoint_writes_total") > 0

    def test_resume_counts_checkpoint_loads(self, tmp_path):
        path = tmp_path / "ck.json"
        CampaignRunner(
            _plan(), seed=7, checkpoint_path=path,
            sleep=lambda _s: None,
        ).run(max_steps=2)
        registry = MetricsRegistry()
        with observing(Observer(registry=registry)):
            CampaignRunner(
                _plan(), seed=7, checkpoint_path=path,
                sleep=lambda _s: None,
            ).run(resume=True)
        assert registry.counter("repro_checkpoint_loads_total") >= 1


class TestTraceShape:
    def test_span_names_cover_runtime_layers(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with observing(_observer(trace)):
            CampaignRunner(
                _plan(), seed=7,
                checkpoint_path=tmp_path / "ck.json",
                sleep=lambda _s: None,
            ).run()
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert {
            "run.campaign",
            "supervisor.step",
            "campaign.exposure",
            "checkpoint.write",
        } <= names

    def test_unobserved_run_matches_observed_outcome(self, tmp_path):
        reference = CampaignRunner(
            _plan(), seed=7, sleep=lambda _s: None
        ).run()
        with observing(Observer(registry=MetricsRegistry())):
            observed = CampaignRunner(
                _plan(), seed=7, sleep=lambda _s: None
            ).run()
        assert [e.to_dict() for e in reference.result.exposures] == [
            e.to_dict() for e in observed.result.exposures
        ]
