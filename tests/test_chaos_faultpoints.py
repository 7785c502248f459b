"""Fault-point registry, controller firing semantics, schedules."""

import os

import pytest

from repro.chaos import actions as chaos_actions
from repro.chaos.faultpoints import (
    FAULT_POINTS,
    activated,
    actions_for,
    enabled,
    fault_point,
    install,
    site_names,
    uninstall,
)
from repro.chaos.schedule import (
    ChaosClock,
    ChaosController,
    ChaosSchedule,
    ChaosSpec,
    DEFAULT_DELAY_JUMP_S,
)
from repro.runtime.errors import (
    ConfigurationError,
    TransientHarnessError,
)


@pytest.fixture(autouse=True)
def _no_leftover_controller():
    """Chaos state is process-global; never leak across tests."""
    uninstall()
    yield
    uninstall()


class TestRegistry:
    def test_every_declared_action_exists(self):
        # faultpoints.py repeats action names as literals (to stay
        # import-free); they must match the actions vocabulary.
        for point in FAULT_POINTS.values():
            for action in point.actions:
                assert action in chaos_actions.ALL_ACTIONS, (
                    f"{point.name} declares unknown action {action!r}"
                )

    def test_every_site_module_is_instrumented(self):
        import importlib
        import inspect

        for point in FAULT_POINTS.values():
            source = inspect.getsource(
                importlib.import_module(point.module)
            )
            assert "fault_point" in source and f'"{point.name}"' in (
                source
            ), f"{point.module} has no fault_point for {point.name}"

    def test_site_names_sorted(self):
        names = site_names()
        assert list(names) == sorted(names)
        assert len(names) >= 6

    def test_matrix_is_large_enough(self):
        # The coverage floor: the sweep spans >= 6 sites and >= 3
        # distinct actions.
        assert len(FAULT_POINTS) >= 6
        distinct = {
            a for p in FAULT_POINTS.values() for a in p.actions
        }
        assert len(distinct) >= 3
        assert (
            sum(len(p.actions) for p in FAULT_POINTS.values()) >= 18
        )

    def test_actions_for(self):
        assert "raise-transient" in actions_for("supervisor.step")
        with pytest.raises(KeyError):
            actions_for("no.such.site")


class TestInstall:
    def test_disabled_by_default(self):
        assert not enabled()
        # A crossing with no controller is a no-op.
        fault_point("supervisor.step", step=0)

    def test_install_uninstall(self):
        controller = ChaosController(
            ChaosSpec("supervisor.step", "crash")
        )
        install(controller)
        assert enabled()
        uninstall()
        assert not enabled()
        uninstall()  # idempotent

    def test_nested_install_refused(self):
        spec = ChaosSpec("supervisor.step", "crash")
        install(ChaosController(spec))
        with pytest.raises(RuntimeError):
            install(ChaosController(spec))

    def test_activated_always_uninstalls(self):
        spec = ChaosSpec("supervisor.step", "raise-transient")
        with pytest.raises(TransientHarnessError):
            with activated(ChaosController(spec)):
                fault_point("supervisor.step", step=0)
        assert not enabled()


class TestSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("no.such.site", "crash")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("supervisor.step", "meteor-strike")

    def test_inapplicable_action_rejected(self):
        # truncate only makes sense at checkpoint.load.
        with pytest.raises(ConfigurationError):
            ChaosSpec("supervisor.step", "truncate")

    def test_negative_fire_at_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("supervisor.step", "crash", fire_at=-1)


class TestController:
    def test_fires_at_exact_crossing(self):
        controller = ChaosController(
            ChaosSpec("supervisor.step", "raise-transient", fire_at=2)
        )
        with activated(controller):
            fault_point("supervisor.step", step=0)
            fault_point("supervisor.step", step=1)
            with pytest.raises(TransientHarnessError):
                fault_point("supervisor.step", step=2)
        assert controller.fired()
        assert controller.fires == 1

    def test_other_sites_traced_not_fired(self):
        controller = ChaosController(
            ChaosSpec("supervisor.step", "crash", fire_at=0)
        )
        with activated(controller):
            fault_point("fleet.day", day=0)
        assert not controller.fired()
        assert controller.trace == ["fleet.day"]

    def test_a_retried_crossing_fires_once(self):
        controller = ChaosController(
            ChaosSpec("supervisor.step", "raise-transient", fire_at=0)
        )
        with activated(controller):
            with pytest.raises(TransientHarnessError):
                fault_point("supervisor.step", step=0)
            # The retry crosses again, as crossing 1: past fire_at.
            fault_point("supervisor.step", step=0)
        assert controller.fires == 1

    def test_worker_only_spares_origin_process(self):
        controller = ChaosController(
            ChaosSpec(
                "service.dispatch",
                "kill-worker",
                fire_at=0,
                worker_only=True,
            )
        )
        with activated(controller):
            # Same pid as the controller's origin: must not fire
            # (firing would SIGKILL the test process).
            fault_point("service.dispatch", kind="fit")
        assert not controller.fired()
        assert controller._origin_pid == os.getpid()

    def test_marker_written_on_fire(self, tmp_path):
        marker = tmp_path / "marker"
        controller = ChaosController(
            ChaosSpec(
                "memory.pass",
                "crash",
                fire_at=0,
                marker_path=str(marker),
            )
        )
        with activated(controller):
            with pytest.raises(chaos_actions.ChaosCrashError):
                fault_point("memory.pass", pass_idx=0)
        assert marker.read_text().startswith("memory.pass:crash")

    def test_delay_requires_clock(self):
        controller = ChaosController(
            ChaosSpec("supervisor.step", "delay", fire_at=0)
        )
        with activated(controller):
            with pytest.raises(ConfigurationError):
                fault_point("supervisor.step", step=0)

    def test_delay_jumps_injected_clock(self):
        clock = ChaosClock()
        controller = ChaosController(
            ChaosSpec("supervisor.step", "delay", fire_at=0),
            clock=clock,
        )
        before = clock.monotonic()
        with activated(controller):
            fault_point("supervisor.step", step=0)
        assert clock.monotonic() - before == DEFAULT_DELAY_JUMP_S


class TestSchedule:
    def test_deterministic_per_seed(self):
        a = ChaosSchedule(7).trials("supervisor.step", "crash", 5, 4)
        b = ChaosSchedule(7).trials("supervisor.step", "crash", 5, 4)
        assert a == b

    def test_seeds_differ(self):
        a = ChaosSchedule(7).trials("supervisor.step", "crash", 8, 4)
        b = ChaosSchedule(8).trials("supervisor.step", "crash", 8, 4)
        assert a != b

    def test_cells_independent_of_sweep_order(self):
        # Filtering the matrix must not change surviving cells' draws.
        schedule = ChaosSchedule(2020)
        _ = schedule.trials("fleet.day", "delay", 3, 15)
        after = schedule.trials("supervisor.step", "crash", 3, 4)
        assert after == ChaosSchedule(2020).trials(
            "supervisor.step", "crash", 3, 4
        )

    def test_fire_positions_within_horizon(self):
        specs = ChaosSchedule(1).trials("fleet.day", "delay", 32, 15)
        assert all(0 <= s.fire_at < 15 for s in specs)

    def test_bad_arguments_rejected(self):
        schedule = ChaosSchedule(1)
        with pytest.raises(ConfigurationError):
            schedule.trials("fleet.day", "delay", 0, 15)
        with pytest.raises(ConfigurationError):
            schedule.trials("fleet.day", "delay", 1, 0)
