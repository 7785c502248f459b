"""Worker death and shard-delivery faults in the batch engine.

Shards are whole seed-stream groups, so the in-process retry after a
failure recomputes bit-identical tallies; the only observable trace
of trouble must be the ``degraded_shards`` flag.  The engines' own
consistency checks (neutron balance, every shard delivered) must
still fire under ``python -O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos.faultpoints import activated, uninstall
from repro.chaos.schedule import ChaosController, ChaosSpec
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import WATER
from repro.transport.montecarlo import Layer, SlabGeometry

N_NEUTRONS = 8192  # two 4096-history seed streams -> two shards
BATCH_SIZE = 4096


@pytest.fixture(autouse=True)
def _no_leftover_controller():
    uninstall()
    yield
    uninstall()


@pytest.fixture(scope="module")
def engine():
    return BatchTransportEngine(SlabGeometry([Layer(WATER, 4.0)]))


@pytest.fixture(scope="module")
def clean(engine):
    return engine.run(
        N_NEUTRONS,
        source_energy_ev=1.0e6,
        seed=7,
        batch_size=BATCH_SIZE,
        n_workers=1,
    )


def _run(engine, n_workers):
    return engine.run(
        N_NEUTRONS,
        source_energy_ev=1.0e6,
        seed=7,
        batch_size=BATCH_SIZE,
        n_workers=n_workers,
    )


def _same_tallies(a, b):
    return (
        a.source == b.source
        and a.transmitted == b.transmitted
        and a.reflected == b.reflected
        and a.absorbed == b.absorbed
        and a.collisions == b.collisions
        and a.absorbed_by_material == b.absorbed_by_material
    )


class TestCleanRuns:
    def test_degraded_shards_zero_by_default(self, clean):
        assert clean.degraded_shards == 0

    def test_parallel_matches_serial(self, engine, clean):
        parallel = _run(engine, n_workers=2)
        assert _same_tallies(parallel, clean)
        assert parallel.degraded_shards == 0


class TestShardFailures:
    @pytest.mark.parametrize("action", ["raise-transient", "crash"])
    def test_failed_shard_retried_once(self, engine, clean, action):
        controller = ChaosController(
            ChaosSpec("batch.worker", action, fire_at=1)
        )
        with activated(controller):
            result = _run(engine, n_workers=1)
        assert controller.fired()
        assert result.degraded_shards == 1
        assert _same_tallies(result, clean)

    def test_pool_worker_death_degrades_and_recovers(
        self, engine, clean
    ):
        controller = ChaosController(
            ChaosSpec(
                "batch.worker",
                "kill-worker",
                fire_at=0,
                worker_only=True,
            )
        )
        with activated(controller):
            result = _run(engine, n_workers=2)
        # The SIGKILL lands in forked pool workers only; the parent
        # recomputes their shards in-process and flags the run.
        assert result.degraded_shards > 0
        assert _same_tallies(result, clean)

    def test_merge_fault_retried(self, engine, clean):
        controller = ChaosController(
            ChaosSpec("batch.merge", "raise-transient", fire_at=0)
        )
        with activated(controller):
            result = _run(engine, n_workers=1)
        assert controller.fired()
        assert result.degraded_shards == 1
        assert _same_tallies(result, clean)

    def test_duplicate_delivery_idempotent(self, engine, clean):
        controller = ChaosController(
            ChaosSpec("batch.merge", "duplicate", fire_at=1)
        )
        with activated(controller):
            result = _run(engine, n_workers=1)
        assert controller.fired()
        assert result.degraded_shards == 0
        assert _same_tallies(result, clean)


#: Breaks one consistency check, then runs the engine under it.  Exits
#: 0 with the error's message if the engine raised ``RuntimeError``.
_BROKEN_RUN = """
import sys
from unittest import mock

import numpy as np

from repro.transport import batch
from repro.transport.materials import WATER
from repro.transport.montecarlo import Layer, ScalarTransportEngine, SlabGeometry

if not sys.flags.optimize:
    sys.exit("not running under python -O")
geometry = SlabGeometry([Layer(WATER, 4.0)])
case = sys.argv[1]
real_sweep = batch._simulate_sweep
real_worker = batch._sweep_worker
real_leak = ScalarTransportEngine._leak
leak_calls = []


def drop_one_leak(*task):
    leaks, absorbed, lost, collisions = real_sweep(*task)
    leaks = leaks.copy()
    leaks.flat[np.flatnonzero(leaks)[0]] -= 1
    return leaks, absorbed, lost, collisions


def misfile_shard(args):
    return 0, real_worker(args)[1]


def skip_first_leak(self, x, energy_ev, tally):
    leak_calls.append(x)
    if len(leak_calls) > 1:
        real_leak(self, x, energy_ev, tally)


try:
    if case == "batch-balance":
        with mock.patch.object(batch, "_simulate_sweep", drop_one_leak):
            batch.BatchTransportEngine(geometry).run(
                5000, source_energy_ev=1.0e6, seed=7
            )
    elif case == "shards":
        with mock.patch.object(batch, "_sweep_worker", misfile_shard):
            batch.BatchTransportEngine(geometry).run(
                8192, source_energy_ev=1.0e6, seed=7, batch_size=4096
            )
    else:
        with mock.patch.object(
            ScalarTransportEngine, "_leak", skip_first_leak
        ):
            ScalarTransportEngine(geometry).run(
                200, source_energy_ev=1.0e6
            )
except RuntimeError as exc:
    print(exc)
    sys.exit(0)
sys.exit("the broken run returned a result")
"""


class TestChecksUnderOptimize:
    @pytest.mark.parametrize(
        "case, message",
        [
            ("batch-balance", "neutron balance violated"),
            ("shards", "shards never delivered: [1]"),
            ("scalar-balance", "neutron balance violated"),
        ],
    )
    def test_broken_run_raises(self, case, message):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_RUN, case],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == message
