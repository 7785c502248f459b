"""The engines' own consistency checks fire under ``python -O``.

Each case breaks one check's input in a subprocess run with ``-O``
(the batch, scalar and deterministic neutron balance), and the
engine must still raise ``RuntimeError``: the checks are not
``assert`` statements.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest


#: Breaks one consistency check, then runs the engine under it.  Exits
#: 0 with the error's message if the engine raised ``RuntimeError``.
_BROKEN_RUN = """
import sys
from unittest import mock

import numpy as np

from repro.transport import batch
from repro.transport.materials import WATER
from repro.transport.montecarlo import Layer, ScalarTransportEngine, SlabGeometry
from repro.transport.multigroup import DeterministicTransportEngine

if not sys.flags.optimize:
    sys.exit("not running under python -O")
geometry = SlabGeometry([Layer(WATER, 4.0)])
case = sys.argv[1]
real_roll = batch._roll
real_leak = ScalarTransportEngine._leak
real_solve_group = DeterministicTransportEngine._solve_group
leak_calls = []


def drop_one_leak(sweep):
    real_roll(sweep)
    leaks, absorbed, lost, collisions = sweep.parts[0]
    leaks = leaks.copy()
    leaks.flat[np.flatnonzero(leaks)[0]] -= 1
    sweep.parts[0] = leaks, absorbed, lost, collisions


def skip_first_leak(self, x, energy_ev, tally):
    leak_calls.append(x)
    if len(leak_calls) > 1:
        real_leak(self, x, energy_ev, tally)


def halve_bath_current(self, g, q_fixed):
    phi, right, left, iterations = real_solve_group(self, g, q_fixed)
    if g == self.bath_group:
        right *= 0.5
    return phi, right, left, iterations


try:
    if case == "batch-balance":
        with mock.patch.object(batch, "_roll", drop_one_leak):
            batch.BatchTransportEngine(geometry).run(
                5000, source_energy_ev=1.0e6, seed=7
            )
    elif case == "deterministic-balance":
        with mock.patch.object(
            DeterministicTransportEngine, "_solve_group", halve_bath_current
        ):
            DeterministicTransportEngine(geometry).run(
                source_energy_ev=1.0e6
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
            ("scalar-balance", "neutron balance violated"),
            ("deterministic-balance", "neutron balance violated"),
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
