"""E10 — Section VI environment ablation: materials and weather.

Sweeps the environmental modifiers and checks the published numbers:
water +24 %, concrete +20 %, both +44 %, rain x2 — and their FIT
consequences, including the MC-transport cross-check that fixed
multipliers are physically plausible moderation albedo.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.analysis import format_table
from repro.core import FitCalculator
from repro.devices import get_device
from repro.environment import (
    CONCRETE_FLOOR,
    FluxScenario,
    NEW_YORK,
    WATER_COOLING,
    WeatherCondition,
)
from repro.faults.models import Outcome
from repro.transport import CONCRETE, WATER
from repro.transport.api import TransportQuery, answer


def _sweep():
    calc = FitCalculator()
    device = get_device("K20")
    base = FluxScenario(site=NEW_YORK, name="baseline")
    variants = [
        ("baseline", base),
        ("+ water", base.with_materials(WATER_COOLING)),
        ("+ concrete", base.with_materials(CONCRETE_FLOOR)),
        (
            "+ both",
            base.with_materials(WATER_COOLING, CONCRETE_FLOOR),
        ),
        ("+ rain", base.with_weather(WeatherCondition.RAIN)),
        (
            "+ both + rain",
            base.with_materials(
                WATER_COOLING, CONCRETE_FLOOR
            ).with_weather(WeatherCondition.RAIN),
        ),
    ]
    out = []
    for label, scenario in variants:
        fit = calc.decompose(device, scenario, Outcome.SDC)
        out.append(
            (
                label,
                scenario.thermal_flux_per_h(),
                fit.total,
                fit.thermal_share,
            )
        )
    return out


def test_bench_environment_sweep(benchmark, announce):
    sweep = run_once(benchmark, _sweep)
    base_flux = sweep[0][1]
    base_fit = sweep[0][2]

    rows = [
        [
            label,
            f"{flux:.2f}",
            f"{flux / base_flux:.2f}x",
            f"{fit:.1f}",
            f"{share:.1%}",
        ]
        for label, flux, fit, share in sweep
    ]
    announce(
        format_table(
            ["environment", "thermal flux /cm2/h", "vs baseline",
             "SDC FIT", "thermal share"],
            rows,
            title="E10 — environmental thermal-flux sweep (K20, NYC)",
        )
    )

    factors = {label: flux / base_flux for label, flux, _, _ in sweep}
    assert factors["+ water"] == pytest.approx(1.24)
    assert factors["+ concrete"] == pytest.approx(1.20)
    assert factors["+ both"] == pytest.approx(1.44)
    assert factors["+ rain"] == pytest.approx(2.0)
    assert factors["+ both + rain"] == pytest.approx(2.88)

    # FIT grows monotonically with the thermal flux, and the combined
    # rainy machine room raises the K20 SDC FIT noticeably.
    fits = [fit for _, _, fit, _ in sweep]
    assert fits[-1] > fits[0]
    assert fits[-1] / base_fit > 1.2


def test_bench_modifiers_vs_transport(benchmark):
    """The fixed multipliers are physically plausible: the MC albedo
    of the real materials lands in the same range."""

    def _albedo(material, thickness_cm):
        query = TransportQuery(
            mode="albedo",
            material=material,
            thickness_cm=thickness_cm,
            source_energy_ev=1.0e6,
            n_neutrons=4000,
            seed=5,
            engine="batch",
        )
        return answer(query, store=None).result.thermal_albedo()

    def _albedos():
        return _albedo(WATER, 5.08), _albedo(CONCRETE, 20.0)

    water, concrete = run_once(benchmark, _albedos)
    # Pure normal-incidence albedo under-counts the measured
    # enhancements: the water box sits right over the detector
    # (~half-space solid angle) and a concrete floor subtends even
    # more.  Accept [0.5x, 1.5x] for the water box and a wider
    # geometry allowance for the floor slab.
    assert 0.5 * 0.24 < water < 1.5 * 0.24
    assert 0.25 * 0.20 < concrete < 1.5 * 0.20
