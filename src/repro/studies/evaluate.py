"""Shard evaluation: grid points -> FIT rows and MC tallies.

One grid point is a (site, device, weather, cooling, shield) tuple.
Evaluation builds the paper's flux scenario for it, computes the full
SDC+DUE FIT decomposition, and — when the point is shielded — runs
shield transmission on the requested engine to scale the thermal FIT
contribution.  A shard's shielded points are answered together
(:func:`~repro.transport.api.answer_many`), so its batch points on
one shield share a rolling sweep.  Per-point MC seeds come from the
spec (derived from point content, not sharding), and every point's
tallies are its own whatever it shares a sweep with, so a sharded
study merges to exactly the tallies of the same grid run unsharded.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.fit import FitCalculator
from repro.devices import get_device
from repro.environment import (
    WeatherCondition,
    datacenter_scenario,
    outdoor_scenario,
)
from repro.service.protocol import SERVICE_SITES, SHIELDS
from repro.spectra.beamlines import rotax_spectrum
from repro.studies.spec import Shard, StudySpec
from repro.transport.api import (
    TransportAnswer,
    TransportQuery,
    answer,
    answer_many,
)

__all__ = ["evaluate_shard"]

_WEATHER = {
    "sunny": WeatherCondition.SUNNY,
    "overcast": WeatherCondition.OVERCAST,
    "rain": WeatherCondition.RAIN,
}


def _shield(point: Dict[str, str], n_neutrons: int, engine: str) -> dict:
    """A shielded point's transmission query, less its seed."""
    material, thickness_cm = SHIELDS[point["shield"]]
    return dict(
        mode="transmission",
        material=material,
        thickness_cm=thickness_cm,
        source_spectrum=rotax_spectrum(),
        n_neutrons=n_neutrons,
        engine=engine,
    )


def evaluate_point(
    point: Dict[str, str],
    n_neutrons: int,
    seed: int,
    engine: str,
    served: Optional[TransportAnswer] = None,
) -> dict:
    """Evaluate one grid point; returns a JSON-ready row.

    ``served`` is the answer to a shielded point's shield query when
    the caller has it already (:func:`evaluate_shard` does); without
    it the point asks the facade itself.
    """
    site = SERVICE_SITES[point["site"]]
    weather = _WEATHER[point["weather"]]
    if point["cooling"] == "outdoor":
        scenario = outdoor_scenario(site, weather=weather)
    else:
        scenario = datacenter_scenario(
            site,
            liquid_cooled=point["cooling"] == "liquid",
            weather=weather,
        )
    device = get_device(point["device"])
    report = FitCalculator().report(device, scenario)
    fit_thermal = report.sdc.fit_thermal + report.due.fit_thermal
    fit_high_energy = (
        report.sdc.fit_high_energy + report.due.fit_high_energy
    )
    row = {
        "point": dict(point),
        "scenario": scenario.label,
        "fit_thermal": fit_thermal,
        "fit_high_energy": fit_high_energy,
        "total_fit": report.total_fit,
        "shielded_total_fit": report.total_fit,
        "shield_transmission": None,
        "engine": "",
        "mc_source": 0,
        "mc_transmitted_thermal": 0,
    }
    if point["shield"] != "none":
        if served is None:
            served = answer(
                TransportQuery(
                    seed=seed, **_shield(point, n_neutrons, engine)
                )
            )
        result = served.result
        fraction = result.thermal_transmission_fraction()
        row["shield_transmission"] = fraction
        # The engine that actually answered, not the policy asked
        # for — "auto" may resolve to the surrogate or any live
        # engine.
        row["engine"] = served.provenance.engine
        row["shielded_total_fit"] = (
            fit_high_energy + fit_thermal * fraction
        )
        if served.provenance.engine in ("batch", "scalar"):
            # MC engines count histories; the deterministic solver
            # and the surrogate answer in fractions (no tallies to
            # merge).
            row["mc_source"] = int(result.source)
            row["mc_transmitted_thermal"] = int(
                result.transmitted_thermal
            )
    return row


def evaluate_shard(shard: Shard, spec: StudySpec, engine: str) -> dict:
    """Evaluate every point in a shard; returns the shard payload.

    The shielded points' queries go to the facade in one
    :func:`~repro.transport.api.answer_many` call; each row is then
    exactly what :func:`evaluate_point` gives the point alone.
    """
    # point_seed() hashes the spec seed with the point's content —
    # deterministic, sharding-independent; the two suppressions
    # below mark seeds that come from it.
    seeds = [spec.point_seed(point) for point in shard.points]
    shielded = [
        j
        for j, point in enumerate(shard.points)
        if point["shield"] != "none"
    ]
    queries = [
        TransportQuery(
            seed=seeds[j],
            **_shield(shard.points[j], spec.n_neutrons, engine),
        )
        for j in shielded
    ]
    served = dict(zip(shielded, answer_many(queries)))  # repro: noqa REP101
    rows = [
        evaluate_point(
            point,
            n_neutrons=spec.n_neutrons,
            seed=seeds[j],  # repro: noqa REP101
            engine=engine,
            served=served.get(j),
        )
        for j, point in enumerate(shard.points)
    ]
    return {
        "shard": shard.index,
        "engine": engine,
        "rows": rows,
        "tallies": {
            "mc_source": sum(r["mc_source"] for r in rows),
            "mc_transmitted_thermal": sum(
                r["mc_transmitted_thermal"] for r in rows
            ),
        },
    }
