"""Transport answers pinned bit for bit to a committed fixture.

``tests/data/transport-answers.json`` was written by the code as it
stood before the facade became the only live-engine dispatcher: the
facade's answers for every live engine on two queries, a detector
unfolding response matrix, and the chaos trials' surrogate artifact
digest.  Any refactor of the engine plumbing must reproduce every
number exactly.  The surrogate source keys of the two beamline
spectra were added to it by the code as it stood before those
spectra were built once per process, so the shared instances must
match a fresh build bit for bit.  The ``batch_tallies`` block was
written by the batch engine as it stood before its collision round
was rewritten for speed, so the rewritten round must reproduce every
count exactly.  It covers the study's shields, a service-sized run,
every material alone and over water, a three-layer stack, stacks
with a vacuum layer, each stack under a fast and a thermal source, a
parallel run and the collision cap.

Regenerate only on purpose (a physics or sampling change), with::

    PYTHONPATH=src python tests/test_transport_answers.py \\
        > tests/data/transport-answers.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from repro.chaos.trials import make_surrogate_root
from repro.detector.unfolding import response_matrix
from repro.service.protocol import SHIELDS
from repro.spectra.beamlines import chipir_spectrum, rotax_spectrum
from repro.transport import batch, materials
from repro.transport.api import LIVE_CASCADE, TransportQuery, answer
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import AIR, CADMIUM, CONCRETE, WATER
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.surrogate.surface import spectrum_source_key

FIXTURE = Path(__file__).parent / "data" / "transport-answers.json"

#: Histories per MC answer: two seed streams for the batch engine.
N_NEUTRONS = 5000

#: Histories per shield-study point: five seed streams in one sweep.
STUDY_NEUTRONS = 20_000

#: Histories per batch request of the service benchmark: one stream.
SERVICE_NEUTRONS = 4096

#: The two sources every pinned stack runs under: fast and thermal.
STACK_SOURCES_EV = {"1MeV": 1.0e6, "0.025eV": 0.025}

#: Sweep rounds the collision-cap entry allows before banking the
#: survivors as lost.
CAPPED_ROUNDS = 3


def _queries():
    return {
        "cadmium-transmission": dict(
            mode="transmission",
            material=CADMIUM,
            thickness_cm=0.1,
            source_spectrum=rotax_spectrum(),
        ),
        "water-albedo": dict(
            mode="albedo",
            material=WATER,
            thickness_cm=5.0,
            source_energy_ev=1.0e6,
        ),
    }


#: Every material :mod:`repro.transport.materials` defines.
ALL_MATERIALS = sorted(
    (
        value
        for value in vars(materials).values()
        if isinstance(value, materials.Material)
    ),
    key=lambda material: material.name,
)


def _batch(layers, n_neutrons, **run_kwargs) -> dict:
    engine = BatchTransportEngine(SlabGeometry(layers))
    return engine.run(n_neutrons, seed=2020, **run_kwargs).to_dict()


def _vacuum_batch(layers, vacuum_layer, n_neutrons, **run_kwargs) -> dict:
    """Tallies of ``layers`` with one layer's cross sections zeroed.

    No :class:`~repro.transport.materials.Material` has a zero total
    cross section, so the sweep's vacuum branch is reached only
    through hand-built geometry tables.
    """
    engine = BatchTransportEngine(SlabGeometry(layers))
    tables = engine._tables
    sigma_s = tables.sigma_scatter_per_cm.copy()
    sigma_a0 = tables.sigma_absorb_thermal_per_cm.copy()
    sigma_s[vacuum_layer] = sigma_a0[vacuum_layer] = 0.0
    names = list(tables.material_names)
    names[vacuum_layer] = "vacuum"
    engine._tables = dataclasses.replace(
        tables,
        sigma_scatter_per_cm=sigma_s,
        sigma_absorb_thermal_per_cm=sigma_a0,
        material_names=tuple(names),
    )
    return engine.run(n_neutrons, seed=2020, **run_kwargs).to_dict()


def _batch_tallies() -> dict:
    """Batch-engine tallies over every sweep shape the kernel has."""
    rotax = rotax_spectrum()
    tallies = {}
    for shield, (material, thickness_cm) in sorted(SHIELDS.items()):
        tallies[f"study/{shield}"] = _batch(
            [Layer(material, thickness_cm)],
            STUDY_NEUTRONS,
            source_spectrum=rotax,
        )
    tallies["service/water"] = _batch(
        [Layer(WATER, 10.0)], SERVICE_NEUTRONS, source_spectrum=rotax
    )
    stacks = {
        "water-cadmium-concrete": [
            Layer(WATER, 3.0),
            Layer(CADMIUM, 0.05),
            Layer(CONCRETE, 10.0),
        ],
    }
    for material in ALL_MATERIALS:
        stacks[f"{material.name}-over-water"] = [
            Layer(material, 4.0),
            Layer(WATER, 1.0),
        ]
        stacks[material.name] = [Layer(material, 4.0)]
    for stack, layers in stacks.items():
        for label, energy_ev in STACK_SOURCES_EV.items():
            tallies[f"stack/{stack}/{label}"] = _batch(
                layers, N_NEUTRONS, source_energy_ev=energy_ev
            )
    tallies["parallel/water"] = _batch(
        [Layer(WATER, 10.0)],
        STUDY_NEUTRONS,
        source_spectrum=rotax,
        batch_size=4096,
        n_workers=2,
    )
    vacuum_stacks = {
        "alone": ([Layer(AIR, 1.0)], 0),
        "front": ([Layer(AIR, 1.0), Layer(WATER, 2.0)], 0),
        "middle": (
            [Layer(WATER, 2.0), Layer(AIR, 1.0), Layer(CONCRETE, 2.0)],
            1,
        ),
    }
    for stack, (layers, vacuum_layer) in vacuum_stacks.items():
        for label, energy_ev in STACK_SOURCES_EV.items():
            tallies[f"vacuum/{stack}/{label}"] = _vacuum_batch(
                layers, vacuum_layer, N_NEUTRONS, source_energy_ev=energy_ev
            )
    with mock.patch.object(batch, "_MAX_COLLISIONS", CAPPED_ROUNDS):
        tallies["capped/water"] = _batch(
            [Layer(WATER, 10.0)], N_NEUTRONS, source_energy_ev=1.0e6
        )
    return tallies


def compute() -> dict:
    """Every pinned number, computed by the code under test."""
    answers = {}
    for name, fields in _queries().items():
        for engine in LIVE_CASCADE:
            served = answer(
                TransportQuery(
                    n_neutrons=N_NEUTRONS,
                    seed=2020,
                    engine=engine,
                    **fields,
                ),
                store=None,
            )
            answers[f"{name}/{engine}"] = {
                "result": served.result.to_dict(),
                "provenance": served.provenance.to_dict(),
            }
    with tempfile.TemporaryDirectory() as root:
        digest = make_surrogate_root(root)
    return {
        "answers": answers,
        "batch_tallies": _batch_tallies(),
        "response_matrix": response_matrix(
            [0.0, 2.5, 5.0], n_neutrons=500
        ).tolist(),
        "surrogate_digest": digest,
        "spectrum_source_keys": {
            "chipir": spectrum_source_key(chipir_spectrum()),
            "rotax": spectrum_source_key(rotax_spectrum()),
        },
    }


def test_answers_match_the_fixture_exactly():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # Round-trip through JSON so tuples and floats compare as stored.
    actual = json.loads(json.dumps(compute()))
    assert sorted(actual["answers"]) == sorted(expected["answers"])
    for key, pinned in expected["answers"].items():
        assert actual["answers"][key] == pinned, key
    assert actual["response_matrix"] == expected["response_matrix"]
    assert actual["surrogate_digest"] == expected["surrogate_digest"]
    assert (
        actual["spectrum_source_keys"] == expected["spectrum_source_keys"]
    )
    assert sorted(actual["batch_tallies"]) == sorted(
        expected["batch_tallies"]
    )
    for key, pinned in expected["batch_tallies"].items():
        assert actual["batch_tallies"][key] == pinned, key
    # Sharding over worker processes never changes a tally.
    tallies = actual["batch_tallies"]
    assert tallies["parallel/water"] == tallies["study/water"]


def test_beamline_spectra_are_built_once_on_the_default_grid():
    assert rotax_spectrum() is rotax_spectrum()
    assert chipir_spectrum() is chipir_spectrum()
    grid = rotax_spectrum().edges
    fresh = rotax_spectrum(edges=grid)
    assert fresh is not rotax_spectrum()
    assert chipir_spectrum(edges=grid) is not chipir_spectrum()
    assert spectrum_source_key(fresh) == spectrum_source_key(
        rotax_spectrum()
    )


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
