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
run one stream wide (``parallel/water``) and the collision cap.  Its
``bath`` entries, each stack under a source at the default
thermal-bath energy, were added by the engine as it stood before the
round let neutrons on the bath floor skip the isotope pick and the
downscatter, so that every neutron's every scatter takes the skip;
the ``deterministic`` and ``result_accessors`` blocks gained the same
stacks' solves with them.  The
``deterministic`` block was written by the deterministic engine as it
stood before its response build was blocked and its source kernel
memoised, so the rewritten solver must reproduce every answer
exactly, iteration counts and balance residuals included.  It was regenerated once when the
response build took the optical distance inside a layer as cells
between times the layer's cell thickness (every solve kept its
iteration count and moved by under 1e-10 relative; the blocks and
lines the solver and its surrogate feed were regenerated with it).
It covers the shield-serve benchmark's
thickness ladder, the service's shields, every material alone and
over water (up to the mesh's cell cap), the three-layer stack and a
fast beamline source.  The ``service_responses`` block was written
by the FIT service as it stood before queries that need no live
engine were answered on the event loop: the response line, byte for
byte, of every request an in-process service over the trial
surrogate artifact and a result cache answers, in order.  It covers
surrogate-served cadmium under ``auto`` and ``surrogate`` across the
envelope (edges included), surrogate misses (a degraded fallback
under ``surrogate``, a live answer under ``auto``), ``fit``,
``cross-section`` and ``flux`` at every site, batch, deterministic
and scalar answers, repeats that the cache serves, and an error.
The ``result_accessors`` block was written by the code as it stood
before the three engines' result classes became one: what each of
the ten accessors returns (``transmitted``, ``reflected``, the four
fractions, ``mean_collisions``, both ``*_stderr`` and
``balance_check``) for every result the ``answers``,
``batch_tallies`` and ``deterministic`` blocks pin, and for the trial
surface evaluated at each grid point and each interval's midpoint.
The result blocks and this one compare as JSON text, so a count that
became a float (``5000.0`` for ``5000``) fails by name.  Every Monte
Carlo result the blocks hold was regenerated once when the
``transport`` wire form dropped its ``degraded_shards`` field
(version 2): only that field and ``schema_version`` changed.

Regenerate only on purpose (a physics or sampling change).  First
see what would move::

    PYTHONPATH=src python tests/test_transport_answers.py --diff

which recomputes every block in memory and prints, per block, each
key whose numbers moved and its largest relative move (balance
residuals by absolute move; a changed string or flag by name).  Check
that only the blocks the change should move did, and by no more than
it should, then regenerate once with::

    PYTHONPATH=src python tests/test_transport_answers.py \\
        > tests/data/transport-answers.json

The same command adds a new block: run it with the code as it stood
before the change the block guards, and check that ``git diff`` of the
fixture shows only the added block.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.chaos import trials
from repro.chaos.trials import make_surrogate_root
from repro.detector.unfolding import response_matrix
from repro.physics.constants import BOLTZMANN_EV_PER_K, ROOM_TEMPERATURE_K
from repro.service.protocol import SERVICE_SITES, SHIELDS
from repro.spectra.beamlines import chipir_spectrum, rotax_spectrum
from repro.transport import api as transport_api
from repro.transport import batch, materials
from repro.transport.api import LIVE_CASCADE, TransportQuery, answer
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import AIR, CADMIUM, CONCRETE, WATER
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.multigroup import DeterministicTransportEngine
from repro.transport.surrogate.store import SurrogateStore
from repro.transport.surrogate.surface import spectrum_source_key

FIXTURE = Path(__file__).parent / "data" / "transport-answers.json"

#: Histories per MC answer: two seed streams for the batch engine.
N_NEUTRONS = 5000

#: Histories per shield-study point: five seed streams in one sweep.
STUDY_NEUTRONS = 20_000

#: Histories per batch request of the service benchmark: one stream.
SERVICE_NEUTRONS = 4096

#: The sources every pinned stack runs under: fast, thermal, and the
#: engines' default thermal-bath floor, where no scatter lowers the
#: energy.
STACK_SOURCES_EV = {
    "1MeV": 1.0e6,
    "0.025eV": 0.025,
    "bath": BOLTZMANN_EV_PER_K * ROOM_TEMPERATURE_K,
}

#: Sweep rounds the collision-cap entry allows before banking the
#: survivors as lost.
CAPPED_ROUNDS = 3

#: The shield-serve benchmark's deterministic ladder: these shields at
#: the centres of ``LADDER_RUNGS`` log-spaced rungs over 1-20 cm.
LADDER_SHIELDS = ("water", "concrete", "borated-poly")
LADDER_RUNGS = 5


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


def _stacks() -> dict:
    """A three-layer stack and every material alone and over water."""
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
    return stacks


def _batch(layers, n_neutrons, **run_kwargs):
    engine = BatchTransportEngine(SlabGeometry(layers))
    return engine.run(n_neutrons, seed=2020, **run_kwargs)


def _vacuum_batch(layers, vacuum_layer, n_neutrons, **run_kwargs):
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
    return engine.run(n_neutrons, seed=2020, **run_kwargs)


def _batch_tallies() -> dict:
    """Batch-engine results over every sweep shape the kernel has."""
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
    for stack, layers in _stacks().items():
        for label, energy_ev in STACK_SOURCES_EV.items():
            tallies[f"stack/{stack}/{label}"] = _batch(
                layers, N_NEUTRONS, source_energy_ev=energy_ev
            )
    tallies["parallel/water"] = _batch(
        [Layer(WATER, 10.0)],
        STUDY_NEUTRONS,
        source_spectrum=rotax,
        batch_size=4096,
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


def _solve(layers, **source):
    engine = DeterministicTransportEngine(SlabGeometry(layers))
    return engine.run(**source)


def _deterministic() -> dict:
    """Deterministic-engine results over every mesh shape it meets."""
    rotax = rotax_spectrum()
    answers = {}
    for shield in LADDER_SHIELDS:
        material = SHIELDS[shield][0]
        for rung in range(LADDER_RUNGS):
            thickness_cm = 20.0 ** ((rung + 0.5) / LADDER_RUNGS)
            answers[f"ladder/{shield}/{rung}"] = _solve(
                [Layer(material, thickness_cm)], source_spectrum=rotax
            )
    for shield, (material, thickness_cm) in sorted(SHIELDS.items()):
        answers[f"shield/{shield}"] = _solve(
            [Layer(material, thickness_cm)], source_spectrum=rotax
        )
    for stack, layers in _stacks().items():
        for label, energy_ev in STACK_SOURCES_EV.items():
            answers[f"stack/{stack}/{label}"] = _solve(
                layers, source_energy_ev=energy_ev
            )
    answers["chipir/water"] = _solve(
        [Layer(WATER, 10.0)], source_spectrum=chipir_spectrum()
    )
    return answers


#: Thicknesses of the surrogate-served requests: a log grid over the
#: trial surface's envelope, and both edges nudged inside the
#: envelope's relative slack.
SURROGATE_ENVELOPE_CM = (0.025, 0.4)
SURROGATE_REQUESTS = 20

#: Accuracy targets the surrogate-served requests cycle through (the
#: first is the wire default; every one is met inside the envelope).
SERVED_ACCURACY = (
    None,
    {"rel_err": 0.1, "confidence": 0.9},
    {"rel_err": 0.5, "confidence": 0.68},
)

#: Histories per live MC request (small: the lines pin bytes, not
#: physics).
SERVICE_LIVE_NEUTRONS = 256


def _request(request_id, kind, params, accuracy=None) -> str:
    body = {"id": request_id, "kind": kind, "params": params}
    if accuracy is not None:
        body.update(v=2, accuracy=accuracy)
    return json.dumps(body, sort_keys=True)


def _service_requests() -> list:
    """Every request line the served-response block pins, in order."""
    lines = []
    lo, hi = SURROGATE_ENVELOPE_CM
    thicknesses = [
        lo * (hi / lo) ** (i / (SURROGATE_REQUESTS - 1))
        for i in range(SURROGATE_REQUESTS)
    ] + [lo * (1.0 - 5.0e-10), hi * (1.0 + 5.0e-10)]
    for i, thickness_cm in enumerate(thicknesses):
        for policy in ("auto", "surrogate"):
            lines.append(
                _request(
                    f"surrogate/{policy}/{i}",
                    "transmission",
                    {
                        "shield": "cadmium",
                        "thickness_cm": thickness_cm,
                        "engine": policy,
                        "n_neutrons": SERVICE_LIVE_NEUTRONS,
                    },
                    SERVED_ACCURACY[i % len(SERVED_ACCURACY)],
                )
            )
    misses = {
        # Outside the envelope, too thin and too thick.
        "thin": ({"thickness_cm": 0.02}, None),
        "thick": ({"thickness_cm": 1.0}, None),
        # A coverage the surface cannot certify.
        "coverage": (
            {"thickness_cm": 0.1},
            {"rel_err": 0.05, "confidence": 0.999},
        ),
    }
    for label, (params, accuracy) in misses.items():
        for policy in ("auto", "surrogate"):
            lines.append(
                _request(
                    f"miss/{policy}/{label}",
                    "transmission",
                    {
                        "shield": "cadmium",
                        "engine": policy,
                        "n_neutrons": SERVICE_LIVE_NEUTRONS,
                        **params,
                    },
                    accuracy,
                )
            )
    lines.append(
        _request(
            "miss/surrogate/no-surface",
            "transmission",
            {
                "shield": "water",
                "engine": "surrogate",
                "n_neutrons": SERVICE_LIVE_NEUTRONS,
            },
        )
    )
    for site in sorted(SERVICE_SITES):
        lines.append(_request(f"flux/{site}", "flux", {"site": site}))
        lines.append(
            _request(
                f"flux/{site}/room-rain-air",
                "flux",
                {
                    "site": site,
                    "room": True,
                    "rain": True,
                    "air_cooled": True,
                },
            )
        )
    fits = (
        {"device": "K20", "site": "nyc", "room": True},
        {"device": "K20", "code": "MxM", "site": "leadville"},
        {"device": "TitanX", "site": "lanl", "room": True, "rain": True},
        {"device": "XeonPhi", "code": "LUD", "site": "isis"},
        {"device": "FPGA", "code": "MNIST", "site": "nyc", "rain": True},
        {"device": "APU-GPU", "site": "leadville", "room": True},
    )
    for i, params in enumerate(fits):
        lines.append(_request(f"fit/{i}", "fit", params))
        lines.append(_request(f"cross-section/{i}", "cross-section", params))
    live = (
        ("batch/water", {"shield": "water", "engine": "batch"}),
        (
            "batch/concrete",
            {"shield": "concrete", "engine": "batch", "seed": 7},
        ),
        ("batch/borated-poly", {"shield": "borated-poly"}),
        (
            "deterministic/water",
            {"shield": "water", "engine": "deterministic"},
        ),
        (
            "deterministic/cadmium",
            {
                "shield": "cadmium",
                "thickness_cm": 0.1,
                "engine": "deterministic",
            },
        ),
        (
            "scalar/cadmium",
            {"shield": "cadmium", "engine": "scalar", "n_neutrons": 64},
        ),
    )
    for label, params in live:
        params = {"n_neutrons": SERVICE_LIVE_NEUTRONS, **params}
        lines.append(_request(label, "transmission", params))
    # Repeats the cache serves, and one it cannot (a miss under
    # auto is answered live, and live answers are cached).
    for label in ("batch/water", "deterministic/water", "miss/auto/thick"):
        line = next(
            line for line in lines if json.loads(line)["id"] == label
        )
        repeat = json.loads(line)
        repeat["id"] = f"repeat/{label}"
        lines.append(json.dumps(repeat, sort_keys=True))
    lines.append(
        _request("error/bad-shield", "transmission", {"shield": "lead"})
    )
    return lines


def service_responses() -> list:
    """Each request line with the response line the service sent.

    One in-process service answers every line in order on one event
    loop, with the trial surrogate artifact configured and a result
    cache in a temporary directory.
    """
    lines = _service_requests()
    before = transport_api.default_store()
    with tempfile.TemporaryDirectory() as root:
        make_surrogate_root(Path(root) / "surrogates")
        transport_api.configure(str(Path(root) / "surrogates"))
        service = trials.make_service(cache_dir=Path(root) / "cache")
        try:
            responses = trials.run_service_lines(service, lines)
        finally:
            service.close()
            transport_api.set_default_store(before)
    return [
        {"request": line, "response": response}
        for line, response in zip(lines, responses)
    ]


def compute() -> dict:
    """Every pinned number, computed by the code under test."""
    pinned = _engine_numbers()
    pinned["service_responses"] = service_responses()
    return pinned


#: Every accessor a transport result answers: two properties, then
#: eight methods called with no arguments.
RESULT_PROPERTIES = ("transmitted", "reflected")
RESULT_METHODS = (
    "transmission_fraction",
    "thermal_transmission_fraction",
    "thermal_albedo",
    "absorption_fraction",
    "mean_collisions",
    "thermal_transmission_stderr",
    "thermal_albedo_stderr",
    "balance_check",
)


def _accessors(result) -> dict:
    """What each accessor of ``result`` returns."""
    values = {name: getattr(result, name) for name in RESULT_PROPERTIES}
    for name in RESULT_METHODS:
        values[name] = getattr(result, name)()
    return values


def _surface_points(surface) -> dict:
    """The surface's grid points and the midpoint of each interval."""
    grid = surface.thickness_cm
    points = {f"grid/{i}": t for i, t in enumerate(grid)}
    for i, (lo, hi) in enumerate(zip(grid, grid[1:])):
        points[f"midpoint/{i}"] = (lo + hi) / 2.0
    return points


def _engine_numbers() -> dict:
    """Every pinned number except the service's response lines."""
    served = {}
    for name, fields in _queries().items():
        for engine in LIVE_CASCADE:
            served[f"{name}/{engine}"] = answer(
                TransportQuery(
                    n_neutrons=N_NEUTRONS,
                    seed=2020,
                    engine=engine,
                    **fields,
                ),
                store=None,
            )
    tallies = _batch_tallies()
    solves = _deterministic()
    with tempfile.TemporaryDirectory() as root:
        digest = make_surrogate_root(root)
        ((surface, _),) = SurrogateStore(root).surfaces()
    results = {
        f"answers/{key}": served_answer.result
        for key, served_answer in served.items()
    }
    results.update(
        (f"batch_tallies/{key}", result) for key, result in tallies.items()
    )
    results.update(
        (f"deterministic/{key}", result) for key, result in solves.items()
    )
    results.update(
        (f"surrogate/{key}", surface.evaluate(thickness_cm))
        for key, thickness_cm in _surface_points(surface).items()
    )
    return {
        "answers": {
            key: {
                "result": served_answer.result.to_dict(),
                "provenance": served_answer.provenance.to_dict(),
            }
            for key, served_answer in served.items()
        },
        "batch_tallies": {
            key: result.to_dict() for key, result in tallies.items()
        },
        "deterministic": {
            key: result.to_dict() for key, result in solves.items()
        },
        "result_accessors": {
            key: _accessors(result) for key, result in results.items()
        },
        "response_matrix": response_matrix(
            [0.0, 2.5, 5.0], n_neutrons=500
        ).tolist(),
        "surrogate_digest": digest,
        "spectrum_source_keys": {
            "chipir": spectrum_source_key(chipir_spectrum()),
            "rotax": spectrum_source_key(rotax_spectrum()),
        },
    }


@pytest.fixture(scope="module")
def engine_numbers() -> dict:
    return _engine_numbers()


def _as_text(value) -> str:
    """``value`` as canonical JSON text: ``5000`` and ``5000.0``
    differ here, where ``==`` would call them equal."""
    return json.dumps(value, sort_keys=True)


def test_answers_match_the_fixture_exactly(engine_numbers):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # Round-trip through JSON so tuples and floats compare as stored.
    actual = json.loads(json.dumps(engine_numbers))
    assert sorted(actual["answers"]) == sorted(expected["answers"])
    for key, pinned in expected["answers"].items():
        assert _as_text(actual["answers"][key]) == _as_text(pinned), key
    assert actual["response_matrix"] == expected["response_matrix"]
    assert actual["surrogate_digest"] == expected["surrogate_digest"]
    assert (
        actual["spectrum_source_keys"] == expected["spectrum_source_keys"]
    )
    assert sorted(actual["batch_tallies"]) == sorted(
        expected["batch_tallies"]
    )
    for key, pinned in expected["batch_tallies"].items():
        assert _as_text(actual["batch_tallies"][key]) == _as_text(
            pinned
        ), key
    assert sorted(actual["deterministic"]) == sorted(
        expected["deterministic"]
    )
    for key, pinned in expected["deterministic"].items():
        assert _as_text(actual["deterministic"][key]) == _as_text(
            pinned
        ), key
    # How many histories are in flight never changes a tally.
    tallies = actual["batch_tallies"]
    assert tallies["parallel/water"] == tallies["study/water"]


def test_every_result_accessor_matches_the_fixture_as_json_text(
    engine_numbers,
):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    pinned = expected["result_accessors"]
    actual = engine_numbers["result_accessors"]
    assert sorted(actual) == sorted(pinned)
    for key, values in pinned.items():
        assert sorted(values) == sorted(
            RESULT_PROPERTIES + RESULT_METHODS
        ), key
        for name, value in values.items():
            assert _as_text(actual[key][name]) == _as_text(value), (
                key,
                name,
            )
    # The block covers every result the other engine blocks pin,
    # and the surface at every grid point and midpoint.
    for block in ("answers", "batch_tallies", "deterministic"):
        for key in expected[block]:
            assert f"{block}/{key}" in pinned
    surrogate = [key for key in pinned if key.startswith("surrogate/")]
    grid = [key for key in surrogate if key.startswith("surrogate/grid/")]
    assert len(surrogate) == 2 * len(grid) - 1 >= 3


def test_served_response_lines_match_the_fixture_byte_for_byte():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    pinned = expected["service_responses"]
    actual = service_responses()
    assert [e["request"] for e in actual] == [e["request"] for e in pinned]
    for entry, pinned_entry in zip(actual, pinned):
        assert entry["response"] == pinned_entry["response"], (
            entry["request"]
        )
    # The block covers what it claims: surrogate-served answers,
    # degraded fallbacks and cache hits.
    bodies = {
        json.loads(e["request"])["id"]: json.loads(e["response"])
        for e in actual
    }
    served = [
        b for i, b in bodies.items() if i.startswith("surrogate/")
    ]
    assert served and all(
        b["provenance"]["engine"] == "surrogate" for b in served
    )
    assert bodies["miss/surrogate/thick"]["degraded"] is True
    assert bodies["miss/auto/thick"]["provenance"]["engine"] == "batch"
    for label in ("batch/water", "deterministic/water", "miss/auto/thick"):
        assert bodies[label]["cached"] is False
        assert bodies[f"repeat/{label}"]["cached"] is True
        assert bodies[f"repeat/{label}"]["result"] == bodies[label]["result"]
    assert bodies["error/bad-shield"]["ok"] is False


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


def test_diff_names_each_moved_key_and_its_largest_move():
    committed = {
        "deterministic": {
            "a": {"absorbed": 0.5, "iterations": 10, "balance_residual": 0.0},
            "b": {"absorbed": 0.25, "iterations": 12},
        },
        "surrogate_digest": "old",
        "response_matrix": [[1.0, 2.0]],
    }
    fresh = json.loads(json.dumps(committed))
    fresh["deterministic"]["a"]["absorbed"] = 0.5 * (1.0 + 1.0e-12)
    fresh["deterministic"]["a"]["balance_residual"] = 3.0e-16
    fresh["surrogate_digest"] = "new"
    report = diff(committed, fresh).splitlines()
    assert report[0] == (
        "deterministic: 1 of 2 keys moved, largest relative move 1e-12"
    )
    assert report[1] == (
        "  a: 1e-12 relative at /absorbed;"
        " 3e-16 absolute at /balance_residual"
    )
    assert report[2] == (
        "response_matrix: 0 of 1 keys moved, largest relative move 0"
    )
    assert report[3:] == [
        "surrogate_digest: 1 of 1 keys moved, largest relative move 0",
        "  surrogate_digest: value changed",
    ]


#: Fields compared by absolute rather than relative move: the
#: solver's balance residual is rounding noise around zero.
ABSOLUTE_FIELDS = ("balance_residual",)


def _moves(old, new, field=""):
    """Yield ``(field, kind, move)`` for each leaf that differs.

    A number moves by ``|new - old| / max(|new|, |old|)`` (kind
    ``relative``), or by ``|new - old|`` for :data:`ABSOLUTE_FIELDS`
    (kind ``absolute``); any other change (a string, a flag, a key or
    a type) is kind ``changed``.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key in old and key in new:
                yield from _moves(old[key], new[key], f"{field}/{key}")
            else:
                yield f"{field}/{key}", "changed", None
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield field, "changed", None
        for index, (a, b) in enumerate(zip(old, new)):
            yield from _moves(a, b, f"{field}/{index}")
    elif _as_text(old) == _as_text(new):
        return
    elif all(
        isinstance(x, (int, float)) and not isinstance(x, bool)
        for x in (old, new)
    ):
        move = abs(new - old)
        if field.rsplit("/", 1)[-1] in ABSOLUTE_FIELDS:
            yield field, "absolute", move
        else:
            yield field, "relative", move / max(abs(new), abs(old))
    else:
        yield field, "changed", None


def _entries(block, value) -> dict:
    """A block's entries by key: served responses parsed and keyed by
    request id, a single value under the block's own name."""
    if block == "service_responses":
        return {
            json.loads(entry["request"])["id"]: json.loads(
                entry["response"]
            )
            for entry in value
        }
    if isinstance(value, dict):
        return value
    return {block: value}


def _describe(moves) -> str:
    """One moved entry: its largest relative move, each absolute
    move, and each field that changed other than by number."""
    relative = [
        (move, field) for field, kind, move in moves if kind == "relative"
    ]
    parts = []
    if relative:
        move, field = max(relative)
        parts.append(f"{move:.3g} relative at {field}")
    for field, kind, move in moves:
        if kind == "absolute":
            parts.append(f"{move:.3g} absolute at {field}")
        elif kind == "changed":
            parts.append(f"{field or 'value'} changed")
    return "; ".join(parts)


def diff(committed: dict, fresh: dict) -> str:
    """For each block, the keys whose numbers moved from ``committed``
    to ``fresh``, and how far."""
    lines = []
    for block in sorted(set(committed) | set(fresh)):
        old = _entries(block, committed.get(block, {}))
        new = _entries(block, fresh.get(block, {}))
        moved = {}
        for key in sorted(set(old) | set(new)):
            if key in old and key in new:
                moves = list(_moves(old[key], new[key]))
            else:
                moves = [("", "changed", None)]
            if moves:
                moved[key] = moves
        largest = max(
            (
                move
                for moves in moved.values()
                for _, kind, move in moves
                if kind == "relative"
            ),
            default=0.0,
        )
        lines.append(
            f"{block}: {len(moved)} of {len(new)} keys moved, largest"
            f" relative move {largest:.3g}"
        )
        lines.extend(
            f"  {key}: {_describe(moves)}" for key, moves in moved.items()
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.stdout.write(
            diff(
                json.loads(FIXTURE.read_text(encoding="utf-8")),
                json.loads(json.dumps(compute())),
            )
        )
    else:
        json.dump(compute(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
