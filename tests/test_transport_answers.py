"""Transport answers pinned bit for bit to a committed fixture.

``tests/data/transport-answers.json`` was written by the code as it
stood before the facade became the only live-engine dispatcher: the
facade's answers for every live engine on two queries, a detector
unfolding response matrix, and the chaos trials' surrogate artifact
digest.  Any refactor of the engine plumbing must reproduce every
number exactly.  The surrogate source keys of the two beamline
spectra were added to it by the code as it stood before those
spectra were built once per process, so the shared instances must
match a fresh build bit for bit.

Regenerate only on purpose (a physics or sampling change), with::

    PYTHONPATH=src python tests/test_transport_answers.py \\
        > tests/data/transport-answers.json
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.chaos.trials import make_surrogate_root
from repro.detector.unfolding import response_matrix
from repro.spectra.beamlines import chipir_spectrum, rotax_spectrum
from repro.transport.api import LIVE_CASCADE, TransportQuery, answer
from repro.transport.materials import CADMIUM, WATER
from repro.transport.surrogate.surface import spectrum_source_key

FIXTURE = Path(__file__).parent / "data" / "transport-answers.json"

#: Histories per MC answer: two seed streams for the batch engine.
N_NEUTRONS = 5000


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
