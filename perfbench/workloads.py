"""Seeded workload generators: the only inputs the program receives.

Every generator takes the benchmark seed and yields the same sequence
for the same seed, so the untraced and traced passes of one run, and
two runs with one seed, send identical traffic.  Request classes come
in shuffled blocks with exact class counts, and the expensive
deterministic-solver requests are stratified over shield and
thickness, so every window sees the same mix on every seed: the
latency tail then measures the program, not the luck of the draw.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Tuple

#: Sites of the study grid.
SITES = ("isis", "lanl", "leadville", "nyc")

#: Certified thickness envelope of the cadmium/ROTAX artifact that
#: ``repro.chaos.trials.make_surrogate_root`` writes (its grid is
#: ``log_grid(0.025, 0.4, ...)``).
SURROGATE_ENVELOPE_CM = (0.025, 0.4)

#: Shields the live-engine classes of ``shield-serve`` draw from.
LIVE_SHIELDS = ("water", "concrete", "borated-poly")

#: Thickness range of the deterministic class, cm.
DETERMINISTIC_RANGE_CM = (1.0, 20.0)

#: Histories per batch-class request.
BATCH_NEUTRONS = 4096

#: One ``transmission`` request: (class, params).
Request = Tuple[str, dict]


def _blocks(rng: random.Random, block: List[str]) -> Iterator[str]:
    """Endless class sequence: shuffled copies of ``block``."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def shield_serve(seed: int) -> Iterator[Request]:
    """``shield-serve``: 80 % surrogate, 10 % batch, 10 % deterministic.

    Surrogate-class thicknesses are log-uniform inside the artifact's
    envelope; batch requests cycle the live shields with a fresh seed
    each.  Every block of 15 deterministic requests is a ladder of 3
    shields x 5 log-spaced thicknesses over the range, in shuffled
    order: the solver's cost and memory grow steeply with thickness,
    so a ladder keeps the latency tail and the peak RSS the same on
    every seed.  With 5 rungs the slowest 1 % of requests is 1.5
    borated-poly rungs per block, which puts ``latency_p99_ms`` inside
    the second rung's cluster of solve times rather than on the step
    between two rungs.  Each rung is jittered by +-5 % of its
    log-width, so no two requests share a cache key.
    """
    rng = random.Random(seed)
    batch_shields = _blocks(rng, list(LIVE_SHIELDS))

    def deterministic_blocks() -> Iterator[Tuple[str, float]]:
        rungs = 5
        while True:
            cells = [
                (shield, (j + 0.45 + 0.1 * rng.random()) / rungs)
                for shield in LIVE_SHIELDS
                for j in range(rungs)
            ]
            rng.shuffle(cells)
            for shield, u in cells:
                yield shield, _log_uniform(*DETERMINISTIC_RANGE_CM, u)

    deterministic = deterministic_blocks()
    classes = ["surrogate"] * 8 + ["batch", "deterministic"]
    for cls in _blocks(rng, classes):
        if cls == "surrogate":
            thickness = _log_uniform(
                *SURROGATE_ENVELOPE_CM, rng.random()
            )
            params = {
                "shield": "cadmium",
                "thickness_cm": thickness,
                "engine": "auto",
            }
        elif cls == "batch":
            params = {
                "shield": next(batch_shields),
                "engine": "batch",
                "n_neutrons": BATCH_NEUTRONS,
                "seed": rng.randrange(2**31),
            }
        else:
            shield, thickness = next(deterministic)
            params = {
                "shield": shield,
                "thickness_cm": thickness,
                "engine": "deterministic",
            }
        yield cls, params


def shield_warmup(seed: int) -> List[Request]:
    """Untimed ``shield-serve`` requests: one surrogate, one batch, and
    one deterministic per live shield, because the solver condenses
    each material on its first use."""
    stream = shield_serve(seed + 1_000_003)
    seen: Dict[str, Request] = {}
    while len(seen) < 2:
        request = next(stream)
        if request[0] != "deterministic":
            seen.setdefault(request[0], request)
    warmup = [seen["surrogate"], seen["batch"]]
    for shield in LIVE_SHIELDS:
        params = {
            "shield": shield,
            "thickness_cm": DETERMINISTIC_RANGE_CM[0],
            "engine": "deterministic",
        }
        warmup.append(("deterministic", params))
    return warmup


def study_spec(seed: int) -> dict:
    """``shield-study``: 5 shields x 4 sites x 3 weathers x 3 coolings
    on K20 (180 points), batch engine, 20 000 histories, 45 shards."""
    return {
        "name": "perfbench-shield-study",
        "axes": {
            "shield": [
                "none", "borated-poly", "cadmium", "concrete", "water",
            ],
            "site": list(SITES),
            "weather": ["sunny", "overcast", "rain"],
            "cooling": ["liquid", "air", "outdoor"],
            "device": ["K20"],
        },
        "seed": seed,
        "n_neutrons": 20_000,
        "shard_size": 4,
        "engine": "batch",
    }
