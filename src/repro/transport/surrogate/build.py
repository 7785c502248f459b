"""Build and certify surrogate response-surface artifacts.

The grid fill uses the deterministic multigroup engine — noise-free,
no RNG, ~11x faster per point than an instrument-grade MC run — and
the *certification* pass holds out the geometric midpoints of every
grid interval, runs batch Monte Carlo there, and records the worst
``|prediction - MC| + k * sigma`` disagreement per channel as the
surface's certified absolute bound.  This is the deterministic-vs-MC
K-sigma contract of ``tests/test_transport_equivalence.py``, applied
at points the interpolator never saw: the bound covers condensation
bias *and* interpolation error, with MC noise folded in at ``k``
standard errors (two-sided normal coverage ``erf(k / sqrt(2))``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import serde
from repro.durable import payload_checksum
from repro.obs import core as obs
from repro.spectra.beamlines import rotax_spectrum
from repro.spectra.spectrum import Spectrum
from repro.transport.materials import (
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    WATER,
    Material,
)
from repro.transport.surrogate.surface import (
    CHANNELS,
    FRACTION_CHANNELS,
    ResponseSurface,
    mono_source_key,
    spectrum_source_key,
)

__all__ = [
    "SurfaceSpec",
    "build_artifact",
    "build_surface",
    "default_surface_specs",
    "log_grid",
]

#: Default certification sigma multiplier — matches the engine
#: equivalence harness's ``_K_SIGMA`` (two-sided coverage ~0.9999994
#: is overkill; k = 5 buys slack for near-empty channels).
DEFAULT_K_SIGMA = 5.0

#: Default held-out MC histories per certification point.
DEFAULT_CERT_HISTORIES = 20_000

#: Default grid points per surface.
DEFAULT_N_POINTS = 9

#: Default albedo source energy (the paper's fast-ambient proxy).
ALBEDO_SOURCE_EV = 1.0e6

#: Reference thicknesses the default build centres its envelopes on
#: (the service's ``SHIELDS`` defaults; a test pins the two tables
#: against each other so they cannot drift apart).
DEFAULT_SHIELD_THICKNESS_CM: Dict[str, float] = {
    CADMIUM.name: 0.1,
    BORATED_POLYETHYLENE.name: 5.0,
    WATER.name: 10.0,
    CONCRETE.name: 30.0,
}

#: Envelope span around a reference thickness: [t/4, 4t].
_ENVELOPE_SPAN = 4.0


def log_grid(lo_cm: float, hi_cm: float, n_points: int) -> Tuple[float, ...]:
    """``n_points`` log-spaced thicknesses spanning ``[lo, hi]``."""
    if lo_cm <= 0.0 or hi_cm <= lo_cm:
        raise ValueError(
            f"need 0 < lo < hi, got [{lo_cm}, {hi_cm}]"
        )
    if n_points < 2:
        raise ValueError(f"need >= 2 grid points, got {n_points}")
    return tuple(
        float(t)
        for t in np.exp(
            np.linspace(math.log(lo_cm), math.log(hi_cm), n_points)
        )
    )


@dataclass(frozen=True)
class SurfaceSpec:
    """What one response surface covers.

    Exactly one of ``source_spectrum`` / ``source_energy_ev`` must be
    set (mirroring :class:`~repro.transport.api.TransportQuery`).
    """

    mode: str
    material: Material
    thickness_cm: Tuple[float, ...]
    source_spectrum: Optional[Spectrum] = None
    source_energy_ev: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.source_spectrum is None) == (
            self.source_energy_ev is None
        ):
            raise ValueError(
                "give exactly one of"
                " source_spectrum/source_energy_ev"
            )

    def source_key(self) -> str:
        """Content key of the spec's source."""
        if self.source_spectrum is not None:
            return spectrum_source_key(self.source_spectrum)
        return mono_source_key(float(self.source_energy_ev))


def default_surface_specs(
    n_points: int = DEFAULT_N_POINTS,
) -> List[SurfaceSpec]:
    """The standard build: every service shield's transmission
    surface under the ROTAX spectrum, plus water/concrete albedo
    surfaces under the fast mono source."""
    spectrum = rotax_spectrum()
    specs: List[SurfaceSpec] = []
    for material in (CADMIUM, BORATED_POLYETHYLENE, WATER, CONCRETE):
        t_ref = DEFAULT_SHIELD_THICKNESS_CM[material.name]
        specs.append(
            SurfaceSpec(
                mode="transmission",
                material=material,
                thickness_cm=log_grid(
                    t_ref / _ENVELOPE_SPAN,
                    t_ref * _ENVELOPE_SPAN,
                    n_points,
                ),
                source_spectrum=spectrum,
            )
        )
    for material in (WATER, CONCRETE):
        t_ref = DEFAULT_SHIELD_THICKNESS_CM[material.name]
        specs.append(
            SurfaceSpec(
                mode="albedo",
                material=material,
                thickness_cm=log_grid(
                    t_ref / _ENVELOPE_SPAN,
                    t_ref * _ENVELOPE_SPAN,
                    n_points,
                ),
                source_energy_ev=ALBEDO_SOURCE_EV,
            )
        )
    return specs


def _solve(
    spec: SurfaceSpec,
    thickness_cm: float,
    engine: str,
    n_neutrons: int = 1,
    seed: int = 0,
):
    """One live-engine answer to the spec's physics at one thickness."""
    # Imported here: the facade imports the surrogate store, and this
    # package's ``__init__`` imports this module.
    from repro.transport.api import TransportQuery, answer

    query = TransportQuery(
        mode=spec.mode,
        material=spec.material,
        thickness_cm=thickness_cm,
        source_spectrum=spec.source_spectrum,
        source_energy_ev=spec.source_energy_ev,
        n_neutrons=n_neutrons,
        seed=seed,
        engine=engine,
    )
    return answer(query, store=None).result


def _cert_seed(base_seed: int, surface_key: str, index: int) -> int:
    """Deterministic per-midpoint MC seed (content-derived)."""
    token = f"{base_seed}:{surface_key}:{index}"
    material = hashlib.sha256(token.encode("ascii")).digest()
    return int.from_bytes(material[:4], "big")


def build_surface(
    spec: SurfaceSpec,
    cert_histories: int = DEFAULT_CERT_HISTORIES,
    k_sigma: float = DEFAULT_K_SIGMA,
    seed: int = 2020,
) -> Tuple[ResponseSurface, List[dict]]:
    """Fill and certify one response surface.

    Returns:
        ``(surface, certification)`` — the surface carries the
        measured per-channel bounds; the certification report lists
        every held-out comparison (JSON-ready rows).
    """
    if cert_histories < 100:
        raise ValueError(
            f"cert_histories must be >= 100, got {cert_histories}"
        )
    if k_sigma <= 0.0:
        raise ValueError(f"k_sigma must be positive, got {k_sigma}")
    grid = tuple(float(t) for t in spec.thickness_cm)
    channels: Dict[str, List[float]] = {c: [] for c in CHANNELS}
    for thickness_cm in grid:
        det = _solve(spec, thickness_cm, engine="deterministic")
        for channel in CHANNELS:
            channels[channel].append(float(getattr(det, channel)))
    confidence = math.erf(k_sigma / math.sqrt(2.0))
    provisional = ResponseSurface(
        mode=spec.mode,
        material=spec.material.name,
        source=spec.source_key(),
        thickness_cm=grid,
        channels={c: tuple(v) for c, v in channels.items()},
        gaps={c: 0.0 for c in CHANNELS},
        sigmas={c: 0.0 for c in CHANNELS},
        k_sigma=k_sigma,
        confidence=confidence,
    )
    # Decorrelates certification seeds between surfaces; built from
    # spec fields alone so the derivation stays caller-traceable.
    source_label = (
        spec.source_spectrum.name
        if spec.source_spectrum is not None
        else f"mono:{spec.source_energy_ev!r}"
    )
    surface_key = (
        f"{spec.mode}:{spec.material.name}:{source_label}"
    )
    gaps: Dict[str, float] = {c: 0.0 for c in CHANNELS}
    sigmas: Dict[str, float] = {c: 0.0 for c in CHANNELS}
    certification: List[dict] = []
    for index in range(len(grid) - 1):
        # Geometric midpoint: the farthest point (in log-thickness)
        # from both neighbouring grid points — worst case for the
        # log-linear interpolant.
        t_mid = math.sqrt(grid[index] * grid[index + 1])
        mc = _solve(
            spec,
            t_mid,
            engine="batch",
            n_neutrons=cert_histories,
            seed=_cert_seed(seed, surface_key, index),
        )
        row: dict = {"thickness_cm": t_mid, "channels": {}}
        for channel in CHANNELS:
            count = float(getattr(mc, channel))
            estimate = count / cert_histories
            if channel in FRACTION_CHANNELS:
                sigma = math.sqrt(
                    max(estimate * (1.0 - estimate), 0.0)
                    / cert_histories
                )
            else:
                # Collisions: Poisson error on the total count.
                sigma = math.sqrt(max(count, 0.0)) / cert_histories
            # Floor at one count: a 0-2 count channel's estimated
            # sigma is itself noise (the equivalence harness's
            # _ABS_FLOOR rationale).
            sigma = max(sigma, 1.0 / cert_histories)
            predicted = provisional.predict(channel, t_mid)
            gap = abs(predicted - estimate)
            gaps[channel] = max(gaps[channel], gap)
            sigmas[channel] = max(sigmas[channel], sigma)
            row["channels"][channel] = {
                "predicted": predicted,
                "mc_estimate": estimate,
                "mc_sigma": sigma,
                "z": gap / sigma,
                "bound": max(gap, k_sigma * sigma),
            }
        certification.append(row)
    surface = dataclasses.replace(
        provisional, gaps=gaps, sigmas=sigmas
    )
    return surface, certification


def build_artifact(
    name: str,
    specs: List[SurfaceSpec],
    cert_histories: int = DEFAULT_CERT_HISTORIES,
    k_sigma: float = DEFAULT_K_SIGMA,
    seed: int = 2020,
) -> dict:
    """Build a serde-tagged, checksummed surrogate artifact.

    The returned payload is JSON-ready; its ``checksum`` field is a
    SHA-256 over the canonical body (the store's content address).
    """
    if not name:
        raise ValueError("artifact name must be non-empty")
    if not specs:
        raise ValueError("artifact needs at least one surface spec")
    with obs.span(
        "surrogate.build", artifact=name, surfaces=len(specs)
    ):
        surfaces: List[dict] = []
        certification: List[dict] = []
        n_points = 0
        for spec in specs:
            surface, report = build_surface(
                spec,
                cert_histories=cert_histories,
                k_sigma=k_sigma,
                seed=seed,
            )
            n_points += len(surface.thickness_cm)
            surfaces.append(surface.to_dict())
            certification.append(
                {
                    "mode": surface.mode,
                    "material": surface.material,
                    "source": surface.source,
                    "held_out": report,
                }
            )
        payload = serde.tag(
            "surrogate-artifact",
            {
                "name": name,
                "n_points": n_points,
                "cert_histories": cert_histories,
                "k_sigma": k_sigma,
                "confidence": math.erf(k_sigma / math.sqrt(2.0)),
                "seed": seed,
                "surfaces": surfaces,
                "certification": certification,
            },
        )
    payload["checksum"] = payload_checksum(payload)
    return payload
