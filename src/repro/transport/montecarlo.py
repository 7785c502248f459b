"""1-D slab geometry and the per-history Monte Carlo engine.

:class:`SlabGeometry` is the stack every transport engine runs on;
:class:`ScalarTransportEngine` follows one neutron at a time and is
the oracle the batch and deterministic engines are held to.  Callers
ask transport questions through :mod:`repro.transport.api`, which
picks the engine.

Good-enough physics for the questions the paper asks of it:

* isotropic (lab-frame direction, CM-energy) elastic scattering with
  the exact ``alpha``-kinematics per struck isotope;
* 1/v absorption from the isotope table (so a cadmium sheet eats
  thermals and borated poly eats everything it moderates);
* a thermal bath: neutrons cannot moderate below the bath energy —
  once they reach it they diffuse at constant energy until absorbed or
  they leak;
* slab geometry: a stack of layers along ``x``; neutrons enter the
  first layer travelling in ``+x`` with ``mu = +1``.

The two headline uses are the water/concrete **albedo enhancement**
that reproduces the Tin-II +24 % step (experiment E5) and the
**shielding ablation** (experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.physics.constants import BOLTZMANN_EV_PER_K, ROOM_TEMPERATURE_K
from repro.physics.interactions import scattered_energy
from repro.physics.units import THERMAL_CUTOFF_EV, FAST_CUTOFF_EV
from repro.spectra.spectrum import Spectrum
from repro.transport.materials import Material
from repro.transport.tallies import TransportResult, TransportTally

#: Hard cap on collisions per history — a leak/absorption must happen
#: long before this for any sane slab; it guards against infinite
#: loops on pathological inputs.
_MAX_COLLISIONS = 10_000


@dataclass(frozen=True)
class Layer:
    """One slab layer.

    Attributes:
        material: bulk material.
        thickness_cm: layer thickness along ``x``.
    """

    material: Material
    thickness_cm: float

    def __post_init__(self) -> None:
        if self.thickness_cm <= 0.0:
            raise ValueError(
                f"thickness must be positive, got {self.thickness_cm}"
            )


class SlabGeometry:
    """A stack of layers from ``x = 0`` to the total thickness."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("geometry needs at least one layer")
        self.layers: Tuple[Layer, ...] = tuple(layers)
        bounds = [0.0]
        for layer in self.layers:
            bounds.append(bounds[-1] + layer.thickness_cm)
        self._bounds = np.asarray(bounds)
        self._bounds.setflags(write=False)

    @property
    def total_thickness_cm(self) -> float:
        """Total stack thickness."""
        return float(self._bounds[-1])

    def layer_at(self, x: float) -> int:
        """Index of the layer containing position ``x``.

        Positions exactly on an internal boundary belong to the layer
        to the right.
        """
        if x < 0.0 or x > self.total_thickness_cm:
            raise ValueError(f"position {x} outside the stack")
        idx = int(np.searchsorted(self._bounds, x, side="right")) - 1
        return min(max(idx, 0), len(self.layers) - 1)

    @property
    def bounds_cm(self) -> np.ndarray:
        """Cached, read-only boundary array (0 … total thickness).

        Unlike :meth:`boundaries` this does not copy; the transport
        hot loops index it directly.
        """
        return self._bounds

    def layer_indices(self, x_cm: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`layer_at` over an array of positions.

        Positions are clamped into the stack rather than validated —
        the transport engines only call this with in-stack positions.
        """
        idx = np.searchsorted(self._bounds, x_cm, side="right") - 1
        return np.clip(idx, 0, len(self.layers) - 1)

    def boundaries(self) -> np.ndarray:
        """Layer boundary positions including 0 and the far face."""
        return self._bounds.copy()


def _classify(energy_ev: float) -> str:
    """Band label for a leaking neutron."""
    if energy_ev < THERMAL_CUTOFF_EV:
        return "thermal"
    if energy_ev < FAST_CUTOFF_EV:
        return "epithermal"
    return "fast"


class ScalarTransportEngine:
    """Per-history Monte Carlo transport through a :class:`SlabGeometry`.

    Follows one neutron at a time from birth to leak or absorption.
    It is the statistical oracle the vectorized
    :class:`~repro.transport.batch.BatchTransportEngine` is held to
    (``tests/test_transport_equivalence.py``) and the live cascade's
    floor; callers that want throughput use the batch engine.

    Args:
        geometry: the slab stack.
        bath_temperature_k: thermal-bath temperature; moderation stops
            at ``kT`` of this bath.
        rng: NumPy generator (seeded by the caller; defaults to the
            fixed-seed ``default_rng(0)`` so default-constructed
            engines are deterministic).
    """

    def __init__(
        self,
        geometry: SlabGeometry,
        bath_temperature_k: float = ROOM_TEMPERATURE_K,
        rng: np.random.Generator | None = None,
    ) -> None:
        if bath_temperature_k <= 0.0:
            raise ValueError(
                f"bath temperature must be positive,"
                f" got {bath_temperature_k}"
            )
        self.geometry = geometry
        self.bath_energy_ev = BOLTZMANN_EV_PER_K * bath_temperature_k
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------

    def run(
        self,
        n_neutrons: int,
        source_energy_ev: float | None = None,
        source_spectrum: Spectrum | None = None,
    ) -> TransportResult:
        """Transport ``n_neutrons`` through the stack.

        Exactly one of ``source_energy_ev`` / ``source_spectrum`` must
        be given.  Neutrons start at ``x = 0`` moving in ``+x``.  Runs
        consume the engine's ``rng`` stream, so repeated runs differ
        but a freshly seeded engine is deterministic.

        Args:
            n_neutrons: number of source histories.
            source_energy_ev: monoenergetic source energy, eV.
            source_spectrum: alternatively, a spectrum to sample.

        Returns:
            A frozen :class:`TransportResult`.
        """
        if n_neutrons <= 0:
            raise ValueError(f"need n_neutrons > 0, got {n_neutrons}")
        if (source_energy_ev is None) == (source_spectrum is None):
            raise ValueError(
                "give exactly one of source_energy_ev/source_spectrum"
            )
        if source_energy_ev is not None and source_energy_ev <= 0.0:
            raise ValueError(
                f"source energy must be positive,"
                f" got {source_energy_ev}"
            )
        if source_spectrum is not None:
            energies = source_spectrum.sample_energies(
                self.rng, n_neutrons
            )
        else:
            energies = np.full(n_neutrons, float(source_energy_ev))

        tally = TransportTally()
        tally.source = n_neutrons
        for e0 in energies:
            self._history(float(e0), tally)
        result = TransportResult.from_tally(tally)
        assert result.balance_check(), "neutron balance violated"
        return result

    # ------------------------------------------------------------------

    def _history(self, energy_ev: float, tally: TransportTally) -> None:
        """Follow one neutron until it leaks or is absorbed."""
        x = 0.0
        mu = 1.0  # direction cosine along +x
        rng = self.rng
        geo = self.geometry
        total_thickness = geo.total_thickness_cm
        # Hoisted out of the collision loop: the boundary array is
        # immutable for the life of the geometry, and the layer lookup
        # is a single searchsorted on it (the old code rebuilt a copy
        # of the bounds and re-derived the index on every collision).
        bounds = geo.bounds_cm
        last_layer = len(geo.layers) - 1

        for _ in range(_MAX_COLLISIONS):
            idx = int(np.searchsorted(bounds, x, side="right")) - 1
            idx = min(max(idx, 0), last_layer)
            mat = geo.layers[idx].material
            sigma_t = mat.sigma_total_per_cm(energy_ev)
            if sigma_t <= 0.0:
                # Vacuum-like layer: stream to the nearest face.
                x = total_thickness if mu > 0.0 else 0.0
            else:
                distance = -np.log(rng.random()) / sigma_t
                step = distance * mu
                new_x = x + step
                # Does the flight cross the current layer's boundary?
                lo, hi = bounds[idx], bounds[idx + 1]
                if new_x > hi or new_x < lo:
                    # Move to the boundary and re-sample in the next
                    # layer (standard surface-crossing treatment).
                    eps = 1.0e-9
                    x = hi + eps if mu > 0.0 else lo - eps
                    if x >= total_thickness or x <= 0.0:
                        self._leak(x, energy_ev, tally)
                        return
                    continue
                x = new_x
                # Collision: absorb or scatter.
                tally.collisions += 1
                p_abs = mat.sigma_absorb_per_cm(energy_ev) / sigma_t
                if rng.random() < p_abs:
                    tally.record_absorption(mat.name)
                    return
                mass = mat.dominant_scatter_mass(rng.random())
                energy_ev = max(
                    scattered_energy(energy_ev, mass, rng.random()),
                    self.bath_energy_ev,
                )
                mu = 2.0 * rng.random() - 1.0
                continue
            if x >= total_thickness or x <= 0.0:
                self._leak(x, energy_ev, tally)
                return
        # Pathological history: bank it as absorbed to keep balance.
        tally.record_absorption("lost")

    def _leak(
        self, x: float, energy_ev: float, tally: TransportTally
    ) -> None:
        """Record a leakage event at a face."""
        band = _classify(energy_ev)
        forward = x >= self.geometry.total_thickness_cm
        key = ("transmitted_" if forward else "reflected_") + band
        setattr(tally, key, getattr(tally, key) + 1)
