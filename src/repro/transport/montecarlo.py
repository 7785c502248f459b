"""1-D slab Monte Carlo for neutron moderation and albedo.

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

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.multigroup.solver import (
        DeterministicTransportResult,
    )

import numpy as np

from repro.physics.constants import BOLTZMANN_EV_PER_K, ROOM_TEMPERATURE_K
from repro.physics.interactions import scattered_energy
from repro.physics.units import THERMAL_CUTOFF_EV, FAST_CUTOFF_EV
from repro.runtime.errors import ConfigurationError
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


class Engine(enum.Enum):
    """Validated transport-engine selector.

    Replaces the bare ``"batch"`` / ``"scalar"`` strings:
    :meth:`coerce` still accepts those strings (every existing call
    site keeps working) but rejects anything else with a
    :class:`~repro.runtime.errors.ConfigurationError` naming the
    allowed set, instead of failing deep inside a run.

    Members:
        BATCH: vectorized Monte Carlo (the default) — statistical
            answers with binomial error bars.
        SCALAR: the original per-history Monte Carlo loop, kept as
            the statistical oracle.
        DETERMINISTIC: the multigroup discrete-ordinates solver —
            noise-free fractional answers, no RNG use, and orders of
            magnitude faster for wide parameter sweeps.
    """

    BATCH = "batch"
    SCALAR = "scalar"
    DETERMINISTIC = "deterministic"

    @classmethod
    def coerce(cls, value: Union[str, "Engine"]) -> "Engine":
        """Normalize a user-supplied engine selector.

        Args:
            value: an :class:`Engine` member or its string value.

        Raises:
            repro.runtime.errors.ConfigurationError: for anything
                else (the message lists the allowed values).
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            allowed = tuple(member.value for member in cls)
            raise ConfigurationError(
                f"unknown transport engine {value!r};"
                f" allowed: {allowed}"
            ) from None


def _classify(energy_ev: float) -> str:
    """Band label for a leaking neutron."""
    if energy_ev < THERMAL_CUTOFF_EV:
        return "thermal"
    if energy_ev < FAST_CUTOFF_EV:
        return "epithermal"
    return "fast"


class SlabTransport:
    """Monte Carlo transport through a :class:`SlabGeometry`.

    Args:
        geometry: the slab stack.
        bath_temperature_k: thermal-bath temperature; moderation stops
            at ``kT`` of this bath.
        rng: NumPy generator (seeded by the caller; defaults to the
            fixed-seed ``default_rng(0)`` so default-constructed
            transports are deterministic).
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
        # Engine slots: every engine attribute exists from birth (a
        # ``getattr(self, ..., None)`` probe used to paper over the
        # missing attribute) and is built lazily exactly once.
        self._batch = None  # BatchTransportEngine
        self._deterministic = None  # DeterministicTransportEngine

    # ------------------------------------------------------------------

    def run(
        self,
        n_neutrons: int,
        source_energy_ev: float | None = None,
        source_spectrum: Spectrum | None = None,
        engine: Union[str, Engine] = Engine.BATCH,
        batch_size: int | None = None,
        n_workers: int | None = None,
    ) -> Union[TransportResult, "DeterministicTransportResult"]:
        """Transport ``n_neutrons`` through the stack.

        Exactly one of ``source_energy_ev`` / ``source_spectrum`` must
        be given.  Neutrons start at ``x = 0`` moving in ``+x``.

        Args:
            n_neutrons: number of source histories.
            source_energy_ev: monoenergetic source energy, eV.
            source_spectrum: alternatively, a spectrum to sample.
            engine: :attr:`Engine.BATCH` (vectorized, the default),
                :attr:`Engine.SCALAR` (the original per-history loop,
                kept as the statistical oracle) or
                :attr:`Engine.DETERMINISTIC` (the noise-free
                multigroup solver); the strings ``"batch"`` /
                ``"scalar"`` / ``"deterministic"`` are accepted.  The
                MC engines consume the transport's ``rng`` stream, so
                repeated runs differ but a freshly seeded transport
                is deterministic; the deterministic engine never
                touches the stream — repeat solves are bit-identical
                (answers are fractions per source neutron, so
                ``n_neutrons`` does not affect them).
            batch_size: batch engine only — histories co-resident per
                vectorized sweep (rounded up to whole seed streams).
                Tallies do not depend on it.
            n_workers: batch engine only — optional process fan-out
                for campaign-scale runs; tallies do not depend on it.

        Returns:
            A frozen :class:`TransportResult` (MC engines) or the
            accessor-compatible ``DeterministicTransportResult``
            (deterministic engine).

        Raises:
            repro.runtime.errors.ConfigurationError: for an unknown
                ``engine`` selector.
        """
        engine = Engine.coerce(engine)
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
        if engine is Engine.DETERMINISTIC:
            # No RNG use at all: the solver is a pure function of the
            # geometry and the source.  ``n_neutrons`` is validated
            # for interface symmetry but the answer is per source
            # neutron.
            return self._deterministic_engine().run(
                source_energy_ev=source_energy_ev,
                source_spectrum=source_spectrum,
            )
        if engine is Engine.BATCH:
            # Deterministic hand-off: one integer drawn from the shared
            # stream seeds the batch engine's SeedSequence tree, so the
            # batch path has the same "same seed, same result /
            # repeated runs differ" contract as the scalar loop.
            entropy = int(self.rng.integers(0, 2**63))
            return self._batch_engine().run(
                n_neutrons,
                source_energy_ev=source_energy_ev,
                source_spectrum=source_spectrum,
                seed=entropy,
                batch_size=batch_size,
                n_workers=n_workers,
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

    def _batch_engine(self):
        """Lazily built (and cached) vectorized engine for this slab."""
        if self._batch is None:
            from repro.transport.batch import BatchTransportEngine

            self._batch = BatchTransportEngine(
                self.geometry, bath_energy_ev=self.bath_energy_ev
            )
        return self._batch

    def _deterministic_engine(self):
        """Lazily built (and cached) multigroup solver for this slab."""
        if self._deterministic is None:
            from repro.transport.multigroup.solver import (
                DeterministicTransportEngine,
            )

            self._deterministic = DeterministicTransportEngine(
                self.geometry, bath_energy_ev=self.bath_energy_ev
            )
        return self._deterministic

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
