"""Vectorized, event-based batch Monte Carlo transport engine.

The scalar engine in :mod:`repro.transport.montecarlo` follows one
neutron at a time; this module carries **all alive neutrons as NumPy
arrays** (position, direction cosine, energy) and advances them
collision-step by collision-step with masked array operations.  The
physics is identical — same flight-length law, same surface-crossing
treatment, same 1/v absorption, same single-variate isotope pick and
elastic kinematics — so the two engines are statistically equivalent
channel by channel (enforced by ``tests/test_transport_equivalence.py``).

Determinism contract
--------------------

Histories are partitioned into fixed-size **seed streams** of
:data:`HISTORIES_PER_STREAM` histories.  The run's root
``SeedSequence`` spawns one child per stream, each stream draws its
source energies and all of its collision randomness from its own
generator, and streams never share draws.  Consequences:

* same seed → same tallies, bit for bit;
* tallies are independent of ``batch_size`` (which only sets how many
  streams are fused into one vectorized sweep) and of ``n_workers``
  (which only sets how sweeps are scheduled across processes).

Geometry boundaries, per-layer cross-section coefficients and
per-material scatter tables are built once per engine and reused by
every sweep, instead of being re-derived per collision.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.faultpoints import fault_point
from repro.obs import core as obs
from repro.physics.constants import BOLTZMANN_EV_PER_K, ROOM_TEMPERATURE_K
from repro.physics.units import (
    FAST_CUTOFF_EV,
    THERMAL_CUTOFF_EV,
    THERMAL_ENERGY_EV,
)
from repro.spectra.spectrum import Spectrum
from repro.transport.montecarlo import _MAX_COLLISIONS, SlabGeometry
from repro.transport.tallies import TransportResult, TransportTally

#: Histories per randomness stream.  This is the granularity of the
#: ``SeedSequence`` spawn tree and is deliberately **not** tunable per
#: run: tallies depend on it, so freezing it is what makes results
#: independent of ``batch_size`` and ``n_workers``.
HISTORIES_PER_STREAM = 4096

#: Default histories co-resident per vectorized sweep (8 streams).
DEFAULT_BATCH_SIZE = 32768

#: Nudge past a crossed boundary, matching the scalar engine.
_BOUNDARY_EPS_CM = 1.0e-9


def scattered_energies_ev(
    energies_ev: np.ndarray,
    mass_numbers: np.ndarray,
    u: np.ndarray,
    bath_energy_ev: float,
) -> np.ndarray:
    """Vectorized isotropic-CM elastic kinematics with a thermal floor.

    The per-neutron outgoing energy is uniform on ``[alpha E, E]``
    with ``alpha = ((A - 1) / (A + 1))^2``, clipped below at the bath
    energy — the array form of
    :func:`repro.physics.interactions.scattered_energy` plus the
    bath-floor rule the transport applies after every scatter.

    Args:
        energies_ev: incident energies, eV.
        mass_numbers: struck-nucleus mass numbers ``A`` (>= 1).
        u: uniform variates in [0, 1).
        bath_energy_ev: thermal-bath floor, eV.
    """
    a = np.asarray(mass_numbers, dtype=float)
    alpha = ((a - 1.0) / (a + 1.0)) ** 2
    out = np.asarray(energies_ev, dtype=float) * (
        alpha + (1.0 - alpha) * np.asarray(u, dtype=float)
    )
    return np.maximum(out, bath_energy_ev)


@dataclass(frozen=True)
class _ScatterTable:
    """Per-material tables replicating ``Material.dominant_scatter_mass``.

    The scalar method turns a single uniform ``u`` into an element
    pick (by cumulative scatter weight) and an isotope pick (by
    cumulative abundance on ``frac = (997 u) mod 1``).  The tables
    below make both picks a ``searchsorted``/``argmax`` over arrays,
    padded so the scalar "fall back to the last isotope" branch is a
    padding column rather than a Python loop.
    """

    elem_cum_weight: np.ndarray  # (n_elem,) cumulative scatter weights
    total_weight: float
    iso_cum_2d: np.ndarray  # (n_elem, pad) cumulative abundance, +inf pad
    iso_mass_2d: np.ndarray  # (n_elem, pad) mass numbers, last-iso pad

    def sample_mass_numbers(self, u: np.ndarray) -> np.ndarray:
        """Struck mass numbers for uniform variates ``u``."""
        n_elem = self.elem_cum_weight.size
        elem_idx = np.minimum(
            np.searchsorted(
                self.elem_cum_weight, u * self.total_weight, side="right"
            ),
            n_elem - 1,
        )
        frac = (u * 997.0) % 1.0
        iso_idx = np.argmax(
            self.iso_cum_2d[elem_idx] > frac[:, None], axis=1
        )
        return self.iso_mass_2d[elem_idx, iso_idx]


@dataclass(frozen=True)
class _GeometryTables:
    """Immutable per-geometry cache shared by every sweep (picklable,
    so worker processes receive it ready-made)."""

    bounds_cm: np.ndarray  # (L + 1,) layer boundaries
    sigma_scatter_per_cm: np.ndarray  # (L,) energy-independent
    sigma_absorb_thermal_per_cm: np.ndarray  # (L,) at 0.0253 eV
    scatter_tables: Tuple[_ScatterTable, ...]  # one per layer
    material_names: Tuple[str, ...]  # one per layer


def _build_scatter_table(material) -> _ScatterTable:
    """Flatten one material's element/isotope data into arrays."""
    weights = np.asarray(
        [
            nuc.number_density * nuc.elem.sigma_scatter_b
            for nuc in material.nuclides
        ]
    )
    cum_weight = np.cumsum(weights)
    pad = max(len(nuc.elem.isotopes) for nuc in material.nuclides) + 1
    iso_cum = np.full((weights.size, pad), np.inf)
    iso_mass = np.empty((weights.size, pad))
    for i, nuc in enumerate(material.nuclides):
        isotopes = nuc.elem.isotopes
        cums = np.cumsum([iso.abundance for iso in isotopes])
        iso_cum[i, : cums.size] = cums
        masses = [float(iso.mass_number) for iso in isotopes]
        iso_mass[i, : len(masses)] = masses
        iso_mass[i, len(masses) :] = masses[-1]
    return _ScatterTable(
        elem_cum_weight=cum_weight,
        total_weight=float(cum_weight[-1]),
        iso_cum_2d=iso_cum,
        iso_mass_2d=iso_mass,
    )


def _build_tables(geometry: SlabGeometry) -> _GeometryTables:
    """Evaluate every per-layer quantity the sweep loop needs, once."""
    scatter = []
    sigma_s = []
    sigma_a0 = []
    names = []
    table_by_material_id = {}
    for layer in geometry.layers:
        mat = layer.material
        # Absorption is 1/v, so the full curve is the thermal-point
        # value scaled by sqrt(E0 / E); one evaluation per layer
        # replaces one per collision.
        sigma_s.append(mat.sigma_scatter_per_cm(THERMAL_ENERGY_EV))
        sigma_a0.append(mat.sigma_absorb_per_cm(THERMAL_ENERGY_EV))
        names.append(mat.name)
        key = id(mat)
        if key not in table_by_material_id:
            table_by_material_id[key] = _build_scatter_table(mat)
        scatter.append(table_by_material_id[key])
    return _GeometryTables(
        bounds_cm=geometry.bounds_cm,
        sigma_scatter_per_cm=np.asarray(sigma_s),
        sigma_absorb_thermal_per_cm=np.asarray(sigma_a0),
        scatter_tables=tuple(scatter),
        material_names=tuple(names),
    )


# ----------------------------------------------------------------------
# Sweep kernel
# ----------------------------------------------------------------------


def _simulate_sweep(
    tables: _GeometryTables,
    bath_energy_ev: float,
    children: Sequence[np.random.SeedSequence],
    sizes: Sequence[int],
    source_energy_ev: Optional[float],
    source_spectrum: Optional[Spectrum],
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Transport one sweep (a group of whole seed streams).

    Returns ``(leaks, absorbed_per_layer, lost, collisions)`` where
    ``leaks`` is a ``(2, 3)`` array indexed by (transmitted/reflected,
    thermal/epithermal/fast).
    """
    rngs = [np.random.default_rng(child) for child in children]
    energies = []
    for rng, size in zip(rngs, sizes):
        if source_spectrum is not None:
            energies.append(source_spectrum.sample_energies(rng, size))
        else:
            energies.append(np.full(size, float(source_energy_ev)))

    n_streams = len(rngs)
    bounds = tables.bounds_cm
    total_cm = float(bounds[-1])
    last_layer = bounds.size - 2
    sigma_s_layer = tables.sigma_scatter_per_cm
    sigma_a0_layer = tables.sigma_absorb_thermal_per_cm

    # State arrays, kept compact: dead neutrons are dropped each round.
    # ``stream`` stays sorted because compaction preserves order, so
    # per-stream draws are contiguous slices.
    stream = np.repeat(np.arange(n_streams), [e.size for e in energies])
    e = np.concatenate(energies) if energies else np.empty(0)
    x = np.zeros(e.size)
    mu = np.ones(e.size)

    leaks = np.zeros((2, 3), dtype=np.int64)
    absorbed_per_layer = np.zeros(last_layer + 1, dtype=np.int64)
    collisions = 0
    lost = 0

    for _ in range(_MAX_COLLISIONS):
        k = x.size
        if k == 0:
            break
        # Each stream draws the round's five uniforms (flight length,
        # absorption, isotope, energy, direction) for exactly its own
        # alive neutrons — the draw count is a function of that
        # stream's history alone, which is what makes tallies
        # independent of how streams are grouped into sweeps.
        u = np.empty((5, k))
        counts = np.bincount(stream, minlength=n_streams)
        offset = 0
        for s in range(n_streams):
            c = int(counts[s])
            if c:
                u[:, offset : offset + c] = rngs[s].random((5, c))
            offset += c

        idx = np.clip(
            np.searchsorted(bounds, x, side="right") - 1, 0, last_layer
        )
        sigma_s = sigma_s_layer[idx]
        sigma_a = sigma_a0_layer[idx] * np.sqrt(THERMAL_ENERGY_EV / e)
        sigma_t = sigma_s + sigma_a
        vacuum = sigma_t <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            distance = -np.log(u[0]) / sigma_t
            p_abs = sigma_a / sigma_t
        new_x = x + distance * mu
        lo = bounds[idx]
        hi = bounds[idx + 1]
        # Vacuum-like layers stream straight to the nearest face.
        new_x = np.where(vacuum, np.where(mu > 0.0, total_cm, 0.0), new_x)
        crossed = ~vacuum & ((new_x > hi) | (new_x < lo))
        boundary_x = np.where(
            mu > 0.0, hi + _BOUNDARY_EPS_CM, lo - _BOUNDARY_EPS_CM
        )
        x = np.where(crossed, boundary_x, new_x)
        leaked = (vacuum | crossed) & ((x >= total_cm) | (x <= 0.0))

        colliding = ~vacuum & ~crossed
        absorbed = colliding & (u[1] < p_abs)
        collisions += int(colliding.sum())
        if absorbed.any():
            absorbed_per_layer += np.bincount(
                idx[absorbed], minlength=last_layer + 1
            )
        scattering = colliding & ~absorbed
        if scattering.any():
            mass = np.ones(k)
            for li in np.unique(idx[scattering]):
                sel = scattering & (idx == li)
                mass[sel] = tables.scatter_tables[li].sample_mass_numbers(
                    u[2, sel]
                )
            e = np.where(
                scattering,
                scattered_energies_ev(e, mass, u[3], bath_energy_ev),
                e,
            )
            mu = np.where(scattering, 2.0 * u[4] - 1.0, mu)
        if leaked.any():
            band = np.where(
                e[leaked] < THERMAL_CUTOFF_EV,
                0,
                np.where(e[leaked] < FAST_CUTOFF_EV, 1, 2),
            )
            side = np.where(x[leaked] >= total_cm, 0, 1)
            leaks += np.bincount(side * 3 + band, minlength=6).reshape(
                2, 3
            )
        keep = ~(leaked | absorbed)
        if not keep.all():
            x = x[keep]
            mu = mu[keep]
            e = e[keep]
            stream = stream[keep]
    else:
        # Pathological histories that hit the collision cap are banked
        # as absorbed, mirroring the scalar engine.
        lost = x.size

    return leaks, absorbed_per_layer, lost, collisions


def _sweep_worker(args):
    """Top-level adapter so sweeps can run in a process pool.

    Takes ``(shard_index, task_tuple)`` and returns
    ``(shard_index, part)`` so results can be delivered by shard
    identity regardless of completion order.
    """
    shard, task = args
    fault_point("batch.worker", shard=shard)
    return shard, _simulate_sweep(*task)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class BatchTransportEngine:
    """Event-based vectorized transport over a :class:`SlabGeometry`.

    Usually reached through the transport facade
    (:func:`repro.transport.api.answer` with ``engine="batch"``);
    instantiate directly for multi-layer stacks or to reuse the
    cached geometry tables across many runs of a campaign.

    Args:
        geometry: the slab stack.
        bath_energy_ev: thermal-bath floor energy (defaults to kT at
            room temperature, matching the scalar engine).
    """

    def __init__(
        self,
        geometry: SlabGeometry,
        bath_energy_ev: float = BOLTZMANN_EV_PER_K * ROOM_TEMPERATURE_K,
    ) -> None:
        if bath_energy_ev <= 0.0:
            raise ValueError(
                f"bath energy must be positive, got {bath_energy_ev}"
            )
        self.geometry = geometry
        self.bath_energy_ev = bath_energy_ev
        self._tables = _build_tables(geometry)

    def run(
        self,
        n_neutrons: int,
        source_energy_ev: Optional[float] = None,
        source_spectrum: Optional[Spectrum] = None,
        seed: int = 0,
        batch_size: Optional[int] = None,
        n_workers: Optional[int] = None,
    ) -> TransportResult:
        """Transport ``n_neutrons`` and return a frozen result.

        Exactly one of ``source_energy_ev`` / ``source_spectrum`` must
        be given; neutrons start at ``x = 0`` moving in ``+x``.

        Args:
            n_neutrons: number of source histories.
            source_energy_ev: monoenergetic source energy, eV.
            source_spectrum: alternatively, a spectrum to sample.
            seed: entropy for the root ``SeedSequence`` (an int or
                anything ``SeedSequence`` accepts).
            batch_size: histories co-resident per vectorized sweep;
                rounded up to whole seed streams.  Affects memory and
                speed only — tallies are invariant.
            n_workers: if > 1, fan sweeps out over this many worker
                processes and merge tallies.  Tallies are invariant.
        """
        if n_neutrons <= 0:
            raise ValueError(f"need n_neutrons > 0, got {n_neutrons}")
        if (source_energy_ev is None) == (source_spectrum is None):
            raise ValueError(
                "give exactly one of source_energy_ev/source_spectrum"
            )
        if source_energy_ev is not None and source_energy_ev <= 0.0:
            raise ValueError(
                f"source energy must be positive, got {source_energy_ev}"
            )
        if batch_size is not None and batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {batch_size}"
            )
        if n_workers is not None and n_workers <= 0:
            raise ValueError(
                f"n_workers must be positive, got {n_workers}"
            )

        n_streams = math.ceil(n_neutrons / HISTORIES_PER_STREAM)
        children = np.random.SeedSequence(seed).spawn(n_streams)
        sizes = [HISTORIES_PER_STREAM] * n_streams
        sizes[-1] = n_neutrons - HISTORIES_PER_STREAM * (n_streams - 1)

        per_sweep = max(
            1, (batch_size or DEFAULT_BATCH_SIZE) // HISTORIES_PER_STREAM
        )
        tasks = [
            (
                self._tables,
                self.bath_energy_ev,
                children[i : i + per_sweep],
                sizes[i : i + per_sweep],
                source_energy_ev,
                source_spectrum,
            )
            for i in range(0, n_streams, per_sweep)
        ]

        with obs.span(
            "transport.run",
            histories=n_neutrons,
            shards=len(tasks),
        ) as sp:
            parts, degraded_shards = self._run_shards(
                tasks, n_workers
            )
            result = TransportResult.from_tally(
                self._merge(n_neutrons, parts),
                degraded_shards=degraded_shards,
            )
        obs.inc("repro_transport_histories_total", n_neutrons)
        if degraded_shards:
            obs.inc("repro_shard_retries_total", degraded_shards)
        if sp.elapsed_s > 0:
            obs.set_gauge(
                "repro_histories_per_s", n_neutrons / sp.elapsed_s
            )
        assert result.balance_check(), "neutron balance violated"
        return result

    def _run_shards(
        self,
        tasks: List[tuple],
        n_workers: Optional[int],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray, int, int]], int]:
        """Run every shard, riding out worker death and merge faults.

        Each shard is a whole group of seed streams, so its tally is
        a pure function of its task tuple: a shard that failed in a
        pool worker (the process was killed, the executor broke, the
        delivery faulted) is simply recomputed once in-process and
        delivered again.  Shard-indexed delivery keeps the retry —
        and any duplicated delivery — idempotent.

        Returns:
            ``(parts, degraded_shards)`` where ``parts`` is ordered
            by shard index and ``degraded_shards`` counts shards that
            needed the in-process fallback.

        Raises:
            Exception: whatever the in-process retry of a shard
                raises — one retry is the recovery policy, a second
                failure is a real bug.
        """
        parts: Dict[int, Tuple[np.ndarray, np.ndarray, int, int]] = {}

        def _store(
            shard: int,
            part: Tuple[np.ndarray, np.ndarray, int, int],
        ) -> None:
            parts[shard] = part

        def _deliver(
            shard: int,
            part: Tuple[np.ndarray, np.ndarray, int, int],
        ) -> None:
            fault_point(
                "batch.merge", index=shard, part=part, store=_store
            )
            _store(shard, part)

        failed: List[int] = []
        if n_workers is not None and n_workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(
                max_workers=min(n_workers, len(tasks))
            ) as pool:
                futures = [
                    pool.submit(_sweep_worker, (i, task))
                    for i, task in enumerate(tasks)
                ]
                for i, future in enumerate(futures):
                    try:
                        shard, part = future.result()
                        _deliver(shard, part)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenProcessPool:
                        # The pool died under this shard (worker
                        # SIGKILL / OOM); every not-yet-delivered
                        # future fails the same way and each shard
                        # falls back in-process.
                        failed.append(i)
                    except Exception:  # noqa: BLE001 — worker isolation point
                        failed.append(i)
        else:
            for i, task in enumerate(tasks):
                try:
                    shard, part = _sweep_worker((i, task))
                    _deliver(shard, part)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:  # noqa: BLE001 — shard isolation point
                    failed.append(i)

        # One in-process retry per failed shard; determinism of the
        # seed streams makes the recomputed tally bit-identical to
        # what the lost worker would have produced.
        for i in failed:
            shard, part = _sweep_worker((i, tasks[i]))
            _deliver(shard, part)

        missing = [i for i in range(len(tasks)) if i not in parts]
        assert not missing, f"shards never delivered: {missing}"
        return [parts[i] for i in range(len(tasks))], len(failed)

    def _merge(
        self,
        n_neutrons: int,
        parts: List[Tuple[np.ndarray, np.ndarray, int, int]],
    ) -> TransportTally:
        """Sum sweep tallies into one ``TransportTally``."""
        leaks = np.zeros((2, 3), dtype=np.int64)
        absorbed_per_layer = np.zeros(
            len(self._tables.material_names), dtype=np.int64
        )
        lost = 0
        collisions = 0
        for part_leaks, part_absorbed, part_lost, part_collisions in parts:
            leaks += part_leaks
            absorbed_per_layer += part_absorbed
            lost += part_lost
            collisions += part_collisions

        tally = TransportTally()
        tally.source = n_neutrons
        (
            tally.transmitted_thermal,
            tally.transmitted_epithermal,
            tally.transmitted_fast,
        ) = (int(c) for c in leaks[0])
        (
            tally.reflected_thermal,
            tally.reflected_epithermal,
            tally.reflected_fast,
        ) = (int(c) for c in leaks[1])
        tally.collisions = collisions
        for name, count in zip(
            self._tables.material_names, absorbed_per_layer
        ):
            if count:
                tally.absorbed += int(count)
                tally.absorbed_by_material[name] = (
                    tally.absorbed_by_material.get(name, 0) + int(count)
                )
        if lost:
            tally.absorbed += lost
            tally.absorbed_by_material["lost"] = (
                tally.absorbed_by_material.get("lost", 0) + lost
            )
        return tally
