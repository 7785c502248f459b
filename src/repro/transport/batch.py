"""Vectorized, event-based batch Monte Carlo transport engine.

The scalar engine in :mod:`repro.transport.montecarlo` follows one
neutron at a time; this module carries **all alive neutrons as NumPy
arrays** (position, direction cosine, energy, seed stream) and
advances them one collision round at a time.  The physics is
identical — same flight-length law, same surface-crossing treatment,
same 1/v absorption, same single-variate isotope pick and elastic
kinematics — so the two engines are statistically equivalent channel
by channel (enforced by ``tests/test_transport_equivalence.py``).

One collision round
-------------------

1. Every alive neutron gets five uniforms: flight length,
   absorption, isotope, outgoing energy, outgoing direction.
2. It flies an exponential distance through its layer's total cross
   section.  A flight that would leave the layer stops just past the
   boundary instead.  At an outer face the neutron leaks and is
   tallied by face and energy band; at an inner one it flies again
   next round.  A layer with no cross section sends it straight to
   the nearest face.
3. Any other neutron collides.  It is absorbed with probability
   ``sigma_a / sigma_t``; otherwise it scatters off the isotope that
   the third uniform picks and takes its new energy and direction
   from the fourth and fifth.
4. Leaked and absorbed neutrons are dropped from the arrays by an
   order-preserving ``take``.

A round makes few full-width passes.  Dead neutrons go by index (one
``flatnonzero``, then ``take``), the kinematics run on the scattering
neutrons only, each isotope's ``alpha`` is tabulated once, and a
one-layer stack (every facade query) skips the per-neutron layer
lookup.  Each of these rewrites keeps the floating-point operations
of the plain form, so tallies stay bit-identical to it;
``tests/data/transport-answers.json`` pins them.

Determinism contract
--------------------

Histories are partitioned into fixed-size **seed streams** of
:data:`HISTORIES_PER_STREAM` histories.  The run's root
``SeedSequence`` spawns one child per stream.  Each stream's
generator makes exactly these draws and no others:

* one ``Spectrum.sample_energies(rng, size)`` call for its source
  energies (monoenergetic sources draw nothing);
* one ``rng.random((5, c))`` per round, where ``c`` is the number of
  its neutrons still alive, taken in stream order, column ``j`` going
  to its ``j``-th alive neutron.

Streams never share draws.  Consequences:

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

#: Leak-tally band edges: below the first is thermal, at or above the
#: second is fast.
_BAND_EDGES_EV = np.array([THERMAL_CUTOFF_EV, FAST_CUTOFF_EV])


def _elastic_alpha(mass_numbers) -> np.ndarray:
    """``alpha = ((A - 1) / (A + 1))^2``, the smallest fraction of its
    energy a neutron keeps after an elastic collision with mass ``A``."""
    a = np.asarray(mass_numbers, dtype=float)
    return ((a - 1.0) / (a + 1.0)) ** 2


def _downscatter(energies_ev, alpha, u, bath_energy_ev):
    """Outgoing energy uniform on ``[alpha E, E]``, floored at the bath."""
    return np.maximum(
        energies_ev * (alpha + (1.0 - alpha) * u), bath_energy_ev
    )


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
    return _downscatter(
        np.asarray(energies_ev, dtype=float),
        _elastic_alpha(mass_numbers),
        np.asarray(u, dtype=float),
        bath_energy_ev,
    )


@dataclass(frozen=True)
class _ScatterTable:
    """Per-material tables replicating ``Material.dominant_scatter_mass``.

    The scalar method turns a single uniform ``u`` into an element
    pick (the first element whose cumulative scatter weight exceeds
    ``u * total``) and an isotope pick within it (the first isotope
    whose cumulative abundance exceeds ``frac = (997 u) mod 1``),
    falling back to the last element or isotope.  Over non-decreasing
    thresholds the first index that exceeds a value is the count of
    thresholds at or below it, so each pick is such a count over every
    threshold but the last, which yields the fallback.  Isotopes are
    numbered flat across the material's elements.
    """

    elem_cum_weight: np.ndarray  # (n_elem - 1,) cumulative weights
    total_weight: float
    first_isotope: np.ndarray  # (n_elem,) flat number of element's first
    # Column j: (n_elem,) cumulative abundance through isotope j, +inf
    # where the element has no isotope after j.
    iso_cum: Tuple[np.ndarray, ...]
    mass_numbers: np.ndarray  # (n_iso,) by flat isotope number
    alpha: np.ndarray  # (n_iso,) elastic alpha by flat isotope number

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Flat numbers of the isotopes struck for uniform variates ``u``."""
        frac = u * 997.0
        # Exact for frac >= 0, so the same bits as ``frac % 1.0``.
        frac -= np.floor(frac)
        elem = np.searchsorted(
            self.elem_cum_weight, u * self.total_weight, side="right"
        )
        iso = self.first_isotope.take(elem)
        for cum in self.iso_cum:
            iso += frac >= cum.take(elem)
        return iso


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
    weights = [
        nuc.number_density * nuc.elem.sigma_scatter_b
        for nuc in material.nuclides
    ]
    isotopes = [nuc.elem.isotopes for nuc in material.nuclides]
    sizes = [len(isos) for isos in isotopes]
    iso_cum = np.full((max(sizes) - 1, len(isotopes)), np.inf)
    for i, isos in enumerate(isotopes):
        cums = np.cumsum([iso.abundance for iso in isos])[:-1]
        iso_cum[: cums.size, i] = cums
    masses = np.asarray(
        [float(iso.mass_number) for isos in isotopes for iso in isos]
    )
    return _ScatterTable(
        elem_cum_weight=np.cumsum(weights)[:-1],
        # Python's sum, as the scalar pick computes it.
        total_weight=sum(weights),
        first_isotope=np.cumsum([0] + sizes[:-1]),
        iso_cum=tuple(iso_cum),
        mass_numbers=masses,
        alpha=_elastic_alpha(masses),
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


def _live_streams(rngs, stream: np.ndarray) -> List[tuple]:
    """``(generator, alive count)`` of every stream with neutrons left."""
    counts = np.bincount(stream, minlength=len(rngs)).tolist()
    return [(rng, c) for rng, c in zip(rngs, counts) if c]


def _tally_leaks(
    leaks: np.ndarray, x: np.ndarray, e: np.ndarray, total_cm: float
) -> None:
    """Add neutrons leaking at ``x`` with energies ``e`` to ``leaks``,
    indexed by ``3 * side + band`` (transmitted first, then reflected;
    thermal, epithermal, fast)."""
    key = np.searchsorted(_BAND_EDGES_EV, e, side="right")
    key += 3 * (x < total_cm)
    leaks += np.bincount(key, minlength=6)


def _layered_alpha(
    tables: _GeometryTables, idx: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Elastic alpha of the isotope struck by each scattering neutron,
    picked from the table of the layer it is in (``idx``)."""
    alpha = np.empty(u.size)
    for li in np.flatnonzero(np.bincount(idx)):
        sel = np.flatnonzero(idx == li)
        table = tables.scatter_tables[li]
        alpha[sel] = table.alpha.take(table.pick(u.take(sel)))
    return alpha


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

    bounds = tables.bounds_cm
    total_cm = float(bounds[-1])
    n_layers = bounds.size - 1
    sigma_s_layer = tables.sigma_scatter_per_cm
    sigma_a0_layer = tables.sigma_absorb_thermal_per_cm
    # A positive scattering and a non-negative absorption cross
    # section keep sigma_t positive (or NaN) at every energy, so only
    # a layer without them can send a neutron down the vacuum branch.
    vacuum_possible = not np.all(
        (sigma_s_layer > 0.0) & (sigma_a0_layer >= 0.0)
    )
    # Every study and facade query is a one-layer stack.  Running them
    # through the general path instead costs shield-study (perfbench,
    # ten alternating 30 s pairs, 2-vCPU host) a latency_p50 of
    # 5905 ms against 3920 ms, slower in every pair.
    single = n_layers == 1
    if single:
        # Every neutron is in layer 0: its scalars broadcast to the
        # same bits the per-neutron lookup would gather.
        sigma_s, sigma_a0 = sigma_s_layer[0], sigma_a0_layer[0]
        lo, hi = bounds[0], bounds[1]
        scatter_table = tables.scatter_tables[0]

    # State arrays, kept compact: dead neutrons are dropped each round
    # by an order-preserving ``take``, so ``stream`` stays sorted and
    # per-stream draws are contiguous slices.
    stream = np.repeat(np.arange(len(rngs)), [e.size for e in energies])
    e = np.concatenate(energies) if energies else np.empty(0)
    x = np.zeros(e.size)
    mu = np.ones(e.size)
    live = _live_streams(rngs, stream)

    leaks = np.zeros(6, dtype=np.int64)
    absorbed_per_layer = np.zeros(n_layers, dtype=np.int64)
    collisions = 0
    lost = 0

    # log(0) and the vacuum branch's divisions by zero are expected.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_COLLISIONS):
            k = x.size
            if k == 0:
                break
            # Each stream draws the round's five uniforms (flight
            # length, absorption, isotope, energy, direction) for
            # exactly its own alive neutrons — the draw count is a
            # function of that stream's history alone, which is what
            # makes tallies independent of how streams are grouped
            # into sweeps.
            if len(live) == 1:
                u = live[0][0].random((5, k))
            else:
                u = np.empty((5, k))
                offset = 0
                for rng, c in live:
                    u[:, offset : offset + c] = rng.random((5, c))
                    offset += c

            if not single:
                idx = np.searchsorted(bounds, x, side="right")
                idx -= 1
                np.clip(idx, 0, n_layers - 1, out=idx)
                sigma_s = sigma_s_layer.take(idx)
                sigma_a0 = sigma_a0_layer.take(idx)
                lo = bounds.take(idx)
                hi = bounds[1:].take(idx)
            # The plain form of each line below is kept in its
            # comment; the rewrite reorders only exact operations
            # (commuted operands, negation moved), so no bit changes.
            # sigma_a = sigma_a0 * sqrt(E0 / e)
            sigma_a = THERMAL_ENERGY_EV / e
            np.sqrt(sigma_a, out=sigma_a)
            sigma_a *= sigma_a0
            # sigma_t = sigma_s + sigma_a
            sigma_t = sigma_a + sigma_s
            # new_x = x + (-log(u0) / sigma_t) * mu
            new_x = np.log(u[0])
            new_x /= sigma_t
            new_x *= mu
            np.subtract(x, new_x, out=new_x)
            # p_abs = sigma_a / sigma_t
            p_abs = np.divide(sigma_a, sigma_t, out=sigma_a)
            crossed = new_x > hi
            crossed |= new_x < lo

            # ``flying`` marks the neutrons that do not collide this
            # round: the crossing and the vacuum-streaming.
            flying = crossed
            n_flying = 0
            if vacuum_possible:
                vacuum = sigma_t <= 0.0
                if vacuum.any():
                    # A vacuum neutron streams to the nearest face.
                    crossed = crossed & ~vacuum
                    flying = crossed | vacuum
                    v = np.flatnonzero(vacuum)
                    face = np.where(mu.take(v) > 0.0, total_cm, 0.0)
                    _tally_leaks(leaks, face, e.take(v), total_cm)
                    n_flying = v.size
            cr = np.flatnonzero(crossed)
            n_flying += cr.size
            inner = None
            if cr.size:
                face = np.where(
                    mu.take(cr) > 0.0,
                    (hi if single else hi.take(cr)) + _BOUNDARY_EPS_CM,
                    (lo if single else lo.take(cr)) - _BOUNDARY_EPS_CM,
                )
                if single:
                    # Both faces of a one-layer stack are outer faces.
                    _tally_leaks(leaks, face, e.take(cr), total_cm)
                else:
                    out = (face >= total_cm) | (face <= 0.0)
                    _tally_leaks(
                        leaks, face[out], e.take(cr[out]), total_cm
                    )
                    if not out.all():
                        # Stopped at an inner boundary: flies again.
                        inner, inner_x = cr[~out], face[~out]

            collisions += k - n_flying
            # A colliding neutron is absorbed if ``absorbs``, else it
            # scatters.
            absorbs = u[1] < p_abs
            if not single:
                absorbed = np.flatnonzero(absorbs & ~flying)
                absorbed_per_layer += np.bincount(
                    idx.take(absorbed), minlength=n_layers
                )
            scat = np.flatnonzero(~(absorbs | flying))
            if single:
                absorbed_per_layer[0] += k - n_flying - scat.size

            # Scattering: isotope pick, then energy and direction.
            u_s = u[2].take(scat)
            if single:
                alpha = scatter_table.alpha.take(scatter_table.pick(u_s))
            else:
                alpha = _layered_alpha(tables, idx.take(scat), u_s)
            e_s = _downscatter(
                e.take(scat), alpha, u[3].take(scat), bath_energy_ev
            )
            # mu = 2 u4 - 1
            mu_s = u[4].take(scat)
            mu_s *= 2.0
            mu_s -= 1.0
            if inner is None:
                keep = scat
                x, e, mu = new_x.take(scat), e_s, mu_s
            else:
                alive = np.zeros(k, dtype=bool)
                alive[scat] = True
                alive[inner] = True
                keep = np.flatnonzero(alive)
                new_x[inner] = inner_x
                e[scat] = e_s
                mu[scat] = mu_s
                x, e, mu = new_x.take(keep), e.take(keep), mu.take(keep)
            if keep.size < k:
                stream = stream.take(keep)
                live = _live_streams(rngs, stream)
        else:
            # Pathological histories that hit the collision cap are
            # banked as absorbed, mirroring the scalar engine.
            lost = x.size

    return leaks.reshape(2, 3), absorbed_per_layer, lost, collisions


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

        Raises:
            RuntimeError: if the merged tallies lose or invent a
                neutron (a kernel defect; checked under ``python -O``
                too).
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
        if not result.balance_check():
            raise RuntimeError("neutron balance violated")
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
            RuntimeError: if a shard's part was never delivered.
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
        if missing:
            raise RuntimeError(f"shards never delivered: {missing}")
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
