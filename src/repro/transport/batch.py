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
   from the fourth and fifth.  A neutron already on the thermal-bath
   floor ``b`` skips the pick and the energy step, leaving those two
   uniforms unused, because the energy step returns ``b`` for it bit
   for bit whichever isotope is picked: its new energy is ``max(b f,
   b)``, and the rounded fraction ``f = alpha + (1 - alpha) u`` never
   exceeds 1 for ``u < 1`` and any ``alpha`` (the full argument is at
   the branch in :func:`_roll`).  In a moderator most scatters are of
   such neutrons: 94 % in 10 cm of water and 91 % in 30 cm of
   concrete under the ROTAX beam.
4. Leaked and absorbed neutrons are dropped from the arrays by an
   order-preserving ``take``.

A round makes few full-width passes.  Dead neutrons go by index (one
``nonzero``, then ``take``), the pick and the kinematics run on the
scattering neutrons off the floor only, each isotope's ``alpha`` is
tabulated once, and a one-layer stack (every facade query) skips the
per-neutron layer lookup.  The round calls the array methods
``nonzero`` and ``searchsorted`` directly: the ``np.`` wrappers cost
more than the work itself once few neutrons are left.  Each of these
rewrites keeps the floating-point operations of the plain form, so
tallies stay bit-identical to it; ``tests/data/transport-answers.json``
pins them.

The rolling sweep
-----------------

A round costs thirty to forty NumPy calls however few neutrons are left,
and a moderating slab (water, concrete) keeps a long tail of rounds
with a few dozen neutrons alive.  So one sweep carries every stream
of a call: it keeps at most ``batch_size`` histories in flight and,
before each round, admits the next whole seed stream whenever it
fits (any stream when nothing is in flight).  A run, or every run of
:meth:`BatchTransportEngine.run_many`, then pays for one tail instead
of one per group of streams.

The engine keeps no recovery of its own: a sweep that raises fails
the call.  Its callers (a study shard and a service query) run it
under a :class:`~repro.runtime.supervisor.Supervisor`, which retries
transient faults, and seed streams make a retried run's tallies
bit-identical.  The engine runs in the calling process: its callers
(a study's shard pool, the service's ``--workers`` pool) already run
in parallel above it.

Determinism contract
--------------------

Histories are partitioned into fixed-size **seed streams** of
:data:`HISTORIES_PER_STREAM` histories.  Each run's root
``SeedSequence`` spawns one child per stream.  Each stream's
generator makes exactly these draws and no others:

* one ``Spectrum.sample_energies(rng, size)`` call for its source
  energies when it is admitted (monoenergetic sources draw nothing);
* one ``rng.random((5, c))`` per round of its own, where ``c`` is the
  number of its neutrons still alive, taken in stream order, column
  ``j`` going to its ``j``-th alive neutron.

A stream's neutrons still alive after :data:`_MAX_COLLISIONS` rounds
of its own are banked as absorbed (``lost``), as the scalar engine
banks a history that reaches the cap.  Streams never share draws, and
tallies are kept per stream.  Consequences:

* same seed → same tallies, bit for bit;
* tallies are independent of ``batch_size`` (which only sets how many
  histories are in flight) and of the other runs a
  :meth:`BatchTransportEngine.run_many` call carries.

Geometry boundaries, per-layer cross-section coefficients and
per-material scatter tables are built once per engine and reused by
every sweep, instead of being re-derived per collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

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
#: independent of ``batch_size``.
HISTORIES_PER_STREAM = 4096

#: Default width of the rolling sweep: histories in flight at once
#: (8 streams).
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
        elem = self.elem_cum_weight.searchsorted(
            u * self.total_weight, side="right"
        )
        iso = self.first_isotope.take(elem)
        for cum in self.iso_cum:
            iso += frac >= cum.take(elem)
        return iso


@dataclass(frozen=True)
class _GeometryTables:
    """Immutable per-geometry cache shared by every sweep."""

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

#: One run's tallies: ``(leaks, absorbed_per_layer, lost,
#: collisions)``, ``leaks`` a ``(2, 3)`` array indexed by
#: (transmitted/reflected, thermal/epithermal/fast).
_Part = Tuple[np.ndarray, np.ndarray, int, int]


@dataclass
class _RollingSweep:
    """Runs transported together (see "The rolling sweep" above).

    :func:`_roll` sweeps it once, filling ``parts`` with one part per
    run, in run order, and ``rounds``.
    """

    tables: _GeometryTables
    bath_energy_ev: float
    source_energy_ev: Optional[float]
    source_spectrum: Optional[Spectrum]
    width: int
    #: Each run's seed streams, in stream order.
    runs: List[List[np.random.SeedSequence]]
    #: Histories per stream of one run (the same for every run).
    sizes: List[int]
    parts: List[_Part] = field(default_factory=list)
    #: Collision rounds swept.
    rounds: int = 0
    #: Scatters made, and those of them off the bath floor, which ran
    #: the isotope pick and the elastic kinematics.
    scatters: int = 0
    moderated: int = 0


def _live_streams(rngs, stream: np.ndarray) -> List[tuple]:
    """``(stream, generator, alive count)`` of every stream with
    neutrons left, in stream order."""
    counts = np.bincount(stream, minlength=len(rngs)).tolist()
    return [(t, rngs[t], c) for t, c in enumerate(counts) if c]


def _tally_leaks(
    leaks: np.ndarray,
    x: np.ndarray,
    e: np.ndarray,
    total_cm: float,
    streams: Optional[np.ndarray],
) -> None:
    """Add neutrons leaking at ``x`` with energies ``e`` to ``leaks``,
    indexed by ``6 * stream + 3 * side + band`` (transmitted first,
    then reflected; thermal, epithermal, fast).  ``streams`` holds
    each leaking neutron's stream, or is ``None`` in a sweep that
    keys nothing by stream."""
    key = _BAND_EDGES_EV.searchsorted(e, side="right")
    key += 3 * (x < total_cm)
    if streams is not None:
        key += 6 * streams
    leaks += np.bincount(key, minlength=leaks.size)


def _layered_alpha(
    tables: _GeometryTables, idx: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Elastic alpha of the isotope struck by each scattering neutron,
    picked from the table of the layer it is in (``idx``)."""
    alpha = np.empty(u.size)
    for li in np.bincount(idx).nonzero()[0]:
        sel = (idx == li).nonzero()[0]
        table = tables.scatter_tables[li]
        alpha[sel] = table.alpha.take(table.pick(u.take(sel)))
    return alpha


def _roll(sweep: _RollingSweep) -> None:
    """Transport every run of ``sweep`` (see :class:`_RollingSweep`)."""
    tables = sweep.tables
    bath_energy_ev = sweep.bath_energy_ev
    source_energy_ev = sweep.source_energy_ev
    source_spectrum = sweep.source_spectrum
    width = sweep.width
    cap = _MAX_COLLISIONS

    # Streams are numbered in run order, so each run is a range.
    per_run = len(sweep.sizes)
    children = [child for run in sweep.runs for child in run]
    sizes = sweep.sizes * len(sweep.runs)
    n_streams = len(sizes)

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
    # A one-stream sweep (a service-sized run) keys no tally by
    # stream; its round stays as lean as a single-stream kernel's.
    keyed = n_streams > 1 or not single

    # State arrays, kept compact: dead neutrons are dropped each round
    # by an order-preserving ``take`` and streams are appended in
    # order, so ``stream`` stays sorted and per-stream draws are
    # contiguous slices.
    x = np.empty(0)
    e = np.empty(0)
    mu = np.empty(0)
    stream = np.empty(0, dtype=np.intp)
    rngs: List[Optional[np.random.Generator]] = [None] * n_streams
    born = [0] * n_streams
    live: List[tuple] = []

    # Per-stream tallies.  A neutron that neither leaks nor crosses an
    # inner boundary collides, so collisions are neutron-rounds minus
    # those; in a one-layer stack every admitted neutron that neither
    # leaked nor was banked was absorbed.
    leaks = np.zeros(6 * n_streams, dtype=np.int64)
    alive_rounds = [0] * n_streams
    lost = [0] * n_streams
    inner_crossings = np.zeros(n_streams, dtype=np.int64)
    absorbed = np.zeros(n_streams * n_layers, dtype=np.int64)

    def part(first: int, end: int) -> _Part:
        part_leaks = leaks[6 * first : 6 * end].reshape(-1, 2, 3).sum(0)
        leaked = sum(part_leaks.flat)
        part_lost = sum(lost[first:end])
        collisions = sum(alive_rounds[first:end]) - leaked
        if single:
            part_absorbed = np.array(
                [sum(sizes[first:end]) - leaked - part_lost],
                dtype=np.int64,
            )
        else:
            part_absorbed = absorbed[
                first * n_layers : end * n_layers
            ].reshape(-1, n_layers).sum(0)
            collisions -= int(inner_crossings[first:end].sum())
        return part_leaks, part_absorbed, part_lost, int(collisions)

    admitted = 0
    rounds = 0
    scatters = 0
    moderated = 0
    # log(0) and the vacuum branch's divisions by zero are expected.
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # A stream's survivors of its own cap-th round are banked.
            # Streams are admitted in order, so the oldest live one is
            # the first to reach the cap and its neutrons lead.
            while live and rounds - born[live[0][0]] >= cap:
                t, _, c = live.pop(0)
                lost[t] = c
                x, e, mu, stream = x[c:], e[c:], mu[c:], stream[c:]
            # Admit whole streams while they fit, then append them to
            # the state arrays at once.
            k = x.size
            fresh = []
            fresh_ids = []
            while admitted < n_streams and (
                k == 0 or k + sizes[admitted] <= width
            ):
                t = admitted
                size = sizes[t]
                rng = np.random.default_rng(children[t])
                if source_spectrum is not None:
                    fresh.append(source_spectrum.sample_energies(rng, size))
                else:
                    fresh.append(np.full(size, float(source_energy_ev)))
                rngs[t] = rng
                born[t] = rounds
                live.append((t, rng, size))
                fresh_ids.append(t)
                k += size
                admitted += 1
            if fresh:
                added = k - x.size
                x = np.concatenate((x, np.zeros(added)))
                e = np.concatenate([e] + fresh)
                mu = np.concatenate((mu, np.ones(added)))
                stream = np.concatenate(
                    (stream, np.repeat(fresh_ids, [en.size for en in fresh]))
                )
            if k == 0:
                break
            rounds += 1

            # Each stream draws the round's five uniforms (flight
            # length, absorption, isotope, energy, direction) for
            # exactly its own alive neutrons — the draw count is a
            # function of that stream's history alone, which is what
            # makes tallies independent of which streams share the
            # sweep.
            if len(live) == 1:
                t, rng, _ = live[0]
                u = rng.random((5, k))
                alive_rounds[t] += k
            else:
                u = np.empty((5, k))
                offset = 0
                for t, rng, c in live:
                    u[:, offset : offset + c] = rng.random((5, c))
                    offset += c
                    alive_rounds[t] += c

            if not single:
                idx = bounds.searchsorted(x, side="right")
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
            if vacuum_possible:
                vacuum = sigma_t <= 0.0
                if vacuum.any():
                    # A vacuum neutron streams to the nearest face.
                    crossed = crossed & ~vacuum
                    flying = crossed | vacuum
                    v = vacuum.nonzero()[0]
                    face = np.where(mu.take(v) > 0.0, total_cm, 0.0)
                    _tally_leaks(
                        leaks,
                        face,
                        e.take(v),
                        total_cm,
                        stream.take(v) if keyed else None,
                    )
            cr = crossed.nonzero()[0]
            inner = None
            if cr.size:
                face = np.where(
                    mu.take(cr) > 0.0,
                    (hi if single else hi.take(cr)) + _BOUNDARY_EPS_CM,
                    (lo if single else lo.take(cr)) - _BOUNDARY_EPS_CM,
                )
                if single:
                    # Both faces of a one-layer stack are outer faces.
                    _tally_leaks(
                        leaks,
                        face,
                        e.take(cr),
                        total_cm,
                        stream.take(cr) if keyed else None,
                    )
                else:
                    out = (face >= total_cm) | (face <= 0.0)
                    _tally_leaks(
                        leaks,
                        face[out],
                        e.take(cr[out]),
                        total_cm,
                        stream.take(cr[out]),
                    )
                    if not out.all():
                        # Stopped at an inner boundary: flies again.
                        inner, inner_x = cr[~out], face[~out]
                        inner_crossings += np.bincount(
                            stream.take(inner), minlength=n_streams
                        )

            # A colliding neutron is absorbed if ``absorbs``, else it
            # scatters.
            absorbs = u[1] < p_abs
            if not single:
                hit = (absorbs & ~flying).nonzero()[0]
                absorbed += np.bincount(
                    stream.take(hit) * n_layers + idx.take(hit),
                    minlength=absorbed.size,
                )
            scat = (~(absorbs | flying)).nonzero()[0]

            # Scattering: isotope pick, then energy and direction.  A
            # neutron on the bath floor ``b`` keeps its energy, bit
            # for bit, whichever isotope it strikes, so only the others
            # (``mod``) pick one and downscatter.  For a floor neutron
            # ``_downscatter`` returns ``max(b f, b)`` with ``f =
            # fl(alpha + fl(fl(1 - alpha) u))``.  As ``u < 1``,
            # ``fl(fl(1 - alpha) u) <= fl(1 - alpha)``, and ``fl(alpha +
            # fl(1 - alpha)) == 1`` for every alpha in [0, 1): for
            # alpha >= 1/2, ``1 - alpha`` is exact (Sterbenz) and the
            # sum is exactly 1; below, the sum is within 2**-54 of 1
            # and rounds to 1 (a tie goes to even).  Rounding is
            # monotone, so ``f <= 1``, ``b f <= b`` and the result is
            # ``b``.  Nothing else reads the picked isotope.  A floor
            # neutron's third and fourth uniforms go unused.
            e_ev = e.take(scat)
            mod = (e_ev != bath_energy_ev).nonzero()[0]
            scatters += scat.size
            moderated += mod.size
            if mod.size:
                scat_mod = scat.take(mod)
                u_s = u[2].take(scat_mod)
                if single:
                    alpha = scatter_table.alpha.take(
                        scatter_table.pick(u_s)
                    )
                else:
                    alpha = _layered_alpha(tables, idx.take(scat_mod), u_s)
                e_ev[mod] = _downscatter(
                    e_ev.take(mod),
                    alpha,
                    u[3].take(scat_mod),
                    bath_energy_ev,
                )
            # mu = 2 u4 - 1
            mu_s = u[4].take(scat)
            mu_s *= 2.0
            mu_s -= 1.0
            if inner is None:
                keep = scat
                x, e, mu = new_x.take(scat), e_ev, mu_s
            else:
                alive = np.zeros(k, dtype=bool)
                alive[scat] = True
                alive[inner] = True
                keep = alive.nonzero()[0]
                new_x[inner] = inner_x
                e[scat] = e_ev
                mu[scat] = mu_s
                x, e, mu = new_x.take(keep), e.take(keep), mu.take(keep)
            if keep.size < k:
                stream = stream.take(keep)
                live = _live_streams(rngs, stream)

    sweep.parts = [
        part(first, first + per_run)
        for first in range(0, n_streams, per_run)
    ]
    sweep.rounds = rounds
    sweep.scatters = scatters
    sweep.moderated = moderated


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
    ) -> TransportResult:
        """Transport ``n_neutrons`` and return a frozen result.

        The one-seed case of :meth:`run_many`.  Exactly one of
        ``source_energy_ev`` / ``source_spectrum`` must be given;
        neutrons start at ``x = 0`` moving in ``+x``.

        Args:
            n_neutrons: number of source histories.
            source_energy_ev: monoenergetic source energy, eV.
            source_spectrum: alternatively, a spectrum to sample.
            seed: entropy for the root ``SeedSequence`` (an int or
                anything ``SeedSequence`` accepts).
            batch_size: histories in flight in the rolling sweep.
                Affects memory and speed only — tallies are
                invariant.

        Raises:
            RuntimeError: if the tallies lose or invent a neutron
                (a kernel defect; checked under ``python -O`` too).
        """
        return self.run_many(
            n_neutrons,
            [seed],
            source_energy_ev=source_energy_ev,
            source_spectrum=source_spectrum,
            batch_size=batch_size,
        )[0]

    def run_many(
        self,
        n_neutrons: int,
        seeds: Sequence,
        source_energy_ev: Optional[float] = None,
        source_spectrum: Optional[Spectrum] = None,
        batch_size: Optional[int] = None,
    ) -> List[TransportResult]:
        """One run of ``n_neutrons`` per seed, all in one rolling sweep.

        Result ``i`` equals ``run(n_neutrons, seed=seeds[i], ...)``
        bit for bit: each run's streams make their own draws and keep
        their own tallies.  Arguments are those of :meth:`run`.

        Raises:
            RuntimeError: as :meth:`run`, for any of the runs.
        """
        if n_neutrons <= 0:
            raise ValueError(f"need n_neutrons > 0, got {n_neutrons}")
        if len(seeds) == 0:
            raise ValueError("need at least one seed")
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

        width = batch_size or DEFAULT_BATCH_SIZE
        n_streams = math.ceil(n_neutrons / HISTORIES_PER_STREAM)
        sizes = [HISTORIES_PER_STREAM] * n_streams
        sizes[-1] = n_neutrons - HISTORIES_PER_STREAM * (n_streams - 1)
        sweep = _RollingSweep(
            self._tables,
            self.bath_energy_ev,
            source_energy_ev,
            source_spectrum,
            width,
            [np.random.SeedSequence(seed).spawn(n_streams) for seed in seeds],
            sizes,
        )

        histories = n_neutrons * len(seeds)
        with obs.span(
            "transport.run", histories=histories, runs=len(seeds)
        ) as sp:
            _roll(sweep)
            sp.annotate(
                rounds=sweep.rounds,
                scatters=sweep.scatters,
                moderated=sweep.moderated,
            )
            results = [
                TransportResult.from_tally(self._tally(n_neutrons, part))
                for part in sweep.parts
            ]
        obs.inc("repro_transport_histories_total", histories)
        if sp.elapsed_s > 0:
            obs.set_gauge("repro_histories_per_s", histories / sp.elapsed_s)
        if not all(result.balance_check() for result in results):
            raise RuntimeError("neutron balance violated")
        return results

    def _tally(self, n_neutrons: int, part: _Part) -> TransportTally:
        """One run's part as a ``TransportTally``."""
        leaks, absorbed_per_layer, lost, collisions = part
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

