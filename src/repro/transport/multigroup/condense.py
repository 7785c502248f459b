"""Flux-weighted condensation of continuous cross sections to groups.

The Monte Carlo engines sample continuous-energy laws: energy-flat
scattering cross sections, 1/v absorption, per-isotope ``alpha``
kinematics with outgoing energy uniform on ``[alpha * E, E]`` and a
thermal-bath floor.  This module collapses those laws onto a
:class:`~repro.transport.multigroup.groups.GroupStructure`:

* within-group weighting is lethargy-flat (1/E), matching the
  in-group law the spectra module and ``Spectrum.sample_energies``
  use;
* the 1/v absorption average is done analytically (no quadrature
  error): ``<sigma_a>_g = sigma_a(1 eV) * 2 (lo^-1/2 - hi^-1/2)
  / ln(hi / lo)``;
* the group containing the thermal bath is *pinned* to the exact bath
  energy — the MC bath parks every thermalized neutron at exactly
  ``kT``, so a lethargy average over that group would be biased;
* transfer rows mix elements by macroscopic scattering weight and
  isotopes by the same cumulative-abundance rule
  :meth:`~repro.transport.materials.Material.dominant_scatter_mass`
  applies, including the fallback-to-last-isotope remainder.

Collapsed tables are cached at module level keyed on the material's
physical fingerprint and the structure, so thickness sweeps that
rebuild engines per geometry pay for condensation once.  The same
holds for a source's continuous-energy kernel in a material
(:func:`source_kernel`): its quadrature, cross sections and
first-collision rows depend on no thickness, so a sweep builds each
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import serde
from repro.physics.isotopes import Element
from repro.runtime.errors import ConfigurationError
from repro.spectra.spectrum import Spectrum
from repro.transport.materials import Material
from repro.transport.multigroup.groups import GroupStructure

__all__ = [
    "CollapsedMaterial",
    "clear_collapse_cache",
    "collapse",
    "scatter_probabilities",
    "source_kernel",
]

#: Default lethargy-flat quadrature points per group when averaging
#: transfer rows over the incident energy within a group.
_POINTS_PER_GROUP = 8

#: (material fingerprint, structure key, bath, points) -> table.
_COLLAPSE_CACHE: Dict[Tuple, "CollapsedMaterial"] = {}

#: Source-energy quadrature points per spectrum bin.
_POINTS_PER_SOURCE_BIN = 4

#: Source kernels kept before the memo starts over: every material
#: under both beamline spectra fits, with room for point sources.
_SOURCE_KERNEL_CACHE_SIZE = 32

#: (material fingerprint, source content, structure key, bath,
#: points per source bin) -> kernel.
_SOURCE_KERNEL_CACHE: Dict[Tuple, "SourceKernel"] = {}


@dataclass(frozen=True)
class CollapsedMaterial:
    """Group-collapsed cross sections for one material.

    Attributes:
        material_name: source material label.
        structure: the group structure the table lives on.
        bath_energy_ev: thermal-bath energy the table was built for.
        bath_group: index of the group pinned to the bath energy.
        sigma_scatter_per_cm_g: macroscopic scattering, 1/cm, per
            group (energy-independent in this model, kept per group
            for interface symmetry).
        sigma_absorb_per_cm_g: lethargy-averaged 1/v macroscopic
            absorption, 1/cm, per group (bath group pinned).
        transfer: row-stochastic scattering matrix;
            ``transfer[g_in, g_out]`` is the probability that a
            scatter in ``g_in`` emerges in ``g_out``.  Rows sum to 1
            exactly.
    """

    material_name: str
    structure: GroupStructure
    bath_energy_ev: float
    bath_group: int
    sigma_scatter_per_cm_g: np.ndarray
    sigma_absorb_per_cm_g: np.ndarray
    transfer: np.ndarray

    def sigma_total_per_cm_g(self) -> np.ndarray:
        """Macroscopic total cross section per group, 1/cm."""
        return self.sigma_scatter_per_cm_g + self.sigma_absorb_per_cm_g

    def to_dict(self) -> dict:
        """Plain-dict form tagged with the ``collapsed-material``
        schema — the exact-compare payload for golden tests."""
        return serde.tag(
            "collapsed-material",
            {
                "material": self.material_name,
                "structure": self.structure.name,
                "edges_ev": self.structure.edges_ev.tolist(),
                "bath_energy_ev": self.bath_energy_ev,
                "bath_group": self.bath_group,
                "sigma_scatter_per_cm_g": (
                    self.sigma_scatter_per_cm_g.tolist()
                ),
                "sigma_absorb_per_cm_g": (
                    self.sigma_absorb_per_cm_g.tolist()
                ),
                "transfer": self.transfer.tolist(),
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CollapsedMaterial":
        """Rebuild from :meth:`to_dict` output."""
        serde.check("collapsed-material", data)
        table = cls(
            material_name=str(data["material"]),
            structure=GroupStructure(
                data["edges_ev"], name=str(data["structure"])
            ),
            bath_energy_ev=float(data["bath_energy_ev"]),
            bath_group=int(data["bath_group"]),
            sigma_scatter_per_cm_g=np.asarray(
                data["sigma_scatter_per_cm_g"], dtype=float
            ),
            sigma_absorb_per_cm_g=np.asarray(
                data["sigma_absorb_per_cm_g"], dtype=float
            ),
            transfer=np.asarray(data["transfer"], dtype=float),
        )
        table.sigma_scatter_per_cm_g.setflags(write=False)
        table.sigma_absorb_per_cm_g.setflags(write=False)
        table.transfer.setflags(write=False)
        return table


def _isotope_probabilities(elem: Element) -> List[float]:
    """Isotope pick probabilities replicating the MC cumulative rule.

    ``Material.dominant_scatter_mass`` walks cumulative abundances and
    falls through to the last isotope, so any abundance deficit is
    credited to the last entry; reproduce that exactly rather than
    renormalizing.
    """
    probs: List[float] = []
    acc = 0.0
    for iso in elem.isotopes[:-1]:
        prev = min(acc, 1.0)
        acc += iso.abundance
        probs.append(max(min(acc, 1.0) - prev, 0.0))
    probs.append(max(1.0 - min(acc, 1.0), 0.0))
    return probs


def _outgoing_rows(
    material: Material,
    energies_ev: np.ndarray,
    structure: GroupStructure,
    bath_energy_ev: float,
) -> np.ndarray:
    """Outgoing-group distributions for scatters at given energies.

    Implements the continuous law exactly: pick an element by
    macroscopic scattering weight, an isotope by abundance, draw the
    outgoing energy uniform on ``[alpha * E, E]`` and clamp it up to
    the bath energy.  Returns shape ``(len(energies), n_groups)``;
    rows sum to 1.  Outgoing energy above the top edge is banked in
    the top group (the structure is chosen to cover the source, so
    this only matters for out-of-range exotica).
    """
    energies = np.asarray(energies_ev, dtype=float)
    edges = structure.edges_ev
    n_groups = structure.n_groups
    bath_group = structure.group_index(bath_energy_ev)
    lo_edges = edges[:-1].copy()
    hi_edges = edges[1:].copy()
    hi_edges[-1] = np.inf

    weights = [
        nuc.number_density * nuc.elem.sigma_scatter_b
        for nuc in material.nuclides
    ]
    total_weight = sum(weights)
    rows = np.zeros((energies.size, n_groups))
    for nuc, weight in zip(material.nuclides, weights):
        if weight <= 0.0:
            continue
        elem_frac = weight / total_weight
        iso_probs = _isotope_probabilities(nuc.elem)
        for iso, iso_prob in zip(nuc.elem.isotopes, iso_probs):
            if iso_prob <= 0.0:
                continue
            frac = elem_frac * iso_prob
            alpha = iso.elastic_alpha
            out_lo = alpha * energies
            span = np.maximum(energies - out_lo, 1.0e-300)
            # Mass clamped up to the bath: P(E' < bath) under the
            # uniform law on [alpha E, E].
            floored = np.clip(
                (bath_energy_ev - out_lo) / span, 0.0, 1.0
            )
            rows[:, bath_group] += frac * floored
            # Remaining mass overlaps the groups above the bath.
            res_lo = np.maximum(out_lo, bath_energy_ev)
            overlap = np.clip(
                np.minimum(energies[:, None], hi_edges[None, :])
                - np.maximum(res_lo[:, None], lo_edges[None, :]),
                0.0,
                None,
            ) / span[:, None]
            rows += frac * overlap
    # Kill quadrature dust and renormalize rows to exactly 1.
    rows[rows < 0.0] = 0.0
    totals = rows.sum(axis=1, keepdims=True)
    totals[totals <= 0.0] = 1.0
    return rows / totals


def scatter_probabilities(
    material: Material,
    energy_ev: float,
    structure: GroupStructure,
    bath_energy_ev: float,
) -> np.ndarray:
    """Outgoing-group distribution for one scatter at ``energy_ev``.

    This is the continuous-energy kernel the first-collision source
    uses — no condensation error for the incident energy.
    """
    if energy_ev <= 0.0:
        raise ConfigurationError(
            f"scatter energy must be positive, got {energy_ev}"
        )
    return _outgoing_rows(
        material,
        np.asarray([energy_ev]),
        structure,
        bath_energy_ev,
    )[0]


def _material_fingerprint(material: Material) -> Tuple:
    """Physical identity of a material for the collapse cache."""
    return (
        material.name,
        material.density_g_cm3,
        material.enrichment_b10,
        tuple(
            (nuc.elem.symbol, nuc.number_density)
            for nuc in material.nuclides
        ),
    )


def clear_collapse_cache() -> None:
    """Drop every cached collapsed table and source kernel (test
    hook)."""
    _COLLAPSE_CACHE.clear()
    _SOURCE_KERNEL_CACHE.clear()


def collapse(
    material: Material,
    structure: GroupStructure,
    bath_energy_ev: float,
    points_per_group: int = _POINTS_PER_GROUP,
) -> CollapsedMaterial:
    """Collapse a material's continuous data onto ``structure``.

    Results are cached at module level; repeated engines over the
    same material/structure/bath reuse the table.

    Raises:
        repro.runtime.errors.ConfigurationError: if the bath energy
            falls outside the structure, or ``points_per_group < 1``.
    """
    if points_per_group < 1:
        raise ConfigurationError(
            f"need points_per_group >= 1, got {points_per_group}"
        )
    edges = structure.edges_ev
    if not edges[0] <= bath_energy_ev < edges[-1]:
        raise ConfigurationError(
            f"bath energy {bath_energy_ev} eV outside the group"
            f" structure span [{edges[0]}, {edges[-1]}] eV"
        )
    key = (
        _material_fingerprint(material),
        structure.key,
        float(bath_energy_ev),
        int(points_per_group),
    )
    cached = _COLLAPSE_CACHE.get(key)
    if cached is not None:
        return cached

    n_groups = structure.n_groups
    bath_group = structure.group_index(bath_energy_ev)
    sigma_s = float(material.sigma_scatter_per_cm(1.0))
    # sigma_a(E) = C / sqrt(E) with C = sigma_a at 1 eV; the
    # lethargy-flat average over [lo, hi) is analytic.
    c_abs = float(material.sigma_absorb_per_cm(1.0))
    lo = edges[:-1]
    hi = edges[1:]
    sigma_a = (
        c_abs
        * 2.0
        * (1.0 / np.sqrt(lo) - 1.0 / np.sqrt(hi))
        / np.log(hi / lo)
    )
    # Pin the bath group at the exact bath energy: the MC parks every
    # thermalized neutron at kT, so that group's spectrum is a delta.
    sigma_a[bath_group] = c_abs / math.sqrt(bath_energy_ev)

    transfer = np.zeros((n_groups, n_groups))
    for g in range(n_groups):
        if g == bath_group:
            transfer[g, bath_group] = 1.0
            continue
        # Lethargy-flat incident points inside the group.
        u = (np.arange(points_per_group) + 0.5) / points_per_group
        points = lo[g] * (hi[g] / lo[g]) ** u
        rows = _outgoing_rows(
            material, points, structure, bath_energy_ev
        )
        transfer[g] = rows.mean(axis=0)

    table = CollapsedMaterial(
        material_name=material.name,
        structure=structure,
        bath_energy_ev=float(bath_energy_ev),
        bath_group=bath_group,
        sigma_scatter_per_cm_g=np.full(n_groups, sigma_s),
        sigma_absorb_per_cm_g=sigma_a,
        transfer=transfer,
    )
    table.sigma_scatter_per_cm_g.setflags(write=False)
    table.sigma_absorb_per_cm_g.setflags(write=False)
    table.transfer.setflags(write=False)
    _COLLAPSE_CACHE[key] = table
    return table


@dataclass(frozen=True)
class SourceKernel:
    """One source seen by one material, continuous in energy.

    Everything the deterministic solver needs from the source that no
    layer thickness changes.  Arrays are read-only.

    Attributes:
        energies_ev: source quadrature energies, eV.
        weights: share of the source carried by each energy.
        sigma_total_per_cm: the material's total cross section at
            each energy, 1/cm.
        sigma_absorb_per_cm: its absorption cross section at each
            energy, 1/cm.
        outgoing: first-collision outgoing-group rows, shape
            ``(energies, groups)``; row ``k`` is the group
            distribution of a scatter at ``energies_ev[k]``.
    """

    energies_ev: np.ndarray
    weights: np.ndarray
    sigma_total_per_cm: np.ndarray
    sigma_absorb_per_cm: np.ndarray
    outgoing: np.ndarray


def _source_points(
    source_energy_ev: Optional[float],
    source_spectrum: Optional[Spectrum],
) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature (energies, weights) describing the source.

    A spectrum is sampled like ``Spectrum.sample_energies``
    distributes histories: bins weighted by flux, lethargy-flat
    within a bin — here as fixed quadrature points instead of
    random draws.
    """
    if source_spectrum is None:
        return (
            np.asarray([float(source_energy_ev)]),
            np.asarray([1.0]),
        )
    total = source_spectrum.total_flux()
    if total <= 0.0:
        raise ConfigurationError(
            "cannot solve for an empty source spectrum"
        )
    energies: List[float] = []
    weights: List[float] = []
    offsets = (
        np.arange(_POINTS_PER_SOURCE_BIN) + 0.5
    ) / _POINTS_PER_SOURCE_BIN
    edges = source_spectrum.edges
    for g, flux in enumerate(source_spectrum.group_flux):
        if flux <= 0.0:
            continue
        lo, hi = edges[g], edges[g + 1]
        points = lo * (hi / lo) ** offsets
        energies.extend(points.tolist())
        weights.extend(
            [flux / total / _POINTS_PER_SOURCE_BIN]
            * _POINTS_PER_SOURCE_BIN
        )
    return np.asarray(energies), np.asarray(weights)


def source_kernel(
    material: Material,
    structure: GroupStructure,
    bath_energy_ev: float,
    source_energy_ev: Optional[float] = None,
    source_spectrum: Optional[Spectrum] = None,
) -> SourceKernel:
    """The kernel of a point source or a spectrum in ``material``.

    Give ``source_spectrum``, or else ``source_energy_ev``.  Kernels
    are memoised like :func:`collapse`'s tables, keyed on the
    material's fingerprint and the source's content, so equal
    materials and equal spectra share an entry however they were
    built.  The memo holds at most ``_SOURCE_KERNEL_CACHE_SIZE``
    kernels and starts over when full; threads racing on a miss
    each build the same kernel, and one of them is kept.

    Raises:
        repro.runtime.errors.ConfigurationError: if the spectrum
            carries no flux.
    """
    if source_spectrum is None:
        source: Tuple = (float(source_energy_ev),)
    else:
        source = (
            source_spectrum.edges.tobytes(),
            source_spectrum.group_flux.tobytes(),
        )
    key = (
        _material_fingerprint(material),
        source,
        structure.key,
        float(bath_energy_ev),
        _POINTS_PER_SOURCE_BIN,
    )
    cached = _SOURCE_KERNEL_CACHE.get(key)
    if cached is not None:
        return cached

    energies, weights = _source_points(source_energy_ev, source_spectrum)
    kernel = SourceKernel(
        energies_ev=energies,
        weights=weights,
        sigma_total_per_cm=np.asarray(
            [material.sigma_total_per_cm(float(e)) for e in energies]
        ),
        sigma_absorb_per_cm=np.asarray(
            [material.sigma_absorb_per_cm(float(e)) for e in energies]
        ),
        outgoing=_outgoing_rows(
            material, energies, structure, bath_energy_ev
        ),
    )
    for array in (
        kernel.energies_ev,
        kernel.weights,
        kernel.sigma_total_per_cm,
        kernel.sigma_absorb_per_cm,
        kernel.outgoing,
    ):
        array.setflags(write=False)
    if len(_SOURCE_KERNEL_CACHE) >= _SOURCE_KERNEL_CACHE_SIZE:
        _SOURCE_KERNEL_CACHE.clear()
    _SOURCE_KERNEL_CACHE[key] = kernel
    return kernel
