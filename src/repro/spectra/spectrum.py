"""Group-wise neutron spectra on a logarithmic energy grid.

The representation is deliberately simple: ``edges`` (eV, increasing)
bound ``len(edges) - 1`` groups and ``group_flux[g]`` is the integral
flux in group ``g`` (n/cm^2/s).  Within a group the flux is assumed flat
in lethargy (i.e. proportional to 1/E in energy), which is the natural
interpolation for reactor-physics-style spectra and makes band integrals
and sampling exact and cheap.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.physics.units import FAST_CUTOFF_EV, THERMAL_CUTOFF_EV

#: Default grid: 1 meV to 10 GeV, 20 groups per decade.
_DEFAULT_EMIN_EV = 1.0e-3
_DEFAULT_EMAX_EV = 1.0e10
_GROUPS_PER_DECADE = 20

#: Buckets in a spectrum's source guide table.  A power of two, so
#: ``u * _GUIDE_BUCKETS`` is exact and bucket ``b`` holds exactly the
#: uniforms in ``[b / _GUIDE_BUCKETS, (b + 1) / _GUIDE_BUCKETS)``.
_GUIDE_BUCKETS = 4096


def default_energy_grid(
    emin_ev: float = _DEFAULT_EMIN_EV,
    emax_ev: float = _DEFAULT_EMAX_EV,
    groups_per_decade: int = _GROUPS_PER_DECADE,
) -> np.ndarray:
    """Logarithmic group edges spanning ``[emin_ev, emax_ev]``.

    Args:
        emin_ev: lowest edge, eV.
        emax_ev: highest edge, eV.
        groups_per_decade: resolution of the grid.

    Raises:
        ValueError: on a non-positive or inverted range.
    """
    if emin_ev <= 0.0 or emax_ev <= emin_ev:
        raise ValueError(
            f"invalid energy range [{emin_ev}, {emax_ev}]"
        )
    decades = math.log10(emax_ev / emin_ev)
    n_groups = max(1, int(round(decades * groups_per_decade)))
    return np.logspace(
        math.log10(emin_ev), math.log10(emax_ev), n_groups + 1
    )


class Spectrum:
    """An immutable group-wise neutron flux spectrum.

    The arrays are read-only and the attributes cannot be rebound, so
    one instance may be shared by every caller (the beamline builders
    hand out one per process).  ``name`` is part of a spectrum's
    surrogate source key, which makes renaming a shared instance as
    harmful as editing its fluxes.

    Attributes:
        edges: group boundaries, eV, finite and strictly increasing.
        group_flux: per-group integral flux, n/cm^2/s, finite and
            non-negative.
        name: human-readable label used in reports.
    """

    def __init__(
        self,
        edges: Sequence[float],
        group_flux: Sequence[float],
        name: str = "spectrum",
    ) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        flux_arr = np.asarray(group_flux, dtype=float)
        if edges_arr.ndim != 1 or edges_arr.size < 2:
            raise ValueError("edges must be a 1-D array of >= 2 values")
        if not np.all(np.isfinite(edges_arr)):
            raise ValueError("edges must be finite")
        if np.any(np.diff(edges_arr) <= 0.0):
            raise ValueError("edges must be strictly increasing")
        if edges_arr[0] <= 0.0:
            raise ValueError("edges must be positive (log grid)")
        if flux_arr.shape != (edges_arr.size - 1,):
            raise ValueError(
                f"group_flux must have {edges_arr.size - 1} entries,"
                f" got {flux_arr.size}"
            )
        if not np.all(np.isfinite(flux_arr)):
            raise ValueError("group fluxes must be finite")
        if np.any(flux_arr < 0.0):
            raise ValueError("group fluxes must be non-negative")
        edges_arr.setflags(write=False)
        flux_arr.setflags(write=False)
        self._edges = edges_arr
        self._group_flux = flux_arr
        self._name = name
        # Built by the first ``sample_energies`` call; two threads that
        # race to build it build equal tables.
        self._sampler: Optional[_GroupSampler] = None

    @property
    def edges(self) -> np.ndarray:
        """Group boundaries, eV (read-only)."""
        return self._edges

    @property
    def group_flux(self) -> np.ndarray:
        """Per-group integral flux, n/cm^2/s (read-only)."""
        return self._group_flux

    @property
    def name(self) -> str:
        """Human-readable label (read-only)."""
        return self._name

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_differential(
        cls,
        density: Callable[[np.ndarray], np.ndarray],
        edges: Sequence[float] | None = None,
        name: str = "spectrum",
        points_per_group: int = 8,
    ) -> "Spectrum":
        """Build a spectrum by integrating a differential flux.

        Args:
            density: vectorized ``dPhi/dE`` in n/cm^2/s/eV.
            edges: group edges; defaults to :func:`default_energy_grid`.
            name: label.
            points_per_group: log-trapezoid resolution per group.
        """
        edges_arr = (
            np.asarray(edges, dtype=float)
            if edges is not None
            else default_energy_grid()
        )
        fluxes = np.empty(edges_arr.size - 1)
        for g in range(edges_arr.size - 1):
            pts = np.logspace(
                math.log10(edges_arr[g]),
                math.log10(edges_arr[g + 1]),
                points_per_group,
            )
            fluxes[g] = float(np.trapezoid(density(pts), pts))
        return cls(edges_arr, np.maximum(fluxes, 0.0), name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        """Number of energy groups."""
        return self.group_flux.size

    @property
    def group_midpoints(self) -> np.ndarray:
        """Geometric group midpoints, eV."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])

    def total_flux(self) -> float:
        """Integral flux over the whole grid, n/cm^2/s."""
        return float(self.group_flux.sum())

    def band_flux(self, emin_ev: float, emax_ev: float) -> float:
        """Integral flux in ``[emin_ev, emax_ev]``, n/cm^2/s.

        Partial group overlaps are resolved assuming a lethargy-flat
        distribution inside each group.
        """
        if emax_ev <= emin_ev:
            raise ValueError("band must have emax > emin")
        lo = np.maximum(self.edges[:-1], emin_ev)
        hi = np.minimum(self.edges[1:], emax_ev)
        overlap = hi > lo
        if not np.any(overlap):
            return 0.0
        width_u = np.log(self.edges[1:] / self.edges[:-1])
        frac = np.zeros_like(self.group_flux)
        frac[overlap] = (
            np.log(hi[overlap] / lo[overlap]) / width_u[overlap]
        )
        return float((self.group_flux * frac).sum())

    def thermal_flux(self, cutoff_ev: float = THERMAL_CUTOFF_EV) -> float:
        """Flux below the cadmium cutoff (default 0.5 eV), n/cm^2/s."""
        return self.band_flux(self.edges[0], cutoff_ev)

    def fast_flux(self, cutoff_ev: float = FAST_CUTOFF_EV) -> float:
        """Flux above the fast cutoff (default 10 MeV), n/cm^2/s."""
        return self.band_flux(cutoff_ev, self.edges[-1])

    def epithermal_flux(
        self,
        thermal_cutoff_ev: float = THERMAL_CUTOFF_EV,
        fast_cutoff_ev: float = FAST_CUTOFF_EV,
    ) -> float:
        """Flux between the thermal and fast cutoffs, n/cm^2/s."""
        return self.band_flux(thermal_cutoff_ev, fast_cutoff_ev)

    def mean_energy_ev(self) -> float:
        """Flux-weighted mean group-midpoint energy, eV."""
        total = self.total_flux()
        if total == 0.0:
            return 0.0
        return float(
            (self.group_flux * self.group_midpoints).sum() / total
        )

    # ------------------------------------------------------------------
    # Lethargy representation (what Figure 2 of the paper plots)
    # ------------------------------------------------------------------

    def lethargy_density(self) -> np.ndarray:
        """Per-group flux per unit lethargy, ``E * dPhi/dE``.

        This is the quantity the paper plots on its log-log beamline
        comparison: areas under the curve are proportional to flux.
        """
        width_u = np.log(self.edges[1:] / self.edges[:-1])
        return self.group_flux / width_u

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def scaled(self, factor: float, name: str | None = None) -> "Spectrum":
        """Return a copy with all group fluxes multiplied by ``factor``."""
        if factor < 0.0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return Spectrum(
            self.edges,
            self.group_flux * factor,
            name=name or self.name,
        )

    def normalized(self, total: float = 1.0) -> "Spectrum":
        """Return a copy rescaled so the integral flux equals ``total``."""
        current = self.total_flux()
        if current == 0.0:
            raise ValueError("cannot normalize an empty spectrum")
        return self.scaled(total / current)

    def __add__(self, other: "Spectrum") -> "Spectrum":
        """Sum two spectra defined on the same grid."""
        if not isinstance(other, Spectrum):
            return NotImplemented
        if self.edges.shape != other.edges.shape or not np.allclose(
            self.edges, other.edges
        ):
            raise ValueError("spectra must share the same energy grid")
        return Spectrum(
            self.edges,
            self.group_flux + other.group_flux,
            name=f"{self.name}+{other.name}",
        )

    # ------------------------------------------------------------------
    # Folding and sampling
    # ------------------------------------------------------------------

    def fold(self, sigma_b: Callable[[np.ndarray], np.ndarray]) -> float:
        """Reaction rate per target atom: sum of flux x sigma(E).

        Args:
            sigma_b: vectorized microscopic cross section in **barns**
                evaluated at group midpoints.

        Returns:
            Rate in reactions per atom per second x 1e-24 x ... —
            concretely ``sum(flux_g * sigma(E_g))`` in barn * n/cm^2/s;
            multiply by 1e-24 to get per-atom per-second.
        """
        mids = self.group_midpoints
        return float((self.group_flux * np.asarray(sigma_b(mids))).sum())

    def sample_energies(
        self, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Draw ``n`` neutron energies distributed like this spectrum.

        Groups are chosen with probability proportional to their flux;
        within a group the energy is log-uniform (lethargy-flat).

        Draws, energies and the generator's next state are bit for bit
        those of ``groups = rng.choice(n_groups, size=n, p=flux /
        total)`` followed by ``lo * (hi / lo) ** rng.random(n)``: the
        group of each of the same ``n`` uniforms comes from a guide
        table (:class:`_GroupSampler`), built on the first call, in
        place of ``choice``'s binary search.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if self._sampler is None:
            total = self.total_flux()
            if total <= 0.0:
                raise ValueError("cannot sample from an empty spectrum")
            if total == math.inf:
                raise ValueError("cannot sample: the total flux overflows")
            self._sampler = _GroupSampler(
                self._edges, self._group_flux / total
            )
        return self._sampler.draw(rng, n)

    def __repr__(self) -> str:
        return (
            f"Spectrum(name={self.name!r}, groups={self.n_groups},"
            f" total={self.total_flux():.3e} n/cm^2/s)"
        )


class _GroupSampler:
    """A spectrum's source draw: a flux-weighted group, then a
    lethargy-flat energy inside it.

    ``Generator.choice(p=probs)`` maps each uniform ``u`` to
    ``cdf.searchsorted(u, side="right")`` with ``cdf = cumsum(probs) /
    last``.  Here bucket ``b`` of the guide table holds the uniforms
    in ``[b / K, (b + 1) / K)`` (``K`` = :data:`_GUIDE_BUCKETS`) and
    ``first[b]`` is the group of its lowest one, which is every one's
    group unless a cdf step falls inside the bucket (``split[b]``).
    Only the few draws in such buckets search the cdf.  Same cdf, same
    comparisons, so the same group for every uniform.

    Args:
        edges: the spectrum's group edges.
        probs: per-group probabilities, ``flux / total``.
    """

    def __init__(self, edges: np.ndarray, probs: np.ndarray) -> None:
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        keys = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        self._cdf = cdf
        self._first = cdf.searchsorted(keys[:-1], side="right")
        self._split = cdf.searchsorted(keys[1:], side="left") != self._first
        self._lo = edges[:-1]
        # ``hi / lo`` per group: the same division, so the same bits.
        self._ratio = edges[1:] / edges[:-1]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` energies, eV, from ``2 n`` uniforms of ``rng``."""
        u = rng.random(n)
        bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
        groups = self._first[bucket]
        split = np.flatnonzero(self._split[bucket])
        if split.size:
            groups[split] = self._cdf.searchsorted(u[split], side="right")
        return self._lo[groups] * self._ratio[groups] ** rng.random(n)
