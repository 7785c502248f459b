"""The two ISIS beamline spectra used by the paper.

* **ChipIR** — the microelectronics irradiation beamline: an
  atmospheric-like high-energy spectrum with
  ``Phi(>10 MeV) = 5.4e6 n/cm^2/s`` plus a thermal component of
  ``4e5 n/cm^2/s`` (Cazzaniga et al. / Chiesa et al., quoted in the
  paper's Section III-C).
* **ROTAX** — a general-purpose thermal beamline moderated by liquid
  methane, total thermal flux ``2.72e6 n/cm^2/s``.

Both are returned as :class:`~repro.spectra.spectrum.Spectrum` objects
on the default grid, so ``lethargy_density()`` reproduces the paper's
Figure 2 and the band integrals reproduce the quoted fluxes.

A beamline spectrum is a calibrated constant, not a per-call input,
and integrating it takes milliseconds.  Each builder therefore makes
its default-grid spectrum once per process and returns that one
immutable instance on every later call; a call with explicit
``edges`` builds a fresh spectrum.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

from repro.spectra.analytic import atmospheric_spectrum, maxwellian_spectrum
from repro.spectra.spectrum import Spectrum

#: ChipIR integral flux above 10 MeV, n/cm^2/s (paper Section III-C).
CHIPIR_FLUX_ABOVE_10MEV: float = 5.4e6

#: ChipIR thermal (< 0.5 eV) component, n/cm^2/s.
CHIPIR_THERMAL_FLUX: float = 4.0e5

#: ROTAX total thermal flux, n/cm^2/s.
ROTAX_THERMAL_FLUX: float = 2.72e6

#: Liquid-methane moderator temperature at ROTAX, K.  ISIS liquid
#: methane runs near 110 K, which hardens nothing — the spectrum is
#: still overwhelmingly sub-cadmium-cutoff.
ROTAX_MODERATOR_TEMPERATURE_K: float = 110.0


def _built_once_on_default_grid(
    build: Callable[[Sequence[float] | None], Spectrum],
) -> Callable[[Sequence[float] | None], Spectrum]:
    """Share ``build``'s default-grid spectrum between callers."""
    default = functools.lru_cache(maxsize=1)(lambda: build(None))

    @functools.wraps(build)
    def beamline(edges: Sequence[float] | None = None) -> Spectrum:
        return default() if edges is None else build(edges)

    return beamline


@_built_once_on_default_grid
def chipir_spectrum(edges: Sequence[float] | None = None) -> Spectrum:
    """The ChipIR spectrum: atmospheric-like + small thermal component."""
    spec = atmospheric_spectrum(
        flux_above_10mev=CHIPIR_FLUX_ABOVE_10MEV,
        thermal_fraction_flux=CHIPIR_THERMAL_FLUX,
        edges=edges,
        name="ChipIR",
    )
    return spec


@_built_once_on_default_grid
def rotax_spectrum(edges: Sequence[float] | None = None) -> Spectrum:
    """The ROTAX spectrum: liquid-methane-moderated Maxwellian."""
    return maxwellian_spectrum(
        total_flux=ROTAX_THERMAL_FLUX,
        temperature_k=ROTAX_MODERATOR_TEMPERATURE_K,
        edges=edges,
        name="ROTAX",
    )
