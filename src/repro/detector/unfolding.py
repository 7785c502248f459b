"""Few-band spectrum unfolding with moderated detectors.

A single bare+Cd pair measures only the thermal band.  To measure the
*spectrum* — the paper's point that realistic settings must be
measured, not assumed — health physicists wrap the counter in
polyethylene moderators of several thicknesses (Bonner spheres): thin
moderators respond to thermals, thick ones thermalize and detect fast
neutrons.  Given the response of each configuration to each energy
band, the band fluxes follow from non-negative least squares.

The response matrix here is *computed from our own Monte Carlo*, so
the unfolding closes the loop between the transport and detector
subsystems.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.detector.tubes import He3Tube
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import POLYETHYLENE
from repro.transport.montecarlo import Layer, SlabGeometry

#: Representative energy per unfolding band, eV.
BAND_ENERGIES: Dict[str, float] = {
    "thermal": 0.0253,
    "epithermal": 1.0e3,
    "fast": 1.0e6,
}

#: Band order used in all matrices/vectors.
BANDS: Tuple[str, ...] = ("thermal", "epithermal", "fast")


@dataclass(frozen=True)
class UnfoldingResult:
    """Band fluxes recovered from moderated-counter measurements.

    Attributes:
        fluxes: recovered per-band fluxes (same units as the counts
            divided by the response normalization).
        residual: least-squares residual norm.
        bands: band labels, matching ``fluxes``.
    """

    fluxes: np.ndarray
    residual: float
    bands: Tuple[str, ...] = BANDS

    def flux(self, band: str) -> float:
        """Recovered flux of one band."""
        try:
            return float(self.fluxes[self.bands.index(band)])
        except ValueError:
            raise KeyError(
                f"unknown band {band!r}; valid: {self.bands}"
            ) from None


def response_matrix(
    moderator_thicknesses_cm: Sequence[float],
    n_neutrons: int = 3000,
    seed: int = 2020,
    tube: He3Tube | None = None,
) -> np.ndarray:
    """Response of each moderated configuration to each band.

    Entry ``(i, j)``: expected counts per unit incident band-``j``
    fluence for configuration ``i``.  Thickness 0 means the bare
    tube.  Responses are Monte Carlo transport through the moderator
    followed by the tube's thermal efficiency (the 3He response to
    the emerging thermal population; the tube's small epithermal
    response is included for the bare case).

    Raises:
        ValueError: on empty/negative thicknesses.
    """
    if not list(moderator_thicknesses_cm):
        raise ValueError("need at least one configuration")
    tube = tube or He3Tube()
    efficiency = tube.thermal_efficiency()
    rows: List[List[float]] = []
    for thickness in moderator_thicknesses_cm:
        if thickness < 0.0:
            raise ValueError(
                f"thickness must be >= 0, got {thickness}"
            )
        row: List[float] = []
        for band in BANDS:
            energy = BAND_ENERGIES[band]
            if thickness == 0.0:
                # Bare tube: full thermal response, small 1/v tail
                # response above.
                if band == "thermal":
                    row.append(efficiency)
                elif band == "epithermal":
                    row.append(0.02 * efficiency)
                else:
                    row.append(0.002 * efficiency)
                continue
            geometry = SlabGeometry(
                [Layer(POLYETHYLENE, float(thickness))]
            )
            # Per-configuration stream key derived with sha256, not
            # hash(): builtin hash of a str is salted per process
            # (PYTHONHASHSEED), which would unseed the responses.
            key = int.from_bytes(
                hashlib.sha256(
                    f"{round(thickness, 6)}:{band}".encode("utf-8")
                ).digest()[:4],
                "big",
            )
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, key])
            )
            result = BatchTransportEngine(geometry).run(
                n_neutrons,
                source_energy_ev=energy,
                seed=int(rng.integers(0, 2**63)),
            )
            row.append(
                result.thermal_transmission_fraction() * efficiency
            )
        rows.append(row)
    return np.asarray(rows)


def _nnls(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """Non-negative least squares; scipy if present, else projected
    gradient (small problems only)."""
    try:
        from scipy.optimize import nnls as scipy_nnls

        x, residual = scipy_nnls(a, b)
        return x, float(residual)
    except ImportError:  # pragma: no cover - scipy is installed here
        x = np.maximum(np.linalg.lstsq(a, b, rcond=None)[0], 0.0)
        for _ in range(500):
            grad = a.T @ (a @ x - b)
            x = np.maximum(x - 1e-3 * grad, 0.0)
        return x, float(np.linalg.norm(a @ x - b))


def unfold(
    counts_per_fluence: Sequence[float],
    matrix: np.ndarray,
) -> UnfoldingResult:
    """Recover band fluxes from moderated-counter responses.

    Args:
        counts_per_fluence: measured count rate of each
            configuration, normalized per unit incident fluence
            scale (the same scale the matrix columns use).
        matrix: response matrix from :func:`response_matrix`.

    Raises:
        ValueError: on shape mismatch or an underdetermined system.
    """
    counts = np.asarray(counts_per_fluence, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(BANDS):
        raise ValueError(
            f"matrix must be (n_configs, {len(BANDS)}),"
            f" got {matrix.shape}"
        )
    if counts.shape != (matrix.shape[0],):
        raise ValueError(
            f"need {matrix.shape[0]} measurements,"
            f" got {counts.shape}"
        )
    if matrix.shape[0] < len(BANDS):
        raise ValueError(
            "underdetermined: need at least as many"
            " configurations as bands"
        )
    fluxes, residual = _nnls(matrix, counts)
    return UnfoldingResult(fluxes=fluxes, residual=residual)


def simulate_measurement(
    true_fluxes: Dict[str, float],
    matrix: np.ndarray,
    rng: np.random.Generator | None = None,
    counting_scale: float = 1000.0,
) -> np.ndarray:
    """Synthesize noisy counts for a known spectrum.

    Args:
        true_fluxes: per-band fluxes.
        matrix: response matrix.
        rng: if given, Poisson noise is applied at the
            ``counting_scale`` (counts = scale x response).
        counting_scale: expected-count normalization for the noise.

    Raises:
        ValueError: on a band mismatch.
    """
    if set(true_fluxes) != set(BANDS):
        raise ValueError(
            f"fluxes must cover exactly {BANDS},"
            f" got {sorted(true_fluxes)}"
        )
    phi = np.asarray([true_fluxes[b] for b in BANDS])
    expected = matrix @ phi
    if rng is None:
        return expected
    noisy = rng.poisson(
        np.maximum(expected * counting_scale, 0.0)
    )
    return noisy / counting_scale


__all__ = [
    "BANDS",
    "UnfoldingResult",
    "response_matrix",
    "simulate_measurement",
    "unfold",
]
