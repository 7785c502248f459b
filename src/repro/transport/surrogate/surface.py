"""Response surfaces: log-space interpolators with certified bounds.

A :class:`ResponseSurface` answers one (mode, material, source)
family of transport questions over a thickness envelope.  Grid values
come from the deterministic multigroup engine (noise-free), the
per-channel ``bounds`` from a held-out batch-MC certification pass
(:mod:`repro.transport.surrogate.build`), so a served answer carries
an error bar that was *measured*, not assumed.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.spectra.spectrum import Spectrum
from repro.transport.tallies import (
    CHANNELS,
    FRACTION_CHANNELS,
    TransportResult,
)

__all__ = [
    "CHANNELS",
    "FRACTION_CHANNELS",
    "ResponseSurface",
    "mono_source_key",
    "spectrum_source_key",
    "z_for_confidence",
]

#: Headline channel per surface mode — the number callers actually
#: consume, whose certified bound gates serving.
HEADLINE = {
    "transmission": "transmitted_thermal",
    "albedo": "reflected_thermal",
}

#: Log-interpolation floor: channel values below this are treated as
#: zero (log-space cannot represent 0 exactly).
_LOG_FLOOR = 1.0e-12

#: Absolute accuracy floor when judging whether a certified bound
#: meets a relative target.  A surface cannot be certified tighter
#: than the MC it was certified *against* resolves (k-sigma at the
#: certification history count is a few 1e-3 for mid-range
#: fractions), so demanding better than this floor would mean no
#: surface ever serves; callers needing tighter answers should
#: request a live engine with more histories.
ABS_SERVE_FLOOR = 5.0e-3


@functools.lru_cache(maxsize=64)
def z_for_confidence(confidence: float) -> float:
    """Two-sided normal quantile: smallest ``z`` with
    ``erf(z / sqrt(2)) >= confidence``.

    Memoised: every served answer asks for its confidence twice, and
    a bisection costs sixty ``erf`` calls.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if math.erf(mid / math.sqrt(2.0)) < confidence:
            lo = mid
        else:
            hi = mid
    return hi

#: Relative slack on the envelope edges (grid endpoints are inside).
_EDGE_RTOL = 1.0e-9


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def spectrum_source_key(spectrum: Spectrum) -> str:
    """Content key for a spectrum source (name + shape digest)."""
    digest = hashlib.sha256()
    digest.update(np.asarray(spectrum.edges, dtype=float).tobytes())
    digest.update(
        np.asarray(spectrum.group_flux, dtype=float).tobytes()
    )
    return f"spectrum:{spectrum.name}:{digest.hexdigest()[:16]}"


def mono_source_key(energy_ev: float) -> str:
    """Content key for a monoenergetic source."""
    return f"mono:{float(energy_ev)!r}"


@dataclass(frozen=True)
class ResponseSurface:
    """One certified interpolator family over a thickness envelope.

    The certification (two-proportion-z style, as in the engine
    equivalence harness) records, per channel, the worst held-out
    ``gap = |predicted - MC|`` and the worst MC standard error
    ``sigma``.  The certified bound at coverage ``c`` is
    ``max(gap, z_c * sigma)``: the measured disagreement when it is
    statistically significant, the certification's own resolution
    limit when it is not — charging sub-noise gaps in full would
    just re-count the MC noise.

    Attributes:
        mode: ``"transmission"`` or ``"albedo"``.
        material: material name the surface was built for.
        source: content key of the source
            (:func:`spectrum_source_key` / :func:`mono_source_key`).
        thickness_cm: ascending thickness grid (the envelope).
        channels: channel name -> grid values (deterministic fill).
        gaps: channel name -> worst held-out ``|predicted - MC|``.
        sigmas: channel name -> worst held-out MC standard error.
        k_sigma: the certification's sigma multiplier.
        confidence: two-sided normal coverage of ``k_sigma`` — the
            maximum coverage this surface can certify at.
    """

    mode: str
    material: str
    source: str
    thickness_cm: Tuple[float, ...]
    channels: Dict[str, Tuple[float, ...]]
    gaps: Dict[str, float]
    sigmas: Dict[str, float]
    k_sigma: float
    confidence: float

    def __post_init__(self) -> None:
        if self.mode not in HEADLINE:
            raise ValueError(
                f"unknown surface mode {self.mode!r};"
                f" allowed: {tuple(HEADLINE)}"
            )
        grid = tuple(float(t) for t in self.thickness_cm)
        if len(grid) < 2:
            raise ValueError("surface needs >= 2 grid points")
        if any(t <= 0.0 for t in grid):
            raise ValueError("grid thicknesses must be positive")
        if any(b >= a for b, a in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "thickness_cm", grid)
        for channel in CHANNELS:
            values = self.channels.get(channel)
            if values is None or len(values) != len(grid):
                raise ValueError(
                    f"channel {channel!r} must carry one value per"
                    f" grid point"
                )
            if (
                channel not in self.gaps
                or channel not in self.sigmas
            ):
                raise ValueError(
                    f"channel {channel!r} missing certification"
                    f" gap/sigma"
                )

    @property
    def headline(self) -> str:
        """The mode's headline channel name."""
        return HEADLINE[self.mode]

    # -- envelope ------------------------------------------------------

    def in_envelope(self, thickness_cm: float) -> bool:
        """True when a thickness lies inside the certified grid."""
        lo = self.thickness_cm[0] * (1.0 - _EDGE_RTOL)
        hi = self.thickness_cm[-1] * (1.0 + _EDGE_RTOL)
        return lo <= thickness_cm <= hi

    # -- interpolation -------------------------------------------------

    # The log tables are computed on first use and kept in the
    # instance ``__dict__``: they are not fields, so equality,
    # ``to_dict`` and the artifact digest never see them.

    @functools.cached_property
    def _log_grid(self) -> np.ndarray:
        """``log`` of the thickness grid."""
        return _read_only(np.log(np.asarray(self.thickness_cm)))

    @functools.cached_property
    def _log_channels(self) -> Dict[str, np.ndarray]:
        """``log`` of each channel's grid values, floored at
        :data:`_LOG_FLOOR`."""
        return {
            channel: _read_only(
                np.log(
                    np.maximum(
                        np.asarray(values, dtype=float), _LOG_FLOOR
                    )
                )
            )
            for channel, values in self.channels.items()
        }

    def predict(self, channel: str, thickness_cm: float) -> float:
        """Interpolate one channel (log-thickness, log-value).

        Raises:
            ValueError: outside the envelope or unknown channel.
        """
        if channel not in self.channels:
            raise ValueError(f"unknown channel {channel!r}")
        if not self.in_envelope(thickness_cm):
            raise ValueError(
                f"thickness {thickness_cm} cm outside the certified"
                f" envelope [{self.thickness_cm[0]},"
                f" {self.thickness_cm[-1]}] cm"
            )
        raw = float(
            np.exp(
                np.interp(
                    math.log(thickness_cm),
                    self._log_grid,
                    self._log_channels[channel],
                )
            )
        )
        if raw <= 10.0 * _LOG_FLOOR:
            raw = 0.0
        if channel in FRACTION_CHANNELS:
            return min(max(raw, 0.0), 1.0)
        return max(raw, 0.0)

    def evaluate(self, thickness_cm: float) -> TransportResult:
        """Interpolate every channel into a ``surrogate-transport``
        result that carries the per-channel certified bounds."""
        values = {
            channel: self.predict(channel, thickness_cm)
            for channel in CHANNELS
        }
        return TransportResult(
            kind="surrogate-transport",
            source=1.0,
            bounds=self.bounds,
            **values,
        )

    # -- the accuracy contract -----------------------------------------

    @property
    def bounds(self) -> Dict[str, float]:
        """Per-channel certified bounds at the build's full
        ``k_sigma`` coverage."""
        return {
            channel: max(
                self.gaps[channel],
                self.k_sigma * self.sigmas[channel],
            )
            for channel in CHANNELS
        }

    def certified_bound(
        self,
        channel: Optional[str] = None,
        confidence: Optional[float] = None,
    ) -> float:
        """The certified absolute bound for a channel (default
        headline) at a coverage level (default: the build's full
        ``k_sigma`` coverage)."""
        channel = channel or self.headline
        if confidence is None:
            z = self.k_sigma
        else:
            z = min(z_for_confidence(confidence), self.k_sigma)
        return max(self.gaps[channel], z * self.sigmas[channel])

    def meets(
        self,
        thickness_cm: float,
        rel_err: float,
        confidence: float,
    ) -> bool:
        """Does the headline bound satisfy an accuracy target here?

        The target is met when the certification's coverage reaches
        ``confidence`` and the certified bound at that coverage is
        within ``rel_err`` of the predicted headline value (with the
        :data:`ABS_SERVE_FLOOR` absolute floor — the certification's
        own resolution).
        """
        if confidence > self.confidence:
            return False
        predicted = self.predict(self.headline, thickness_cm)
        allowed = max(rel_err * predicted, ABS_SERVE_FLOOR)
        return (
            self.certified_bound(confidence=confidence) <= allowed
        )

    # -- serde ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form (untagged; artifacts tag the bundle)."""
        return {
            "mode": self.mode,
            "material": self.material,
            "source": self.source,
            "thickness_cm": list(self.thickness_cm),
            "channels": {
                channel: list(values)
                for channel, values in sorted(self.channels.items())
            },
            "gaps": {
                channel: float(gap)
                for channel, gap in sorted(self.gaps.items())
            },
            "sigmas": {
                channel: float(sigma)
                for channel, sigma in sorted(self.sigmas.items())
            },
            "k_sigma": self.k_sigma,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResponseSurface":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            mode=str(data["mode"]),
            material=str(data["material"]),
            source=str(data["source"]),
            thickness_cm=tuple(
                float(t) for t in data["thickness_cm"]
            ),
            channels={
                str(channel): tuple(float(v) for v in values)
                for channel, values in data["channels"].items()
            },
            gaps={
                str(channel): float(gap)
                for channel, gap in data["gaps"].items()
            },
            sigmas={
                str(channel): float(sigma)
                for channel, sigma in data["sigmas"].items()
            },
            k_sigma=float(data["k_sigma"]),
            confidence=float(data["confidence"]),
        )
