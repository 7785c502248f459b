"""Precomputed transport response surfaces with certified accuracy.

The build-once/serve-many layer behind the
:mod:`repro.transport.api` facade: response surfaces over (material,
source, thickness) are filled with the noise-free deterministic
multigroup engine, *certified* against held-out batch Monte Carlo
runs (the K-sigma contract of ``tests/test_transport_equivalence``),
persisted as serde-tagged, SHA-256-checksummed, content-addressed
artifacts, and served in microseconds by :class:`SurrogateStore`.
"""

from repro.transport.surrogate.build import (
    SurfaceSpec,
    build_artifact,
    default_surface_specs,
)
from repro.transport.surrogate.store import SurrogateStore
from repro.transport.surrogate.surface import CHANNELS, ResponseSurface

__all__ = [
    "CHANNELS",
    "ResponseSurface",
    "SurfaceSpec",
    "SurrogateStore",
    "build_artifact",
    "default_surface_specs",
]
