"""Surrogate surfaces: build, certification, store, serving bounds."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import trials
from repro.durable import QUARANTINE_SUFFIX, payload_checksum
from repro.service.protocol import SHIELDS
from repro.spectra.beamlines import rotax_spectrum
from repro.transport.materials import CADMIUM
from repro.transport.surrogate import (
    ResponseSurface,
    SurfaceSpec,
    SurrogateStore,
    build_artifact,
)
from repro.transport.surrogate.build import (
    DEFAULT_SHIELD_THICKNESS_CM,
    build_surface,
    default_surface_specs,
    log_grid,
)
from repro.transport.surrogate.surface import (
    _LOG_FLOOR,
    ABS_SERVE_FLOOR,
    CHANNELS,
    FRACTION_CHANNELS,
    HEADLINE,
    z_for_confidence,
)


@pytest.fixture(scope="module")
def artifact() -> dict:
    """The memoized chaos-trial artifact (cadmium transmission)."""
    return trials.surrogate_artifact()


@pytest.fixture()
def stored(artifact, tmp_path):
    """A store with the artifact saved; ``(store, digest, path)``."""
    store = SurrogateStore(tmp_path)
    path = store.save(artifact)
    return store, str(artifact["checksum"]), path


# -- grids and specs ---------------------------------------------------


def test_log_grid_spans_endpoints_logarithmically():
    grid = log_grid(0.1, 10.0, 5)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(10.0)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0]) for r in ratios)


@pytest.mark.parametrize(
    "lo,hi,n", [(0.0, 1.0, 3), (1.0, 1.0, 3), (2.0, 1.0, 3), (0.1, 1.0, 1)]
)
def test_log_grid_rejects_degenerate_inputs(lo, hi, n):
    with pytest.raises(ValueError):
        log_grid(lo, hi, n)


def test_surface_spec_requires_exactly_one_source():
    grid = log_grid(0.05, 0.2, 3)
    with pytest.raises(ValueError):
        SurfaceSpec(
            mode="transmission", material=CADMIUM, thickness_cm=grid
        )
    with pytest.raises(ValueError):
        SurfaceSpec(
            mode="transmission",
            material=CADMIUM,
            thickness_cm=grid,
            source_spectrum=rotax_spectrum(),
            source_energy_ev=1.0e6,
        )


def test_default_specs_pin_the_service_shield_table():
    # The build centres envelopes on the service's default
    # thicknesses; the two tables must not drift apart.
    assert DEFAULT_SHIELD_THICKNESS_CM == {
        material.name: thickness
        for material, thickness in SHIELDS.values()
    }
    specs = default_surface_specs(n_points=3)
    for spec in specs:
        t_ref = DEFAULT_SHIELD_THICKNESS_CM[spec.material.name]
        assert spec.thickness_cm[0] < t_ref < spec.thickness_cm[-1]
    modes = {(s.mode, s.material.name) for s in specs}
    assert ("transmission", CADMIUM.name) in modes
    assert ("albedo", "water") in modes


# -- certification -----------------------------------------------------


def test_build_surface_certifies_geometric_midpoints():
    spec = SurfaceSpec(
        mode="transmission",
        material=CADMIUM,
        thickness_cm=log_grid(0.05, 0.2, 3),
        source_spectrum=rotax_spectrum(),
    )
    surface, report = build_surface(
        spec, cert_histories=400, k_sigma=5.0, seed=7
    )
    assert len(report) == 2
    for index, row in enumerate(report):
        grid = surface.thickness_cm
        expected = math.sqrt(grid[index] * grid[index + 1])
        assert row["thickness_cm"] == pytest.approx(expected)
        for channel in CHANNELS:
            cell = row["channels"][channel]
            assert cell["bound"] == pytest.approx(
                max(
                    abs(cell["predicted"] - cell["mc_estimate"]),
                    5.0 * cell["mc_sigma"],
                )
            )
    # The surface records the worst row per channel.
    headline = HEADLINE[surface.mode]
    worst_gap = max(
        abs(
            row["channels"][headline]["predicted"]
            - row["channels"][headline]["mc_estimate"]
        )
        for row in report
    )
    assert surface.gaps[headline] == pytest.approx(worst_gap)
    assert surface.confidence == pytest.approx(
        math.erf(5.0 / math.sqrt(2.0))
    )


def test_build_surface_rejects_weak_certification():
    spec = SurfaceSpec(
        mode="transmission",
        material=CADMIUM,
        thickness_cm=log_grid(0.05, 0.2, 3),
        source_spectrum=rotax_spectrum(),
    )
    with pytest.raises(ValueError):
        build_surface(spec, cert_histories=10)
    with pytest.raises(ValueError):
        build_surface(spec, cert_histories=400, k_sigma=0.0)


def test_held_out_agreement_is_two_proportion_consistent(artifact):
    # Every held-out row's headline disagreement must be explained
    # by the recorded MC noise or charged in full to the gap — the
    # same contract the engine-equivalence harness enforces.
    for bundle in artifact["certification"]:
        for row in bundle["held_out"]:
            for channel in FRACTION_CHANNELS:
                cell = row["channels"][channel]
                gap = abs(cell["predicted"] - cell["mc_estimate"])
                assert cell["z"] == pytest.approx(
                    gap / cell["mc_sigma"]
                )
                assert cell["bound"] >= gap or cell[
                    "bound"
                ] == pytest.approx(gap)


def test_build_artifact_validates_inputs():
    with pytest.raises(ValueError):
        build_artifact("", [])
    with pytest.raises(ValueError):
        build_artifact("named", [])


# -- the certified-bound model -----------------------------------------


def _flat_surface(gap: float, sigma: float, k_sigma: float = 5.0):
    grid = (0.1, 1.0)
    return ResponseSurface(
        mode="transmission",
        material="cadmium",
        source="spectrum:test:0",
        thickness_cm=grid,
        channels={c: (0.5, 0.5) for c in CHANNELS},
        gaps={c: gap for c in CHANNELS},
        sigmas={c: sigma for c in CHANNELS},
        k_sigma=k_sigma,
        confidence=math.erf(k_sigma / math.sqrt(2.0)),
    )


def test_z_for_confidence_matches_normal_quantiles():
    assert z_for_confidence(0.95) == pytest.approx(1.95996, abs=1e-3)
    assert z_for_confidence(0.6827) == pytest.approx(1.0, abs=1e-3)
    assert z_for_confidence(0.99) > z_for_confidence(0.95)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            z_for_confidence(bad)


def test_certified_bound_scales_with_confidence():
    surface = _flat_surface(gap=0.001, sigma=0.002)
    # At 95% the bound charges ~1.96 sigma, not the full k_sigma.
    assert surface.certified_bound(
        confidence=0.95
    ) == pytest.approx(z_for_confidence(0.95) * 0.002, rel=1e-3)
    # The default is the build's full k-sigma coverage.
    assert surface.certified_bound() == pytest.approx(5.0 * 0.002)
    # A significant measured gap dominates sub-noise sigma scaling.
    wide = _flat_surface(gap=0.05, sigma=0.002)
    assert wide.certified_bound(confidence=0.95) == pytest.approx(0.05)


def test_meets_honours_rel_err_floor_and_coverage():
    surface = _flat_surface(gap=0.004, sigma=0.0001)
    # Headline predicts 0.5: 5% relative allows 0.025 >= 0.004.
    assert surface.meets(0.3, rel_err=0.05, confidence=0.95)
    # A sub-floor target falls back to ABS_SERVE_FLOOR (met here).
    assert surface.meets(0.3, rel_err=1.0e-6, confidence=0.95)
    loose = _flat_surface(gap=2.0 * ABS_SERVE_FLOOR, sigma=0.0001)
    assert not loose.meets(0.3, rel_err=1.0e-6, confidence=0.95)
    # Coverage beyond the build's k-sigma cannot be certified.
    assert not surface.meets(
        0.3, rel_err=0.05, confidence=0.99999999
    )


def test_evaluate_serves_certified_bounds_and_balances(artifact):
    surface = ResponseSurface.from_dict(
        artifact["surfaces"][0]
    )
    t_mid = surface.thickness_cm[len(surface.thickness_cm) // 2]
    result = surface.evaluate(t_mid)
    # At a grid node the interpolant reproduces the fill exactly.
    index = surface.thickness_cm.index(t_mid)
    assert result.transmitted_thermal == pytest.approx(
        surface.channels["transmitted_thermal"][index]
    )
    assert result.balance_check()
    assert result.thermal_albedo_stderr() == pytest.approx(
        surface.bounds["reflected_thermal"]
    )
    roundtrip = type(result).from_dict(result.to_dict())
    assert roundtrip == result
    with pytest.raises(ValueError):
        surface.predict("transmitted_thermal", 1.0e6)
    with pytest.raises(ValueError):
        surface.predict("no-such-channel", t_mid)


# -- the memoised serve step against its plain form --------------------


def _plain_predict(surface, channel, thickness_cm):
    """``predict`` with both logs computed inline on every call: the
    reference the memoised log tables must match bit for bit."""
    grid = np.log(np.asarray(surface.thickness_cm))
    values = np.asarray(surface.channels[channel], dtype=float)
    logs = np.log(np.maximum(values, _LOG_FLOOR))
    raw = float(np.exp(np.interp(math.log(thickness_cm), grid, logs)))
    if raw <= 10.0 * _LOG_FLOOR:
        raw = 0.0
    if channel in FRACTION_CHANNELS:
        return min(max(raw, 0.0), 1.0)
    return max(raw, 0.0)


def _plain_bound(surface, channel, confidence):
    z = min(z_for_confidence.__wrapped__(confidence), surface.k_sigma)
    return max(surface.gaps[channel], z * surface.sigmas[channel])


def _plain_meets(surface, thickness_cm, rel_err, confidence):
    if confidence > surface.confidence:
        return False
    predicted = _plain_predict(surface, surface.headline, thickness_cm)
    allowed = max(rel_err * predicted, ABS_SERVE_FLOOR)
    return _plain_bound(surface, surface.headline, confidence) <= allowed


#: Coverages the serve step is checked at (the last is beyond the
#: trial surface's certification).
SERVE_CONFIDENCES = (0.5, 0.68, 0.9, 0.95, 0.99, 0.9999, 0.999999999)


def test_memoised_serve_step_matches_the_plain_form_bit_for_bit(artifact):
    surface = ResponseSurface.from_dict(artifact["surfaces"][0])
    lo, hi = surface.thickness_cm[0], surface.thickness_cm[-1]
    thicknesses = list(surface.thickness_cm) + [
        lo * (1.0 - 5.0e-10),
        hi * (1.0 + 5.0e-10),
    ] + [lo * (hi / lo) ** (i / 40.0) for i in range(1, 40)]
    for t in thicknesses:
        served = surface.evaluate(t)
        for channel in CHANNELS:
            expected = _plain_predict(surface, channel, t).hex()
            assert surface.predict(channel, t).hex() == expected
            assert getattr(served, channel).hex() == expected
        for confidence in SERVE_CONFIDENCES:
            for rel_err in (0.01, 0.05, 0.5):
                assert surface.meets(t, rel_err, confidence) is (
                    _plain_meets(surface, t, rel_err, confidence)
                )
    for confidence in SERVE_CONFIDENCES:
        assert z_for_confidence(confidence).hex() == (
            z_for_confidence.__wrapped__(confidence).hex()
        )
        for channel in CHANNELS:
            assert surface.certified_bound(channel, confidence).hex() == (
                _plain_bound(surface, channel, confidence).hex()
            )
    # The log tables are not fields: a surface that has served equals
    # a fresh one, and serializes (so digests) exactly as before.
    fresh = ResponseSurface.from_dict(artifact["surfaces"][0])
    assert surface == fresh
    assert surface.to_dict() == fresh.to_dict() == artifact["surfaces"][0]
    served_artifact = dict(artifact, surfaces=[surface.to_dict()])
    pinned = json.loads(
        (Path(__file__).parent / "data" / "transport-answers.json")
        .read_text(encoding="utf-8")
    )["surrogate_digest"]
    assert payload_checksum(served_artifact) == pinned


# -- the content-addressed store ---------------------------------------


def test_artifact_roundtrips_through_the_store(artifact, stored):
    store, digest, path = stored
    assert path.name == f"{digest}.json"
    assert payload_checksum(artifact) == digest
    assert store.digests() == [digest]
    surfaces = store.surfaces()
    assert len(surfaces) == len(artifact["surfaces"])
    surface, source_digest = surfaces[0]
    assert source_digest == digest
    hit = store.lookup(
        surface.mode,
        surface.material,
        surface.source,
        surface.thickness_cm[0],
    )
    assert hit is not None and hit[1] == digest
    # Outside the envelope the family has no certified coverage.
    assert (
        store.lookup(
            surface.mode,
            surface.material,
            surface.source,
            surface.thickness_cm[-1] * 100.0,
        )
        is None
    )


def test_store_rejects_artifacts_with_stale_checksums(
    artifact, tmp_path
):
    tampered = dict(artifact)
    tampered["name"] = "tampered"
    with pytest.raises(ValueError):
        SurrogateStore(tmp_path).save(tampered)


@pytest.mark.parametrize("defect", ["truncate", "bitflip", "address"])
def test_defective_artifacts_are_quarantined_not_served(
    artifact, tmp_path, defect
):
    store = SurrogateStore(tmp_path)
    path = store.save(artifact)
    raw = path.read_text()
    if defect == "truncate":
        path.write_text(raw[: len(raw) // 2])
    elif defect == "bitflip":
        data = json.loads(raw)
        data["n_points"] = int(data["n_points"]) + 1
        path.write_text(json.dumps(data, sort_keys=True))
    else:  # address: valid body filed under the wrong digest
        path.rename(path.with_name("0" * 64 + ".json"))
    fresh = SurrogateStore(tmp_path)
    assert fresh.digests() == []
    assert fresh.surfaces() == []
    quarantined = list(tmp_path.glob("*" + QUARANTINE_SUFFIX))
    assert len(quarantined) == 1
