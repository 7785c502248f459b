"""Spectrum container: construction, integrals, algebra, sampling.

Property-based invariants: band additivity, scaling linearity, and
sampled energies respecting the grid support.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spectra.spectrum import Spectrum, default_energy_grid


@pytest.fixture
def flat_spectrum():
    """Lethargy-flat spectrum: 1 unit of flux per group."""
    edges = default_energy_grid(1.0, 1.0e6, groups_per_decade=4)
    return Spectrum(edges, np.ones(edges.size - 1), name="flat")


class TestConstruction:
    def test_rejects_decreasing_edges(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 0.5, 2.0], [1.0, 1.0])

    def test_rejects_nonpositive_edges(self):
        with pytest.raises(ValueError):
            Spectrum([0.0, 1.0], [1.0])

    def test_rejects_wrong_flux_length(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 2.0, 4.0], [1.0])

    def test_rejects_negative_flux(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 2.0], [-1.0])

    def test_arrays_read_only(self, flat_spectrum):
        with pytest.raises(ValueError):
            flat_spectrum.group_flux[0] = 5.0

    def test_attributes_cannot_be_rebound(self, flat_spectrum):
        # The name is part of the surrogate source key, so renaming a
        # shared instance would silently change every later lookup.
        with pytest.raises(AttributeError):
            flat_spectrum.name = "renamed"
        with pytest.raises(AttributeError):
            flat_spectrum.group_flux = np.zeros(flat_spectrum.n_groups)
        with pytest.raises(AttributeError):
            flat_spectrum.edges = flat_spectrum.edges * 2.0
        assert flat_spectrum.name == "flat"

    def test_default_grid_resolution(self):
        grid = default_energy_grid(1.0, 1.0e3, groups_per_decade=10)
        assert grid.size == 31

    def test_default_grid_rejects_bad_range(self):
        with pytest.raises(ValueError):
            default_energy_grid(10.0, 1.0)


class TestIntegrals:
    def test_total_flux(self, flat_spectrum):
        assert flat_spectrum.total_flux() == pytest.approx(
            flat_spectrum.n_groups
        )

    def test_full_band_equals_total(self, flat_spectrum):
        assert flat_spectrum.band_flux(
            1.0, 1.0e6
        ) == pytest.approx(flat_spectrum.total_flux())

    def test_band_additivity(self, flat_spectrum):
        mid = 100.0
        left = flat_spectrum.band_flux(1.0, mid)
        right = flat_spectrum.band_flux(mid, 1.0e6)
        assert left + right == pytest.approx(
            flat_spectrum.total_flux()
        )

    def test_partial_group_overlap(self, flat_spectrum):
        # Half a group in lethargy gets half its flux.
        lo = flat_spectrum.edges[0]
        hi = flat_spectrum.edges[1]
        half = np.sqrt(lo * hi)
        assert flat_spectrum.band_flux(lo, half) == pytest.approx(0.5)

    def test_empty_band(self, flat_spectrum):
        assert flat_spectrum.band_flux(1.0e7, 1.0e8) == 0.0

    def test_band_rejects_inverted(self, flat_spectrum):
        with pytest.raises(ValueError):
            flat_spectrum.band_flux(100.0, 10.0)

    def test_mean_energy_within_support(self, flat_spectrum):
        mean = flat_spectrum.mean_energy_ev()
        assert 1.0 < mean < 1.0e6


class TestLethargy:
    def test_flat_spectrum_flat_in_lethargy(self, flat_spectrum):
        leth = flat_spectrum.lethargy_density()
        assert np.allclose(leth, leth[0])

    def test_lethargy_times_width_recovers_flux(self, flat_spectrum):
        widths = np.log(
            flat_spectrum.edges[1:] / flat_spectrum.edges[:-1]
        )
        recon = flat_spectrum.lethargy_density() * widths
        assert np.allclose(recon, flat_spectrum.group_flux)


class TestAlgebra:
    def test_scaling(self, flat_spectrum):
        doubled = flat_spectrum.scaled(2.0)
        assert doubled.total_flux() == pytest.approx(
            2.0 * flat_spectrum.total_flux()
        )

    def test_scaling_rejects_negative(self, flat_spectrum):
        with pytest.raises(ValueError):
            flat_spectrum.scaled(-1.0)

    def test_normalized(self, flat_spectrum):
        assert flat_spectrum.normalized(
            7.5
        ).total_flux() == pytest.approx(7.5)

    def test_normalize_empty_raises(self):
        s = Spectrum([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            s.normalized()

    def test_addition(self, flat_spectrum):
        total = flat_spectrum + flat_spectrum.scaled(3.0)
        assert total.total_flux() == pytest.approx(
            4.0 * flat_spectrum.total_flux()
        )

    def test_addition_rejects_mismatched_grids(self, flat_spectrum):
        other_edges = default_energy_grid(
            1.0, 1.0e6, groups_per_decade=5
        )
        other = Spectrum(other_edges, np.ones(other_edges.size - 1))
        with pytest.raises(ValueError):
            flat_spectrum + other


class TestFoldingAndSampling:
    def test_fold_constant_sigma(self, flat_spectrum):
        rate = flat_spectrum.fold(lambda e: np.ones_like(e) * 2.0)
        assert rate == pytest.approx(2.0 * flat_spectrum.total_flux())

    def test_sample_energies_in_support(self, flat_spectrum):
        rng = np.random.default_rng(0)
        e = flat_spectrum.sample_energies(rng, 500)
        assert e.min() >= flat_spectrum.edges[0]
        assert e.max() <= flat_spectrum.edges[-1]

    def test_sample_zero(self, flat_spectrum):
        rng = np.random.default_rng(0)
        assert flat_spectrum.sample_energies(rng, 0).size == 0

    def test_sample_rejects_negative(self, flat_spectrum):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            flat_spectrum.sample_energies(rng, -1)

    def test_sample_respects_weights(self):
        # All flux in one group: all samples land there.
        edges = [1.0, 10.0, 100.0]
        s = Spectrum(edges, [0.0, 5.0])
        rng = np.random.default_rng(1)
        e = s.sample_energies(rng, 200)
        assert (e >= 10.0).all()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=3,
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_total_equals_band_sum_property(self, fluxes):
        edges = np.logspace(0, len(fluxes), len(fluxes) + 1)
        s = Spectrum(edges, fluxes)
        mid = float(np.sqrt(edges[0] * edges[-1]))
        assert s.band_flux(edges[0], mid) + s.band_flux(
            mid, edges[-1]
        ) == pytest.approx(s.total_flux(), rel=1e-9, abs=1e-9)
