"""Spectrum container: construction, integrals, algebra, sampling.

Property-based invariants: band additivity, scaling linearity, and
sampled energies respecting the grid support.  The source sampler is
held bit for bit to ``Generator.choice``, the form it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spectra.beamlines import chipir_spectrum, rotax_spectrum
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_flux(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum([1.0, 2.0, 3.0], [1.0, bad])

    @pytest.mark.parametrize(
        "edges",
        [[1.0, math.nan, 3.0], [1.0, 2.0, math.inf]],
        ids=["nan-edge", "inf-edge"],
    )
    def test_rejects_non_finite_edges(self, edges):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(edges, [1.0, 1.0])

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


def _choice_oracle(spectrum, rng, n):
    """The sampler's former form: ``choice``'s group pick, then a
    lethargy-flat energy in the group."""
    probs = spectrum.group_flux / spectrum.total_flux()
    groups = rng.choice(spectrum.n_groups, size=n, p=probs)
    lo = spectrum.edges[groups]
    hi = spectrum.edges[groups + 1]
    return lo * (hi / lo) ** rng.random(n)


def _assert_matches_choice(spectrum, seed, n):
    """Same energies, bit for bit, and the same next generator draw."""
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = _choice_oracle(spectrum, expected_rng, n)
    actual = spectrum.sample_energies(actual_rng, n)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
    assert actual_rng.random() == expected_rng.random()


def _most_cdf_steps_in_a_bucket(spectrum, buckets=4096):
    """The most cdf steps one guide bucket holds (0 when none does)."""
    cdf = (spectrum.group_flux / spectrum.total_flux()).cumsum()
    cdf /= cdf[-1]
    keys = np.arange(buckets + 1) / buckets
    first = cdf.searchsorted(keys[:-1], side="right")
    last = cdf.searchsorted(keys[1:], side="left")
    return int((last - first).max())


class _GivenUniforms:
    """Hands out given uniforms in order, as ``Generator.random``
    would hand out its own."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._at = 0

    def random(self, n):
        out = self._values[self._at:self._at + n].copy()
        self._at += n
        return out


def _with_zero_groups(lead, body, trail):
    fluxes = [0.0] * lead + body + [0.0] * trail
    edges = np.logspace(-3.0, 7.0, len(fluxes) + 1)
    return Spectrum(edges, fluxes)


_SIZES = [0, 1, 4096, 20000]


def _equal_fluxes():
    # Every cdf value falls on a bucket boundary.
    return _with_zero_groups(0, [1.0] * 8, 0)


class TestSamplerMatchesChoice:
    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize(
        "spectrum",
        [rotax_spectrum, chipir_spectrum, _equal_fluxes],
        ids=["rotax", "chipir", "steps-on-bucket-edges"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 31337])
    def test_fixed_spectra(self, spectrum, n, seed):
        _assert_matches_choice(spectrum(), seed, n)

    @given(
        lead=st.integers(min_value=0, max_value=4),
        body=st.lists(
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda fluxes: sum(fluxes) > 0.0),
        trail=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from(_SIZES),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_flux_groups_anywhere(self, lead, body, trail, seed, n):
        _assert_matches_choice(_with_zero_groups(lead, body, trail), seed, n)

    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize("group", [0, 5, 11])
    def test_single_non_zero_group(self, group, n):
        fluxes = [0.0] * 12
        fluxes[group] = 3.5
        spectrum = _with_zero_groups(0, fluxes, 0)
        _assert_matches_choice(spectrum, 11, n)
        if n:
            energies = spectrum.sample_energies(np.random.default_rng(3), n)
            assert (energies >= spectrum.edges[group]).all()
            assert (energies <= spectrum.edges[group + 1]).all()

    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clustered_tiny_probabilities(self, seed, n):
        # Two runs of 200 groups, each group about a twentieth of a
        # bucket wide, between three heavy groups: ten buckets of
        # twenty cdf steps per run, and tens of draws land in them.
        tiny = [1.0 / (4096 * 20)] * 200
        heavy = (1.0 - 2 * sum(tiny)) / 3
        fluxes = [heavy] + tiny + [heavy] + tiny + [heavy]
        spectrum = _with_zero_groups(0, fluxes, 0)
        assert _most_cdf_steps_in_a_bucket(spectrum) >= 19
        _assert_matches_choice(spectrum, seed, n)
        if n == 20000:
            energies = spectrum.sample_energies(
                np.random.default_rng(seed), n
            )
            in_runs = (
                (energies >= spectrum.edges[1])
                & (energies <= spectrum.edges[201])
            ) | (
                (energies >= spectrum.edges[202])
                & (energies <= spectrum.edges[402])
            )
            assert in_runs.sum() > 10

    @pytest.mark.parametrize(
        "spectrum",
        [
            rotax_spectrum,
            _equal_fluxes,
            lambda: _with_zero_groups(
                2, [3.0, 1e-9, 1e-9, 1e-9, 0.0, 5.0], 2
            ),
        ],
        ids=["rotax", "steps-on-bucket-edges", "clustered"],
    )
    def test_uniforms_on_every_cdf_step_and_bucket_edge(self, spectrum):
        # ``choice`` gives uniform ``u`` the group
        # ``cdf.searchsorted(u, side="right")``; random draws almost
        # never land exactly on a step, so these uniforms do.
        spectrum = spectrum()
        cdf = (spectrum.group_flux / spectrum.total_flux()).cumsum()
        cdf /= cdf[-1]
        keys = np.concatenate([cdf[cdf < 1.0], np.arange(4096) / 4096])
        u = np.concatenate(
            [keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        groups = cdf.searchsorted(u, side="right")
        within = np.linspace(0.0, 1.0, u.size, endpoint=False)
        lo = spectrum.edges[groups]
        hi = spectrum.edges[groups + 1]
        expected = lo * (hi / lo) ** within
        actual = spectrum.sample_energies(
            _GivenUniforms(np.concatenate([u, within])), u.size
        )
        assert actual.tobytes() == expected.tobytes()

    def test_overflowing_total_is_refused_like_choice(self):
        spectrum = Spectrum([1.0, 2.0, 3.0], [1e308, 1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                _choice_oracle(spectrum, np.random.default_rng(0), 4)
            with pytest.raises(ValueError, match="overflows"):
                spectrum.sample_energies(np.random.default_rng(0), 4)
