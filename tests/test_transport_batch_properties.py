"""Property-based tests for the vectorized batch transport engine.

Hypothesis drives randomized layer stacks and source spectra through
``BatchTransportEngine`` and asserts the invariants that must hold for
*every* input, not just the committed fixtures:

* neutron balance — every source neutron is transmitted, reflected or
  absorbed;
* tally non-negativity;
* tallies are invariant under the ``batch_size`` sweep width;
* the elastic-scattering kernel never produces an energy below the
  thermal-bath floor and never gains energy;
* the vectorized isotope pick equals the scalar oracle's
  ``Material.dominant_scatter_mass`` for every material.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spectra.spectrum import Spectrum
from repro.transport.batch import (
    BatchTransportEngine,
    _build_scatter_table,
    scattered_energies_ev,
)
from repro.transport.materials import (
    AIR,
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    POLYETHYLENE,
    SILICON,
    WATER,
)
from repro.transport.montecarlo import Layer, SlabGeometry
from tests.test_transport_answers import ALL_MATERIALS

_MATERIALS = [
    WATER,
    CONCRETE,
    POLYETHYLENE,
    BORATED_POLYETHYLENE,
    CADMIUM,
    AIR,
    SILICON,
]

_layer = st.builds(
    Layer,
    st.sampled_from(_MATERIALS),
    st.floats(min_value=0.05, max_value=8.0),
)

_stack = st.lists(_layer, min_size=1, max_size=4)

_energy = st.floats(min_value=1.0e-2, max_value=2.0e7)


def _tally_counts(result):
    return [
        result.transmitted_thermal,
        result.transmitted_epithermal,
        result.transmitted_fast,
        result.reflected_thermal,
        result.reflected_epithermal,
        result.reflected_fast,
        result.absorbed,
        result.collisions,
        *result.absorbed_by_material.values(),
    ]


class TestEngineInvariants:
    @given(layers=_stack, energy_ev=_energy, seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_balance_and_nonnegativity(self, layers, energy_ev, seed):
        engine = BatchTransportEngine(SlabGeometry(layers))
        result = engine.run(
            300, source_energy_ev=energy_ev, seed=seed
        )
        assert result.balance_check()
        assert (
            result.transmitted + result.reflected + result.absorbed
            == 300
        )
        assert all(count >= 0 for count in _tally_counts(result))
        assert sum(result.absorbed_by_material.values()) == (
            result.absorbed
        )

    @given(
        layers=_stack,
        energy_ev=_energy,
        seed=st.integers(0, 2**32),
        batch_size=st.sampled_from([1, 100, 4096, 10**6]),
    )
    @settings(max_examples=15, deadline=None)
    def test_batch_size_invariance(
        self, layers, energy_ev, seed, batch_size
    ):
        engine = BatchTransportEngine(SlabGeometry(layers))
        reference = engine.run(
            300, source_energy_ev=energy_ev, seed=seed
        )
        other = engine.run(
            300,
            source_energy_ev=energy_ev,
            seed=seed,
            batch_size=batch_size,
        )
        assert reference == other

    @given(
        group_flux=st.lists(
            st.floats(min_value=0.0, max_value=1.0e4),
            min_size=4,
            max_size=4,
        ).filter(lambda flux: sum(flux) > 0.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_spectrum_sources_balance(self, group_flux, seed):
        spectrum = Spectrum(
            [1.0e-3, 1.0, 1.0e3, 1.0e6, 1.0e9], group_flux
        )
        engine = BatchTransportEngine(
            SlabGeometry([Layer(WATER, 2.0), Layer(CADMIUM, 0.05)])
        )
        result = engine.run(
            200, source_spectrum=spectrum, seed=seed
        )
        assert result.balance_check()
        assert all(count >= 0 for count in _tally_counts(result))


class TestScatterKernel:
    @given(
        energies=st.lists(
            st.floats(min_value=1.0e-6, max_value=1.0e8),
            min_size=1,
            max_size=64,
        ),
        mass_number=st.integers(min_value=1, max_value=240),
        u_seed=st.integers(0, 2**32),
        bath_energy_ev=st.floats(min_value=1.0e-4, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_floor_and_no_upscatter(
        self, energies, mass_number, u_seed, bath_energy_ev
    ):
        """Outgoing energies respect the bath floor and never exceed
        the incident energy (elastic downscatter only)."""
        energies_arr = np.asarray(energies)
        u = np.random.default_rng(u_seed).random(energies_arr.size)
        masses = np.full(energies_arr.size, mass_number)
        out = scattered_energies_ev(
            energies_arr, masses, u, bath_energy_ev
        )
        assert np.all(out >= bath_energy_ev)
        assert np.all(
            out <= np.maximum(energies_arr, bath_energy_ev) + 1e-12
        )

    @given(u=st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=40, deadline=None)
    def test_hydrogen_spans_full_range(self, u):
        """For hydrogen (alpha = 0) the outgoing energy is u * E,
        clipped below at the bath floor."""
        out = scattered_energies_ev(
            np.array([1.0e6]), np.array([1]), np.array([u]), 1.0e-30
        )
        assert out[0] == max(1.0e6 * u, 1.0e-30)


def _pick_boundaries(material):
    """Variates where the scalar pick may change its answer: each
    element boundary ``cum / total`` and the first and last isotope
    boundary ``(m + cum) / 997`` inside it, each with its float
    neighbours, plus 0.0."""
    weights = [
        nuc.number_density * nuc.elem.sigma_scatter_b
        for nuc in material.nuclides
    ]
    total = sum(weights)
    points = [0.0]
    acc = 0.0
    for nuc, weight in zip(material.nuclides, weights):
        acc += weight
        points.append(acc / total)
        iso_acc = 0.0
        for iso in nuc.elem.isotopes:
            iso_acc += iso.abundance
            points += [iso_acc / 997.0, (996.0 + iso_acc) / 997.0]
    points = np.asarray(points)
    near = np.concatenate(
        [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)]
    )
    return near[near < 1.0]


def _scalar_picks(material, u):
    return [float(material.dominant_scatter_mass(float(v))) for v in u]


class TestIsotopePick:
    @pytest.mark.parametrize(
        "material", ALL_MATERIALS, ids=lambda material: material.name
    )
    def test_matches_scalar_pick_at_draws_and_boundaries(self, material):
        table = _build_scatter_table(material)
        u = np.concatenate(
            [
                np.random.default_rng(2020).random(20_000),
                _pick_boundaries(material),
            ]
        )
        picked = table.mass_numbers.take(table.pick(u))
        assert picked.tolist() == _scalar_picks(material, u)

    @given(
        material=st.sampled_from(ALL_MATERIALS),
        u=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            min_size=1,
            max_size=64,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_pick_on_drawn_values(self, material, u):
        table = _build_scatter_table(material)
        u = np.asarray(u)
        picked = table.mass_numbers.take(table.pick(u))
        assert picked.tolist() == _scalar_picks(material, u)
