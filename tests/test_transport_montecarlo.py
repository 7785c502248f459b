"""Slab Monte Carlo: balance, moderation, albedo and shielding."""

import pytest

from repro.spectra.beamlines import rotax_spectrum
from repro.transport.api import TransportQuery, answer
from repro.transport.materials import (
    AIR,
    BORATED_POLYETHYLENE,
    CADMIUM,
    POLYETHYLENE,
    WATER,
)
from repro.transport.montecarlo import (
    Layer,
    ScalarTransportEngine,
    SlabGeometry,
)


def _batch_result(mode, material, thickness_cm, **query):
    """The batch engine's result for a query, surrogates bypassed."""
    return answer(
        TransportQuery(
            mode=mode,
            material=material,
            thickness_cm=thickness_cm,
            engine="batch",
            **query,
        ),
        store=None,
    ).result


def _albedo(material, thickness_cm, n_neutrons, seed):
    """Thermal albedo under a 1 MeV beam, and its standard error."""
    result = _batch_result(
        "albedo",
        material,
        thickness_cm,
        source_energy_ev=1.0e6,
        n_neutrons=n_neutrons,
        seed=seed,
    )
    return result.thermal_albedo(), result.thermal_albedo_stderr()


class TestGeometry:
    def test_total_thickness(self):
        geo = SlabGeometry(
            [Layer(WATER, 2.0), Layer(CADMIUM, 0.1)]
        )
        assert geo.total_thickness_cm == pytest.approx(2.1)

    def test_layer_lookup(self):
        geo = SlabGeometry(
            [Layer(WATER, 2.0), Layer(CADMIUM, 0.1)]
        )
        assert geo.layer_at(1.0) == 0
        assert geo.layer_at(2.05) == 1

    def test_layer_lookup_out_of_range(self):
        geo = SlabGeometry([Layer(WATER, 2.0)])
        with pytest.raises(ValueError):
            geo.layer_at(-0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SlabGeometry([])

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            Layer(WATER, 0.0)


def _fast_beam(material, thickness_cm, n_neutrons, seed):
    """The batch engine's result for a 1 MeV beam on one slab."""
    return _batch_result(
        "transmission",
        material,
        thickness_cm,
        source_energy_ev=1.0e6,
        n_neutrons=n_neutrons,
        seed=seed,
    )


class TestTransport:
    def test_balance_always_holds(self):
        result = _fast_beam(WATER, 5.0, n_neutrons=2000, seed=1)
        assert result.balance_check()

    def test_air_transmits_everything(self):
        result = _fast_beam(AIR, 10.0, n_neutrons=1000, seed=2)
        assert result.transmission_fraction() > 0.99

    def test_thick_water_stops_fast_beam(self):
        result = _fast_beam(WATER, 50.0, n_neutrons=1000, seed=3)
        assert result.transmitted_fast == 0

    def test_water_thermalizes(self):
        result = _fast_beam(WATER, 10.0, n_neutrons=2000, seed=4)
        thermal_out = (
            result.transmitted_thermal + result.reflected_thermal
        )
        assert thermal_out > 0.1 * result.source

    def test_bath_floor_respected(self):
        # No neutron ends below the bath energy: leaking thermals are
        # still classified thermal (sanity of the energy floor).
        result = _batch_result(
            "transmission",
            WATER,
            3.0,
            source_energy_ev=10.0,
            n_neutrons=500,
            seed=5,
        )
        assert result.balance_check()

    def test_requires_exactly_one_source(self):
        geo = SlabGeometry([Layer(WATER, 1.0)])
        transport = ScalarTransportEngine(geo)
        with pytest.raises(ValueError):
            transport.run(10)
        with pytest.raises(ValueError):
            transport.run(
                10,
                source_energy_ev=1.0,
                source_spectrum=rotax_spectrum(),
            )

    def test_rejects_bad_counts(self):
        geo = SlabGeometry([Layer(WATER, 1.0)])
        with pytest.raises(ValueError):
            ScalarTransportEngine(geo).run(0, source_energy_ev=1.0)

    def test_spectrum_source(self):
        result = _batch_result(
            "transmission",
            CADMIUM,
            0.1,
            source_spectrum=rotax_spectrum(),
            n_neutrons=500,
            seed=6,
        )
        assert result.balance_check()
        # Cadmium eats a thermal beam.
        assert result.absorption_fraction() > 0.9


class TestAlbedo:
    def test_water_albedo_grows_with_thickness(self):
        thin, _ = _albedo(
            WATER, 1.0, n_neutrons=2500, seed=7
        )
        thick, _ = _albedo(
            WATER, 8.0, n_neutrons=2500, seed=7
        )
        assert thick > thin

    def test_two_inches_water_band(self):
        albedo, stderr = _albedo(
            WATER, 5.08, n_neutrons=3000, seed=8
        )
        assert 0.08 < albedo < 0.35
        assert stderr < 0.02

    def test_borated_poly_reflects_fewer_thermals(self):
        # The boron eats the thermalized population before it leaves.
        plain, _ = _albedo(
            POLYETHYLENE, 5.0, n_neutrons=2500, seed=9
        )
        borated, _ = _albedo(
            BORATED_POLYETHYLENE, 5.0, n_neutrons=2500, seed=9
        )
        assert borated < plain


class TestShielding:
    def test_cadmium_blanks_thermal_beam(self):
        result = _batch_result(
            "transmission",
            CADMIUM,
            0.1,
            source_spectrum=rotax_spectrum(),
            n_neutrons=2000,
            seed=10,
        )
        assert result.thermal_transmission_fraction() < 0.01

    def test_thicker_shield_transmits_less(self):
        thin = _batch_result(
            "transmission",
            BORATED_POLYETHYLENE,
            1.0,
            source_spectrum=rotax_spectrum(),
            n_neutrons=2000,
            seed=11,
        )
        thick = _batch_result(
            "transmission",
            BORATED_POLYETHYLENE,
            6.0,
            source_spectrum=rotax_spectrum(),
            n_neutrons=2000,
            seed=11,
        )
        assert (
            thick.thermal_transmission_fraction()
            <= thin.thermal_transmission_fraction()
        )
