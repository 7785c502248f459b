"""Analytic transport cross-checks against the Monte Carlo."""

import numpy as np
import pytest

from repro.spectra.beamlines import rotax_spectrum
from repro.transport.analytic import (
    absorber_transmission,
    diffusion_coefficient_cm,
    diffusion_length_cm,
    uncollided_transmission,
)
from repro.transport.api import TransportQuery, answer
from repro.transport.materials import AIR, CADMIUM, WATER


class TestClosedForms:
    def test_zero_thickness_transmits_all(self):
        assert uncollided_transmission(WATER, 0.0, 1.0e6) == 1.0
        assert absorber_transmission(CADMIUM, 0.0, 0.0253) == 1.0

    def test_uncollided_below_absorber_form(self):
        # Sigma_t >= Sigma_a always.
        for x in (0.1, 1.0, 5.0):
            assert uncollided_transmission(
                WATER, x, 0.0253
            ) <= absorber_transmission(WATER, x, 0.0253)

    def test_exponential_composition(self):
        t1 = uncollided_transmission(WATER, 1.0, 1.0e4)
        t2 = uncollided_transmission(WATER, 2.0, 1.0e4)
        assert t2 == pytest.approx(t1 * t1)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            uncollided_transmission(WATER, -1.0, 1.0)

    def test_diffusion_length_water_textbook(self):
        # Textbook thermal diffusion length of water: ~2.8 cm; our
        # simplified library lands within ~20 %.
        assert diffusion_length_cm(WATER) == pytest.approx(
            2.8, rel=0.25
        )

    def test_diffusion_coefficient_positive(self):
        assert diffusion_coefficient_cm(WATER, 0.0253) > 0.0

    def test_invalid_energy_rejected(self):
        with pytest.raises(ValueError):
            diffusion_length_cm(WATER, energy_ev=-1.0)


class TestMcAgreement:
    def test_cadmium_mc_matches_absorber_form(self):
        """Cadmium in the thermal band: absorption dominates, so the
        MC transmission should agree with exp(-Sigma_a x)."""
        thickness = 0.02  # thin enough for measurable transmission
        mc = answer(
            TransportQuery(
                mode="transmission",
                material=CADMIUM,
                thickness_cm=thickness,
                source_spectrum=rotax_spectrum(),
                n_neutrons=4000,
                seed=5,
                engine="batch",
            ),
            store=None,
        ).result
        # Fold the analytic form over the sampled spectrum energies.
        rng = np.random.default_rng(5)
        energies = rotax_spectrum().sample_energies(rng, 4000)
        analytic = float(
            np.mean(
                [
                    absorber_transmission(CADMIUM, thickness, e)
                    for e in energies
                ]
            )
        )
        assert mc.thermal_transmission_fraction() == pytest.approx(
            analytic, abs=0.05
        )

    def test_air_mc_matches_unity(self):
        mc = answer(
            TransportQuery(
                mode="transmission",
                material=AIR,
                thickness_cm=10.0,
                source_spectrum=rotax_spectrum(),
                n_neutrons=1000,
                seed=6,
                engine="batch",
            ),
            store=None,
        ).result
        assert mc.transmission_fraction() > 0.99
