"""Cross-validation harness for the three transport engines.

Three independent implementations answer the same physics question:
the ``scalar`` Monte Carlo oracle, the vectorized ``batch`` Monte
Carlo engine, and the noise-free ``deterministic`` multigroup solver.
Every pair must agree channel by channel — transmitted/reflected
fractions per band, absorptions per material, total collisions — and
each comparison uses the tolerance its error model justifies:

* **batch vs scalar** — both are statistical estimates of the *same*
  distribution, so channels match under a two-proportion z test at
  ``_Z_MAX`` sigma.
* **deterministic vs either MC engine** — the deterministic answer
  has no variance, so it must sit within ``_K_SIGMA`` binomial
  standard errors of the MC estimate, plus ``_ABS_FLOOR`` absolute
  slack for channels the MC run barely populates (a one-count channel
  has a wildly misestimated sigma).  Collisions carry a
  ``_COLL_REL`` *relative* allowance on top of the Poisson band:
  collision counts are the channel most sensitive to the multigroup
  condensation bias (a ~1% within-group spectrum error compounds
  over ~15 scatters in a thick moderator).

All runs use fixed seeds, so every test here is deterministic: a
failure means two engines genuinely diverged, not that the dice were
unlucky.  ``TestBrokenEngineCanary`` proves the contract has teeth by
mis-condensing a cross section and watching the harness object.

Also pinned here: the batch determinism contract (same seed → same
result; tallies independent of ``batch_size``) and
the exact-tally regression for the scalar hot-spot fix (boundary
array hoisted out of the collision loop).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.spectra.beamlines import rotax_spectrum
from repro.transport.api import TransportQuery, answer
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import (
    AIR,
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    POLYETHYLENE,
    WATER,
)
from repro.transport.montecarlo import (
    Layer,
    ScalarTransportEngine,
    SlabGeometry,
)
from repro.transport.multigroup import DeterministicTransportEngine

#: MC-vs-MC gate.  Reject at 4 sigma: with ~10 channels over ~7
#: fixtures the chance of a false alarm is ~1e-3, and the seeds are
#: fixed anyway.
_Z_MAX = 4.0

#: Deterministic-vs-MC gate, fraction channels: the deterministic
#: value must lie within ``k`` binomial standard errors of the MC
#: estimate.  k = 5 at 20k histories leaves ~2x headroom over the
#: worst observed channel (absorbed in thick water, ~2.5 sigma of
#: condensation bias) without masking a real physics divergence.
_K_SIGMA = 5.0

#: Absolute slack for near-empty channels (MC sees 0-2 counts, so
#: the binomial sigma itself is noise).  10 counts at 20k histories.
_ABS_FLOOR = 5.0e-4

#: Deterministic-vs-MC gate, collisions: relative condensation-bias
#: allowance on top of the Poisson band (worst observed: 1.9% in
#: 5 cm water; air-gap noise is covered by the Poisson term).
_COLL_REL = 0.03

N_HISTORIES = 20_000

GEOMETRY_FIXTURES = [
    pytest.param(
        [Layer(WATER, 5.0)], {"source_energy_ev": 1.0e6},
        id="water-5cm-fast",
    ),
    pytest.param(
        [Layer(CONCRETE, 20.0)], {"source_energy_ev": 1.0e6},
        id="concrete-20cm-fast",
    ),
    pytest.param(
        [Layer(CADMIUM, 0.1)], {"source_spectrum": rotax_spectrum()},
        id="cadmium-sheet-rotax",
    ),
    pytest.param(
        [Layer(BORATED_POLYETHYLENE, 5.0)],
        {"source_spectrum": rotax_spectrum()},
        id="borated-poly-rotax",
    ),
    pytest.param(
        [Layer(WATER, 2.0), Layer(CADMIUM, 0.1),
         Layer(POLYETHYLENE, 3.0)],
        {"source_energy_ev": 1.0e6},
        id="water-cadmium-poly-stack",
    ),
    pytest.param(
        [Layer(AIR, 10.0)], {"source_energy_ev": 1.0e6},
        id="air-gap-fast",
    ),
    pytest.param(
        [Layer(WATER, 5.0)], {"source_energy_ev": 0.0253},
        id="water-5cm-thermal-source",
    ),
]


def _count_channels(result):
    """Per-channel event counts of a run, absorbed split by material."""
    channels = {
        name: getattr(result, name)
        for name in (
            "transmitted_thermal",
            "transmitted_epithermal",
            "transmitted_fast",
            "reflected_thermal",
            "reflected_epithermal",
            "reflected_fast",
            "absorbed",
        )
    }
    for material, count in result.absorbed_by_material.items():
        channels[f"absorbed[{material}]"] = count
    return channels


def _two_proportion_z(count_a, count_b, n):
    """Two-sided z statistic for equal binomial proportions."""
    pooled = (count_a + count_b) / (2.0 * n)
    variance = max(pooled * (1.0 - pooled), 0.0) * 2.0 / n
    if variance == 0.0:
        return 0.0 if count_a == count_b else math.inf
    return abs(count_a - count_b) / (n * math.sqrt(variance))


#: One run of each engine per fixture, shared across the whole
#: module: the MC runs dominate the suite's wall clock and every
#: comparison below reuses the same three results.
_RUN_CACHE = {}


def _fixture_key(layers, source):
    layer_key = tuple(
        (layer.material.name, layer.thickness_cm) for layer in layers
    )
    source_key = tuple(
        sorted(
            (name, "spectrum" if name == "source_spectrum" else value)
            for name, value in source.items()
        )
    )
    return layer_key, source_key


def _runs(layers, source):
    """Cached ``{engine: result}`` for one geometry fixture."""
    key = _fixture_key(layers, source)
    cached = _RUN_CACHE.get(key)
    if cached is None:
        geometry = SlabGeometry(layers)
        # The batch seed is drawn from a generator the way the
        # transport facade seeds the batch engine.
        batch_seed = int(np.random.default_rng(202).integers(0, 2**63))
        cached = _RUN_CACHE[key] = {
            "scalar": ScalarTransportEngine(
                geometry, rng=np.random.default_rng(101)
            ).run(N_HISTORIES, **source),
            "batch": BatchTransportEngine(geometry).run(
                N_HISTORIES, seed=batch_seed, **source
            ),
            "deterministic": DeterministicTransportEngine(
                geometry
            ).run(**source),
        }
    return cached


def _run_pair(layers, source):
    runs = _runs(layers, source)
    return runs["scalar"], runs["batch"]


def _assert_deterministic_close(det, mc, n):
    """The deterministic-vs-MC tolerance contract, one MC run.

    Fraction channels: ``|det - mc/n| <= _K_SIGMA * sigma +
    _ABS_FLOOR`` with the binomial ``sigma = sqrt(p(1-p)/n)``
    (floored at one count so empty channels still carry slack).
    Collisions: ``_COLL_REL`` relative plus a 6-sigma Poisson band.
    """
    channels = list(_FRACTION_CHANNELS)
    mc_counts = dict(mc.absorbed_by_material)
    det_fracs = dict(det.absorbed_by_material)
    for name in set(mc_counts) | set(det_fracs):
        channels.append(f"absorbed[{name}]")
    for channel in channels:
        if channel.startswith("absorbed["):
            name = channel[len("absorbed["):-1]
            p_mc = mc_counts.get(name, 0) / n
            p_det = det_fracs.get(name, 0.0)
        else:
            p_mc = getattr(mc, channel) / n
            p_det = getattr(det, channel)
        sigma = math.sqrt(max(p_mc * (1.0 - p_mc), 1.0 / n) / n)
        tolerance = _K_SIGMA * sigma + _ABS_FLOOR
        assert abs(p_det - p_mc) <= tolerance, (
            f"channel {channel}: deterministic={p_det:.6g}"
            f" mc={p_mc:.6g} tolerance={tolerance:.3g}"
        )
    mc_coll = mc.collisions / n
    coll_tol = (
        _COLL_REL * mc_coll
        + 6.0 * math.sqrt(max(mc.collisions, 1.0)) / n
        + 1.0e-4
    )
    assert abs(det.collisions - mc_coll) <= coll_tol, (
        f"collisions: deterministic={det.collisions:.6g}"
        f" mc={mc_coll:.6g} tolerance={coll_tol:.3g}"
    )


_FRACTION_CHANNELS = (
    "transmitted_thermal",
    "transmitted_epithermal",
    "transmitted_fast",
    "reflected_thermal",
    "reflected_epithermal",
    "reflected_fast",
    "absorbed",
)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_channel_tallies_agree(self, layers, source):
        scalar, batch = _run_pair(layers, source)
        scalar_counts = _count_channels(scalar)
        batch_counts = _count_channels(batch)
        for channel in set(scalar_counts) | set(batch_counts):
            z = _two_proportion_z(
                scalar_counts.get(channel, 0),
                batch_counts.get(channel, 0),
                N_HISTORIES,
            )
            assert z < _Z_MAX, (
                f"channel {channel}: scalar="
                f"{scalar_counts.get(channel, 0)} batch="
                f"{batch_counts.get(channel, 0)} z={z:.2f}"
            )

    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_collision_counts_agree(self, layers, source):
        """Total collisions are Poisson-scale equal.

        Per-history collision counts are overdispersed relative to
        Poisson (histories are multi-collision), so allow a 6-sigma
        band on the naive scale plus a small relative floor.
        """
        scalar, batch = _run_pair(layers, source)
        total = scalar.collisions + batch.collisions
        if total == 0:
            assert scalar.collisions == batch.collisions
            return
        z_scale = math.sqrt(total)
        tolerance = 6.0 * z_scale + 0.01 * total
        assert abs(scalar.collisions - batch.collisions) <= tolerance

    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_balance_holds_for_both_engines(self, layers, source):
        scalar, batch = _run_pair(layers, source)
        assert scalar.balance_check()
        assert batch.balance_check()
        assert scalar.source == batch.source == N_HISTORIES


class TestThreeEngineCrossValidation:
    """Deterministic solver vs both Monte Carlo engines, per fixture.

    The comparison is asymmetric by design: the deterministic value
    is exact for its (condensed) physics model, so the tolerance is
    purely the MC standard error plus the documented condensation
    allowances — see the module docstring for the k per channel.
    """

    @pytest.mark.parametrize("mc_engine", ["scalar", "batch"])
    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_deterministic_matches_mc(
        self, layers, source, mc_engine
    ):
        runs = _runs(layers, source)
        _assert_deterministic_close(
            runs["deterministic"], runs[mc_engine], N_HISTORIES
        )

    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_deterministic_balance_is_machine_tight(
        self, layers, source
    ):
        """No statistical slack: T + R + A = 1 to iteration tolerance."""
        det = _runs(layers, source)["deterministic"]
        assert det.balance_check()
        assert det.balance_residual <= 1.0e-6
        assert det.source == 1.0

    @pytest.mark.parametrize("layers,source", GEOMETRY_FIXTURES)
    def test_deterministic_layer_split_sums_to_absorbed(
        self, layers, source
    ):
        det = _runs(layers, source)["deterministic"]
        assert len(det.absorbed_by_layer) == len(layers)
        assert sum(det.absorbed_by_layer) == pytest.approx(
            det.absorbed, abs=1.0e-9
        )


class TestBrokenEngineCanary:
    """Prove the cross-validation harness actually rejects bad physics.

    A tolerance contract that never fires is indistinguishable from
    no contract; here the condensation step is deliberately broken
    (absorption tripled) and the harness must flag the divergence.
    """

    def test_miscondensed_absorption_is_caught(self, monkeypatch):
        from repro.transport.multigroup import solver as solver_module

        real_collapse = solver_module.collapse

        def broken_collapse(material, structure, bath_energy_ev,
                            points_per_group=8):
            table = real_collapse(
                material, structure, bath_energy_ev,
                points_per_group=points_per_group,
            )
            return dataclasses.replace(
                table,
                sigma_absorb_per_cm_g=(
                    table.sigma_absorb_per_cm_g * 3.0
                ),
            )

        monkeypatch.setattr(
            solver_module, "collapse", broken_collapse
        )
        det = DeterministicTransportEngine(
            SlabGeometry([Layer(WATER, 5.0)])
        ).run(source_energy_ev=1.0e6)
        mc = _runs(
            [Layer(WATER, 5.0)], {"source_energy_ev": 1.0e6}
        )["batch"]
        with pytest.raises(AssertionError):
            _assert_deterministic_close(det, mc, N_HISTORIES)


class TestBatchDeterminism:
    def test_same_seed_same_result(self):
        query = TransportQuery(
            mode="transmission",
            material=WATER,
            thickness_cm=5.0,
            source_energy_ev=1.0e6,
            n_neutrons=12_000,
            seed=33,
            engine="batch",
        )
        runs = [answer(query, store=None).result for _ in range(2)]
        assert runs[0] == runs[1]

    def test_same_seed_same_result_spectrum_source(self):
        engine = BatchTransportEngine(
            SlabGeometry([Layer(BORATED_POLYETHYLENE, 3.0)])
        )
        first = engine.run(
            9_000, source_spectrum=rotax_spectrum(), seed=77
        )
        second = engine.run(
            9_000, source_spectrum=rotax_spectrum(), seed=77
        )
        assert first == second

    def test_batch_size_invariance(self):
        """Tallies must not depend on sweep width: randomness is keyed
        to fixed-size seed streams, not to ``batch_size``."""
        geometry = SlabGeometry(
            [Layer(WATER, 2.0), Layer(CADMIUM, 0.1)]
        )
        engine = BatchTransportEngine(geometry)
        results = [
            engine.run(
                20_000,
                source_energy_ev=1.0e6,
                seed=5,
                batch_size=batch_size,
            )
            for batch_size in (1, 4096, 8192, 1_000_000)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_different_seeds_differ(self):
        engine = BatchTransportEngine(SlabGeometry([Layer(WATER, 5.0)]))
        a = engine.run(8_000, source_energy_ev=1.0e6, seed=1)
        b = engine.run(8_000, source_energy_ev=1.0e6, seed=2)
        assert a != b

    def test_validation(self):
        engine = BatchTransportEngine(SlabGeometry([Layer(WATER, 1.0)]))
        with pytest.raises(ValueError):
            engine.run(0, source_energy_ev=1.0)
        with pytest.raises(ValueError):
            engine.run(10)
        with pytest.raises(ValueError):
            engine.run(10, source_energy_ev=-1.0)
        with pytest.raises(ValueError):
            engine.run(10, source_energy_ev=1.0, batch_size=0)
        with pytest.raises(ValueError):
            BatchTransportEngine(
                SlabGeometry([Layer(WATER, 1.0)]), bath_energy_ev=0.0
            )
        with pytest.raises(ValueError):
            TransportQuery(
                mode="transmission",
                material=WATER,
                thickness_cm=1.0,
                source_energy_ev=1.0,
                engine="warp",
            )


class TestScalarHoistRegression:
    """Exact-tally goldens recorded from the pre-hoist scalar engine.

    The fix moved ``geometry.boundaries()`` (a fresh copy per
    collision) and the double ``layer_at`` call out of the collision
    loop; it must not change a single draw, so the tallies must be
    *identical* to the old implementation, not just statistically
    close.
    """

    def _signature(self, result):
        return (
            result.source,
            result.transmitted_thermal,
            result.transmitted_epithermal,
            result.transmitted_fast,
            result.reflected_thermal,
            result.reflected_epithermal,
            result.reflected_fast,
            result.absorbed,
            result.collisions,
            dict(result.absorbed_by_material),
        )

    def test_water_slab_golden(self):
        transport = ScalarTransportEngine(
            SlabGeometry([Layer(WATER, 5.0)]),
            rng=np.random.default_rng(123),
        )
        result = transport.run(2000, source_energy_ev=1.0e6)
        assert self._signature(result) == (
            2000, 203, 83, 0, 317, 1210, 0, 187, 31811,
            {"water": 187},
        )

    def test_layered_stack_golden(self):
        transport = ScalarTransportEngine(
            SlabGeometry(
                [Layer(WATER, 2.0), Layer(CADMIUM, 0.1),
                 Layer(POLYETHYLENE, 3.0)]
            ),
            rng=np.random.default_rng(7),
        )
        result = transport.run(1500, source_energy_ev=1.0e6)
        assert self._signature(result) == (
            1500, 56, 36, 0, 97, 913, 0, 398, 16770,
            {"cadmium": 358, "polyethylene": 25, "water": 15},
        )

    def test_spectrum_source_golden(self):
        transport = ScalarTransportEngine(
            SlabGeometry([Layer(BORATED_POLYETHYLENE, 4.0)]),
            rng=np.random.default_rng(42),
        )
        result = transport.run(1500, source_spectrum=rotax_spectrum())
        assert self._signature(result) == (
            1500, 0, 0, 0, 291, 0, 0, 1209, 3382,
            {"borated polyethylene": 1209},
        )
