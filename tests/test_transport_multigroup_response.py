"""The deterministic solver's response build and source-kernel memo.

The solver builds each group's response matrix in blocks of rows over
the strict lower triangle.  ``_reference_response`` is the dense
full-square einsum form that build replaced; every matrix must equal
it to the last bit, so a failure here names the matrix rather than a
converged answer several iterations later.  The cell counts cross the
block edges.

The source-kernel memo must be keyed on content: equal materials and
spectra share an entry however they were built, a spectrum that
differs in one group flux does not, and a solve served from the memo
equals a cold one bit for bit.
"""

import numpy as np
import pytest

from repro.physics.constants import (
    BOLTZMANN_EV_PER_K,
    ROOM_TEMPERATURE_K,
)
from repro.spectra.beamlines import rotax_spectrum
from repro.spectra.spectrum import Spectrum
from repro.transport.materials import (
    BORATED_POLYETHYLENE,
    CADMIUM,
    CONCRETE,
    WATER,
    Material,
)
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.multigroup import (
    DeterministicTransportEngine,
    clear_collapse_cache,
    collapse,
    condense,
    fine_structure,
    solver,
)

_BATH_EV = BOLTZMANN_EV_PER_K * ROOM_TEMPERATURE_K


def _reference_response(engine, g):
    """Group ``g``'s response as one dense einsum per direction."""
    tau = engine._tau[g]
    atten = engine._atten[g]
    avg_weight = engine._avg_weight[g]
    emit = (1.0 - atten) / (2.0 * engine.sigma_t[g])[None, :]
    total_tau = np.cumsum(tau, axis=1)
    depth = total_tau[:, None, :] - (total_tau - tau)[:, :, None]
    path = np.exp(np.minimum(depth, 0.0))
    lower = np.tril(np.ones((engine.n_cells, engine.n_cells)), k=-1)
    masked = path * lower[None, :, :]
    flux = np.einsum(
        "m,mi,mij,mj->ij", engine.weights, avg_weight, masked, emit
    )
    flux += np.einsum(
        "m,mi,mji,mj->ij", engine.weights, avg_weight, masked, emit
    )
    diag = (
        engine.weights[:, None]
        * (1.0 - avg_weight)
        / (2.0 * engine.sigma_t[g])[None, :]
    ).sum(axis=0)
    flux[np.diag_indices(engine.n_cells)] += 2.0 * diag
    through = np.exp(-(total_tau[:, -1][:, None] - total_tau))
    right = (
        (engine.weights * engine.mu)[:, None] * emit * through
    ).sum(axis=0)
    back = np.exp(-(total_tau - tau))
    left = (
        (engine.weights * engine.mu)[:, None] * emit * back
    ).sum(axis=0)
    return flux, right, left


def _layer(material, n_cells):
    """A layer the mesh splits into exactly ``n_cells`` cells."""
    table = collapse(material, fine_structure(), _BATH_EV)
    opacity = float(np.max(table.sigma_total_per_cm_g()))
    return Layer(material, (n_cells - 0.5) * solver._TAU_TARGET / opacity)


_BLOCK = solver._BLOCK_ROWS

#: Stacks by their cell counts: the smallest mesh, both sides of the
#: first block edge, about 200 cells over two materials, the largest
#: shield-serve rung and the mesh cap.
_STACKS = {
    2: [(WATER, 2)],
    _BLOCK - 1: [(CONCRETE, _BLOCK - 1)],
    _BLOCK: [(WATER, _BLOCK)],
    _BLOCK + 1: [(BORATED_POLYETHYLENE, _BLOCK + 1)],
    207: [(WATER, 150), (CADMIUM, 57)],
    376: [(BORATED_POLYETHYLENE, 376)],
    512: [(CONCRETE, 512)],
}


@pytest.mark.parametrize("n_cells", sorted(_STACKS))
def test_responses_equal_the_dense_einsum(n_cells):
    layers = [_layer(material, n) for material, n in _STACKS[n_cells]]
    engine = DeterministicTransportEngine(SlabGeometry(layers))
    assert engine.n_cells == n_cells
    bath = engine.bath_group
    # The top group a 1 MeV source solves, and one between.
    top = engine.structure.group_index(1.0e6)
    for g in (bath, (bath + top) // 2, top):
        built = engine._group_response(g)
        reference = _reference_response(engine, g)
        for name, actual, expected in zip(
            ("flux", "right", "left"), built, reference
        ):
            assert np.array_equal(actual, expected), (g, name)


def _solve(layers, **source):
    engine = DeterministicTransportEngine(SlabGeometry(layers))
    return engine.run(**source)


class TestSourceKernelMemo:
    def setup_method(self):
        clear_collapse_cache()

    def teardown_method(self):
        clear_collapse_cache()

    def test_warm_solve_equals_cold_solve(self):
        layers = [Layer(WATER, 3.0), Layer(CADMIUM, 0.05)]
        _solve(layers, source_spectrum=rotax_spectrum())
        assert len(condense._SOURCE_KERNEL_CACHE) == 2
        warm = _solve(layers, source_spectrum=rotax_spectrum())
        clear_collapse_cache()
        assert not condense._SOURCE_KERNEL_CACHE
        cold = _solve(layers, source_spectrum=rotax_spectrum())
        assert warm.to_dict() == cold.to_dict()

    def test_equal_materials_and_spectra_share_an_entry(self):
        _solve([Layer(WATER, 2.0)], source_spectrum=rotax_spectrum())
        water = Material("water", 1.0, {"H": 2, "O": 1})
        rotax = rotax_spectrum(edges=rotax_spectrum().edges)
        assert water is not WATER and rotax is not rotax_spectrum()
        _solve([Layer(water, 3.0)], source_spectrum=rotax)
        assert len(condense._SOURCE_KERNEL_CACHE) == 1

    def test_a_spectrum_differing_in_one_group_has_its_own_entry(self):
        rotax = rotax_spectrum()
        flux = rotax.group_flux.copy()
        g = int(np.argmax(flux))
        flux[g] *= 1.5
        changed = Spectrum(rotax.edges, flux, name=rotax.name)
        first = _solve([Layer(WATER, 2.0)], source_spectrum=rotax)
        second = _solve([Layer(WATER, 2.0)], source_spectrum=changed)
        assert len(condense._SOURCE_KERNEL_CACHE) == 2
        assert first.transmitted != second.transmitted

    def test_a_stack_reads_one_entry_per_material(self):
        layers = [Layer(WATER, 1.0), Layer(CADMIUM, 0.05), Layer(WATER, 1.0)]
        _solve(layers, source_energy_ev=1.0e6)
        entries = condense._SOURCE_KERNEL_CACHE
        assert len(entries) == 2
        for kernel in entries.values():
            assert not kernel.outgoing.flags.writeable
            assert not kernel.sigma_total_per_cm.flags.writeable

    def test_the_memo_stays_bounded(self):
        size = condense._SOURCE_KERNEL_CACHE_SIZE
        for k in range(size + 3):
            _solve([Layer(WATER, 0.5)], source_energy_ev=1.0 + k)
            assert 0 < len(condense._SOURCE_KERNEL_CACHE) <= size
