"""The deterministic solver's response build and source-kernel memo.

The solver builds each group's response from one path kernel per
layer.  Inside a layer the optical distance between two cells is the
number of cells between them times the layer's cell thickness, and
across layers the attenuations compose layer by layer, in stack order.
``_plain_response`` is that definition written out densely, cell pair
by cell pair, and summed over the ordinates by one ``einsum``; every
matrix must equal it to the last bit, so a failure here names the
matrix rather than a converged answer several iterations later.  A one-layer response must be exactly symmetric
Toeplitz.  ``_blocked_response`` is the build that preceded it, which
summed per-cell optical thicknesses along the path; it must agree to
rounding, 1e-11 relative on every entry above 1e-280.

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


def _ordinate_sum(terms):
    """Sum over the leading (ordinate) axis, in index order."""
    total = terms[0].copy()
    for term in terms[1:]:
        total = total + term
    return total


def _cell_tables(engine, g):
    """Per-cell ``(tau, emit, r)`` of group ``g``, shape ``(M, C)``."""
    sigma_t = engine.sigma_t[g]
    tau = np.maximum(
        sigma_t[None, :] * engine.dx_cm[None, :] / engine.mu[:, None],
        1.0e-12,
    )
    emit = (1.0 - np.exp(-tau)) / (2.0 * sigma_t)[None, :]
    avg_weight = -np.expm1(-tau) / tau
    return tau, emit, avg_weight


def _diagonal(engine, g, avg_weight):
    """The self-term ``2 sum_m w_m (1 - r_m) / (2 sigma_t)`` per cell."""
    return 2.0 * _ordinate_sum(
        engine.weights[:, None]
        * (1.0 - avg_weight)
        / (2.0 * engine.sigma_t[g])[None, :]
    )


def _plain_response(engine, g):
    """Group ``g``'s response from the layer-wise optical distance.

    ``between[l][i, j]`` counts the cells of layer ``l`` strictly
    between cells ``i`` and ``j``; the path is the product, in layer
    order, of ``exp(-between * tau_l)``.  The boundary currents use
    the cells after (far face) or before (entry face) each cell.
    """
    n_cells = engine.n_cells
    tau, emit, avg_weight = _cell_tables(engine, g)
    index = np.arange(n_cells)
    low = np.minimum.outer(index, index)
    high = np.maximum.outer(index, index)
    path = np.ones((engine.mu.size, n_cells, n_cells))
    after = np.ones((engine.mu.size, n_cells))
    before = np.ones((engine.mu.size, n_cells))
    for layer in range(len(engine.layer_cells)):
        inside = engine.cell_layer == layer
        tau_layer = tau[:, np.flatnonzero(inside)[0]]
        # preceding[k]: cells of the layer with index below k.
        preceding = np.concatenate(([0], np.cumsum(inside)))
        between = np.maximum(
            preceding[high] - preceding[np.minimum(low + 1, n_cells)], 0
        )
        path = path * np.exp(-(between[None] * tau_layer[:, None, None]))
        cells_after = preceding[-1] - preceding[index + 1]
        after = after * np.exp(-(cells_after[None] * tau_layer[:, None]))
        before = before * np.exp(
            -(preceding[index][None] * tau_layer[:, None])
        )
    off_diagonal = 1.0 - np.eye(n_cells)
    flux = np.einsum(
        "m,mi,mij,mj->ij",
        engine.weights,
        avg_weight,
        path * off_diagonal,
        emit,
    )
    flux[np.diag_indices(n_cells)] = _diagonal(engine, g, avg_weight)
    leaving = (engine.weights * engine.mu)[:, None] * emit
    right = _ordinate_sum(leaving * after)
    left = _ordinate_sum(leaving * before)
    return flux, right, left


def _blocked_response(engine, g, block_rows=64):
    """Group ``g``'s response as the previous build made it.

    The path between cells ``j < i`` was ``exp(-(T[i-1] - T[j]))``
    over the running sum ``T`` of per-cell optical thicknesses, built
    in blocks of rows over the strict lower triangle.
    """
    tau, emit, avg_weight = _cell_tables(engine, g)
    weighted = engine.weights[:, None] * avg_weight
    total_tau = np.cumsum(tau, axis=1)
    entry_tau = total_tau - tau
    n_cells = engine.n_cells
    block_lower = np.tri(block_rows, block_rows - 1, k=-1)
    flux = np.zeros((n_cells, n_cells))
    for start in range(0, n_cells, block_rows):
        stop = min(start + block_rows, n_cells)
        rows = stop - start
        cols = stop - 1
        path = total_tau[:, None, :cols] - entry_tau[:, start:stop, None]
        np.minimum(path, 0.0, out=path)
        np.exp(path, out=path)
        path[:, :, start:] *= block_lower[:rows, : rows - 1]
        term = weighted[:, start:stop, None] * path
        term *= emit[:, None, :cols]
        flux[start:stop, :cols] = _ordinate_sum(term)
        term = weighted[:, None, :cols] * path
        term *= emit[:, start:stop, None]
        flux[:cols, start:stop] += _ordinate_sum(term).T
    flux[np.diag_indices(n_cells)] += _diagonal(engine, g, avg_weight)
    leaving = (engine.weights * engine.mu)[:, None] * emit
    through = np.exp(-(total_tau[:, -1][:, None] - total_tau))
    right = (leaving * through).sum(axis=0)
    left = (leaving * np.exp(-entry_tau)).sum(axis=0)
    return flux, right, left


def _layer(material, n_cells):
    """A layer the mesh splits into exactly ``n_cells`` cells."""
    table = collapse(material, fine_structure(), _BATH_EV)
    opacity = float(np.max(table.sigma_total_per_cm_g()))
    return Layer(material, (n_cells - 0.5) * solver._TAU_TARGET / opacity)


#: Stacks by name: the smallest mesh, both sides of the old build's
#: first 64-row block edge, the largest shield-serve rung, the mesh
#: cap, and two- and three-layer stacks.
_STACKS = {
    "2": [(WATER, 2)],
    "63": [(CONCRETE, 63)],
    "64": [(WATER, 64)],
    "65": [(BORATED_POLYETHYLENE, 65)],
    "207": [(WATER, 150), (CADMIUM, 57)],
    "376": [(BORATED_POLYETHYLENE, 376)],
    "512": [(CONCRETE, 512)],
    "3-layer": [(WATER, 40), (CADMIUM, 7), (CONCRETE, 30)],
}


def _engine(stack):
    layers = [_layer(material, n) for material, n in _STACKS[stack]]
    engine = DeterministicTransportEngine(SlabGeometry(layers))
    assert engine.layer_cells == tuple(n for _, n in _STACKS[stack])
    return engine


def _groups(engine):
    """The bath group, the top group a 1 MeV source solves, and one
    between."""
    bath = engine.bath_group
    top = engine.structure.group_index(1.0e6)
    return (bath, (bath + top) // 2, top)


@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_responses_equal_the_dense_einsum(stack):
    engine = _engine(stack)
    for g in _groups(engine):
        built = engine._group_response(g)
        reference = _plain_response(engine, g)
        for name, actual, expected in zip(
            ("flux", "right", "left"), built, reference
        ):
            assert np.array_equal(actual, expected), (g, name)


@pytest.mark.parametrize("stack", ["2", "65", "376", "512"])
def test_a_one_layer_response_is_symmetric_toeplitz(stack):
    engine = _engine(stack)
    n_cells = engine.n_cells
    index = np.arange(n_cells)
    separation = np.abs(index[:, None] - index[None, :])
    for g in _groups(engine):
        flux, right, left = engine._group_response(g)
        assert np.array_equal(flux, flux.T), g
        assert np.array_equal(flux, flux[0][separation]), g
        # Mirrored cells see the two faces alike.
        assert np.array_equal(right, left[::-1]), g


@pytest.mark.parametrize("stack", sorted(_STACKS))
def test_responses_agree_with_the_blocked_build(stack):
    engine = _engine(stack)
    for g in _groups(engine):
        built = engine._group_response(g)
        previous = _blocked_response(engine, g)
        for name, actual, expected in zip(
            ("flux", "right", "left"), built, previous
        ):
            resolved = np.abs(expected) > 1.0e-280
            assert resolved.any(), (g, name)
            relative = np.abs(actual - expected)[resolved] / np.abs(
                expected[resolved]
            )
            assert relative.max() <= 1.0e-11, (g, name, relative.max())


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
