"""Deterministic multigroup discrete-ordinates slab solver.

The third transport engine: same :class:`SlabGeometry`/material inputs
as the Monte Carlo engines, zero statistical noise, zero RNG use.

Numerical scheme
----------------

* **Angle** — Gauss-Legendre S_N quadrature on ``mu in [-1, 1]``
  (weights sum to 2); isotropic emission puts ``q / 2`` per unit
  ``mu``.
* **Space** — step-characteristics differencing:
  ``psi_out = a psi_in + (1 - a) s`` with ``a = exp(-tau)`` and the
  balance-consistent cell average ``psi_bar = r psi_in + (1 - r) s``,
  ``r = (1 - a) / tau`` — positive fluxes for any cell thickness and
  *machine-exact* particle balance per cell.  Because the sweep is
  affine in the emission density, each group's sweep is assembled
  *once* into a response matrix (scalar flux and boundary-current
  response to a unit isotropic emission per cell); a source
  iteration is then a single ``C x C`` mat-vec instead of a
  cell-by-cell sweep.  Each layer's mesh is uniform and its cross
  sections constant, so the optical distance between two of its
  cells is the number of cells between them times the layer's cell
  ``tau``, and attenuation across layer boundaries composes layer by
  layer.  A layer's own block of the response is then a symmetric
  Toeplitz matrix: one ``exp(-d tau)`` kernel per ordinate
  (``O(M C)`` exponentials, long paths underflowing benignly to
  zero), summed into one column and filled by one copy.  Only a
  stack of several layers builds cross-layer blocks, each in
  ``O(M C_A C_B)`` for layers of ``C_A`` and ``C_B`` cells.  A
  group's response is built when that group is solved and dropped
  once it is: a solve holds one ``C x C`` response at a time.
* **Energy** — the collapsed scattering matrix has no upscatter above
  the thermal bath, so groups are solved once each in descending
  energy order; only the *within-group* source iteration iterates,
  with Aitken extrapolation to tame the near-unity spectral radius of
  the bath group in good moderators (``c ~ 0.99`` for water).
* **Sources** — the uncollided beam is attenuated with the
  *continuous-energy* cross sections (no condensation error) and its
  first collisions are distributed into groups with the continuous
  scatter kernel; only the collided flux is multigroup.  That kernel
  depends on no thickness, so it is memoised per material and source
  next to the condensed tables
  (:func:`~repro.transport.multigroup.condense.source_kernel`).

The iteration budget surfaces through
:class:`~repro.runtime.errors.ConvergenceError`; solver effort is
observable via the ``transport.deterministic`` span and the
``repro_deterministic_*`` metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.obs import core as obs
from repro.physics.constants import BOLTZMANN_EV_PER_K, ROOM_TEMPERATURE_K
from repro.runtime.errors import (
    ConfigurationError,
    ConvergenceError,
    require_positive_int,
)
from repro.spectra.spectrum import Spectrum
from repro.transport.montecarlo import SlabGeometry, _classify
from repro.transport.multigroup.condense import (
    CollapsedMaterial,
    collapse,
    source_kernel,
)
from repro.transport.multigroup.groups import (
    GroupStructure,
    fine_structure,
)
from repro.transport.tallies import TransportResult

__all__ = ["DeterministicTransportEngine"]

#: Target optical thickness per mesh cell (at the most opaque group).
_TAU_TARGET = 0.25

#: Mesh-size guard rails: cells per layer and per stack.
_MIN_CELLS_PER_LAYER = 2
_MAX_TOTAL_CELLS = 512


def _sum_ordinates(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)``, adding the ordinates in index order."""
    total = np.array(terms[0])
    for term in terms[1:]:
        total += term
    return total


class _LayerSweep:
    """One layer's sweep coefficients in one group, per ordinate.

    Every cell of a layer has the same thickness and cross sections,
    so one value per ordinate describes them all.

    Args:
        weights: quadrature weights of the positive half-set.
        mu: direction cosines of the half-set.
        sigma_t: the layer's total cross section in the group, 1/cm.
        tau: optical thickness of each of its cells, per ordinate.
        start: index of the layer's first cell in the stack.
        n_cells: the layer's cell count.
    """

    def __init__(
        self,
        weights: np.ndarray,
        mu: np.ndarray,
        sigma_t: float,
        tau: np.ndarray,
        start: int,
        n_cells: int,
    ) -> None:
        self.n_cells = n_cells
        self.cells = slice(start, start + n_cells)
        twice_sigma = 2.0 * sigma_t
        # r = (1 - a) / tau via expm1: stable down to tau -> 0.
        avg_weight = -np.expm1(-tau) / tau
        self.weighted = weights * avg_weight
        # Emitted angular flux leaving the source cell, per unit
        # emission density: (1 - a) / (2 sigma_t).
        self.emit = (1.0 - np.exp(-tau)) / twice_sigma
        self.leaving = (weights * mu) * self.emit
        # Self-term (1 - r) / (2 sigma_t), once per direction.
        self.self_term = 2.0 * _sum_ordinates(
            weights * (1.0 - avg_weight) / twice_sigma
        )
        # kernel[m, d]: transmission across d whole cells, up to the
        # whole layer; long paths underflow cleanly to zero.
        self.kernel = np.exp(-(tau[:, None] * np.arange(n_cells + 1)))

    def toeplitz(self) -> np.ndarray:
        """The layer's own response block: entry ``[i, j]`` depends
        only on ``|i - j|``, the same in both sweep directions."""
        column = np.empty(self.n_cells)
        column[0] = self.self_term
        column[1:] = _sum_ordinates(
            self.weighted[:, None]
            * self.kernel[:, : self.n_cells - 1]
            * self.emit[:, None]
        )
        mirrored = np.concatenate((column[:0:-1], column))
        return sliding_window_view(mirrored, self.n_cells)[::-1]


class DeterministicTransportEngine:
    """S_N multigroup solver over a :class:`SlabGeometry`.

    Built once per geometry (cross sections per group and cell,
    optical thicknesses per group, layer and ordinate); :meth:`run`
    is then a pure function of the source — no RNG anywhere, so
    repeat solves are bit-identical.

    Args:
        geometry: the slab stack.
        bath_energy_ev: thermal-bath energy (moderation floor;
            defaults to kT at room temperature, matching the MC
            engines).
        structure: group structure; defaults to the fine
            band-aligned grid of :func:`fine_structure`.
        sn_order: Gauss-Legendre quadrature order (positive even —
            an odd order would place an ordinate at ``mu = 0``).
        tolerance: relative convergence tolerance on the scalar flux
            of each within-group iteration.
        max_iterations: iteration budget *per group*; exhausting it
            raises :class:`~repro.runtime.errors.ConvergenceError`.
    """

    def __init__(
        self,
        geometry: SlabGeometry,
        bath_energy_ev: float = BOLTZMANN_EV_PER_K * ROOM_TEMPERATURE_K,
        structure: Optional[GroupStructure] = None,
        sn_order: int = 8,
        tolerance: float = 1.0e-9,
        max_iterations: int = 2000,
    ) -> None:
        require_positive_int("sn_order", sn_order)
        if sn_order % 2 != 0:
            raise ConfigurationError(
                f"sn_order must be even, got {sn_order}"
            )
        require_positive_int("max_iterations", max_iterations)
        if not 0.0 < tolerance < 1.0:
            raise ConfigurationError(
                f"tolerance must be in (0, 1), got {tolerance}"
            )
        self.geometry = geometry
        self.bath_energy_ev = float(bath_energy_ev)
        self.structure = (
            structure if structure is not None else fine_structure()
        )
        self.sn_order = sn_order
        self.tolerance = float(tolerance)
        self.max_iterations = max_iterations

        self.tables: Tuple[CollapsedMaterial, ...] = tuple(
            collapse(
                layer.material, self.structure, self.bath_energy_ev
            )
            for layer in geometry.layers
        )
        self.bath_group = self.tables[0].bath_group

        nodes, weights = np.polynomial.legendre.leggauss(sn_order)
        positive = nodes > 0.0
        #: Positive half-set; the negative half mirrors it.
        self.mu = nodes[positive]
        self.weights = weights[positive]

        self._build_mesh()
        self._build_tables()

    # -- geometry discretization ---------------------------------------

    def _build_mesh(self) -> None:
        """Choose per-layer cell counts from optical thickness."""
        layers = self.geometry.layers
        opacities = [
            float(np.max(table.sigma_total_per_cm_g()))
            for table in self.tables
        ]
        counts = [
            max(
                int(np.ceil(layer.thickness_cm * sig / _TAU_TARGET)),
                _MIN_CELLS_PER_LAYER,
            )
            for layer, sig in zip(layers, opacities)
        ]
        total = sum(counts)
        if total > _MAX_TOTAL_CELLS:
            scale = _MAX_TOTAL_CELLS / total
            counts = [
                max(int(n * scale), _MIN_CELLS_PER_LAYER)
                for n in counts
            ]
        dx_cm: List[float] = []
        cell_layer: List[int] = []
        for index, (layer, n_cells) in enumerate(
            zip(layers, counts)
        ):
            dx_cm.extend([layer.thickness_cm / n_cells] * n_cells)
            cell_layer.extend([index] * n_cells)
        self.layer_cells = tuple(counts)
        self.dx_cm = np.asarray(dx_cm)
        self.cell_layer = np.asarray(cell_layer, dtype=int)
        self.n_cells = self.dx_cm.size

    def _build_tables(self) -> None:
        """Precompute per-cell cross sections and per-layer optical
        thicknesses."""
        n_groups = self.structure.n_groups
        sigma_t = np.empty((n_groups, self.n_cells))
        sigma_a = np.empty((n_groups, self.n_cells))
        sigma_s = np.empty((n_groups, self.n_cells))
        in_group = np.empty((n_groups, self.n_cells))
        for index, table in enumerate(self.tables):
            cells = self.cell_layer == index
            sigma_t[:, cells] = table.sigma_total_per_cm_g()[:, None]
            sigma_a[:, cells] = table.sigma_absorb_per_cm_g[:, None]
            sigma_s[:, cells] = table.sigma_scatter_per_cm_g[:, None]
            # In-group scattering probability per (group, cell).
            in_group[:, cells] = np.diagonal(table.transfer)[:, None]
        self.sigma_t = sigma_t
        self.sigma_a = sigma_a
        self.sigma_s = sigma_s
        self._in_group = in_group
        # A layer's cells share one thickness and one set of cross
        # sections, hence one optical thickness per (group, ordinate):
        # tau[g, l, m] for layer l.
        self._layer_starts = np.cumsum((0,) + self.layer_cells[:-1])
        first = self._layer_starts
        self._layer_tau = np.maximum(
            sigma_t[:, first, None]
            * self.dx_cm[None, first, None]
            / self.mu[None, None, :],
            1.0e-12,
        )

    def _group_response(
        self, g: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep operator of group ``g`` as a response matrix.

        Returns ``(flux, right, left)`` where ``flux[i, j]`` is the
        scalar flux in cell ``i`` per unit isotropic emission density
        in cell ``j`` and ``right``/``left`` are the outgoing
        partial-current responses at the far/entry faces.  Both sweep
        directions share the same ``|mu|`` half-set, so the negative
        sweep is the positive one on the mirrored cell axis.

        The optical distance between two cells of one layer is the
        number of cells between them times the layer's cell
        thickness ``tau``; across layers the attenuations compose
        layer by layer, in stack order.  A layer's own block is then
        a symmetric Toeplitz matrix: one path kernel
        ``exp(-d tau)`` per ordinate, summed over the ordinates into
        one column and filled by one copy.  A block between two
        layers is built from the outer product of their edge paths.
        Each term is ``((w_m r_m) path_m) e_m``, the ordinates added
        in index order: the plain dense form the tests keep as the
        reference, which this build must equal bit for bit.
        """
        sweeps = [
            _LayerSweep(
                self.weights,
                self.mu,
                float(self.sigma_t[g, start]),
                self._layer_tau[g, index],
                start,
                n_cells,
            )
            for index, (start, n_cells) in enumerate(
                zip(self._layer_starts, self.layer_cells)
            )
        ]
        flux = np.empty((self.n_cells, self.n_cells))
        right = np.empty(self.n_cells)
        left = np.empty(self.n_cells)
        # Transmission of the layers before this one, in stack order.
        ahead = np.ones(self.mu.size)
        for index, sweep in enumerate(sweeps):
            flux[sweep.cells, sweep.cells] = sweep.toeplitz()
            # Path from each of its cells to the near face of each
            # later layer: its own cells beyond, then the layers
            # between, composed one layer at a time.
            beyond = sweep.kernel[:, sweep.n_cells - 1 :: -1]
            for other in sweeps[index + 1 :]:
                path = other.kernel[:, : other.n_cells, None] * (
                    beyond[:, None, :]
                )
                # Emission here seen there (positive direction), and
                # there seen here (negative direction).
                flux[other.cells, sweep.cells] = _sum_ordinates(
                    other.weighted[:, None, None]
                    * path
                    * sweep.emit[:, None, None]
                )
                flux[sweep.cells, other.cells] = _sum_ordinates(
                    sweep.weighted[:, None, None]
                    * path
                    * other.emit[:, None, None]
                ).T
                beyond = beyond * other.kernel[:, -1, None]
            # Outgoing partial currents: emission attenuated through
            # the cells beyond it (far face) or before it (entry face).
            right[sweep.cells] = _sum_ordinates(
                sweep.leaving[:, None] * beyond
            )
            before = ahead[:, None] * sweep.kernel[:, : sweep.n_cells]
            left[sweep.cells] = _sum_ordinates(
                sweep.leaving[:, None] * before
            )
            ahead = ahead * sweep.kernel[:, -1]
        return flux, right, left

    # -- public API ----------------------------------------------------

    def run(
        self,
        source_energy_ev: Optional[float] = None,
        source_spectrum: Optional[Spectrum] = None,
    ) -> TransportResult:
        """Solve the slab for a normal-incidence beam source.

        Exactly one of ``source_energy_ev`` / ``source_spectrum``
        must be given — the same contract as the MC engines' ``run``,
        minus the history count.  The answer is a
        ``deterministic-transport`` :class:`TransportResult`:
        fractions per source neutron, with no statistical error.

        Raises:
            repro.runtime.errors.ConvergenceError: if any group's
                source iteration exhausts ``max_iterations``.
            RuntimeError: if the answer fails its
                ``balance_check``, as the MC engines raise on a
                broken tally (also under ``python -O``).
        """
        if (source_energy_ev is None) == (source_spectrum is None):
            raise ConfigurationError(
                "give exactly one of source_energy_ev/source_spectrum"
            )
        if source_energy_ev is not None and source_energy_ev <= 0.0:
            raise ConfigurationError(
                f"source energy must be positive,"
                f" got {source_energy_ev}"
            )
        with obs.span(
            "transport.deterministic",
            groups=self.structure.n_groups,
            cells=self.n_cells,
            sn_order=self.sn_order,
        ):
            result = self._solve(source_energy_ev, source_spectrum)
            obs.inc("repro_deterministic_solves_total")
            obs.inc(
                "repro_deterministic_iterations_total",
                result.iterations,
            )
        if not result.balance_check():
            raise RuntimeError("neutron balance violated")
        return result

    # -- solve pipeline ------------------------------------------------

    def _solve(
        self,
        source_energy_ev: Optional[float],
        source_spectrum: Optional[Spectrum],
    ) -> TransportResult:
        layers = self.geometry.layers
        n_layers = len(layers)
        n_groups = self.structure.n_groups
        kernels = [
            source_kernel(
                layer.material,
                self.structure,
                self.bath_energy_ev,
                source_energy_ev,
                source_spectrum,
            )
            for layer in layers
        ]
        energies = kernels[0].energies_ev
        weights = kernels[0].weights

        # ---- uncollided beam, continuous in energy -------------------
        # sig_*[k, l]: continuous cross sections per source energy
        # and layer.
        sig_t = np.stack(
            [kernel.sigma_total_per_cm for kernel in kernels], axis=1
        )
        sig_a = np.stack(
            [kernel.sigma_absorb_per_cm for kernel in kernels], axis=1
        )
        sig_t_cells = sig_t[:, self.cell_layer]
        tau_edges = np.concatenate(
            [
                np.zeros((energies.size, 1)),
                np.cumsum(
                    sig_t_cells * self.dx_cm[None, :], axis=1
                ),
            ],
            axis=1,
        )
        survival = np.exp(-tau_edges)
        # First collisions per (energy point, cell), per source
        # neutron.
        first_collisions = survival[:, :-1] - survival[:, 1:]
        absorb_frac = np.where(
            sig_t_cells > 0.0,
            sig_a[:, self.cell_layer] / np.maximum(
                sig_t_cells, 1.0e-300
            ),
            0.0,
        )
        weighted_fc = first_collisions * weights[:, None]
        fc_absorbed_cells = (weighted_fc * absorb_frac).sum(axis=0)
        fc_scattered = weighted_fc * (1.0 - absorb_frac)
        collisions = float(weighted_fc.sum())

        transmitted = {"thermal": 0.0, "epithermal": 0.0, "fast": 0.0}
        reflected = {"thermal": 0.0, "epithermal": 0.0, "fast": 0.0}
        for e, w, through in zip(
            energies, weights, survival[:, -1]
        ):
            transmitted[_classify(float(e))] += float(w * through)

        # First-collision source density per (group, cell): the
        # continuous scatter kernel of each layer's material maps the
        # source energies into groups.
        qfc = np.zeros((n_groups, self.n_cells))
        for index in range(n_layers):
            cells = np.flatnonzero(self.cell_layer == index)
            if cells.size == 0:
                continue
            rows = kernels[index].outgoing
            qfc[:, cells] = (
                rows.T @ fc_scattered[:, cells]
            ) / self.dx_cm[None, cells]

        # ---- collided flux: descending-energy group sweep ------------
        phi = np.zeros((n_groups, self.n_cells))
        inscatter = np.zeros((n_groups, self.n_cells))
        current_right = np.zeros(n_groups)
        current_left = np.zeros(n_groups)
        iterations = 0
        bath = self.bath_group
        for g in range(n_groups - 1, bath - 1, -1):
            q_fixed = qfc[g] + inscatter[g]
            if float(q_fixed.max()) <= 0.0:
                continue
            phi_g, right, left, iters = self._solve_group(g, q_fixed)
            iterations += iters
            phi[g] = phi_g
            current_right[g] = right
            current_left[g] = left
            if g == bath:
                continue
            # Bank this group's downscatter for the groups below.
            for index, table in enumerate(self.tables):
                cells = self.cell_layer == index
                rate = self.sigma_s[g, cells] * phi_g[cells]
                inscatter[bath:g, cells] += (
                    table.transfer[g, bath:g][:, None] * rate[None, :]
                )

        # ---- tallies -------------------------------------------------
        absorbed_cells = fc_absorbed_cells + (
            self.sigma_a * phi
        ).sum(axis=0) * self.dx_cm
        collisions += float(
            ((self.sigma_t * phi) * self.dx_cm[None, :]).sum()
        )
        absorbed_by_layer = [0.0] * n_layers
        absorbed_by_material: Dict[str, float] = {}
        for index, layer in enumerate(layers):
            amount = float(
                absorbed_cells[self.cell_layer == index].sum()
            )
            absorbed_by_layer[index] = amount
            name = layer.material.name
            absorbed_by_material[name] = (
                absorbed_by_material.get(name, 0.0) + amount
            )
        for g in range(n_groups):
            band = self.structure.band_of_group(g)
            transmitted[band] += float(current_right[g])
            reflected[band] += float(current_left[g])
        absorbed = float(absorbed_cells.sum())
        balance_residual = abs(
            1.0
            - (
                sum(transmitted.values())
                + sum(reflected.values())
                + absorbed
            )
        )
        return TransportResult(
            kind="deterministic-transport",
            source=1.0,
            transmitted_thermal=transmitted["thermal"],
            transmitted_epithermal=transmitted["epithermal"],
            transmitted_fast=transmitted["fast"],
            reflected_thermal=reflected["thermal"],
            reflected_epithermal=reflected["epithermal"],
            reflected_fast=reflected["fast"],
            absorbed=absorbed,
            collisions=collisions,
            absorbed_by_material=absorbed_by_material,
            absorbed_by_layer=tuple(absorbed_by_layer),
            iterations=iterations,
            balance_residual=balance_residual,
        )

    def _solve_group(
        self, g: int, q_fixed: np.ndarray
    ) -> Tuple[np.ndarray, float, float, int]:
        """Converge the within-group source iteration for group ``g``.

        Returns ``(phi, J_right, J_left, iterations)`` where the
        partial currents come from a final consistency sweep off the
        converged flux.

        Raises:
            repro.runtime.errors.ConvergenceError: when
                ``max_iterations`` sweeps do not reach ``tolerance``.
        """
        flux_of, right_of, left_of = self._group_response(g)
        reemit = self._in_group[g] * self.sigma_s[g]

        phi = np.zeros(self.n_cells)
        prev_diff = None
        prev_rho = None
        cooldown = 0
        for iteration in range(1, self.max_iterations + 1):
            phi_new = flux_of @ (q_fixed + reemit * phi)
            diff = float(np.abs(phi_new - phi).max())
            scale = max(float(phi_new.max()), 1.0e-300)
            if diff <= self.tolerance * scale:
                emission = q_fixed + reemit * phi_new
                return (
                    flux_of @ emission,
                    float(right_of @ emission),
                    float(left_of @ emission),
                    iteration,
                )
            rho = (
                diff / prev_diff
                if prev_diff is not None and prev_diff > 0.0
                else None
            )
            if cooldown > 0:
                cooldown -= 1
            elif (
                rho is not None
                and prev_rho is not None
                and 0.2 < rho < 0.99999
                and abs(rho - prev_rho) < 0.01 * rho
            ):
                # Aitken/Lyusternik: jump along the dominant error
                # mode, then let the transient settle before judging
                # the ratio again.
                phi_new = phi_new + (rho / (1.0 - rho)) * (
                    phi_new - phi
                )
                np.maximum(phi_new, 0.0, out=phi_new)
                cooldown = 3
                rho = None
                diff = None
            prev_rho = rho
            prev_diff = diff
            phi = phi_new
        raise ConvergenceError(
            f"group {g} source iteration did not reach"
            f" tolerance {self.tolerance:g} within"
            f" {self.max_iterations} sweeps"
        )
