"""The typed transport facade: ``TransportQuery`` -> ``TransportAnswer``.

One front door for every transport question in the repo.  Callers
state *what* they need — the physics (mode, material, thickness,
source), an accuracy target, and an engine policy — and the facade
negotiates *how*: serve from a certified surrogate surface iff the
query is inside its envelope and the certified bound meets the
target, else cascade to a live engine.  Every answer is stamped with
:class:`Provenance` (engine actually used, error bound, artifact
digest, degraded flags), so downstream layers never have to guess
where a number came from.

The live-engine cascade policy (:func:`pick_live_engine`) is shared
by the studies scheduler and the service circuit breaker — the single
source of truth for "batch is unavailable, what now?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.obs import core as obs
from repro.runtime.errors import ConfigurationError
from repro.spectra.spectrum import Spectrum
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import Material
from repro.transport.montecarlo import (
    Layer,
    ScalarTransportEngine,
    SlabGeometry,
)
from repro.transport.multigroup.solver import (
    DeterministicTransportEngine,
)
from repro.transport.surrogate.store import SurrogateStore
from repro.transport.surrogate.surface import (
    HEADLINE,
    mono_source_key,
    spectrum_source_key,
)

__all__ = [
    "ENGINE_POLICIES",
    "LIVE_CASCADE",
    "AccuracyTarget",
    "Provenance",
    "TransportAnswer",
    "TransportQuery",
    "answer",
    "cascade_for",
    "coerce_policy",
    "configure",
    "default_store",
    "pick_live_engine",
    "set_default_store",
]

#: Every engine policy a query may request.  The first two are
#: negotiation policies (may resolve to any live engine); the last
#: three name a live engine directly.
ENGINE_POLICIES = (
    "auto",
    "surrogate",
    "batch",
    "deterministic",
    "scalar",
)

#: The shared live-engine downgrade order: batch MC, then the
#: noise-free multigroup solver, then the scalar oracle as the
#: always-works floor.  Studies and the service both cascade through
#: this exact sequence (fixing the old batch->scalar shortcut).  The
#: order is one of preference, not of cost: a deterministic solve is
#: not always cheaper than the batch run it stands in for.  Under the
#: ROTAX source on a 2-vCPU host it cost 0.4-0.8 of a 20 000-history
#: batch run on the study's water (10 cm) and concrete (30 cm)
#: shields but 1.0-2.0 times a 4096-history one, and 7-150 times a
#: batch run of either size on cadmium (0.1 cm) and borated
#: polyethylene (5 cm).
LIVE_CASCADE = ("batch", "deterministic", "scalar")


def coerce_policy(value: str) -> str:
    """Normalise an engine policy string.

    Raises:
        ConfigurationError: on an unknown policy.
    """
    name = str(value).lower()
    if name not in ENGINE_POLICIES:
        raise ConfigurationError(
            f"unknown engine policy {value!r};"
            f" allowed: {ENGINE_POLICIES}"
        )
    return name


def cascade_for(requested: str) -> Tuple[str, ...]:
    """Live engines to try, in order, for a requested policy.

    Negotiation policies (``auto``/``surrogate``) fall back through
    the full cascade; a named live engine starts the cascade at
    itself (never silently upgrades).
    """
    requested = coerce_policy(requested)
    if requested in LIVE_CASCADE:
        return LIVE_CASCADE[LIVE_CASCADE.index(requested):]
    return LIVE_CASCADE


def pick_live_engine(
    requested: str,
    blocked: FrozenSet[str] = frozenset(),
    budget_pressure: bool = False,
) -> Tuple[str, str]:
    """Choose the live engine to run and why it differs (if it does).

    Args:
        requested: engine policy of the query.
        blocked: live engines currently unavailable (open breakers).
        budget_pressure: the caller is behind budget — skip the
            requested engine for the next one in the cascade when
            there is a fallback to take.  That saves time only where
            the fallback is the cheaper engine for the query, which
            the cascade order does not promise (see
            :data:`LIVE_CASCADE`).

    Returns:
        ``(engine, reason)`` — ``reason`` is ``""`` when the pick is
        the requested engine itself, else the downgrade cause
        (``"budget-pressure"`` or ``"breaker-open"``).
    """
    order = cascade_for(requested)
    reason = ""
    for engine in order:
        if (
            budget_pressure
            and engine == requested
            and len(order) > 1
        ):
            reason = "budget-pressure"
            continue
        if engine in blocked:
            reason = reason or "breaker-open"
            continue
        return engine, reason
    # Everything is blocked: run the floor anyway (the scalar oracle
    # has no shared state to protect) and say why.
    return order[-1], reason or "breaker-open"


@dataclass(frozen=True)
class AccuracyTarget:
    """What the caller needs to be true of the answer.

    Attributes:
        rel_err: maximum acceptable relative error on the headline
            value (with a small absolute floor for near-zero
            channels — see ``ABS_SERVE_FLOOR``).
        confidence: minimum statistical coverage of the bound.
    """

    rel_err: float = 0.05
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_err <= 1.0:
            raise ConfigurationError(
                f"rel_err must be in (0, 1], got {self.rel_err}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1),"
                f" got {self.confidence}"
            )


@dataclass(frozen=True)
class TransportQuery:
    """One transport question, stated declaratively.

    Attributes:
        mode: ``"transmission"`` or ``"albedo"``.
        material: slab material.
        thickness_cm: slab thickness.
        source_spectrum: incident spectrum (transmission queries).
        source_energy_ev: monoenergetic source (albedo queries).
        n_neutrons: MC histories for live MC engines.
        seed: transport seed for live MC engines.
        engine: engine policy (:data:`ENGINE_POLICIES`).
        accuracy: the accuracy target gating surrogate serving.
    """

    mode: str
    material: Material
    thickness_cm: float
    source_spectrum: Optional[Spectrum] = None
    source_energy_ev: Optional[float] = None
    n_neutrons: int = 20_000
    seed: int = 2020
    engine: str = "auto"
    accuracy: AccuracyTarget = field(default_factory=AccuracyTarget)

    def __post_init__(self) -> None:
        if self.mode not in HEADLINE:
            raise ConfigurationError(
                f"unknown query mode {self.mode!r};"
                f" allowed: {tuple(HEADLINE)}"
            )
        if (self.source_spectrum is None) == (
            self.source_energy_ev is None
        ):
            raise ConfigurationError(
                "give exactly one of"
                " source_spectrum/source_energy_ev"
            )
        if self.thickness_cm <= 0.0:
            raise ConfigurationError(
                f"thickness must be positive,"
                f" got {self.thickness_cm}"
            )
        if self.n_neutrons < 1:
            raise ConfigurationError(
                f"n_neutrons must be >= 1, got {self.n_neutrons}"
            )
        object.__setattr__(
            self, "engine", coerce_policy(self.engine)
        )

    def source_key(self) -> str:
        """Content key of the query's source (surface lookup key)."""
        if self.source_spectrum is not None:
            return spectrum_source_key(self.source_spectrum)
        return mono_source_key(float(self.source_energy_ev))


@dataclass(frozen=True)
class Provenance:
    """Where an answer came from and how much to trust it.

    Attributes:
        engine: engine that actually produced the answer
            (``"surrogate"`` or a live engine name).
        requested_engine: the query's engine policy.
        error_bound: certified absolute bound on the headline value
            (surrogate answers), the headline value's binomial
            standard error (batch/scalar answers), or 0.0
            (deterministic answers).
        confidence: statistical coverage of ``error_bound``.
        artifact_digest: content address of the serving artifact
            (``""`` for live answers).
        degraded: the answer was produced by a different engine than
            the policy promised (fallback or downgrade).
        reason: why it degraded (``""`` when not degraded).
    """

    engine: str
    requested_engine: str
    error_bound: float = 0.0
    confidence: float = 0.0
    artifact_digest: str = ""
    degraded: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form (the wire's ``provenance`` block)."""
        return {
            "engine": self.engine,
            "requested_engine": self.requested_engine,
            "error_bound": self.error_bound,
            "confidence": self.confidence,
            "artifact_digest": self.artifact_digest,
            "degraded": self.degraded,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class TransportAnswer:
    """A transport result plus its provenance stamp.

    ``result`` quacks like the engine results (``TransportResult`` /
    ``DeterministicTransportResult`` / surrogate): the shared
    accessors (``thermal_transmission_fraction``, ``thermal_albedo``,
    ...) all work.
    """

    result: object
    provenance: Provenance
    mode: str = "transmission"

    @property
    def value(self) -> float:
        """The headline number for the query's mode."""
        if self.mode == "albedo":
            return float(self.result.thermal_albedo())
        return float(self.result.thermal_transmission_fraction())


# -- default store -----------------------------------------------------

_DEFAULT_STORE: Optional[SurrogateStore] = None

#: Sentinel: "use the configured default store".
_USE_DEFAULT = object()


def configure(surrogate_root: Optional[str]) -> None:
    """Set (or clear, with None) the process-wide surrogate store."""
    global _DEFAULT_STORE
    if surrogate_root is None:
        _DEFAULT_STORE = None
    else:
        _DEFAULT_STORE = SurrogateStore(surrogate_root)


def set_default_store(store: Optional[SurrogateStore]) -> None:
    """Install an already-constructed store as the default."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def default_store() -> Optional[SurrogateStore]:
    """The process-wide surrogate store, if any."""
    return _DEFAULT_STORE


# -- the facade --------------------------------------------------------


def _run_live(query: TransportQuery, engine: str):
    """Run one live engine on a one-layer slab seeded by the query.

    The only code that maps a live-engine name to an engine.  The
    scalar engine consumes ``default_rng(query.seed)``; the batch
    engine seeds its ``SeedSequence`` tree with one integer drawn
    from that generator.  The deterministic solver uses no
    randomness and answers per source neutron.
    """
    geometry = SlabGeometry(
        [Layer(query.material, query.thickness_cm)]
    )
    source = dict(
        source_energy_ev=query.source_energy_ev,
        source_spectrum=query.source_spectrum,
    )
    if engine == "deterministic":
        return DeterministicTransportEngine(geometry).run(**source)
    rng = np.random.default_rng(query.seed)
    if engine == "batch":
        return BatchTransportEngine(geometry).run(
            query.n_neutrons,
            seed=int(rng.integers(0, 2**63)),
            **source,
        )
    return ScalarTransportEngine(geometry, rng=rng).run(
        query.n_neutrons, **source
    )


def _try_surrogate(query: TransportQuery, store: SurrogateStore):
    """A certified surrogate answer, or ``(None, reason)``."""
    hit = store.lookup(
        query.mode,
        query.material.name,
        query.source_key(),
        query.thickness_cm,
    )
    if hit is None:
        return None, "no-surface"
    surface, digest = hit
    if not surface.meets(
        query.thickness_cm,
        query.accuracy.rel_err,
        query.accuracy.confidence,
    ):
        return None, "bound-exceeds-target"
    result = surface.evaluate(query.thickness_cm)
    provenance = Provenance(
        engine="surrogate",
        requested_engine=query.engine,
        error_bound=surface.certified_bound(
            confidence=query.accuracy.confidence
        ),
        confidence=query.accuracy.confidence,
        artifact_digest=digest,
    )
    return TransportAnswer(result, provenance, query.mode), ""


def answer(
    query: TransportQuery,
    store=_USE_DEFAULT,
    blocked: FrozenSet[str] = frozenset(),
    budget_pressure: bool = False,
) -> TransportAnswer:
    """Answer a transport query under its accuracy/engine contract.

    Args:
        query: the question.
        store: surrogate store to consult (defaults to the
            process-wide store from :func:`configure`; pass ``None``
            to force live engines).
        blocked: live engines currently unavailable (open breakers).
        budget_pressure: skip the requested engine for the next one
            in the cascade (see :func:`pick_live_engine`).

    Returns:
        A :class:`TransportAnswer`; ``provenance.degraded`` is set
        whenever the engine used is not the one the policy promised.
    """
    if store is _USE_DEFAULT:
        store = _DEFAULT_STORE
    requested = query.engine
    miss_reason = ""
    if store is not None and requested in ("auto", "surrogate"):
        served, miss_reason = _try_surrogate(query, store)
        if served is not None:
            obs.inc("repro_surrogate_hits_total", mode=query.mode)
            return served
        obs.inc(
            "repro_surrogate_misses_total",
            mode=query.mode,
            reason=miss_reason,
        )
    elif requested in ("auto", "surrogate"):
        miss_reason = "no-store"
    engine, cascade_reason = pick_live_engine(
        requested, blocked=blocked, budget_pressure=budget_pressure
    )
    result = _run_live(query, engine)
    degraded = False
    reason = ""
    if requested == "surrogate":
        # The caller demanded the surrogate; a live answer is a
        # fallback worth flagging (and counting).
        degraded = True
        reason = miss_reason or "no-store"
        obs.inc(
            "repro_surrogate_fallbacks_total",
            mode=query.mode,
            reason=reason,
        )
    elif requested in LIVE_CASCADE and engine != requested:
        degraded = True
        reason = cascade_reason
    elif requested == "auto" and cascade_reason:
        # auto tolerates any live engine, but a breaker-forced pick
        # is still worth surfacing.
        degraded = True
        reason = cascade_reason
    # Every engine's result has both stderr accessors: binomial for
    # the MC engines, 0.0 for the deterministic solver.
    if query.mode == "albedo":
        stderr = result.thermal_albedo_stderr()
    else:
        stderr = result.thermal_transmission_stderr()
    provenance = Provenance(
        engine=engine,
        requested_engine=requested,
        error_bound=stderr,
        confidence=0.0,
        artifact_digest="",
        degraded=degraded,
        reason=reason,
    )
    return TransportAnswer(result, provenance, query.mode)
