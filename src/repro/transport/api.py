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

:func:`answer_many` answers several queries at once, each exactly as
:func:`answer` would.  Its batch queries on one slab, source and
history count run as one rolling sweep
(:meth:`~repro.transport.batch.BatchTransportEngine.run_many`), so a
study shard's same-shield points share one collision-round tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

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
from repro.transport.tallies import TransportResult

__all__ = [
    "ENGINE_POLICIES",
    "LIVE_CASCADE",
    "AccuracyTarget",
    "Provenance",
    "TransportAnswer",
    "TransportQuery",
    "answer",
    "answer_many",
    "cascade_for",
    "coerce_policy",
    "configure",
    "default_store",
    "pick_live_engine",
    "set_default_store",
    "surrogate_serves",
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

#: The negotiation policies: a certified surrogate may serve them.
_NEGOTIATED = ENGINE_POLICIES[:2]

#: The shared live-engine downgrade order: batch MC, then the
#: noise-free multigroup solver, then the scalar oracle as the
#: always-works floor.  Studies and the service both cascade through
#: this exact sequence (fixing the old batch->scalar shortcut).  The
#: order is one of preference, not of cost: a deterministic solve is
#: not always cheaper than the batch run it stands in for.  Under the
#: ROTAX source, on one CPU of a 2-vCPU host, it cost 0.19-0.24 of a
#: lone 20 000-history batch run on the study's water (10 cm) and
#: concrete (30 cm) shields and 0.49-0.57 of a lone 4096-history one,
#: but 1.3-15 times a lone batch run of either size on cadmium
#: (0.1 cm) and borated polyethylene (5 cm).  A point of a 4-point
#: study shard, whose runs share one engine and one rolling sweep,
#: costs less than a lone run: there a solve cost 0.24-0.30 of a
#: point on water and concrete, and 1.6-4.2 times one on cadmium and
#: borated polyethylene.
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
            :data:`LIVE_CASCADE`): a batch point downgraded to the
            solver runs faster on the study's water and concrete
            shields, at 4096 histories as at 20 000 and in a fused
            study shard, and slower on its cadmium and borated
            polyethylene ones.

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
        if not 0.0 < self.thickness_cm < math.inf:
            raise ConfigurationError(
                "thickness must be finite and positive,"
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
    """A transport result plus its provenance stamp."""

    result: TransportResult
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


def _run_live(
    engine: str,
    query: TransportQuery,
    batch_seeds: Sequence[Optional[int]],
) -> List[TransportResult]:
    """Run one live engine on the query's one-layer slab.

    The only code that maps a live-engine name to an engine.  The
    scalar engine consumes ``default_rng(query.seed)`` and the
    deterministic solver uses no randomness (it answers per source
    neutron); each returns one result.  The batch engine returns one
    result per root seed in ``batch_seeds``, each drawn by
    :func:`_batch_seed` from a query with this one's slab, source and
    history count: one seed runs through
    :meth:`~BatchTransportEngine.run`, several as one
    :meth:`~BatchTransportEngine.run_many`.
    """
    geometry = SlabGeometry(
        [Layer(query.material, query.thickness_cm)]
    )
    source = dict(
        source_energy_ev=query.source_energy_ev,
        source_spectrum=query.source_spectrum,
    )
    if engine == "deterministic":
        return [DeterministicTransportEngine(geometry).run(**source)]
    if engine == "batch":
        batch = BatchTransportEngine(geometry)
        if len(batch_seeds) == 1:
            return [
                batch.run(
                    query.n_neutrons, seed=batch_seeds[0], **source
                )
            ]
        return batch.run_many(query.n_neutrons, batch_seeds, **source)
    rng = np.random.default_rng(query.seed)
    return [
        ScalarTransportEngine(geometry, rng=rng).run(
            query.n_neutrons, **source
        )
    ]


def _batch_seed(query: TransportQuery) -> int:
    """The root seed of a query's batch run: one integer drawn from
    ``default_rng(query.seed)``."""
    return int(np.random.default_rng(query.seed).integers(0, 2**63))


def _certified_surface(query: TransportQuery, store: SurrogateStore):
    """The surface that may serve ``query``, or ``(None, reason)``.

    A hit is ``((surface, digest), "")``: a surface of the query's
    family covers its thickness, and the surface's certified bound
    meets its accuracy target.  Counts nothing.
    """
    hit = store.lookup(
        query.mode,
        query.material.name,
        query.source_key(),
        query.thickness_cm,
    )
    if hit is None:
        return None, "no-surface"
    surface = hit[0]
    if not surface.meets(
        query.thickness_cm,
        query.accuracy.rel_err,
        query.accuracy.confidence,
    ):
        return None, "bound-exceeds-target"
    return hit, ""


def surrogate_serves(query: TransportQuery) -> bool:
    """Whether :func:`answer` would serve ``query`` from the
    process-wide store.

    True when the query's policy negotiates (``auto`` or
    ``surrogate``) and a certified surface meets its accuracy target,
    so no live engine would run.  Blocked engines do not matter:
    surrogate serving ignores them.  Counts no metrics; the answer's
    own negotiation counts the hit or miss.
    """
    store = _DEFAULT_STORE
    return (
        store is not None
        and query.engine in _NEGOTIATED
        and _certified_surface(query, store)[0] is not None
    )


def _try_surrogate(query: TransportQuery, store: SurrogateStore):
    """A certified surrogate answer, or ``(None, reason)``."""
    hit, reason = _certified_surface(query, store)
    if hit is None:
        return None, reason
    surface, digest = hit
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


@dataclass(frozen=True)
class _LivePick:
    """A query no surrogate served: the live engine picked for it and
    the reasons its provenance will give."""

    query: TransportQuery
    engine: str
    miss_reason: str
    cascade_reason: str
    #: Root seed of the query's batch run (batch picks only).
    batch_seed: Optional[int]

    def run_key(self) -> tuple:
        """Picks with equal keys run together: batch picks on one
        slab, source and history count; any other pick alone."""
        if self.engine != "batch":
            return (id(self),)
        query = self.query
        return (
            query.material,
            query.thickness_cm,
            query.source_energy_ev,
            query.source_spectrum,
            query.n_neutrons,
        )


def _negotiate(
    query: TransportQuery,
    store: Optional[SurrogateStore],
    blocked: FrozenSet[str],
) -> Union[TransportAnswer, _LivePick]:
    """A certified surrogate answer to ``query``, else its live pick."""
    requested = query.engine
    miss_reason = ""
    if store is not None and requested in _NEGOTIATED:
        served, miss_reason = _try_surrogate(query, store)
        if served is not None:
            obs.inc("repro_surrogate_hits_total", mode=query.mode)
            return served
        obs.inc(
            "repro_surrogate_misses_total",
            mode=query.mode,
            reason=miss_reason,
        )
    elif requested in _NEGOTIATED:
        miss_reason = "no-store"
    engine, cascade_reason = pick_live_engine(requested, blocked=blocked)
    return _LivePick(
        query,
        engine,
        miss_reason,
        cascade_reason,
        _batch_seed(query) if engine == "batch" else None,
    )


def answer(
    query: TransportQuery,
    store=_USE_DEFAULT,
    blocked: FrozenSet[str] = frozenset(),
) -> TransportAnswer:
    """Answer a transport query under its accuracy/engine contract.

    Takes the negotiation and provenance path of :func:`answer_many`.

    Args:
        query: the question.
        store: surrogate store to consult (defaults to the
            process-wide store from :func:`configure`; pass ``None``
            to force live engines).
        blocked: live engines currently unavailable (open breakers).

    Returns:
        A :class:`TransportAnswer`; ``provenance.degraded`` is set
        whenever the engine used is not the one the policy promised.
    """
    if store is _USE_DEFAULT:
        store = _DEFAULT_STORE
    picked = _negotiate(query, store, blocked)
    return _run_picks([picked])[0]


def answer_many(
    queries: Sequence[TransportQuery],
) -> List[TransportAnswer]:
    """Answer every query, each exactly as :func:`answer` would with
    its default arguments.

    Each query is negotiated on its own (a certified surrogate from
    the process-wide store, else the live cascade with no engine
    blocked), with the same provenance and metrics.  The queries that
    then resolve to live batch on the same slab (material and
    thickness), source and history count run as one
    :meth:`~BatchTransportEngine.run_many`: they share one
    collision-round tail, and each keeps its own seed and tallies.
    """
    return _run_picks(
        [
            _negotiate(query, _DEFAULT_STORE, frozenset())
            for query in queries
        ]
    )


def _run_picks(
    negotiated: List[Union[TransportAnswer, _LivePick]],
) -> List[TransportAnswer]:
    """Run every live pick, each group of them in one engine call;
    served answers pass through."""
    groups: Dict[tuple, List[int]] = {}
    for i, pick in enumerate(negotiated):
        if isinstance(pick, _LivePick):
            groups.setdefault(pick.run_key(), []).append(i)
    answers = list(negotiated)
    for members in groups.values():
        picks = [negotiated[i] for i in members]
        head = picks[0]
        seeds = [pick.batch_seed for pick in picks]
        # _negotiate drew each batch seed from its own query's seed
        # (_batch_seed), whose flow the seed-flow rule checks there.
        results = _run_live(head.engine, head.query, seeds)  # repro: noqa REP101
        for i, pick, result in zip(members, picks, results):
            answers[i] = _live_answer(pick, result)
    return answers


def _live_answer(
    pick: _LivePick, result: TransportResult
) -> TransportAnswer:
    """Stamp a live engine's result with its provenance."""
    query = pick.query
    requested = query.engine
    degraded = False
    reason = ""
    if requested == "surrogate":
        # The caller demanded the surrogate; a live answer is a
        # fallback worth flagging (and counting).
        degraded = True
        reason = pick.miss_reason or "no-store"
        obs.inc(
            "repro_surrogate_fallbacks_total",
            mode=query.mode,
            reason=reason,
        )
    elif requested in LIVE_CASCADE and pick.engine != requested:
        degraded = True
        reason = pick.cascade_reason
    elif requested == "auto" and pick.cascade_reason:
        # auto tolerates any live engine, but a breaker-forced pick
        # is still worth surfacing.
        degraded = True
        reason = pick.cascade_reason
    if query.mode == "albedo":
        stderr = result.thermal_albedo_stderr()
    else:
        stderr = result.thermal_transmission_stderr()
    provenance = Provenance(
        engine=pick.engine,
        requested_engine=requested,
        error_bound=stderr,
        confidence=0.0,
        artifact_digest="",
        degraded=degraded,
        reason=reason,
    )
    return TransportAnswer(result, provenance, query.mode)
