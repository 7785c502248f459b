"""The TransportQuery facade: policies, cascade, provenance."""

from __future__ import annotations

import math

import pytest

from repro.chaos import trials
from repro.runtime.errors import ConfigurationError
from repro.transport import api
from repro.transport.api import (
    ENGINE_POLICIES,
    LIVE_CASCADE,
    AccuracyTarget,
    Provenance,
    TransportAnswer,
    TransportQuery,
    answer,
    cascade_for,
    coerce_policy,
    default_store,
    pick_live_engine,
    set_default_store,
)
from repro.transport.materials import WATER
from repro.transport.surrogate import SurrogateStore
from repro.transport.surrogate.build import (
    SurfaceSpec,
    build_artifact,
    log_grid,
)
from repro.transport.surrogate.surface import ABS_SERVE_FLOOR


@pytest.fixture()
def clean_default_store():
    """Restore the process-wide store around a test that sets it."""
    before = default_store()
    try:
        yield
    finally:
        set_default_store(before)


@pytest.fixture()
def surrogate_root(tmp_path):
    """A store root holding the trial artifact; ``(root, digest)``."""
    digest = trials.make_surrogate_root(tmp_path)
    return tmp_path, digest


def _query(**overrides) -> TransportQuery:
    fields = dict(
        mode="transmission",
        material=trials.CADMIUM,
        thickness_cm=trials.SURROGATE_THICKNESS_CM,
        source_spectrum=trials.rotax_spectrum(),
        n_neutrons=256,
        seed=11,
        engine="auto",
    )
    fields.update(overrides)
    return TransportQuery(**fields)


# -- policy vocabulary -------------------------------------------------


def test_coerce_policy_normalises_every_spelling():
    for policy in ENGINE_POLICIES:
        assert coerce_policy(policy) == policy
        assert coerce_policy(policy.upper()) == policy
    with pytest.raises(ConfigurationError) as excinfo:
        coerce_policy("warp-drive")
    # A ValueError (callers catching ValueError keep working) that
    # names the allowed set.
    assert isinstance(excinfo.value, ValueError)
    for name in ("warp-drive",) + ENGINE_POLICIES:
        assert name in str(excinfo.value)


def test_cascade_for_never_upgrades_a_named_engine():
    assert cascade_for("auto") == LIVE_CASCADE
    assert cascade_for("surrogate") == LIVE_CASCADE
    assert cascade_for("batch") == LIVE_CASCADE
    assert cascade_for("deterministic") == ("deterministic", "scalar")
    assert cascade_for("scalar") == ("scalar",)


def test_pick_live_engine_walks_the_shared_cascade():
    assert pick_live_engine("batch") == ("batch", "")
    assert pick_live_engine("batch", blocked=frozenset({"batch"})) == (
        "deterministic",
        "breaker-open",
    )
    assert pick_live_engine(
        "batch", blocked=frozenset(LIVE_CASCADE)
    ) == ("scalar", "breaker-open")
    assert pick_live_engine("batch", budget_pressure=True) == (
        "deterministic",
        "budget-pressure",
    )
    # The floor engine never skips itself under pressure.
    assert pick_live_engine("scalar", budget_pressure=True) == (
        "scalar",
        "",
    )


# -- query validation --------------------------------------------------


def test_accuracy_target_rejects_out_of_range_values():
    AccuracyTarget(rel_err=0.5, confidence=0.5)
    for rel_err in (0.0, -1.0, 1.5):
        with pytest.raises(ConfigurationError):
            AccuracyTarget(rel_err=rel_err)
    for confidence in (0.0, 1.0):
        with pytest.raises(ConfigurationError):
            AccuracyTarget(confidence=confidence)


def test_query_requires_exactly_one_source():
    with pytest.raises(ConfigurationError):
        _query(source_spectrum=None)
    with pytest.raises(ConfigurationError):
        _query(source_energy_ev=1.0e6)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "refraction"},
        {"thickness_cm": 0.0},
        {"n_neutrons": 0},
        {"engine": "warp-drive"},
        {"thickness_cm": float("nan")},
        {"thickness_cm": float("inf")},
    ],
)
def test_query_rejects_bad_fields(overrides):
    with pytest.raises(ConfigurationError):
        _query(**overrides)


def test_query_coerces_engine_spelling():
    assert _query(engine="BATCH").engine == "batch"
    assert _query(engine="Scalar").engine == "scalar"


# -- serving and fallback ----------------------------------------------


def test_in_envelope_query_served_with_certified_bound(
    surrogate_root,
):
    root, digest = surrogate_root
    served = answer(_query(), store=SurrogateStore(root))
    assert served.provenance.engine == "surrogate"
    assert served.provenance.requested_engine == "auto"
    assert served.provenance.artifact_digest == digest
    assert served.provenance.degraded is False
    assert 0.0 < served.provenance.error_bound <= ABS_SERVE_FLOOR
    assert served.provenance.confidence == pytest.approx(0.95)
    assert 0.0 <= served.value <= 1.0


def test_out_of_envelope_query_falls_back_live(surrogate_root):
    root, _digest = surrogate_root
    served = answer(
        _query(thickness_cm=50.0), store=SurrogateStore(root)
    )
    assert served.provenance.engine == "batch"
    assert served.provenance.artifact_digest == ""
    # auto tolerates any live engine: a miss is not degradation.
    assert served.provenance.degraded is False


def test_uncertifiable_confidence_falls_back(surrogate_root):
    root, _digest = surrogate_root
    served = answer(
        _query(
            engine="surrogate",
            accuracy=AccuracyTarget(confidence=0.99999999),
        ),
        store=SurrogateStore(root),
    )
    assert served.provenance.engine == "batch"
    assert served.provenance.degraded is True
    assert served.provenance.reason == "bound-exceeds-target"


def test_surrogate_policy_without_store_is_degraded():
    served = answer(_query(engine="surrogate"), store=None)
    assert served.provenance.engine == "batch"
    assert served.provenance.degraded is True
    assert served.provenance.reason == "no-store"


def test_surrogate_policy_with_empty_store_is_degraded(tmp_path):
    served = answer(
        _query(engine="surrogate"), store=SurrogateStore(tmp_path)
    )
    assert served.provenance.degraded is True
    assert served.provenance.reason == "no-surface"


def test_auto_policy_without_store_runs_live_undegraded():
    served = answer(_query(), store=None)
    assert served.provenance.engine == "batch"
    assert served.provenance.degraded is False
    assert served.provenance.reason == ""


def test_batch_transmission_bound_is_the_transmission_stderr():
    served = answer(
        _query(engine="batch", material=WATER, thickness_cm=1.0),
        store=None,
    )
    result = served.result
    p = result.transmitted_thermal / result.source
    assert 0.0 < p < 1.0
    assert served.provenance.error_bound == pytest.approx(
        math.sqrt(p * (1.0 - p) / result.source)
    )


@pytest.fixture(scope="module")
def both_modes_store(tmp_path_factory):
    """A store with a small transmission and a small albedo surface."""
    root = tmp_path_factory.mktemp("both-modes")
    specs = [
        SurfaceSpec(
            mode="transmission",
            material=trials.CADMIUM,
            thickness_cm=log_grid(0.025, 0.4, 3),
            source_spectrum=trials.rotax_spectrum(),
        ),
        SurfaceSpec(
            mode="albedo",
            material=WATER,
            thickness_cm=log_grid(2.0, 8.0, 3),
            source_energy_ev=1.0e6,
        ),
    ]
    store = SurrogateStore(root)
    store.save(build_artifact("both-modes", specs, cert_histories=500))
    return store


@pytest.mark.parametrize("mode", ["transmission", "albedo"])
@pytest.mark.parametrize("engine", ("surrogate",) + LIVE_CASCADE)
def test_every_engine_and_mode_exposes_both_stderr_accessors(
    both_modes_store, engine, mode
):
    albedo = dict(
        material=WATER,
        source_spectrum=None,
        source_energy_ev=1.0e6,
        thickness_cm=4.0,
    )
    served = answer(
        _query(
            mode=mode,
            engine=engine,
            accuracy=AccuracyTarget(rel_err=1.0, confidence=0.5),
            **(albedo if mode == "albedo" else {}),
        ),
        store=both_modes_store if engine == "surrogate" else None,
    )
    assert served.provenance.engine == engine
    result = served.result
    assert result.kind == {
        "surrogate": "surrogate-transport",
        "deterministic": "deterministic-transport",
    }.get(engine, "transport")
    stderrs = {
        "transmission": result.thermal_transmission_stderr(),
        "albedo": result.thermal_albedo_stderr(),
    }
    if engine == "surrogate":
        assert stderrs == {
            "transmission": result.bounds["transmitted_thermal"],
            "albedo": result.bounds["reflected_thermal"],
        }
        return
    if engine == "deterministic":
        assert stderrs == {"transmission": 0.0, "albedo": 0.0}
    else:
        n = result.source
        for key, count in (
            ("transmission", result.transmitted_thermal),
            ("albedo", result.reflected_thermal),
        ):
            p = count / n
            assert stderrs[key] == pytest.approx(
                math.sqrt(p * (1.0 - p) / n)
            )
    # A live answer's bound is its own mode's stderr.
    assert served.provenance.error_bound == stderrs[mode]


def test_named_engine_ignores_the_surrogate(surrogate_root):
    root, _digest = surrogate_root
    store = SurrogateStore(root)
    direct = answer(_query(engine="deterministic"), store=store)
    assert direct.provenance.engine == "deterministic"
    assert direct.provenance.artifact_digest == ""
    assert direct.provenance.error_bound == 0.0


def test_blocked_engines_degrade_with_breaker_reason():
    served = answer(
        _query(engine="batch"),
        store=None,
        blocked=frozenset({"batch"}),
    )
    assert served.provenance.engine == "deterministic"
    assert served.provenance.degraded is True
    assert served.provenance.reason == "breaker-open"


def test_surrogate_agrees_with_live_engines(surrogate_root):
    root, _digest = surrogate_root
    surrogate = answer(_query(), store=SurrogateStore(root))
    live = answer(
        _query(engine="batch", n_neutrons=4096), store=None
    )
    bound = surrogate.provenance.error_bound
    noise = 5.0 / (4096 ** 0.5)
    assert abs(surrogate.value - live.value) <= bound + noise


def test_albedo_mode_headline_value():
    served = answer(
        _query(
            mode="albedo",
            source_spectrum=None,
            source_energy_ev=1.0e6,
            engine="deterministic",
        ),
        store=None,
    )
    assert served.mode == "albedo"
    assert served.value == pytest.approx(
        served.result.thermal_albedo()
    )


def test_provenance_serialises_for_the_wire():
    stamp = Provenance(
        engine="surrogate",
        requested_engine="auto",
        error_bound=0.004,
        confidence=0.95,
        artifact_digest="ab" * 32,
    )
    body = stamp.to_dict()
    assert body["engine"] == "surrogate"
    assert body["degraded"] is False
    assert set(body) == {
        "engine",
        "requested_engine",
        "error_bound",
        "confidence",
        "artifact_digest",
        "degraded",
        "reason",
    }


def test_transport_answer_defaults_to_transmission_headline():
    class _Result:
        @staticmethod
        def thermal_transmission_fraction():
            return 0.25

    wrapped = TransportAnswer(
        _Result(), Provenance(engine="scalar", requested_engine="scalar")
    )
    assert wrapped.value == pytest.approx(0.25)


# -- the process-wide default store ------------------------------------


def test_configure_installs_and_clears_the_default_store(
    clean_default_store, surrogate_root
):
    root, digest = surrogate_root
    api.configure(str(root))
    assert default_store() is not None
    served = answer(_query())
    assert served.provenance.engine == "surrogate"
    assert served.provenance.artifact_digest == digest
    api.configure(None)
    assert default_store() is None
    live = answer(_query())
    assert live.provenance.engine == "batch"


def test_explicit_store_none_forces_live_engines(
    clean_default_store, surrogate_root
):
    root, _digest = surrogate_root
    set_default_store(SurrogateStore(root))
    assert default_store() is not None
    served = answer(_query(), store=None)
    assert served.provenance.engine == "batch"
