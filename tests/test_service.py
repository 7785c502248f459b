"""FIT service: protocol, cache, coalescing, admission, execution."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import threading

import pytest

from repro.chaos import actions as chaos_actions
from repro.chaos import trials
from repro.chaos.faultpoints import activated
from repro.chaos.schedule import ChaosController, ChaosSpec
from repro.durable import QUARANTINE_SUFFIX, payload_checksum
from repro.obs import core as obs
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import Budget, CircuitBreaker, RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.runtime.events import EventKind
from repro.service import (
    AdmissionController,
    Coalescer,
    FitService,
    Query,
    QueryExecutor,
    ResultCache,
    ServiceError,
)
from repro.service.cli import load_plans
from repro.service.protocol import (
    MAX_N_NEUTRONS,
    decode_request,
    parse_request,
)
from repro.transport import api as transport_api
from repro.transport import batch

pytestmark = pytest.mark.usefixtures("no_fork_while_threaded")


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper for tests (never waits)."""


def _service(cache_dir=None, n_workers=1) -> FitService:
    cache = (
        ResultCache(cache_dir, sleep=_no_sleep)
        if cache_dir is not None
        else None
    )
    return FitService(
        executor=QueryExecutor(n_workers=n_workers, sleep=_no_sleep),
        cache=cache,
        admission=AdmissionController(max_inflight=256),
    )


def _line(request_id="q1", kind="flux", params=None, **extra) -> str:
    body = {
        "id": request_id,
        "kind": kind,
        "params": params if params is not None else {"site": "nyc"},
    }
    body.update(extra)
    return json.dumps(body)


def _answer(service: FitService, line: str) -> dict:
    return json.loads(asyncio.run(service.handle_line(line)))


def _parse(line: str, plans: dict):
    """Decode and validate one line, as the server does."""
    return parse_request(decode_request(line), plans)


# -- protocol ----------------------------------------------------------


def test_parse_request_roundtrip():
    request = _parse(
        _line(params={"site": "leadville", "room": True}), {}
    )
    assert request.request_id == "q1"
    assert request.tenant == "default"
    assert request.query.kind == "flux"
    assert request.query.site == "leadville"
    assert request.query.room is True


@pytest.mark.parametrize(
    "line,code",
    [
        ("not json", "bad-request"),
        ("[]", "bad-request"),
        (json.dumps({"kind": "flux"}), "bad-request"),
        (_line(kind="nope"), "bad-request"),
        (_line(params={"site": "atlantis"}), "bad-request"),
        (_line(params={"bogus_param": 1}), "bad-request"),
        (_line(params={"room": "yes"}), "bad-request"),
        (_line(timeout_ms=-1), "bad-request"),
        (_line(timeout_ms=True), "bad-request"),
        (
            _line(kind="fit", params={"device": "K20", "code": "XXX"}),
            "bad-request",
        ),
        (
            _line(
                kind="transmission",
                params={
                    "n_neutrons": MAX_N_NEUTRONS + 1,
                    "shield": "water",
                },
            ),
            "bad-request",
        ),
        (_line(plan="ghost", params={}), "unknown-plan"),
        # json.loads reads NaN, Infinity and 1e400 (as inf), and
        # integers past the float range; none is a usable number.
        pytest.param(
            _line(
                kind="transmission",
                params={
                    "shield": "water",
                    "thickness_cm": float("nan"),
                    "engine": "batch",
                },
            ),
            "bad-request",
            id="thickness-NaN",
        ),
        pytest.param(
            _line(
                kind="transmission",
                params={"shield": "water", "thickness_cm": float("inf")},
            ),
            "bad-request",
            id="thickness-Infinity",
        ),
        pytest.param(
            _line(
                kind="transmission",
                params={"shield": "water", "thickness_cm": 2.5},
            ).replace("2.5", "1e400"),
            "bad-request",
            id="thickness-1e400",
        ),
        pytest.param(
            _line(
                kind="transmission",
                params={"shield": "water", "thickness_cm": 10**400},
            ),
            "bad-request",
            id="thickness-int-past-float-range",
        ),
        pytest.param(
            _line(timeout_ms=float("nan")),
            "bad-request",
            id="timeout_ms-NaN",
        ),
    ],
)
def test_parse_request_rejects(line, code):
    with pytest.raises(ServiceError) as excinfo:
        _parse(line, {})
    assert excinfo.value.code == code


@pytest.mark.parametrize(
    "line,message",
    [
        (
            "not json",
            "request is not valid JSON: Expecting value: line 1"
            " column 1 (char 0)",
        ),
        ("[]", "request must be a JSON object"),
        (
            json.dumps({"kind": "flux"}),
            "request must carry a non-empty string 'id'",
        ),
        (
            json.dumps({"kind": "study-status"}),
            "request must carry a non-empty string 'id'",
        ),
    ],
)
def test_malformed_lines_are_answered_on_the_wire(line, message):
    # The server decodes each line once, for the query path and the
    # study path alike; the framing errors read as they always have.
    body = _answer(_service(), line)
    assert body["ok"] is False
    assert body["error"] == {"code": "bad-request", "message": message}


def test_load_plans_reads_json_and_skips_unparsable(tmp_path, capsys):
    (tmp_path / "night.json").write_text(
        '{"kind": "flux", "params": {"site": "lanl"}}'
    )
    (tmp_path / "broken.json").write_text("{nope")
    plans = load_plans(tmp_path)
    assert list(plans) == ["night"]
    assert plans["night"]["params"]["site"] == "lanl"
    assert "broken.json" in capsys.readouterr().out


def test_plan_presets_merge_with_request_params():
    plans = {
        "night": {
            "kind": "flux",
            "params": {"site": "lanl", "rain": True},
        }
    }
    request = _parse(
        _line(plan="night", params={"rain": False}), plans
    )
    assert request.query.site == "lanl"
    assert request.query.rain is False


def test_cache_key_depends_on_seed_but_not_field_order():
    base = Query.from_params(
        "transmission", {"shield": "water", "n_neutrons": 64}
    )
    reordered = Query.from_params(
        "transmission", {"n_neutrons": 64, "shield": "water"}
    )
    reseeded = Query.from_params(
        "transmission",
        {"shield": "water", "n_neutrons": 64, "seed": 1},
    )
    assert base.cache_key() == reordered.cache_key()
    assert base.cache_key() != reseeded.cache_key()
    assert base.digest() == reseeded.digest()


def test_invalid_error_code_is_rejected():
    with pytest.raises(ValueError):
        ServiceError("not-a-code", "nope")


# -- durable cache -----------------------------------------------------


#: A live batch transmission query: the only kind of answer the
#: durable cache holds.
_LIVE_PARAMS = {"shield": "water", "n_neutrons": 256}


def _live_line(**params) -> str:
    return _line(kind="transmission", params={**_LIVE_PARAMS, **params})


def _cached_entry(tmp_path):
    """A service with one durably cached live transmission result."""
    service = _service(cache_dir=tmp_path / "cache")
    first = _answer(service, _live_line())
    assert first["ok"] and not first["cached"]
    key = Query.from_params("transmission", _LIVE_PARAMS).cache_key()
    path = service.cache.entry_path(key)
    assert path.exists()
    return service, key, path


def test_cache_hit_serves_identical_payload(tmp_path):
    service, _key, _path = _cached_entry(tmp_path)
    hit = _answer(service, _live_line())
    assert hit["cached"] is True
    miss_again = _answer(service, _live_line(seed=1))
    assert miss_again["cached"] is False


@pytest.mark.parametrize(
    "corrupt",
    ["truncate", "bitflip", "wrong-checksum", "wrong-key"],
)
def test_corrupt_cache_entries_quarantined_and_recomputed(
    tmp_path, corrupt
):
    service, key, path = _cached_entry(tmp_path)
    clean = _answer(service, _live_line())
    raw = path.read_text()
    if corrupt == "truncate":
        path.write_text(raw[: len(raw) // 2])
    elif corrupt == "bitflip":
        flipped = raw.replace('"', "'", 1)
        path.write_text(flipped)
    elif corrupt == "wrong-checksum":
        data = json.loads(raw)
        data["result"]["thermal_transmission"] = 0.5
        path.write_text(json.dumps(data, indent=2, sort_keys=True))
    else:  # wrong-key
        data = json.loads(raw)
        data["key"] = "0" * 64
        del data["checksum"]
        data["checksum"] = payload_checksum(data)
        path.write_text(json.dumps(data, indent=2, sort_keys=True))

    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        assert service.cache.get(key) is None
        recomputed = _answer(service, _live_line())
    quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
    assert quarantined.exists()
    assert (
        registry.counter("repro_service_cache_quarantined_total") == 1
    )
    # The recomputed answer matches the pre-corruption one and was
    # re-cached durably.
    assert recomputed["ok"]
    assert recomputed["cached"] is False
    assert recomputed["result"] == clean["result"]
    assert service.cache.get(key) == clean["result"]


@pytest.mark.parametrize("older", [1, 2])
def test_an_older_cache_entry_is_a_miss_and_is_not_served(
    tmp_path, older
):
    # Version 1 entries hold deterministic answers from the response
    # build that summed per-cell optical thicknesses, which differ
    # from today's in their last bits; version 2 entries hold Monte
    # Carlo answers whose transport block carries ``degraded_shards``.
    # Neither may be served.
    params = {**_LIVE_PARAMS, "engine": "deterministic"}
    line = _line(kind="transmission", params=params)
    fresh = _answer(_service(), line)
    service = _service(cache_dir=tmp_path / "cache")
    query = Query.from_params("transmission", params)
    key = query.cache_key()
    stale = json.loads(json.dumps(fresh["result"]))
    stale["thermal_transmission"] *= 1.0 + 2.0**-52
    assert service.cache.put(key, query, stale)
    path = service.cache.entry_path(key)
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["schema_version"] == 3
    record["schema_version"] = older
    record["checksum"] = payload_checksum(record)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        served = _answer(service, line)
    assert served["cached"] is False
    assert served["result"] == fresh["result"]
    assert registry.counter("repro_service_cache_hits_total") == 0
    assert registry.counter("repro_service_cache_misses_total") == 1
    assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
    # The recomputed answer is cached under the current version.
    assert service.cache.get(key) == fresh["result"]


def _auto_cadmium_line() -> str:
    """An in-envelope query a configured surrogate store answers."""
    return _line(
        kind="transmission",
        params={
            "shield": "cadmium",
            "thickness_cm": trials.SURROGATE_THICKNESS_CM,
            "n_neutrons": 256,
            "engine": "auto",
        },
    )


def test_surrogate_answers_are_not_cached_across_a_restart(tmp_path):
    # A surrogate answer's cache key does not name its artifact, so a
    # cached copy would outlive the artifact: a server restarted
    # without the store would still claim the surrogate served it.
    trials.make_surrogate_root(tmp_path / "surrogates")
    before = transport_api.default_store()
    try:
        transport_api.configure(str(tmp_path / "surrogates"))
        served = _answer(
            _service(cache_dir=tmp_path / "cache"), _auto_cadmium_line()
        )
        # Restart on the same cache directory, without the artifact.
        transport_api.set_default_store(None)
        restarted = _service(cache_dir=tmp_path / "cache")
        live = _answer(restarted, _auto_cadmium_line())
        again = _answer(restarted, _auto_cadmium_line())
    finally:
        transport_api.set_default_store(before)
    assert served["provenance"]["engine"] == "surrogate"
    assert served["cached"] is False
    assert live["provenance"]["engine"] == "batch"
    assert live["cached"] is False
    # The live answer is the one the cache keeps.
    assert again["cached"] is True
    assert again["result"] == live["result"]


@pytest.mark.parametrize(
    "stamp",
    [
        {"engine": "surrogate", "artifact_digest": "f" * 64},
        {"degraded": True, "reason": "breaker-open"},
    ],
)
def test_planted_non_live_entries_are_misses(tmp_path, stamp):
    service, key, _path = _cached_entry(tmp_path)
    clean = _answer(service, _live_line())
    assert clean["cached"] is True
    planted = json.loads(json.dumps(clean["result"]))
    planted["provenance"].update(stamp)
    planted["thermal_transmission"] = 0.5
    query = Query.from_params("transmission", _LIVE_PARAMS)
    assert service.cache.put(key, query, planted)
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        recomputed = _answer(service, _live_line())
    assert recomputed["cached"] is False
    assert recomputed["result"] == clean["result"]
    assert registry.counter("repro_service_cache_hits_total") == 0
    assert registry.counter("repro_service_cache_misses_total") == 1
    # The recomputed live answer replaced the planted entry.
    assert service.cache.get(key) == clean["result"]


def test_fit_and_flux_queries_skip_the_cache(tmp_path, monkeypatch):
    service = _service(cache_dir=tmp_path / "cache")

    def untouchable(*_args):
        raise AssertionError("the cache was consulted")

    monkeypatch.setattr(service.cache, "get", untouchable)
    monkeypatch.setattr(service.cache, "put", untouchable)
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        for kind, params in (
            ("flux", {"site": "nyc"}),
            ("fit", {"device": "K20", "site": "nyc", "room": True}),
        ):
            for _ in range(2):
                body = _answer(service, _line(kind=kind, params=params))
                assert body["ok"], body
                assert body["cached"] is False
    for counter in ("hits", "misses", "writes"):
        assert (
            registry.counter(f"repro_service_cache_{counter}_total") == 0
        )
    assert not list(service.cache.root.rglob("*.json"))


def test_stale_tmp_swept_on_init(tmp_path):
    root = tmp_path / "cache"
    (root / "ab").mkdir(parents=True)
    (root / "cd").mkdir(parents=True)
    stale = root / "ab" / "abc.json.tmp"
    stale.write_text("half a wri")
    other = root / "cd" / "cde.json.tmp"
    other.write_text("another torn write")
    cache = ResultCache(root, sleep=_no_sleep)
    assert not stale.exists()
    assert not other.exists()
    # `repro serve` publishes this count as
    # repro_service_cache_swept_total at boot.
    assert cache.swept_on_init == 2
    assert ResultCache(root, sleep=_no_sleep).swept_on_init == 0


def test_cache_write_failure_is_abandoned_not_raised(tmp_path):
    cache = ResultCache(
        tmp_path / "cache",
        retry=RetryPolicy(max_attempts=2),
        sleep=_no_sleep,
    )
    query = Query.from_params("flux", {"site": "nyc"})
    cache._entries.entry_path = lambda key: tmp_path / "\0bad" / "x.json"
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        stored = cache.put("deadbeef", query, {"v": 1})
    assert stored is False
    assert (
        registry.counter("repro_service_cache_write_failures_total")
        == 1
    )


# -- coalescing --------------------------------------------------------


def test_storm_of_identical_queries_computes_once():
    service = _service()
    line = _line(
        kind="transmission",
        params={"shield": "water", "n_neutrons": 512},
    )

    async def storm():
        return await asyncio.gather(
            *[service.handle_line(line) for _ in range(100)]
        )

    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        responses = asyncio.run(storm())
    assert len(set(responses)) == 1
    assert json.loads(responses[0])["ok"]
    assert service.executor.compute_count == 1
    assert registry.counter("repro_service_coalesced_total") == 99


def test_distinct_queries_are_not_coalesced():
    service = _service()

    async def two():
        return await asyncio.gather(
            service.handle_line(_line(params={"site": "nyc"})),
            service.handle_line(_line(params={"site": "isis"})),
        )

    first, second = (json.loads(r) for r in asyncio.run(two()))
    assert first["result"] != second["result"]
    assert service.executor.compute_count == 2


def test_coalescer_survives_initiator_cancellation():
    release = threading.Event()
    calls = []

    def compute():
        calls.append(1)
        assert release.wait(5.0)
        return {"v": 42}

    async def main():
        coalescer = Coalescer()
        initiator = asyncio.create_task(
            coalescer.get_or_compute("k", compute)
        )
        while not calls:
            await asyncio.sleep(0.01)
        follower = asyncio.create_task(
            coalescer.get_or_compute("k", compute)
        )
        await asyncio.sleep(0.01)
        initiator.cancel()
        release.set()
        result = await follower
        with pytest.raises(asyncio.CancelledError):
            await initiator
        await coalescer.drain()
        return result

    assert asyncio.run(main()) == {"v": 42}
    assert len(calls) == 1


def test_coalesced_error_is_shared_cleanly():
    calls = []

    def compute():
        calls.append(1)
        raise RuntimeError("backend down")

    async def main():
        coalescer = Coalescer()
        waiters = [
            asyncio.create_task(
                coalescer.get_or_compute("k", compute)
            )
            for _ in range(5)
        ]
        results = await asyncio.gather(
            *waiters, return_exceptions=True
        )
        await coalescer.drain()
        return results

    results = asyncio.run(main())
    assert len(results) == 5
    assert all(
        isinstance(r, RuntimeError) and str(r) == "backend down"
        for r in results
    )
    assert len(calls) == 1


# -- routing: the event loop or the worker thread ----------------------


@pytest.fixture
def surrogate_store(tmp_path):
    """The trial surrogate artifact as the process-wide store."""
    trials.make_surrogate_root(tmp_path / "surrogates")
    before = transport_api.default_store()
    transport_api.configure(str(tmp_path / "surrogates"))
    try:
        yield
    finally:
        transport_api.set_default_store(before)


#: Requests no live engine answers once the trial artifact serves.
_INLINE_LINES = (
    _line(kind="fit", params={"device": "K20", "site": "nyc"}),
    _line(kind="cross-section", params={"device": "TitanX"}),
    _line(kind="flux", params={"site": "leadville", "room": True}),
    _auto_cadmium_line(),
    _line(
        kind="transmission",
        params={"shield": "cadmium", "thickness_cm": 0.3,
                "engine": "surrogate"},
    ),
)


def _traced_service(tmp_path, monkeypatch):
    """A cached service recording cache reads, coalescer entries and
    the thread each ``execute`` ran on."""
    service = _service(cache_dir=tmp_path / "cache")
    seen = {"get": 0, "coalesce": 0, "threads": []}
    get, coalesce = service.cache.get, service.coalescer.get_or_compute
    execute = service.executor.execute

    def counted_get(key):
        seen["get"] += 1
        return get(key)

    def counted_coalesce(key, job):
        seen["coalesce"] += 1
        return coalesce(key, job)

    def threaded_execute(query):
        seen["threads"].append(threading.get_ident())
        return execute(query)

    monkeypatch.setattr(service.cache, "get", counted_get)
    monkeypatch.setattr(service.coalescer, "get_or_compute", counted_coalesce)
    monkeypatch.setattr(service.executor, "execute", threaded_execute)
    return service, seen


def _answer_on_loop(service, lines):
    """Answer lines in order; returns (bodies, the loop's thread)."""

    async def run():
        bodies = [json.loads(await service.handle_line(x)) for x in lines]
        return bodies, threading.get_ident()

    return asyncio.run(run())


@pytest.mark.usefixtures("surrogate_store")
def test_queries_needing_no_engine_are_answered_on_the_loop(
    tmp_path, monkeypatch
):
    service, seen = _traced_service(tmp_path, monkeypatch)
    bodies, loop_thread = _answer_on_loop(service, _INLINE_LINES * 2)
    assert all(b["ok"] and not b["cached"] for b in bodies), bodies
    assert bodies[3]["provenance"]["engine"] == "surrogate"
    assert bodies[4]["provenance"]["engine"] == "surrogate"
    assert seen["threads"] == [loop_thread] * len(bodies)
    assert seen["get"] == 0
    assert seen["coalesce"] == 0
    assert service.executor.compute_count == len(bodies)
    assert not list(service.cache.root.rglob("*.json"))


@pytest.mark.usefixtures("surrogate_store")
def test_live_transmissions_still_take_the_cache_and_the_thread(
    tmp_path, monkeypatch
):
    service, seen = _traced_service(tmp_path, monkeypatch)
    out_of_envelope = _line(
        kind="transmission",
        params={"shield": "cadmium", "thickness_cm": 1.0,
                "n_neutrons": 256, "engine": "auto"},
    )
    lines = [_live_line(), out_of_envelope, _live_line(), out_of_envelope]
    bodies, loop_thread = _answer_on_loop(service, lines)
    assert [b["cached"] for b in bodies] == [False, False, True, True]
    assert bodies[1]["provenance"]["engine"] == "batch"
    assert seen["get"] == seen["coalesce"] == len(lines)
    # The two misses were computed, off the loop thread.
    assert len(seen["threads"]) == 2
    assert loop_thread not in seen["threads"]


@pytest.mark.usefixtures("surrogate_store")
def test_counters_follow_the_path_each_request_took(tmp_path):
    service = _service(cache_dir=tmp_path / "cache")
    negotiated = [
        _auto_cadmium_line(),
        _line(
            kind="transmission",
            params={"shield": "cadmium", "thickness_cm": 0.05,
                    "engine": "surrogate"},
        ),
        _line(
            kind="transmission",
            params={"shield": "cadmium", "thickness_cm": 2.0,
                    "n_neutrons": 128, "engine": "auto"},
        ),
    ]
    live = [_live_line(), _live_line(seed=4)]
    inline = list(_INLINE_LINES[:3])
    registry = MetricsRegistry()
    with obs.observing(obs.Observer(registry=registry)):
        for lines in (negotiated, live, inline):
            assert all(b["ok"] for b in _answer_on_loop(service, lines)[0])
    surrogate = registry.counter(
        "repro_surrogate_hits_total", mode="transmission"
    ) + sum(
        registry.counter(
            "repro_surrogate_misses_total", mode="transmission",
            reason=reason,
        )
        for reason in ("no-surface", "bound-exceeds-target")
    )
    assert surrogate == len(negotiated)
    assert registry.counter(
        "repro_surrogate_hits_total", mode="transmission"
    ) == 2
    # One cache read per live request: the out-of-envelope negotiation
    # and the two batch runs.
    assert registry.counter("repro_service_cache_misses_total") == 3
    assert registry.counter("repro_service_cache_hits_total") == 0


@pytest.mark.usefixtures("surrogate_store")
@pytest.mark.parametrize("line", [_INLINE_LINES[0], _auto_cadmium_line()])
def test_inline_requests_ride_out_a_transient_dispatch_fault(line):
    clean = _answer(_service(), line)
    service = _service()
    controller = ChaosController(
        ChaosSpec("service.dispatch", chaos_actions.RAISE_TRANSIENT)
    )
    with activated(controller):
        body = _answer(service, line)
    assert controller.fired()
    assert body == clean
    assert service.executor.events.count(EventKind.RETRY) == 1
    assert service.executor.compute_count == 1


@pytest.mark.usefixtures("surrogate_store")
def test_the_fork_pool_runs_live_engines_only():
    service = _service(n_workers=2)
    try:
        for line in (_auto_cadmium_line(), _INLINE_LINES[0]):
            assert _answer(service, line)["ok"]
        # Computed in this process: the lazy pool was never built.
        assert service.executor._pool is None
        query = Query.from_params("transmission", _LIVE_PARAMS)
        pooled = service.executor.execute(query)
        assert service.executor._pool is not None
    finally:
        service.close()
    assert pooled.result == QueryExecutor().execute(query).result


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_after_a_worker_death_live_queries_run_in_process():
    line = _live_line()
    clean = _answer(_service(), line)
    service = _service(n_workers=2)
    registry = MetricsRegistry()
    kill = ChaosController(
        ChaosSpec(
            "service.dispatch",
            chaos_actions.KILL_WORKER,
            worker_only=True,
        )
    )
    try:
        with obs.observing(obs.Observer(registry=registry)):
            with activated(kill):
                service.executor.warm()
                assert service.executor.pool_state() == "pooled"
                killed = _answer(service, line)
            assert service.executor.pool_state() == "lost"
            # Each later answer is computed by this process, from an
            # event-loop worker thread: the fork guard fails the test
            # if one forks a new pool instead.
            later = [_answer(service, line) for _ in range(2)]
    finally:
        service.close()
    assert killed["degraded"] and killed["degraded_reason"] == "worker-retry"
    assert killed["result"] == clean["result"]
    assert later == [clean, clean]
    assert service.executor.pool_state() == "lost"
    # The recompute after the kill and both later answers.
    assert registry.counter("repro_service_in_process_total") == 3


def test_no_pool_is_forked_while_another_thread_runs():
    service = _service(n_workers=2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, name="bystander")
    other.start()
    registry = MetricsRegistry()
    query = Query.from_params("transmission", _LIVE_PARAMS)
    try:
        with obs.observing(obs.Observer(registry=registry)):
            service.executor.warm()
            outcome = service.executor.execute(query)
    finally:
        release.set()
        other.join(timeout=10.0)
        service.close()
    assert not other.is_alive()
    assert service.executor.pool_state() == "unforked"
    assert not outcome.degraded
    assert outcome.result == QueryExecutor().execute(query).result
    assert registry.counter("repro_service_in_process_total") == 1


class _SinkWriter:
    """A stream writer whose buffer never fills: drain never waits."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(data)

    async def drain(self):
        pass

    def close(self):
        pass


@pytest.mark.usefixtures("surrogate_store")
def test_a_pipelining_client_does_not_hold_off_other_connections():
    # Every line is already buffered and no write waits, so only the
    # loop turn yielded after each inline answer lets the second
    # connection in before the first one's batch is through.
    service = _service()
    kinds = []
    execute = service.executor.execute

    def recorded_execute(query):
        kinds.append(query.kind)
        return execute(query)

    service.executor.execute = recorded_execute
    batch = [_INLINE_LINES[0], _auto_cadmium_line()] * 20
    other = _line(kind="flux", params={"site": "leadville"})

    async def run():
        writers = [_SinkWriter(), _SinkWriter()]
        handlers = []
        for lines, writer in zip((batch, [other]), writers):
            reader = asyncio.StreamReader()
            reader.feed_data("".join(x + "\n" for x in lines).encode())
            reader.feed_eof()
            handlers.append(service.handle_connection(reader, writer))
        await asyncio.gather(*handlers)
        return writers

    writers = asyncio.run(run())
    assert [len(w.lines) for w in writers] == [len(batch), 1]
    assert all(json.loads(x)["ok"] for w in writers for x in w.lines)
    assert kinds.index("flux") <= 2, kinds


# -- admission control -------------------------------------------------


def test_admission_sheds_past_max_inflight():
    admission = AdmissionController(max_inflight=2)
    admission.admit("a", "flux", 0.0)
    admission.admit("a", "flux", 0.0)
    with pytest.raises(ServiceError) as excinfo:
        admission.admit("a", "flux", 0.0)
    assert excinfo.value.code == "overloaded"
    admission.release()
    admission.admit("a", "flux", 0.0)


def test_admission_enforces_tenant_budgets():
    admission = AdmissionController(
        default_budget=Budget(max_events=2)
    )
    admission.admit("ci", "flux", 0.0)
    admission.admit("ci", "flux", 0.0)
    with pytest.raises(ServiceError) as excinfo:
        admission.admit("ci", "flux", 0.0)
    assert excinfo.value.code == "budget-exhausted"
    # Budgets are per tenant: another tenant is unaffected.
    admission.admit("other", "flux", 0.0)


def test_admission_rejects_unmeetable_deadlines():
    admission = AdmissionController()
    admission.observe_latency("transmission", 2.0)
    with pytest.raises(ServiceError) as excinfo:
        admission.admit("a", "transmission", 0.5)
    assert excinfo.value.code == "deadline"
    # A generous deadline is admitted.
    admission.admit("a", "transmission", 10.0)


def test_service_maps_admission_errors_to_responses():
    service = FitService(
        executor=QueryExecutor(sleep=_no_sleep),
        admission=AdmissionController(
            max_inflight=256, default_budget=Budget(max_events=1)
        ),
    )
    first = _answer(service, _line())
    assert first["ok"]
    second = _answer(service, _line(request_id="q2"))
    assert second["ok"] is False
    assert second["error"]["code"] == "budget-exhausted"
    assert second["id"] == "q2"


# -- execution and degradation ----------------------------------------


def test_breaker_opens_and_degrades_down_shared_cascade():
    # An open breaker blocks batch; the shared transport cascade
    # (batch -> deterministic -> scalar) picks the next engine, the
    # same walk the study scheduler takes.
    breaker = CircuitBreaker(failure_threshold=2)
    assert not breaker.open
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.open
    executor = QueryExecutor(sleep=_no_sleep, breaker=breaker)
    query = Query.from_params(
        "transmission",
        {"shield": "water", "n_neutrons": 256, "engine": "batch"},
    )
    outcome = executor.execute(query)
    assert outcome.degraded
    assert outcome.reason == "breaker-open"
    assert outcome.result["engine"] == "deterministic"
    assert outcome.provenance["engine"] == "deterministic"
    assert outcome.provenance["requested_engine"] == "batch"
    assert outcome.provenance["degraded"] is True


def test_failed_transmissions_open_the_breaker():
    # A transmission whose dispatch crashes counts one breaker
    # failure when it charges batch; two (the default threshold)
    # block batch for the next query.  A query that asked for the
    # solver charges nothing to batch.
    service = _service()
    line = _live_line(engine="batch")
    registry = MetricsRegistry()

    def crash_twice(line):
        for _ in range(2):
            crash = ChaosController(
                ChaosSpec("service.dispatch", chaos_actions.CRASH)
            )
            with activated(crash):
                failed = _answer(service, line)
            assert crash.fired()
            assert failed["ok"] is False

    with obs.observing(obs.Observer(registry=registry)):
        crash_twice(_live_line(engine="deterministic"))
        assert registry.gauge("repro_service_breaker_open") == 0.0
        assert not service.executor.breaker.open
        crash_twice(line)
        assert registry.gauge("repro_service_breaker_open") == 1.0
        served = _answer(service, line)
    assert served["ok"] is True
    assert served["result"]["engine"] == "deterministic"
    assert served["degraded"] is True
    assert served["degraded_reason"] == "breaker-open"


def test_a_transient_batch_fault_is_retried_by_the_supervisor(
    monkeypatch,
):
    # The batch engine keeps no retry of its own: a transient fault
    # in its sweep reaches the executor's supervisor, whose retry
    # gives the clean answer.
    line = _live_line()
    clean = _answer(_service(), line)
    real_roll = batch._roll
    sweeps = []

    def flaky_roll(sweep):
        sweeps.append(sweep)
        if len(sweeps) == 1:
            raise TransientHarnessError("injected sweep fault")
        real_roll(sweep)

    monkeypatch.setattr(batch, "_roll", flaky_roll)
    service = _service()
    served = _answer(service, line)
    assert served == clean
    assert len(sweeps) == 2
    assert service.executor.events.count(EventKind.RETRY) == 1


def test_breaker_closes_after_recovery_successes():
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_successes=2
    )
    breaker.record_failure()
    assert breaker.open
    breaker.record_success()
    assert breaker.open
    breaker.record_success()
    assert not breaker.open


def test_degraded_results_are_not_cached(tmp_path):
    breaker = CircuitBreaker(failure_threshold=1)
    breaker.record_failure()
    service = FitService(
        executor=QueryExecutor(sleep=_no_sleep, breaker=breaker),
        cache=ResultCache(tmp_path / "cache", sleep=_no_sleep),
        admission=AdmissionController(max_inflight=256),
    )
    line = _line(
        kind="transmission",
        params={"shield": "water", "n_neutrons": 256},
    )
    degraded = _answer(service, line)
    assert degraded["degraded"] is True
    key = Query.from_params(
        "transmission", {"shield": "water", "n_neutrons": 256}
    ).cache_key()
    assert service.cache.get(key) is None


def test_shutting_down_code_after_begin_shutdown():
    service = _service()
    service.begin_shutdown()
    response = _answer(service, _line())
    assert response["ok"] is False
    assert response["error"]["code"] == "shutting-down"


def test_unknown_internal_failures_become_structured_errors():
    service = _service()
    service.executor.execute = lambda query: 1 / 0
    response = _answer(service, _line())
    assert response["ok"] is False
    assert response["error"]["code"] == "internal"
    assert "ZeroDivisionError" in response["error"]["message"]
