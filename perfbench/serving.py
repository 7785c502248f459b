"""The serving workload: ``shield-serve``.

It drives a ``repro serve`` child over one connection in a closed
loop: the blocking ``ServiceClient`` sends the next request only
after the previous reply arrived, so client and server never compute
at once.  The server keeps its default ``--workers 1``.  The client
never retries, so a dropped connection is a failure rather than a
slow request.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Tuple

import workloads
from common import (
    SETUP_REPEATS,
    Child,
    Context,
    Outcome,
    RunFailed,
    proc_cpu_s,
    proc_vmhwm_mb,
)
from tracing import (
    Layers,
    counter_expectations,
    load_spans,
    parse_prometheus,
    quantile,
)

from repro.exitcodes import ExitCode
from repro.runtime.budget import RetryPolicy
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError

BANNER = "repro service listening on "
CLEAN_SHUTDOWN = "repro service: clean shutdown"

#: Responses checked against in-process engines after each window.
SURROGATE_SAMPLES = 4
BATCH_SAMPLES = 4
DETERMINISTIC_SAMPLES = 4

#: Fewest timed requests behind ``latency_p99_ms``, so that at least
#: ten samples lie beyond it: the window runs on past ``--seconds``
#: until it has this many.
MIN_REQUESTS = 1000


class Server:
    """One ``repro serve`` child, with the surrogate artifact it serves,
    plus its client connection."""

    def __init__(self, ctx: Context, index: int, trace_out=None) -> None:
        root = ctx.work / f"surrogate-{index}"
        build = subprocess.run(
            ctx.child_argv("surrogate", str(root)),
            cwd=ctx.root,
            env=ctx.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if build.returncode != 0:
            raise RunFailed(f"surrogate build failed: {build.stderr[-2000:]}")
        args = [
            "--port", "0",
            "--cache-dir", str(ctx.work / f"cache-{index}"),
            "--surrogate-root", str(root),
        ]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve"] + args
        else:
            argv = ctx.child_argv(
                "serve", "--trace-out", str(trace_out), "--", *args
            )
        self.child = Child(ctx, argv, f"server-{index}")
        banner = self.child.wait_ready(BANNER)
        host, port = banner[len(BANNER):].rsplit(":", 1)
        self.client = ServiceClient(
            host,
            int(port),
            timeout_s=60.0,
            retry=RetryPolicy(max_attempts=1),
        )

    def stop(self, outcome: Outcome) -> None:
        """SIGTERM; check exit code 5 and the clean-shutdown line."""
        self.client.close()
        code, out = self.child.terminate()
        outcome.check(
            code == ExitCode.INTERRUPTED and CLEAN_SHUTDOWN in out,
            f"{self.child.name}: exit {code}, stdout {out!r},"
            f" log {self.child.log_tail()!r}",
        )

    def close(self) -> None:
        self.client.close()
        self.child.close()


def _send(server: Server, params: dict, outcome: Outcome):
    """One round trip; returns (response or None, seconds)."""
    start = time.perf_counter()
    try:
        response = server.client.query("transmission", params)
    except ServiceError as exc:
        outcome.attempted += 1
        outcome.fail(f"{params}: error {exc.code}: {exc.message}")
        return None, time.perf_counter() - start
    except (OSError, ValueError) as exc:
        raise RunFailed(
            f"connection to {server.child.name} failed: {exc};"
            f" log {server.child.log_tail()!r}"
        ) from exc
    outcome.attempted += 1
    return response, time.perf_counter() - start


def _setup(ctx, index, outcome, trace_out=None):
    """Build, start and warm one server; returns (server, seconds)."""
    start = time.perf_counter()
    server = Server(ctx, index, trace_out)
    try:
        for _, params in workloads.shield_warmup(ctx.seed):
            _send(server, params, outcome)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - start


class Answer(NamedTuple):
    """One timed response, kept for later checks."""

    cls: str
    params: dict
    result: dict
    provenance: dict
    latency: float
    cached: bool


class Window:
    """One closed-loop measurement window's raw results."""

    def __init__(self) -> None:
        self.answers: List[Answer] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def throughput(self) -> float:
        return len(self.answers) / self.wall_s


def _measure(
    ctx: Context,
    server: Server,
    seconds: float,
    min_requests: int,
    outcome: Outcome,
) -> Window:
    """Send requests back to back for ``seconds``, and on until
    ``min_requests`` have been timed; check each answer's provenance
    inline."""
    stream = workloads.shield_serve(ctx.seed)
    window = Window()
    cpu_start = proc_cpu_s(server.child.pid)
    start = time.perf_counter()
    end = start
    while end < start + seconds or len(window.answers) < min_requests:
        cls, params = next(stream)
        response, latency = _send(server, params, outcome)
        end = time.perf_counter()
        if response is None:
            continue
        provenance = response.get("provenance") or {}
        outcome.check(
            provenance.get("engine") == cls
            and provenance.get("degraded") is False
            and response["degraded"] is False,
            f"{cls} {params}: served by {provenance.get('engine')},"
            f" degraded={provenance.get('degraded')}",
        )
        window.answers.append(
            Answer(
                cls,
                params,
                response["result"],
                provenance,
                latency,
                bool(response["cached"]),
            )
        )
    window.wall_s = end - start
    window.cpu_s = proc_cpu_s(server.child.pid) - cpu_start
    return window


def _samples(answers: List[Answer], seed: int, outcome: Outcome) -> None:
    """Check sampled answers against in-process engines."""
    from repro.service.protocol import SHIELDS
    from repro.spectra.beamlines import rotax_spectrum
    from repro.transport.api import TransportQuery, answer

    rng = random.Random(seed)
    spectrum = rotax_spectrum()

    def sample(cls, n):
        chosen = [a for a in answers if a.cls == cls]
        return rng.sample(chosen, min(n, len(chosen)))

    for record in sample("surrogate", SURROGATE_SAMPLES):
        thickness = record.params["thickness_cm"]
        solved = answer(
            TransportQuery(
                mode="transmission",
                material=SHIELDS["cadmium"][0],
                thickness_cm=thickness,
                source_spectrum=spectrum,
                engine="deterministic",
            ),
            store=None,
        )
        gap = abs(record.result["thermal_transmission"] - solved.value)
        bound = record.provenance["error_bound"]
        outcome.check(
            gap <= bound,
            f"surrogate at {thickness} cm is {gap} from the"
            f" deterministic solve (bound {bound})",
        )
    for record in sample("batch", BATCH_SAMPLES):
        params = record.params
        material, thickness = SHIELDS[params["shield"]]
        replay = answer(
            TransportQuery(
                mode="transmission",
                material=material,
                thickness_cm=thickness,
                source_spectrum=spectrum,
                n_neutrons=params["n_neutrons"],
                seed=params["seed"],
                engine="batch",
            ),
            store=None,
        )
        outcome.check(
            replay.result.to_dict() == record.result["transport"],
            f"batch {params}: tallies differ from the in-process run",
        )
    for record in sample("deterministic", DETERMINISTIC_SAMPLES):
        params = record.params
        solved = answer(
            TransportQuery(
                mode="transmission",
                material=SHIELDS[params["shield"]][0],
                thickness_cm=params["thickness_cm"],
                source_spectrum=spectrum,
                engine="deterministic",
            ),
            store=None,
        )
        outcome.check(
            solved.result.to_dict() == record.result["transport"],
            f"deterministic {params}: solution differs from the"
            f" in-process solve",
        )


def _properties(window: Window) -> Dict[str, float]:
    """Measured shares of the input properties claims hinge on."""
    answers = window.answers
    n = len(answers)
    shares = {
        f"{cls}_share": sum(a.cls == cls for a in answers) / n
        for cls in ("surrogate", "batch", "deterministic")
    }
    shares["cache_miss_share"] = sum(not a.cached for a in answers) / n
    surrogate = [a.latency for a in answers if a.cls == "surrogate"]
    shares["surrogate_p50_ms"] = quantile(surrogate, 0.5) * 1e3
    return shares


def _note(window: Window, props: Dict[str, float]) -> str:
    shares = " ".join(f"{k}={v:.4g}" for k, v in sorted(props.items()))
    return (
        f"shield-serve: {len(window.answers)} timed requests in"
        f" {window.wall_s:.2f} s, one connection, closed loop; {shares}"
    )


def run_untraced(ctx: Context) -> Outcome:
    """End-to-end metrics: ``SETUP_REPEATS`` set-ups, one window on the
    server of the last set-up before it."""
    outcome = Outcome()
    setups: List[float] = []
    server = None
    try:
        for index in range(SETUP_REPEATS):
            server, setup_s = _setup(ctx, index, outcome)
            setups.append(setup_s)
            if index == SETUP_REPEATS // 2 - 1:
                window = _measure(
                    ctx, server, ctx.seconds, MIN_REQUESTS, outcome
                )
                peak_mb = proc_vmhwm_mb(server.child.pid)
            server.stop(outcome)
            server = None
    finally:
        if server is not None:
            server.close()
    _samples(window.answers, ctx.seed, outcome)
    outcome.notes.append(_note(window, _properties(window)))
    outcome.notes.append(
        "setup_s samples: " + " ".join(f"{s:.3f}" for s in setups)
    )
    latencies = [a.latency for a in window.answers]
    outcome.metrics = {
        "setup_s": quantile(setups, 0.5),
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "throughput_per_s": window.throughput,
        "peak_rss_mb": peak_mb,
    }
    return outcome


def run_traced(ctx: Context) -> Tuple[Outcome, dict]:
    """Per-layer metrics: an untraced and a traced window of half the
    run each, on the same request sequence; returns the outcome and
    the reduced trace."""
    outcome = Outcome()
    half = ctx.seconds / 2.0
    spans_path = ctx.work / "spans.json"
    server = None
    try:
        server, _ = _setup(ctx, 0, outcome)
        plain = _measure(ctx, server, half, 0, outcome)
        server.stop(outcome)
        server = None
        server, _ = _setup(ctx, 1, outcome, trace_out=spans_path)
        traced = _measure(ctx, server, half, 0, outcome)
        scraped = parse_prometheus(server.client.metrics())
        server.stop(outcome)
        server = None
    finally:
        if server is not None:
            server.close()
    _samples(traced.answers, ctx.seed, outcome)
    spans = load_spans(str(spans_path))
    for counter, count in sorted(counter_expectations(spans).items()):
        outcome.check(
            scraped.get(counter, 0.0) == count,
            f"/metrics {counter}={scraped.get(counter, 0.0)} but the"
            f" wrappers saw {count}",
        )
    warmup_roots = len(workloads.shield_warmup(ctx.seed))
    layers = Layers(spans, warmup_roots=warmup_roots)
    props = _properties(plain)
    outcome.notes.append(_note(plain, props) + " (untraced)")
    outcome.notes.append(_note(traced, _properties(traced)) + " (traced)")
    extra = {
        "process.server.cpu_ms_per_request": plain.cpu_s
        * 1e3
        / len(plain.answers),
        "trace.overhead_ratio": plain.throughput / traced.throughput,
        "workload.cache_miss_share": props["cache_miss_share"],
        "workload.surrogate_p50_ms": props["surrogate_p50_ms"],
    }
    return outcome, {"layers": layers, "extra": extra}
