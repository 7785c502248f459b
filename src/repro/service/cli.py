"""``repro serve`` — boot the FIT query service.

Wires the service stack (cache, executor, admission, coalescer) to
an asyncio TCP server, installs SIGINT/SIGTERM handlers for graceful
shutdown, and prints the bound address on stdout in a
machine-parseable line (``--port 0`` asks the kernel for an
ephemeral port; CI's smoke job parses the line to find it).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from pathlib import Path
from typing import Dict, Optional, Set

from repro.exitcodes import ExitCode
from repro.obs import core as obs
from repro.obs.metrics import MetricsRegistry
from repro.runtime.budget import Budget
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.compute import QueryExecutor
from repro.service.server import FitService
from repro.studies.service import StudyGateway
from repro.transport import api as transport_api

__all__ = ["add_serve_arguments", "load_plans", "run_serve"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro serve`` arguments to a subparser."""
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7920,
        help="TCP port to bind; 0 = ephemeral (default: %(default)s)",
    )
    parser.add_argument(
        "--plan-root",
        type=Path,
        default=None,
        help="directory of *.json query presets clients may"
        " reference by plan name",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="durable result-cache directory (default: no cache)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="transmission worker processes (default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="global concurrent-query ceiling (default: %(default)s)",
    )
    parser.add_argument(
        "--tenant-events",
        type=int,
        default=0,
        help="per-tenant query budget; 0 = unbudgeted"
        " (default: %(default)s)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write an observability trace to this JSONL path",
    )
    parser.add_argument(
        "--study-root",
        type=Path,
        default=None,
        help="durable root for study ledgers and shard results;"
        " enables the study-submit/status/cancel verbs",
    )
    parser.add_argument(
        "--surrogate-root",
        type=Path,
        default=None,
        help="directory of certified surrogate artifacts (from"
        " 'repro surrogate build'); enables sub-millisecond"
        " surrogate answers for engine=auto/surrogate queries",
    )
    parser.add_argument(
        "--drain-s",
        type=float,
        default=5.0,
        help="seconds to let in-flight work finish after"
        " SIGINT/SIGTERM before cancelling (default: %(default)s)",
    )


def load_plans(plan_root: Optional[Path]) -> Dict[str, dict]:
    """Load named query presets from ``<plan_root>/*.json``.

    Each file's stem is the plan name; unparsable files are skipped
    with a warning line rather than aborting boot.
    """
    plans: Dict[str, dict] = {}
    if plan_root is None or not plan_root.is_dir():
        return plans
    for path in sorted(plan_root.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(
                f"repro serve: skipping plan {path.name}: {exc}",
                flush=True,
            )
            continue
        if isinstance(data, dict):
            plans[path.stem] = data
    return plans


def run_serve(args: argparse.Namespace) -> int:
    """Entry point for ``repro serve``; blocks until shutdown.

    Exits :data:`ExitCode.INTERRUPTED` after a graceful
    SIGINT/SIGTERM shutdown, mirroring ``repro run``: the service
    stops accepting, drains in-flight work within ``--drain-s``,
    flushes metrics, and only then returns.
    """
    cache = (
        ResultCache(args.cache_dir)
        if args.cache_dir is not None
        else None
    )
    surrogate_root = getattr(args, "surrogate_root", None)
    if surrogate_root is not None:
        # Configure the process-wide store before the pool warms so
        # forked transmission workers inherit it.
        transport_api.configure(str(surrogate_root))
    executor = QueryExecutor(n_workers=args.workers)
    executor.warm()
    default_budget = (
        Budget(max_events=args.tenant_events)
        if args.tenant_events > 0
        else None
    )
    studies = (
        StudyGateway(args.study_root)
        if args.study_root is not None
        else None
    )
    service = FitService(
        executor=executor,
        cache=cache,
        admission=AdmissionController(
            max_inflight=args.max_inflight,
            default_budget=default_budget,
        ),
        plans=load_plans(args.plan_root),
        studies=studies,
    )
    observer = obs.Observer(
        trace_path=args.trace, registry=MetricsRegistry()
    )
    interrupted = False
    try:
        with obs.observing(observer):
            if cache is not None:
                obs.inc(
                    "repro_service_cache_swept_total",
                    cache.swept_on_init,
                )
            if surrogate_root is not None:
                # Load (read and verify) every artifact now, where
                # its quarantine counts still reach /metrics: the
                # event loop asks the store whether it serves a
                # transmission and must never do artifact I/O.
                transport_api.default_store().digests()
            interrupted = asyncio.run(
                _serve_async(
                    service,
                    args.host,
                    args.port,
                    drain_s=args.drain_s,
                )
            )
            if studies is not None:
                studies.drain(args.drain_s)
    finally:
        service.close()
    if interrupted:
        return int(ExitCode.INTERRUPTED)
    return int(ExitCode.OK)


async def _serve_async(
    service: FitService,
    host: str,
    port: int,
    drain_s: float = 5.0,
) -> bool:
    """Run the TCP server until SIGINT/SIGTERM.

    Returns:
        True when shutdown was triggered by a signal (always, at
        present — the server has no other way to stop).
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            signal.signal(signum, lambda *_: stop.set())
    connections: Set["asyncio.Task"] = set()

    async def handle(reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
            task.add_done_callback(connections.discard)
        await service.handle_connection(reader, writer)

    server = await asyncio.start_server(handle, host, port)
    addr = server.sockets[0].getsockname()
    print(
        f"repro service listening on {addr[0]}:{addr[1]}",
        flush=True,
    )
    interrupted = False
    try:
        await stop.wait()
        interrupted = True
    finally:
        # Stop accepting, then give in-flight work a bounded window
        # before cancelling what remains.
        service.begin_shutdown()
        server.close()
        deadline = loop.time() + max(0.0, drain_s)
        try:
            await asyncio.wait_for(
                service.coalescer.drain(),
                timeout=max(0.0, deadline - loop.time()),
            )
        except asyncio.TimeoutError:
            pass
        if connections:
            # Idle NDJSON connections never end on their own; the
            # deadline bounds how long a busy one may hold shutdown.
            await asyncio.wait(
                list(connections),
                timeout=max(0.0, deadline - loop.time()),
            )
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(
                *connections, return_exceptions=True
            )
        try:
            # 3.12.1+ waits for connection handlers here; ours are
            # already cancelled, so this should be instant — the
            # timeout is a belt against stragglers.
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        for signum in installed:
            loop.remove_signal_handler(signum)
    print("repro service: clean shutdown", flush=True)
    return interrupted
