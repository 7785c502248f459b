"""End-to-end smoke drive of the FIT query service.

Boots ``python -m repro serve`` on an ephemeral port as a real child
process, then exercises the acceptance shape from the service design:
100 concurrent identical transmission queries (a thundering herd the
coalescer and cache must collapse to one underlying computation),
10 distinct ``fit``/``flux`` queries and 4 distinct live transmission
queries, a ``/metrics`` scrape proving one cache miss and one cache
write per distinct live transmission (the cache holds nothing else),
and a SIGTERM graceful shutdown with the interrupted exit code (5),
mirroring ``repro run``.

This doubles as the CI ``service-smoke`` job driver and a worked
example of the blocking client API.

Run:  PYTHONPATH=src python examples/service_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.exitcodes import ExitCode
from repro.service import ServiceClient

IDENTICAL_CLIENTS = 100
IDENTICAL_PARAMS = {
    "shield": "water",
    "n_neutrons": 2048,
    "seed": 2020,
}
DISTINCT_QUERIES = [
    ("flux", {"site": site, "room": room})
    for site in ("nyc", "leadville", "lanl", "isis")
    for room in (True, False)
] + [
    ("fit", {"device": "K20", "site": "nyc", "room": True}),
    ("fit", {"device": "K20", "site": "leadville", "room": False}),
]
#: Live batch transmissions, each distinct from the herd's query: the
#: cache's only other entries.
DISTINCT_TRANSMISSIONS = [
    {"shield": shield, "n_neutrons": 512, "seed": 7}
    for shield in ("cadmium", "borated-poly", "water", "concrete")
]


def _boot(cache_dir: str) -> "tuple[subprocess.Popen, int]":
    """Start the serve subcommand; return (process, bound port)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--cache-dir", cache_dir,
            # The herd must all be admitted at once (coalesced
            # waiters still count as in-flight requests).
            "--max-inflight", str(IDENTICAL_CLIENTS + 8),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    line = proc.stdout.readline().strip()
    prefix = "repro service listening on "
    if not line.startswith(prefix):
        proc.kill()
        raise SystemExit(f"unexpected serve banner: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


def _storm(port: int) -> None:
    """Fire the identical-query herd from concurrent threads."""
    barrier = threading.Barrier(IDENTICAL_CLIENTS)
    payloads = []
    failures = []
    lock = threading.Lock()

    def one_client() -> None:
        try:
            client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
            try:
                barrier.wait(timeout=30.0)
                response = client.query(
                    "transmission", dict(IDENTICAL_PARAMS)
                )
            finally:
                client.close()
            with lock:
                payloads.append(
                    repr(response["result"])
                )
        except Exception as exc:  # noqa: BLE001 — smoke reporter
            with lock:
                failures.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=one_client)
        for _ in range(IDENTICAL_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not failures, failures[:3]
    assert len(payloads) == IDENTICAL_CLIENTS
    assert len(set(payloads)) == 1, "herd results diverged"
    print(f"herd: {IDENTICAL_CLIENTS} clients, 1 distinct payload")


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        proc, port = _boot(cache_dir)
        try:
            _storm(port)

            client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
            try:
                for kind, params in DISTINCT_QUERIES:
                    response = client.query(kind, params)
                    assert response["ok"], response
                    # Only transport answers carry a provenance
                    # stamp (protocol v2).
                    assert response["provenance"] is None
                for params in DISTINCT_TRANSMISSIONS:
                    response = client.query("transmission", params)
                    assert response["ok"], response
                    assert response["cached"] is False, response
                    assert response["provenance"]["engine"] == "batch"
                stamped = client.query(
                    "transmission",
                    dict(IDENTICAL_PARAMS),
                    accuracy={"rel_err": 0.05, "confidence": 0.95},
                )
                provenance = stamped["provenance"]
                assert provenance["engine"] == "batch", provenance
                assert provenance["requested_engine"] == "batch"
                metrics = client.metrics()
            finally:
                client.close()
            distinct = len(DISTINCT_QUERIES) + len(DISTINCT_TRANSMISSIONS)
            print(
                f"distinct: {distinct} queries answered,"
                f" transport provenance from"
                f" {provenance['engine']!r}"
            )

            # The cache holds live transmission answers only: one
            # miss and one write for the identical herd and one per
            # distinct transmission (fit/flux never touch it).
            # Everything else the herd sent — including the stamped
            # replay of its query — was coalesced into an in-flight
            # computation or served from the cache.
            misses = _metric(
                metrics, "repro_service_cache_misses_total"
            )
            expected = 1 + len(DISTINCT_TRANSMISSIONS)
            assert misses == expected, (misses, expected)
            writes = _metric(
                metrics, "repro_service_cache_writes_total"
            )
            assert writes == expected, (writes, expected)
            absorbed = _metric(
                metrics, "repro_service_coalesced_total"
            ) + _metric(metrics, "repro_service_cache_hits_total")
            assert absorbed == IDENTICAL_CLIENTS, absorbed
            requests = _metric(
                metrics, "repro_service_requests_total"
            )
            assert requests == IDENTICAL_CLIENTS + 1 + distinct, (
                requests
            )
            print(
                f"metrics: {misses:.0f} live computations,"
                f" {absorbed:.0f} requests absorbed"
            )

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == int(ExitCode.INTERRUPTED), (
            proc.returncode
        )
        assert "clean shutdown" in out, out
        print("service smoke: clean shutdown, exit 5 (interrupted)")


if __name__ == "__main__":
    main()
