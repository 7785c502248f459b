"""End-to-end smoke drive of the surrogate serving path.

Builds a small certified cadmium response surface with the real
``python -m repro surrogate build`` CLI, boots ``python -m repro
serve --surrogate-root --cache-dir`` on an ephemeral port as a child
process, and sweeps 100 distinct in-envelope transmission queries
through the ``engine="auto"`` policy.  The acceptance shape from the
design:

- at least 90% of the sweep is answered by the surrogate (each
  response's ``provenance.engine``), the rest by a live engine with
  honest provenance;
- zero accuracy-contract violations: every surrogate answer agrees
  with a live deterministic run of the same query to within its own
  certified ``error_bound``;
- the result cache holds live answers only: no surrogate-stamped
  response is ``cached``, and ``/metrics`` counts exactly one cache
  write per live-served query.

This doubles as the CI ``surrogate-smoke`` job driver and a worked
example of the protocol-v2 accuracy field.

Run:  PYTHONPATH=src python examples/surrogate_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile

from repro.exitcodes import ExitCode
from repro.service import ServiceClient

N_QUERIES = 100
#: The build's envelope is [0.025, 0.4] cm around the 0.1 cm service
#: default; the sweep stays strictly inside it.
SWEEP_LO_CM = 0.03
SWEEP_HI_CM = 0.38
#: Queries cross-checked against a live deterministic run.
CONTRACT_CHECKS = 7


def _build_artifact(root: str) -> None:
    """Build the cadmium surface with the real CLI."""
    subprocess.run(
        [
            sys.executable, "-m", "repro", "surrogate", "build",
            "--out", root,
            "--name", "smoke",
            "--shield", "cadmium",
            "--points", "9",
            "--cert-histories", "4000",
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )


def _boot(root: str, cache_dir: str) -> "tuple[subprocess.Popen, int]":
    """Start the serve subcommand; return (process, bound port)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--surrogate-root", root,
            "--cache-dir", cache_dir,
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


def _thicknesses() -> "list[float]":
    step = (SWEEP_HI_CM - SWEEP_LO_CM) / (N_QUERIES - 1)
    return [SWEEP_LO_CM + i * step for i in range(N_QUERIES)]


def _sweep(client: ServiceClient) -> "tuple[int, list[dict]]":
    """Run the auto-policy sweep; return (hits, served envelopes)."""
    hits = 0
    served = []
    for thickness_cm in _thicknesses():
        response = client.query(
            "transmission",
            {
                "shield": "cadmium",
                "thickness_cm": thickness_cm,
                "engine": "auto",
                "n_neutrons": 2048,
            },
            accuracy={"rel_err": 0.05, "confidence": 0.95},
        )
        assert response["ok"], response
        stamp = response["provenance"]
        assert stamp is not None, "transmission without provenance"
        if stamp["engine"] == "surrogate":
            hits += 1
            assert stamp["artifact_digest"], stamp
            assert 0.0 < stamp["error_bound"] <= 0.005, stamp
        else:
            # An honest miss: no artifact claimed, engine named.
            assert stamp["artifact_digest"] == "", stamp
        served.append(
            {
                "thickness_cm": thickness_cm,
                "value": response["result"]["thermal_transmission"],
                "stamp": stamp,
                "cached": response["cached"],
            }
        )
    return hits, served


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def _check_cache_policy(
    client: ServiceClient, served: "list[dict]", live_checks: int
) -> None:
    """The cache holds live answers only, each written once."""
    cached = [row for row in served if row["cached"]]
    assert not any(
        row["stamp"]["engine"] == "surrogate" for row in cached
    ), cached
    live = sum(
        1
        for row in served
        if row["stamp"]["engine"] != "surrogate" and not row["cached"]
    )
    writes = _metric(client.metrics(), "repro_service_cache_writes_total")
    assert writes == live + live_checks, (writes, live, live_checks)
    print(
        f"cache: {writes:.0f} writes for {live + live_checks}"
        " live answers, 0 surrogate answers cached"
    )


def _contract_violations(
    client: ServiceClient, served: "list[dict]"
) -> "tuple[int, int]":
    """Cross-check surrogate answers against live deterministic.

    Returns:
        ``(violations, live queries sent)``.
    """
    surrogate_served = [
        row
        for row in served
        if row["stamp"]["engine"] == "surrogate"
    ]
    stride = max(1, len(surrogate_served) // CONTRACT_CHECKS)
    checked = surrogate_served[::stride]
    violations = 0
    for row in checked:
        live = client.query(
            "transmission",
            {
                "shield": "cadmium",
                "thickness_cm": row["thickness_cm"],
                "engine": "deterministic",
            },
        )
        assert live["provenance"]["engine"] == "deterministic"
        assert live["cached"] is False, live
        gap = abs(
            live["result"]["thermal_transmission"] - row["value"]
        )
        if gap > row["stamp"]["error_bound"] + 1.0e-9:
            violations += 1
            print(
                f"contract violation at {row['thickness_cm']:.3f} cm:"
                f" gap {gap:.2e} > bound"
                f" {row['stamp']['error_bound']:.2e}"
            )
    return violations, len(checked)


def main() -> None:
    with tempfile.TemporaryDirectory() as root, \
            tempfile.TemporaryDirectory() as cache_dir:
        _build_artifact(root)
        print(f"built certified surface under {root}")
        proc, port = _boot(root, cache_dir)
        try:
            client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
            try:
                hits, served = _sweep(client)
                violations, live_checks = _contract_violations(
                    client, served
                )
                _check_cache_policy(client, served, live_checks)
            finally:
                client.close()
            hit_rate = hits / N_QUERIES
            print(
                f"sweep: {N_QUERIES} auto queries,"
                f" hit rate {hit_rate:.0%}"
            )
            assert hit_rate >= 0.9, hit_rate
            assert violations == 0, violations
            print("contract: 0 violations against deterministic")

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == int(ExitCode.INTERRUPTED), (
            proc.returncode
        )
        print("surrogate smoke: certified fast path served the sweep")


if __name__ == "__main__":
    main()
