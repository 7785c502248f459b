"""``repro serve`` graceful signal shutdown, in a real process.

Mirrors the ``repro run`` acceptance: SIGINT/SIGTERM must stop the
accept loop, drain in-flight work within the deadline, flush, and
exit :attr:`~repro.exitcodes.ExitCode.INTERRUPTED` — distinct from a
crash and from a clean non-signal exit.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exitcodes import ExitCode

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

_BANNER = "repro service listening on "


def _spawn_serve(tmp_path, attempt):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--cache-dir", str(tmp_path / f"cache-{attempt}"),
            "--drain-s", "2",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM]
)
def test_signal_exits_interrupted(tmp_path, signum):
    for attempt in range(3):
        proc = _spawn_serve(tmp_path, attempt)
        try:
            # The banner proves the server is up and the handlers
            # are installed before the signal lands.
            banner = proc.stdout.readline()
            if not banner.startswith(_BANNER):
                proc.kill()
                proc.communicate()
                continue
            time.sleep(0.05)
            proc.send_signal(signum)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == int(ExitCode.INTERRUPTED), (
            proc.returncode,
            out,
        )
        assert "clean shutdown" in out
        return
    pytest.skip("serve never printed its banner in 3 attempts")


def _stall(port):
    """Pipeline requests on a connection that never reads its answers.

    Returns the socket once sends have blocked for a second: the
    server has stopped reading it, its handler parked in ``drain()``.
    """
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(("127.0.0.1", port))
    sock.setblocking(False)
    line = json.dumps(
        {
            "id": "unread",
            "kind": "fit",
            "params": {"device": "K20", "site": "nyc"},
        }
    ).encode("utf-8") + b"\n"
    burst = line * 64
    blocked_since = None
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            sock.send(burst)
            blocked_since = None
        except BlockingIOError:
            now = time.monotonic()
            if blocked_since is None:
                blocked_since = now
            elif now - blocked_since > 1.0:
                return sock
            time.sleep(0.01)
    sock.close()
    raise AssertionError("the server never stopped reading")


def test_sigterm_with_a_client_that_never_reads(tmp_path):
    # The stalled handler is cancelled once --drain-s runs out; the
    # server must then reach its clean shutdown, not wait for the
    # client to take its unsent answers.
    for attempt in range(3):
        proc = _spawn_serve(tmp_path, attempt)
        sock = None
        try:
            banner = proc.stdout.readline()
            if not banner.startswith(_BANNER):
                proc.kill()
                proc.communicate()
                continue
            sock = _stall(int(banner.rsplit(":", 1)[1]))
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            elapsed = time.monotonic() - started
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            if sock is not None:
                sock.close()
        assert proc.returncode == int(ExitCode.INTERRUPTED), (
            proc.returncode,
            out,
        )
        assert "clean shutdown" in out
        # --drain-s 2, plus start-up slack for a loaded host.
        assert elapsed < 15.0, elapsed
        return
    pytest.skip("serve never printed its banner in 3 attempts")
