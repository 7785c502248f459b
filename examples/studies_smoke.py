"""End-to-end crash-tolerance drive of durable sharded studies.

Runs a tiny 2x2 grid study as a real ``python -m repro studies run``
child process, SIGKILLs it mid-run (no cleanup, no atexit), then
re-runs the identical command and proves the contract:

* the resumed run completes with exit code 0;
* the write-ahead ledger replays clean — contiguous sequence
  numbers, one ``study-started``, one ``study-finished``, every
  shard committed exactly once;
* no process of the killed run survives it: its shard-pool workers
  exit on their own once their parent is gone;
* the merged report is byte-identical to an uninterrupted run of the
  same spec in a fresh directory;
* ``repro studies report`` rebuilds the same report from durable
  state alone, exit code 0.

This doubles as the CI ``studies-smoke`` job driver.

Run:  PYTHONPATH=src python examples/studies_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.studies.ledger import StudyLedger

SPEC = {
    "name": "smoke-study",
    "axes": {
        "site": ["nyc", "leadville"],
        "shield": ["water", "cadmium"],
    },
    "n_neutrons": 20_000,
    "seed": 2020,
    "shard_size": 1,
}
KILL_ATTEMPTS = 5
#: How long a killed run's pool workers may take to exit.
ORPHAN_DEADLINE_S = 10.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_args(workdir: Path, verb: str = "run") -> list:
    return [
        sys.executable, "-m", "repro", "studies", verb,
        "--spec", str(workdir / "spec.json"),
        "--ledger", str(workdir / "ledger.jsonl"),
        "--store", str(workdir / "store"),
        "--json", str(workdir / f"{verb}-report.json"),
    ]


def _group(pgid: int) -> list:
    """Running (not zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def _await_group_gone(pgid: int) -> None:
    """Every process of the killed run must exit within the deadline."""
    if not os.path.isdir("/proc"):
        print("no /proc: cannot check for surviving processes")
        return
    deadline = time.monotonic() + ORPHAN_DEADLINE_S
    while _group(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = _group(pgid)
    assert not survivors, f"killed run's processes survive: {survivors}"


def _kill_mid_run(workdir: Path) -> bool:
    """Start a run and SIGKILL it after its first durable record.

    Returns True when the kill landed mid-run (the usual case);
    False when the child won the race and finished first.  The run
    leads its own process group, so its pool workers can be found
    after it is gone.
    """
    ledger = workdir / "ledger.jsonl"
    proc = subprocess.Popen(
        _run_args(workdir),
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            if (
                ledger.exists()
                and ledger.read_bytes().count(b"\n") >= 2
            ):
                break
            time.sleep(0.002)
        if proc.poll() is not None:
            return False  # finished before the kill could land
        workers = (
            len(_group(proc.pid)) - 1 if os.path.isdir("/proc") else 0
        )
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    _await_group_gone(proc.pid)
    print(f"killed run left no process behind ({workers} pool workers)")
    return True


def _resume(workdir: Path) -> dict:
    """Re-run the identical command; must complete with exit 0."""
    proc = subprocess.run(
        _run_args(workdir),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300.0,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stdout)
    return json.loads((workdir / "run-report.json").read_text())


def _check_ledger(workdir: Path, n_shards: int) -> None:
    """The durable invariants the WAL promises."""
    state = StudyLedger(workdir / "ledger.jsonl").replay()
    seqs = [record["seq"] for record in state.records]
    assert seqs == list(range(len(seqs))), seqs
    kinds = [record["type"] for record in state.records]
    assert kinds.count("study-started") == 1
    assert kinds.count("study-finished") == 1
    assert sorted(state.committed) == list(range(n_shards))
    assert not state.quarantined
    assert not state.torn_tail, "resume must heal the torn tail"
    stale = list((workdir / "store").rglob("*.tmp"))
    assert not stale, f"stale store temp files: {stale}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        killed = root / "killed"
        clean = root / "clean"
        for workdir in (killed, clean):
            workdir.mkdir()
            (workdir / "spec.json").write_text(json.dumps(SPEC))

        for attempt in range(KILL_ATTEMPTS):
            if _kill_mid_run(killed):
                print(f"SIGKILL landed mid-run (attempt {attempt + 1})")
                break
            # The child finished first: start the race over.
            for leftover in (
                killed / "ledger.jsonl",
                killed / "run-report.json",
            ):
                if leftover.exists():
                    leftover.unlink()
        else:
            raise SystemExit(
                f"child always finished before SIGKILL"
                f" in {KILL_ATTEMPTS} attempts"
            )

        resumed = _resume(killed)
        assert resumed["status"] == "complete", resumed["status"]
        print(
            f"resumed to complete:"
            f" {len(resumed['committed'])} shards committed"
        )

        _check_ledger(killed, n_shards=len(resumed["committed"]))
        print("ledger invariants hold after kill + resume")

        baseline = _resume(clean)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        ), "kill+resume report differs from uninterrupted run"
        print("report is byte-identical to an uninterrupted run")

        proc = subprocess.run(
            _run_args(killed, verb="report"),
            env=_env(),
            capture_output=True,
            text=True,
            timeout=300.0,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stdout)
        rebuilt = json.loads(
            (killed / "report-report.json").read_text()
        )
        assert json.dumps(rebuilt, sort_keys=True) == json.dumps(
            resumed, sort_keys=True
        )
        print("studies smoke: report rebuilt from durable state, exit 0")


if __name__ == "__main__":
    main()
