"""Fork-pool workers die with their parent and shed its observer,
and no pool forks while another thread runs.

A worker blocks on its pool's call queue, whose write end every
sibling inherits, so a SIGKILLed parent never gives it EOF.  Two
tests here SIGKILL a forked owner of a live pool (the service's
``--workers`` pool, then a study's shard pool) and require every
worker gone within a bounded wait.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.obs import core as obs
from repro.obs.core import Observer, observing
from repro.runtime.forkpool import PARENT_POLL_S, fork_pool
from repro.service.compute import QueryExecutor
from repro.studies import scheduler as scheduler_module
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import StudySpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/proc/self"),
    reason="needs fork and /proc",
)

#: How long orphaned workers may take to exit (many watchdog polls).
ORPHAN_DEADLINE_S = 50 * PARENT_POLL_S


def _running(pid):
    """True while ``pid`` exists and is not a zombie (an exited
    orphan stays a zombie until its new parent reaps it)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    state = stat.rsplit(")", 1)[1].split()[0]
    return state not in ("Z", "X")


def _service_pool_owner(conn):
    executor = QueryExecutor(n_workers=2)
    executor.warm()
    conn.send([child.pid for child in multiprocessing.active_children()])
    time.sleep(120.0)


def _study_pool_owner(conn):
    def report_workers():
        workers = multiprocessing.active_children()
        if workers:
            conn.send([child.pid for child in workers])
            time.sleep(120.0)
        return False

    spec = StudySpec(
        name="orphans",
        axes={"site": ("nyc", "leadville"), "shield": ("none", "water")},
        n_neutrons=256,
        seed=3,
        shard_size=1,
    )
    root = conn.recv()
    StudyScheduler(
        spec,
        ledger_path=os.path.join(root, "ledger.jsonl"),
        store_root=os.path.join(root, "store"),
        interrupt=report_workers,
    ).run()
    conn.send([])


def _kill_owner_and_wait(target, tmp_path):
    """Fork an owner running ``target``, SIGKILL it once its pool is
    up; returns (worker pids, those still running at the deadline)."""
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    owner = ctx.Process(target=target, args=(child_end,))
    owner.start()
    try:
        parent_end.send(str(tmp_path))
        assert parent_end.poll(60.0), "the owner never reported"
        workers = parent_end.recv()
    finally:
        os.kill(owner.pid, signal.SIGKILL)
        owner.join(30.0)
        parent_end.close()
        child_end.close()
    assert owner.exitcode == -signal.SIGKILL
    deadline = time.monotonic() + ORPHAN_DEADLINE_S
    alive = [pid for pid in workers if _running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _running(pid)]
    for pid in alive:  # do not leak them into later tests
        os.kill(pid, signal.SIGKILL)
    return workers, alive


def test_service_pool_workers_die_with_their_owner(tmp_path):
    workers, alive = _kill_owner_and_wait(_service_pool_owner, tmp_path)
    assert len(workers) == 2
    assert alive == []


def test_study_pool_workers_die_with_their_owner(tmp_path, monkeypatch):
    # Two usable CPUs on any host; the forked owner inherits this.
    monkeypatch.setattr(scheduler_module, "_usable_cpus", lambda: 2)
    workers, alive = _kill_owner_and_wait(_study_pool_owner, tmp_path)
    assert len(workers) == 2
    assert alive == []


def test_workers_drop_the_inherited_observer(tmp_path):
    trace = tmp_path / "trace.jsonl"
    with observing(Observer(trace_path=trace)):
        with obs.span("study.run"):  # the sink is open when we fork
            pass
        pool = fork_pool(2)
        try:
            assert pool.submit(obs.enabled).result(60.0) is False
        finally:
            pool.shutdown(wait=True)
        assert obs.enabled()
    # Only the parent's begin/end pair: no worker wrote or flushed.
    assert len(trace.read_text().splitlines()) == 2


def test_no_worker_is_forked_while_another_thread_runs(
    no_fork_while_threaded,
):
    before = {child.pid for child in multiprocessing.active_children()}
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    try:
        assert fork_pool(2) is None
        children = {
            child.pid for child in multiprocessing.active_children()
        }
        assert children == before
    finally:
        release.set()
        bystander.join(10.0)
    assert not bystander.is_alive()
