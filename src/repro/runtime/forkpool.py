"""Fork-context process pools whose workers die with their parent.

The service's ``--workers`` pool and a study's shard pool both use a
:class:`~concurrent.futures.ProcessPoolExecutor` with the ``fork``
start method: a forked worker inherits the parent's imported modules,
loaded surrogate store and chaos controller, so it starts in
milliseconds, where a worker started with ``spawn`` re-imports
``repro`` first (about half a second).  Two hazards come with
``fork``, and :func:`fork_pool` closes both:

* **Fork while threaded.**  A child forked while another thread
  holds a lock inherits the lock held forever.  So :func:`fork_pool`
  opens no pool, and its caller runs the work in-process, while
  another Python thread runs.  The executor starts a manager thread
  on its first ``submit``; Python 3.11 and later fork every worker
  of a ``fork`` pool before that thread starts, but 3.9 and 3.10
  fork on demand, after it.  On those versions :func:`fork_pool`
  forks every worker at once, from the calling thread.
* **Orphaned workers.**  A worker blocks on the call queue, whose
  write end every sibling also inherits, so a SIGKILLed parent
  never gives it EOF.  Each worker runs a watchdog thread that
  exits the worker once its parent is gone (a parent-pid check
  rather than ``PR_SET_PDEATHSIG``, which fires when the forking
  *thread* exits and is Linux-only).

The same worker initializer drops any inherited :mod:`repro.obs`
observer without closing it: its sink is the parent's open trace
file, which only the parent may write or flush.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.obs import core as obs

__all__ = ["PARENT_POLL_S", "fork_pool"]

#: Seconds between a worker's checks that its parent is alive; an
#: orphaned worker exits within about this long.
PARENT_POLL_S = 0.2


def fork_pool(n_workers: int) -> Optional[ProcessPoolExecutor]:
    """A ``fork``-context pool of ``n_workers`` parent-bound workers,
    or ``None``, forking nothing, while another Python thread runs.

    Every worker is forked before the pool starts a thread of its own
    (here on Python 3.9 and 3.10, by the first ``submit`` on later
    versions).
    """
    if threading.active_count() > 1:
        return None
    pool = ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(os.getpid(),),
    )
    if sys.version_info < (3, 11):
        # These versions fork a worker per submit once the manager
        # thread runs; fork them all now instead (each call forks
        # one, since no worker is idle yet).
        for _ in range(n_workers):
            pool._adjust_process_count()
    return pool


def _init_worker(parent_pid: int) -> None:
    """Worker initializer: shed the parent's observer, watch it die."""
    obs.detach()
    threading.Thread(
        target=_exit_when_orphaned,
        args=(parent_pid,),
        name="repro-parent-watchdog",
        daemon=True,
    ).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    """Exit this worker once ``parent_pid`` is no longer its parent."""
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_S)
    os._exit(1)
