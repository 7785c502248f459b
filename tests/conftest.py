"""Fixtures shared by more than one test module."""

from __future__ import annotations

import os
import threading

import pytest

#: The threads alive at each fork made while more than one ran, as
#: long as :func:`no_fork_while_threaded` is armed.
_THREADED_FORKS: list = []
_FORK_GUARD_ARMED = threading.Event()


def _note_threaded_fork() -> None:
    if _FORK_GUARD_ARMED.is_set() and threading.active_count() > 1:
        _THREADED_FORKS.append(
            sorted(thread.name for thread in threading.enumerate())
        )


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_note_threaded_fork)


@pytest.fixture
def no_fork_while_threaded():
    """Fail a test that forks while another thread runs: the child
    inherits every lock some other thread held, held forever.

    A fork hook cannot be removed, so the hook stays registered for
    the session but records only while a test using this fixture
    runs.
    """
    _THREADED_FORKS.clear()
    _FORK_GUARD_ARMED.set()
    try:
        yield
    finally:
        _FORK_GUARD_ARMED.clear()
    assert not _THREADED_FORKS, (
        f"forked while threads ran: {_THREADED_FORKS}"
    )
