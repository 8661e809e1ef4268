"""Helpers for the tests of the code paths that fork a child process."""

import os
import threading
from contextlib import contextmanager

import pytest


def count_forks(monkeypatch):
    """Wrap os.fork; the returned list gains one entry per fork made here."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    return len(os.listdir("/proc/self/fd"))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def live_thread():
    """Keep one more thread alive, waiting, for the length of the block."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait, daemon=True)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()
