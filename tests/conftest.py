"""Shared fixtures of the process-lane tests."""

import errno
import os

import pytest

import incflow.lanes as lanes


def no_child_left():
    """Fail unless this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    """An ``os.fork`` stand-in that fails as a process limit would."""
    raise OSError(errno.EAGAIN, "stubbed: no process")


@pytest.fixture
def forks(monkeypatch):
    """Two lanes whatever the core count, and the pids of the forks this
    process made."""
    monkeypatch.setattr(lanes, "_lane_count", lambda items: min(2, items))
    real, count = os.fork, []

    def fork():
        pid = real()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return count
