"""Process lanes: independent calls split between this process and one
forked worker.

``run(fn, items)`` returns ``[fn(*item) for item in items]``. Item k goes
to lane k % L with L = min(2, usable cores, items), 1 where the platform
cannot fork: lane 0 runs in the calling process, lane 1 in one raw
``os.fork()`` worker that sends each result back pickled over a pipe as it
comes. The work it is used for (W1 solves, pattern-search fits) holds the
GIL, so threads could not overlap it, while a forked worker can. The split
is static and the worker starts from the caller's memory, so when ``fn`` is
deterministic every result keeps its bits whichever lane computes it.
Only results cross the pipe: ``fn`` and the items may hold closures, but
each result must pickle, or the caller computes it again.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings

__all__ = ["run"]

_MISSING = object()  # a result the worker did not send


def _lane_count(items: int) -> int:
    """Process lanes for ``items`` independent calls: at most 2, one per
    usable core, and 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cores or 1, items)


def _fork_lane(fn, items):
    """A forked worker that calls ``fn`` on ``items`` in order and writes each
    result, or the exception that stops it, pickled to a pipe as it comes,
    then exits. A result that does not pickle ends its stream. Returns its
    pid and the pipe's read end, or None when no worker could be started."""
    fds = ()
    try:
        fds = r, w = os.pipe()
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a process with more than one OS
            # thread, here OpenBLAS's pool, whose own atfork handler makes the
            # fork safe; the worker runs only fn and leaves by os._exit
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # out of file descriptors, processes or memory
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                for args in items:
                    try:
                        item = fn(*args)
                    except Exception as e:
                        item = e
                    fh.write(pickle.dumps(item))
                    fh.flush()
                    if isinstance(item, Exception):
                        break
        finally:
            os._exit(0)  # never returns into the caller's frames
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _received(fh):
    """The items a worker sent, in order, up to the end of its stream or the
    first that does not load."""
    while True:
        try:
            item = pickle.load(fh)
        except Exception:  # the worker died, or sent what does not load
            return
        yield item


def run(fn, items) -> list:
    """``[fn(*item) for item in items]``, item k called in lane k % L with
    L = _lane_count(len(items)): lane 0 in this process, lane 1 in one forked
    worker, which is reaped before this returns or raises. The exception
    raised is the first failing item's, as in a serial run, with its type
    and message; an item the worker could not start or left without a
    result is called here."""
    items = list(items)
    worker = _fork_lane(fn, items[1::2]) if _lane_count(len(items)) == 2 else None
    if worker is None:
        return [fn(*item) for item in items]
    pid, fh = worker
    out, failure, stop = [None] * len(items), None, len(items)
    try:
        try:
            for k in range(0, len(items), 2):
                out[k] = fn(*items[k])
        except Exception as e:
            failure, stop = e, k
        # lane 1's items before lane 0's first failure, so an earlier one of
        # its own failures is the one raised
        received = _received(fh)
        for k in range(1, stop, 2):
            item = next(received, _MISSING)
            if isinstance(item, BaseException):
                raise item
            out[k] = fn(*items[k]) if item is _MISSING else item
    finally:
        try:  # every result needed is read; the worker may still be running
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped where SIGCHLD is ignored
            pass
        fh.close()
    if failure is not None:
        raise failure
    return out
