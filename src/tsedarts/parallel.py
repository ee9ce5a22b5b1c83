"""Independent calls side by side, one forked process per CPU.

`fork_map(fn, items)` returns `[fn(x) for x in items]`.  It runs the
items in `min(CPUs, len(items))` processes: the caller is one of them,
and each other is a child made by `os.fork()`, which inherits the
caller's memory (nets, batches, closures), so nothing but the results
is pickled.  Each process starts with one item, then takes the next
item not yet taken, in order, whenever it is free, so the processes
stay busy even when items or CPUs differ in speed.  Every value is
computed by the same code on the same inputs as in the serial loop, so
results are the same bit for bit.

Threads would not help: Python code holds the interpreter lock, and the
autodiff engine keeps its recording and trapping modes in module
globals.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback

# True while a fork_map runs in this process, and in its children: a nested
# call is the serial loop, so no process forks twice.
_ACTIVE = False


class ForkMapError(RuntimeError):
    """A child ended without sending its results."""


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


class _Queue:
    """The indices start, start + 1, ..., stop - 1, each taken once by
    whichever of the forked processes asks first.  The next index is the
    one message in a pipe: a process reads it and writes back the one
    after.  Eight bytes go in and out of a pipe whole, and a reader
    blocks until the message is back, so no two processes get the same
    index."""

    def __init__(self, start: int, stop: int):
        self._stop = stop
        self._r, self._w = os.pipe()
        os.write(self._w, start.to_bytes(8, "little"))

    def take(self) -> int | None:
        """The next index, or None once every index is taken."""
        i = int.from_bytes(os.read(self._r, 8), "little")
        os.write(self._w, (i + 1).to_bytes(8, "little"))
        return i if i < self._stop else None

    def close(self):
        os.close(self._r)
        os.close(self._w)


def _run_share(fn, items: list, first: int, queue: _Queue):
    """Item `first`, then each item taken from `queue`, up to the first
    failure: ([(index, result), ...], failure), the failure (index,
    exception) or None."""
    done = []
    i = first
    while i is not None:
        try:
            done.append((i, fn(items[i])))
        except Exception as err:   # noqa: BLE001 - re-raised by the caller
            return done, (i, err)
        i = queue.take()
    return done, None


def _child(fn, items: list, first: int, queue: _Queue, fd: int):
    """Run a share in a child, send it through `fd` and leave."""
    status = 1
    try:
        done, failure = _run_share(fn, items, first, queue)
        if failure is not None:
            failure[1].add_note("raised in a forked child:\n" + "".join(
                traceback.format_exception(failure[1])).rstrip())
        try:
            data = pickle.dumps((done, failure))
        except Exception as err:   # noqa: BLE001 - sent as the share's failure
            data = pickle.dumps(([], (first, ForkMapError(
                f"a child's results could not be pickled: {err!r}"))))
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def fork_map(fn, items) -> list:
    """`[fn(x) for x in items]`, with the items spread over the CPUs.

    It is the serial loop with one CPU, with one item, inside a child or
    while another fork_map runs in this process.  Otherwise it runs n =
    min(CPUs, items) processes: the caller and n - 1 forked children.
    Process k starts with item k; from then on each process, when free,
    takes the lowest-index item no process has taken.  So a slow item,
    or a process on a busy CPU, holds up only its own process, and the
    call ends about when the work would if shared evenly.  If any item
    raises, the exception of the lowest-index failing item is raised, as
    the serial loop would, once every child has been reaped: a process
    stops at its first failure, and every lower index was taken before
    it.  A child that ends without a result raises ForkMapError with its
    exit status (minus the signal number if a signal ended it).  No
    child outlives the call: on an interrupt, or any other error outside
    the items, the children are killed and reaped.
    """
    global _ACTIVE
    items = list(items)
    n = min(_cpu_count(), len(items))
    if n <= 1 or _ACTIVE:
        return [fn(x) for x in items]
    queue = _Queue(n, len(items))
    _ACTIVE = True
    pids, fds, codes = [], [], []   # entry j serves process j + 1
    try:
        for k in range(1, n):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, k, queue, w)
                pids.append(pid)
            finally:
                os.close(w)
        shares = [_run_share(fn, items, 0, queue)]
        payloads = [_read_all(r) for r in fds]   # all of it before waitpid
        for pid in pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    finally:
        for r in fds:
            os.close(r)
        for pid in pids[len(codes):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        queue.close()
        _ACTIVE = False
    for pid, code, data in zip(pids, codes, payloads):
        if code != 0 or not data:
            raise ForkMapError(f"child {pid} ended without a result (exit status {code})")
        try:
            shares.append(pickle.loads(data))
        except Exception as err:   # noqa: BLE001 - reported with its cause
            raise ForkMapError(f"results of child {pid} could not be unpickled: "
                               f"{err!r}") from err
    failures = dict(f for _, f in shares if f is not None)
    if failures:
        raise failures[min(failures)]
    out = [None] * len(items)
    for done, _ in shares:
        for i, result in done:
            out[i] = result
    return out
