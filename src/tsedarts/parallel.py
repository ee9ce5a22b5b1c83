"""Independent calls side by side, one forked process per CPU.

`fork_map(fn, items)` returns `[fn(x) for x in items]`.  The items are
dealt round-robin into `min(CPUs, len(items))` shares: the caller runs
share 0 itself, and each other share runs in a child made by
`os.fork()`, which inherits the caller's memory (nets, batches,
closures), so nothing but the results is pickled.  Every value is
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


def _run_share(fn, share: list):
    """Results of the share in order, up to its first failure, and that
    failure as (position in the share, exception), or None."""
    results = []
    for pos, x in enumerate(share):
        try:
            results.append(fn(x))
        except Exception as err:   # noqa: BLE001 - re-raised by the caller
            return results, (pos, err)
    return results, None


def _child(fn, share: list, fd: int):
    """Run a share in a child, send it through `fd` and leave."""
    status = 1
    try:
        results, failure = _run_share(fn, share)
        if failure is not None:
            failure[1].add_note("raised in a forked child:\n" + "".join(
                traceback.format_exception(failure[1])).rstrip())
        try:
            data = pickle.dumps((results, failure))
        except Exception as err:   # noqa: BLE001 - sent as the share's failure
            data = pickle.dumps(([], (0, ForkMapError(
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
    while another fork_map runs in this process.  Otherwise item i goes
    to share i mod n, for n = min(CPUs, items); the caller runs share 0
    and one forked child runs each other share.  If any item raises, the
    exception of the lowest-index failing item is raised, as the serial
    loop would, once every child has been reaped.  A child that ends
    without a result raises ForkMapError with its exit status (minus the
    signal number if a signal ended it).  No child outlives the call: on
    an interrupt, or any other error outside the items, the children are
    killed and reaped.
    """
    global _ACTIVE
    items = list(items)
    n = min(_cpu_count(), len(items))
    if n <= 1 or _ACTIVE:
        return [fn(x) for x in items]
    _ACTIVE = True
    pids, fds, codes = [], [], []   # entry j serves share j + 1
    try:
        for k in range(1, n):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items[k::n], w)
                pids.append(pid)
            finally:
                os.close(w)
        shares = [_run_share(fn, items[0::n])]
        payloads = [_read_all(r) for r in fds]   # all of it before waitpid
        for pid in pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    finally:
        for r in fds:
            os.close(r)
        for pid in pids[len(codes):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _ACTIVE = False
    for pid, code, data in zip(pids, codes, payloads):
        if code != 0 or not data:
            raise ForkMapError(f"child {pid} ended without a result (exit status {code})")
        try:
            shares.append(pickle.loads(data))
        except Exception as err:   # noqa: BLE001 - reported with its cause
            raise ForkMapError(f"results of child {pid} could not be unpickled: "
                               f"{err!r}") from err
    failures = {f[0] * n + k: f[1] for k, (_, f) in enumerate(shares) if f is not None}
    if failures:
        raise failures[min(failures)]
    out = [None] * len(items)
    for k, (results, _) in enumerate(shares):
        out[k::n] = results
    return out
