"""Independent shares of one task on the usable CPUs, through forked children.

A caller splits its work into w shares (`width` gives w) and hands them to
`fork_shares`: share 0 runs in this process while forked child j runs share
j, sharing this process's memory copy-on-write and sending back only what
its share returns. A share whose child did not finish is missing from what
comes back, and the caller runs it itself, so the outcome never depends on
w. The users are the file writer (`export._write_tables`, one pool per
file) and the stability ladders (`driver.ladder_map`).
"""

from __future__ import annotations

import os
import pickle
import threading

# True in a pool child, and in this process while it runs its own share: a
# share that asks for processes gets one, so shares never fork again and the
# processes of a pool stay at most the usable CPUs
_busy = False


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity call on this platform
        return os.cpu_count() or 1


def _available_memory() -> int | None:
    """Bytes of memory available for new work, or None if unknown: Linux's
    MemAvailable, else the free physical pages."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):   # no such call or name here
        return None


def width(n_shares: int) -> int:
    """Processes for n_shares independent shares: min(usable CPUs, n_shares),
    at least 1, and 1 where this process may not fork: without `os.fork`,
    with other threads running (a fork copies no thread but the caller), or
    inside a share."""
    if _busy or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), n_shares))


def _fork(child, j):
    """Fork a child that pickles child(j) back over a pipe and exits 0, or
    exits 1 if child(j) raised or its result does not pickle. Returns the
    child's pid and the read end of the pipe."""
    global _busy
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            _busy = True
            os.close(read_fd)
            payload = pickle.dumps(child(j), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)        # no atexit handler, no flush of inherited buffers
    os.close(write_fd)
    return pid, read_fd


def _read_all(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def fork_shares(w, child, here):
    """Run here() in this process while forked child j runs child(j), for
    j = 1, ..., w - 1.

    Returns (here(), {j: child(j)}) with an entry for every child that ended
    with its complete result. A child that raised, died, or could not be
    forked (no process to spare) has none, and the caller runs its share.
    Every child is reaped on every path; when this process leaves on an
    exception, here()'s included, the children are killed first.
    """
    global _busy
    children = []          # (j, pid, read end of its pipe), each reaped below
    try:
        for j in range(1, w):
            try:
                children.append((j, *_fork(child, j)))
            except OSError:   # no process to spare: the missing shares run here
                break
        _busy = True
        try:
            mine = here()
        finally:
            _busy = False
        payloads = [_read_all(read_fd) for _, _, read_fd in children]
    except BaseException:
        from signal import SIGKILL   # on this path only: the module costs import time
        for _, pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        statuses = []
        for _, pid, read_fd in children:
            os.close(read_fd)
            statuses.append(os.waitpid(pid, 0)[1])
    # a child that did not exit 0 may have sent a result cut short
    return mine, {j: pickle.loads(payload)
                  for (j, _, _), payload, status in zip(children, payloads, statuses)
                  if os.waitstatus_to_exitcode(status) == 0}
