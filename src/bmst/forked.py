"""Deterministic work spread over the CPUs this process may run on.

Each piece of work runs in a child forked for it alone, which sends one
``(ok, value)`` message back over a one-way pipe and exits; there is no
pool.  fork and not spawn: a spawned child would import numpy and rebuild
its inputs for every task, and the program starts no threads.
``multiprocessing`` is imported only when it is needed.
"""

from __future__ import annotations

import os


def worker_count(cap: int | None = None) -> int:
    """Processes to spread work across: the CPUs in this process's affinity
    mask, at most ``cap``.  It is 1 where ``fork`` or the affinity mask does
    not exist, and in a daemonic process such as a pool worker, which
    multiprocessing lets have no children."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cap is not None:
        cpus = min(cpus, cap)
    if cpus > 1:
        import multiprocessing
        if multiprocessing.current_process().daemon:
            return 1
    return cpus


def _child_result(task, conn) -> None:
    """Body of a forked child: send ``(True, task())``, or ``(False,
    traceback)`` if the task raises.  The child exits after this, whether
    or not its parent is still there to read the result."""
    try:
        result = (True, task())
    except Exception:
        import traceback
        result = (False, traceback.format_exc())
    conn.send(result)
    conn.close()


class Children:
    """Children forked one per task, each known by the name it was started
    under.  Leaving the ``with`` block terminates every child whose result
    was not read and joins them all, so none outlives the block."""

    def __init__(self) -> None:
        self._live: dict[str, tuple] = {}

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *exc) -> None:
        self.cancel_all()

    def start(self, name: str, task) -> None:
        """Fork a child that runs ``task()``."""
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_result, args=(task, send))
        proc.start()
        self._live[name] = (proc, recv)
        # Only the child may hold the write end, so its exit ends the pipe
        # and a read never blocks on a dead child.
        send.close()

    def result(self, name: str):
        """What the child started as ``name`` returned.  Waits for it, and
        raises a ``RuntimeError`` naming it if it raised or died without a
        result."""
        proc, recv = self._live[name]
        try:
            ok, value = recv.recv()
        except EOFError:
            ok, value = None, None
        del self._live[name]
        proc.join()
        recv.close()
        if ok is None:
            raise RuntimeError(f"{name}: its child exited with code "
                               f"{proc.exitcode} without a result")
        if not ok:
            raise RuntimeError(f"{name} failed in its child:\n{value}")
        return value

    def cancel_all(self) -> None:
        """Terminate every child whose result was not read, and join it."""
        for proc, _ in self._live.values():
            if proc.is_alive():
                proc.terminate()
        for proc, recv in self._live.values():
            proc.join()
            recv.close()
        self._live.clear()
