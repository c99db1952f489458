"""Deterministic work spread over the CPUs this process may run on.

Each piece of work but the first runs in a child forked for it alone, which
sends one ``(ok, value)`` message back over a one-way pipe and exits; there
is no pool.  fork and not spawn: a spawned child would import numpy and
rebuild its inputs for every task, and the program starts no threads.
``multiprocessing`` is imported only when it is needed.
"""

from __future__ import annotations

import os


def worker_count(cap: int) -> int:
    """Processes to spread work across: the CPUs in this process's affinity
    mask, at most ``cap``.  It is 1 where ``fork`` or the affinity mask does
    not exist, and in a daemonic process such as a pool worker, which
    multiprocessing lets have no children."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = min(len(os.sched_getaffinity(0)), cap)
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


def forked_sum(tasks: list) -> int:
    """Sum of ``task()`` over ``tasks``, the chunks of one ``ber`` batch:
    the first runs here, every other one in a child forked for it alone,
    and the children's results are read in chunk order.  Every child is
    joined before this returns or raises; one whose result was not read is
    terminated first.  A child that fails or dies without a result raises a
    ``RuntimeError`` naming its chunk."""
    if len(tasks) == 1:
        return tasks[0]()
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    unread = []
    try:
        for task in tasks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_result, args=(task, send))
            proc.start()
            unread.append((proc, recv))
            # Only the child may hold the write end, so its exit ends the
            # pipe and a read never blocks on a dead child.
            send.close()
        total = tasks[0]()
        for index in range(1, len(tasks)):
            proc, recv = unread[0]
            try:
                ok, value = recv.recv()
            except EOFError:
                ok = None
            del unread[0]
            proc.join()
            recv.close()
            if ok is None:
                raise RuntimeError(f"BER chunk {index}: its child exited with "
                                   f"code {proc.exitcode} without a result")
            if not ok:
                raise RuntimeError(f"BER chunk {index} failed in its "
                                   f"child:\n{value}")
            total += value
        return total
    finally:
        for proc, _ in unread:
            if proc.is_alive():
                proc.terminate()
        for proc, recv in unread:
            proc.join()
            recv.close()
