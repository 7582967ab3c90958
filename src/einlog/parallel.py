"""Row blocks on the calling thread and one helper thread.

When BLAS is pinned to fewer threads than the process has CPUs, the large
array passes of an iteration (matrix products, ``einsum`` steps, elementwise
passes, reductions) run in two row blocks at once: the calling thread
computes one, and one helper thread, started on the first split, computes
the other.  numpy releases the interpreter lock inside these loops, so the
two blocks overlap.  Each block writes its own rows of one result through a
view, so the bytes do not depend on which thread runs which block.

A split that finds the helper busy, because another thread's split or a
split nested inside a block holds it, runs both blocks on its own thread:
no caller waits for the helper to become free.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def _split_workers(environ) -> int:
    """How many blocks a large pass splits into: the CPUs this process may
    run on divided by the BLAS thread count, the first positive integer
    among ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS``, and at most ``_MAX_WORKERS``.  With none set, BLAS
    already runs on every CPU, so the answer is 1 and nothing splits."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            return max(1, min(_MAX_WORKERS, cpus // threads))
    return 1


# the caller and one helper: the split has been measured on a 2-CPU host
# only, and a wider split waits for a measurement on a wider host
_MAX_WORKERS = 2
WORKERS = _split_workers(os.environ)
# an element pass or einsum step over fewer elements than this runs whole:
# below it the helper's wakeup costs about what the split saves
FLOOR = 1 << 18


class _Helper:
    """The one helper thread and the locks that hand it one block at a time.

    ``busy`` is held by the split whose block the helper runs; ``go`` and
    ``done`` are binary semaphores, released to start a block and to report
    it finished.  ``job`` is the block and the splitting thread's numpy
    error handling (``np.geterr``), which the block runs under, since each
    thread has its own.
    """

    def __init__(self):
        self.busy = threading.Lock()
        self.go = threading.Lock()
        self.done = threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.thread = None
        self.job = self.result = self.error = None

    def serve(self):
        while True:
            self.go.acquire()
            block, errors = self.job
            try:
                with np.errstate(**errors):
                    self.result = block()
            except BaseException as exc:  # raised again on the splitting thread
                self.error = exc
            self.job = None
            self.done.release()


_helper = _Helper()


def _forget_helper():
    """Run in a forked child, which has no helper thread and may hold a copy
    of its locks taken; the child's first split starts its own."""
    global _helper
    _helper = _Helper()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def run(first, second) -> tuple:
    """``(first(), second())``, the second on the helper thread while the
    calling thread runs the first.

    When the helper is busy, both run here, one after the other.  When a
    block raises, the exception is raised only once neither block is still
    running; the calling thread's exception wins when both raise.
    """
    helper = _helper
    if not helper.busy.acquire(blocking=False):
        return first(), second()
    try:
        if helper.thread is None:
            thread = threading.Thread(target=helper.serve, name="einlog-split", daemon=True)
            thread.start()
            helper.thread = thread
        helper.job = second, np.geterr()
        helper.go.release()
        try:
            ours = first()
        finally:
            helper.done.acquire()
        if helper.error is not None:
            raise helper.error
        return ours, helper.result
    finally:
        helper.error = helper.result = None
        helper.busy.release()


def rows(fn, target, *operands) -> list:
    """``[fn(target[r], *operands[r])]`` over the row blocks ``r`` of
    ``target``'s first axis, as one list of the block results.

    An operand with as many axes as ``target`` and a first axis of the same
    length is cut into the same blocks; any other operand, such as one with
    a size-1 first axis or fewer axes, broadcasts the same way against
    every block and is passed whole.  So ``fn`` must treat rows of the
    first axis independently.  ``target`` runs as one block when there is
    one worker, when it has fewer than two axes or two rows, or when it
    holds fewer than ``FLOOR`` elements.
    """
    n = target.shape[0] if target.ndim > 1 else 0
    if WORKERS < 2 or n < 2 or target.size < FLOOR:
        return [fn(target, *operands)]
    half = n // 2

    def block(r):
        return fn(target[r], *(op[r] if getattr(op, "ndim", 0) == target.ndim
                               and op.shape[0] == n else op for op in operands))

    return list(run(lambda: block(slice(0, half)), lambda: block(slice(half, n))))
