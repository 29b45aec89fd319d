"""A map over independent items, spread over forked worker processes.

``layer_map(fn, items)`` returns exactly ``[fn(x) for x in items]``. The
per-layer work of the aggregation baseline and of ``stats`` is independent
from layer to layer, so each usable core can take a contiguous share of the
layers. Workers are forked, not spawned: a forked child already holds the
loaded network and the function, closures included, so nothing but the
results crosses a process boundary, and a child costs no interpreter start
or import. Results travel as ``marshal`` data, which keeps floats bit-exact
and loads no module; ``fn`` must return values ``marshal`` can write
(numbers, strings, tuples, lists, dicts of them).
"""

from __future__ import annotations

import marshal
import os
import signal
import threading


def layer_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed in up to
    ``min(len(items), usable CPUs)`` processes.

    The items are cut into that many contiguous shares; the calling process
    computes the first and one forked child each of the others. A child
    writes its results to a pipe and leaves with ``os._exit``; the parent
    reads each pipe to its end, then reaps the child. A child that fails in
    any way (an exception, a kill, a result ``marshal`` cannot write) or
    could not be forked has its share computed by the parent, so an
    exception reads exactly as in a serial run: the first failing item in
    order raises it. No child outlives the call.

    The map runs in process, with no fork, for fewer than two items, one
    usable CPU, a platform without ``os.fork`` or ``os.sched_getaffinity``
    (which tell the usable CPUs), or while another thread is
    alive, since a fork copies only the calling thread and a lock another
    thread holds would stay locked in the child.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") else 1
    except AttributeError:  # no affinity on this platform
        cpus = 1
    workers = min(len(items), cpus)
    if workers < 2 or threading.active_count() > 1:
        return [fn(x) for x in items]
    n = len(items)
    shares = [items[k * n // workers:(k + 1) * n // workers] for k in range(workers)]
    children = []  # [pid or None, read end or None, share], in share order
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the parent takes the share
                os.close(r)
                os.close(w)
                children.append([None, None, share])
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    data = marshal.dumps([fn(x) for x in share])
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)  # never returns into the caller's code
            os.close(w)
            children.append([pid, r, share])

        results = [fn(x) for x in shares[0]]
        for child in children:
            pid, r, share = child
            data = status = None
            if pid is not None:
                with open(r, "rb") as pipe:
                    child[1] = None
                    data = pipe.read()
                _, status = os.waitpid(pid, 0)
                child[0] = None
            results += marshal.loads(data) if status == 0 else [fn(x) for x in share]
        return results
    finally:
        # reached with children left only when the parent's own work raised
        for pid, r, _ in children:
            if r is not None:
                os.close(r)
            if pid is not None:  # not reaped yet, so the pid is still this child's
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
