"""Independent contiguous parts of a run on forked worker processes: the
ranges of a sample's points (``cli._map_blocks``)."""

from __future__ import annotations

import os
import pickle

# SIGKILL, the same number on every POSIX system, so that ``signal`` need
# not be imported
_SIGKILL = 9


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    does not tell (no ``os.sched_getaffinity``), so no worker is forked."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def split(size: int, units: int, min_units: int) -> list:
    """Contiguous ranges ``(a, b)`` that cut ``range(size)`` in order into
    one part per worker: as many as there are usable CPUs, but at most
    ``size``, and so few that each worker gets at least ``min_units`` of the
    ``units`` of work the whole range holds. One range when no worker
    would get that much."""
    workers = max(1, min(usable_cpus(), size, units // min_units))
    cuts = [size * i // workers for i in range(workers + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_child(fn, part, write_fd: int) -> None:
    """The body of a forked worker: the pickle of ``fn(part)`` to
    ``write_fd``, then exit 0; exit 1 on any exception, with nothing
    written. It never returns, so the caller's stack never unwinds here."""
    code = 1
    try:
        view = memoryview(pickle.dumps(fn(part), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(write_fd, view) :]
        code = 0
    finally:
        os._exit(code)


def map_parts(fn, parts) -> list:
    """``[fn(p) for p in parts]``, in order: this process evaluates the
    first part, and a forked worker each later one, which sends back the
    pickle of its result through a pipe.

    A part whose worker fails, dies, or cannot be forked or given a pipe is
    evaluated here instead, so an error is raised for the first failing
    part in order, as without workers. No worker outlives the call, also
    when it raises.

    Workers are bare forks, which start with this process's data at once,
    model callables included; a spawned pool would import numpy again in
    each. A worker runs only numpy and this package's code, and OpenBLAS,
    the one library here that starts threads, stops them before a fork
    (``pthread_atfork``)."""
    pipes = {}  # part index: read end of its worker's pipe
    running = {}  # part index: pid of its worker, until it is reaped
    try:
        for i in range(1, len(parts)):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                continue  # no worker: this process evaluates the part
            pipes[i] = read_fd
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, parts[i], write_fd)
                running[i] = pid
            except OSError:
                pass  # no worker: this process evaluates the part
            finally:
                os.close(write_fd)
        results = [fn(parts[0])]
        for i in range(1, len(parts)):
            if i in running:
                with open(pipes[i], "rb", closefd=False) as pipe:
                    payload = pipe.read()
                status = os.waitpid(running[i], 0)[1]
                del running[i]
                if os.waitstatus_to_exitcode(status) == 0:
                    results.append(pickle.loads(payload))
                    continue
            results.append(fn(parts[i]))
        return results
    finally:
        for pid in running.values():
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        for read_fd in pipes.values():
            os.close(read_fd)
