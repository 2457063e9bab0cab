"""One thread runner: the calling thread and at most one worker share a
list of independent jobs.

Kernel blocks (`transform._build`) and weak-window statistics
(`norms.WeakWindowWorkspace`) run through `run`, one call work(job) per job
on either thread.  The thread count is min(_THREADS, usable CPUs) and
nothing else sets it.  Each job writes only its own output, so the results
are the same bits at any thread count.
"""

from __future__ import annotations

import os
import threading

# The calling thread and one worker at most.  Every thread that allocates
# temporaries gets its own glibc malloc arena, and one worker arena already
# adds about 2-3 MB to the peak RSS of a 127 MB library session, whose
# benchmark bound is 5%.
_THREADS = 2


def thread_count() -> int:
    """Threads of one `run`: min(_THREADS, usable CPUs)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_THREADS, cpus)


def run(jobs, work) -> None:
    """Call work(job) once for every job of the list jobs (none of them
    None), on the calling thread and, given a second usable CPU and a second
    job, one worker thread that ends with the call.

    Both threads take jobs one at a time, in list order, from one shared
    iterator, and run them alike.  The first exception or interrupt in
    either thread stops both before their next job and is raised here,
    after the worker has ended.
    """
    jobs_left = iter(jobs)
    lock = threading.Lock()
    failed = []  # the first exception of either thread

    def stop(exc: BaseException) -> None:
        with lock:
            failed.append(exc)

    def loop() -> None:
        try:
            while True:
                with lock:
                    job = None if failed else next(jobs_left, None)
                if job is None:
                    return
                work(job)
        except BaseException as exc:  # raised again by the calling thread
            stop(exc)

    workers = [
        threading.Thread(target=loop, name="dunkl-worker")
        for _ in range(min(thread_count(), len(jobs)) - 1)
    ]
    for thread in workers:
        thread.start()
    try:
        loop()
        for thread in workers:
            thread.join()
    except BaseException as exc:  # an interrupt outside loop: stop the worker first
        stop(exc)
        for thread in workers:
            thread.join()
        raise
    if failed:
        raise failed[0]
