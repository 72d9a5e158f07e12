"""The process-wide runtime: the one module that calls native libraries
(through ctypes) and owns the second thread.

pair(fw, bw) runs two independent halves of a job at once: fw on the
calling thread, bw on a one-thread worker, with BLAS held to one thread
until both are done. The layers (both directions of each bidirectional
LSTM layer) and the baselines (the two band halves of WPE, the two sides
of each frame-mode MVDR block) use it. malloc_trim gives freed heap pages
back to the system where the C library can.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None when this numpy has no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        put.restype, put.argtypes = None, (ctypes.c_int,)
        return get, put
    return None


def _bw_worker():
    """The one-thread pool that runs the bw side of each pair: the bw
    direction of each bidirectional layer, the upper half of WPE's bands
    and the weights and output of each frame-mode MVDR block (baselines).
    None, and both sides run on the calling thread, when BLAS threads
    cannot be capped (they would compete with the pair) or when this
    process may use fewer than 2 CPUs."""
    if _BLAS_THREADS is None or len(os.sched_getaffinity(0)) < 2:
        return None
    return ThreadPoolExecutor(1, thread_name_prefix="pair-bw")


def _renew_bw_worker():
    # a forked child inherits the pool but not its thread, and would wait
    # on its first job forever
    global _BW_WORKER
    _BW_WORKER = _bw_worker()


_BLAS_THREADS = _openblas_threads()
_BW_WORKER = _bw_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_bw_worker)


def pair(fw, bw):
    """(fw(), bw()), with bw on the worker while fw runs here and BLAS on one
    thread until both are done; one after the other here without a worker.
    Returns or raises only once both are done."""
    if _BW_WORKER is None:
        return fw(), bw()
    get, put = _BLAS_THREADS
    threads = get()
    put(1)
    try:
        # the copied context carries the caller's np.errstate to the worker
        job = _BW_WORKER.submit(contextvars.copy_context().run, bw)
        try:
            first = fw()
        finally:
            wait((job,))
        return first, job.result()
    finally:
        put(threads)


try:  # glibc keeps freed heap pages resident and reuses them in a run-dependent order
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.restype, malloc_trim.argtypes = ctypes.c_int, (ctypes.c_size_t,)
except (AttributeError, OSError, TypeError):  # not glibc: nothing to trim
    malloc_trim = lambda pad: 0
