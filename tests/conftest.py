"""Fixtures shared by the layer and baseline tests of runtime.pair."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from mcse import runtime


@pytest.fixture
def threaded(monkeypatch):
    """Run the bw side of each runtime.pair on a worker thread, also where
    this process may use only one CPU."""
    if runtime._BLAS_THREADS is None:
        pytest.skip("numpy's OpenBLAS thread controls are not available")
    if runtime._BW_WORKER is not None:
        yield
        return
    with ThreadPoolExecutor(1) as worker:
        monkeypatch.setattr(runtime, "_BW_WORKER", worker)
        yield


@pytest.fixture
def two_and_one_thread(threaded, monkeypatch):
    """A function that returns (run() with the worker, run() with none).
    BLAS is held at one thread for both, as the worker's pair holds it, so
    only the threading differs; the two-thread run switches threads as
    often as it can, so that the two sides interleave finely."""

    def both(run):
        get, put = runtime._BLAS_THREADS
        threads, interval = get(), sys.getswitchinterval()
        put(1)
        try:
            sys.setswitchinterval(1e-6)
            two = run()
            sys.setswitchinterval(interval)
            monkeypatch.setattr(runtime, "_BW_WORKER", None)
            one = run()
        finally:
            sys.setswitchinterval(interval)
            put(threads)
        return two, one

    return both
