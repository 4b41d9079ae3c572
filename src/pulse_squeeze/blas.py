"""Thread counts of the OpenBLAS libraries loaded into this process.

numpy and scipy each ship their own OpenBLAS, so one process may run two
thread pools: numpy's from start-up, scipy's from the first import of a
scipy module that links it (only the dense vacuum-ladder solve and the
circuit fit import one).  How many threads a LAPACK call or a matrix
product splits its work over changes its summation order, so the commands
that write data files run inside :func:`one_blas_thread`.  Each pool is
driven through OpenBLAS's own C interface (numpy's symbols carry the ILP64
suffix ``64_``); a pool loaded later, or in a pool worker the block starts,
reads ``OPENBLAS_NUM_THREADS`` when it starts.  Where no OpenBLAS is
loaded, as on a build against another BLAS or on a system without
``/proc``, the helpers leave the pools alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy  # noqa: F401  (loads numpy's OpenBLAS before the first probe)

__all__ = ["blas_threads", "one_blas_thread"]


def _pools() -> tuple:
    """(library file, get_num_threads, set_num_threads) per loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = tuple(sorted({line.split()[-1] for line in maps if "openblas" in line}))
    except OSError:
        return ()
    return _bind(paths)


@functools.cache
def _bind(paths: tuple[str, ...]) -> tuple:
    """The thread-count functions of each OpenBLAS file in ``paths``."""
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((Path(path).name, get, put))
                break
    return tuple(pools)


def blas_threads() -> dict[str, int]:
    """Current thread count of every loaded OpenBLAS, by library file."""
    return {name: get() for name, get, _ in _pools()}


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS pool at one thread; restore on exit.

    The pools loaded on entry are set to one thread and
    ``OPENBLAS_NUM_THREADS`` to 1, so a pool first loaded inside the block
    (which keeps one thread after it) and every process it starts start on
    one thread too.  The counts are process-wide, so BLAS calls that other
    threads make during the block run on one thread too."""
    saved = [(get(), put) for _, get, put in _pools()]
    variable = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for _, put in saved:
        put(1)
    try:
        yield
    finally:
        for count, put in saved:
            put(count)
        if variable is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = variable
