"""numpy's BLAS thread count, held at one while the pipeline runs.

The pipeline's products are small (widths 2-64, a few thousand rows at
most), yet OpenBLAS splits the larger ones across its threads, and each
worker then spins idle after its share, burning CPU for no wall time.
``single_thread()`` sets one thread and restores the caller's count on exit.
The count is reached through the OpenBLAS library numpy loaded, found in
``/proc/self/maps`` under the scipy-openblas 64-bit names numpy's wheels
export or the plain ``openblas_*`` names; where neither exists (another BLAS,
another platform) the manager does nothing.  The count is process-wide, so
the pipeline enters the manager once per call, not once per product.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np  # noqa: F401  (maps the library that _controls looks up)

_NAMES = (("scipy_openblas_get_num_threads64_",
           "scipy_openblas_set_num_threads64_"),
          ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _controls():
    """(get, set) thread-count functions of the mapped OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in p.lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _NAMES:
            get, put = (getattr(lib, get_name, None),
                        getattr(lib, set_name, None))
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                put.restype, put.argtypes = None, (ctypes.c_int,)
                return get, put
    return None


@contextmanager
def single_thread():
    """Run the block, or the decorated function, on one BLAS thread.

    The caller's count comes back on exit, after an exception too; nested
    uses restore in order.
    """
    controls = _controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
