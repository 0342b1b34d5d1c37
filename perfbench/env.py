"""The environment a result was measured in: interpreter, numpy, BLAS and cores."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _openblas_threads(numpy) -> int | None:
    """Live thread count of numpy's bundled OpenBLAS, read through ctypes.

    The wheel ships it as numpy.libs/libscipy_openblas64_*.so; the library is
    already loaded by numpy, so opening it again returns the same handle.
    """
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }
