"""SciPy's OpenBLAS, the one BLAS and LAPACK a Monte Carlo trial calls,
and its thread count.  Routines are called through the pointers that
scipy.linalg.cython_blas and cython_lapack export, with ctypes, which
releases the GIL while they run; SciPy's f2py wrappers hold it."""
from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np
import scipy
from scipy.linalg import cython_blas, cython_lapack

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


@cache
def _routine(module, name):
    """Routine `name` of cython_blas or cython_lapack, as a ctypes call."""
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None)(
        _capsule_pointer(capsule, _capsule_name(capsule)))


def _fortran(module, name, *args):
    """Call routine `name` of module with each argument by pointer: a str
    as one char, an int as an int, a float as a double, and a float64 or
    intc array as its first element.  An array is Fortran-ordered or a
    block of rows of a 2-D Fortran-ordered array (a C-ordered array's
    block of columns, transposed): each column contiguous, the columns
    evenly spaced by the leading dimension.

    The routine sees each array through that pointer alone, so nothing
    checks a size or leading dimension against it: each caller derives
    them from the shapes of the arrays it passes.
    """
    refs = []
    for a in args:
        if isinstance(a, np.ndarray):
            row_block = (a.ndim == 2 and a.strides[0] == a.itemsize
                         and a.strides[1] >= a.shape[0] * a.itemsize)
            if a.dtype not in (np.float64, np.intc) or \
                    not (a.flags.f_contiguous or row_block):
                raise TypeError(f"{name}: needs a Fortran-ordered float64 or "
                                f"intc array or a block of its rows, got "
                                f"{a.dtype} with strides {a.strides}")
            refs.append(ctypes.c_void_p(a.ctypes.data))
        elif isinstance(a, str):
            refs.append(ctypes.c_char_p(a.encode()))
        elif isinstance(a, (int, np.integer)):
            refs.append(ctypes.byref(ctypes.c_int(a)))
        else:
            refs.append(ctypes.byref(ctypes.c_double(float(a))))
    _routine(module, name)(*refs)


def blas(name, *args):
    """_fortran for SciPy's BLAS routine `name`."""
    _fortran(cython_blas, name, *args)


def lapack(name, *args):
    """_fortran for a LAPACK routine whose last argument is info."""
    info = np.zeros(1, np.intc)
    _fortran(cython_lapack, name, *args, info)
    if info[0]:
        raise np.linalg.LinAlgError(f"{name} returned info = {info[0]}")


@cache
def thread_control():
    """(get, set) of SciPy's OpenBLAS thread count, or None when the
    library or its scipy_openblas_{get,set}_num_threads is not found."""
    site = os.path.dirname(os.path.dirname(scipy.__file__))
    for path in glob.glob(f"{site}/scipy.libs/libscipy_openblas-*.so"):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads
            put = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_PIN = threading.Lock()


@contextmanager
def one_thread():
    """Hold SciPy's OpenBLAS at one thread, when its count can be set,
    and restore the count on exit.  The count is process-wide, so
    concurrent callers take turns."""
    control = thread_control()
    if control is None:
        yield
        return
    get, put = control
    with _PIN:
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)
