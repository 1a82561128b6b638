"""Machine, environment and code facts recorded with every result.

Everything here is read only: the OpenBLAS thread count is queried,
never set, and ``HESSPEC_THREADS`` is reported, never changed.
"""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def _openblas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(np):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": info.get("name"), "version": info.get("version"),
            "config": info.get("openblas configuration")}


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_line_count(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "hesspec", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def collect(root, seeds):
    import numpy as np
    import scipy

    import hesspec
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "blas": _blas(np),
            "openblas_threads": _openblas_threads(np),
            "mc_workers": hesspec.worker_count(),
        },
        "environment": {
            "HESSPEC_THREADS_set": "HESSPEC_THREADS" in os.environ,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "code": {
            "git_commit": _git_commit(root),
            "hesspec_version": hesspec.__version__,
            "src_lines": src_line_count(root),
        },
        "seeds": seeds,
    }
