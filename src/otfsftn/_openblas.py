"""The OpenBLAS that numpy loaded: its thread count and its MRRR Hermitian eigensolver.

numpy's wheels link one OpenBLAS, found here by name among the libraries
mapped into the process.  Two things are taken from it through ctypes:

* the thread-count functions, which single_blas_thread uses to pin BLAS to
  one thread while trial workers run;
* the ILP64 LAPACKE_zheevr, LAPACK's Hermitian eigensolver on multiple
  relatively robust representations (MRRR).  It works in place on the
  matrix and needs O(n) workspace besides the eigenvectors; numpy's eigh
  (zheevd) copies the matrix and takes about two more n x n matrices of
  workspace.  ctypes releases the GIL for the call, so worker threads
  still overlap.

Where numpy runs on another BLAS, neither is found: thread pinning is a
no-op and eigh_inplace falls back to np.linalg.eigh.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# thread-count functions of scipy-openblas, ILP64 and LP64 OpenBLAS; "{}" is get or set
THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                    "openblas_{}_num_threads")
# ILP64 LAPACKE_zheevr, as scipy-openblas and a 64_-suffixed OpenBLAS export it
ZHEEVR = ("scipy_LAPACKE_zheevr64_", "LAPACKE_zheevr64_")

_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def _libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS mapped into this process; none where /proc is unreadable."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    return [ctypes.CDLL(p) for p in paths]


def thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process."""
    found = []
    for lib in _libraries():
        name = next((n for n in THREAD_FUNCTIONS if hasattr(lib, n.format("set"))), None)
        if name is not None:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return found


@functools.cache
def zheevr():
    """The bound ILP64 LAPACKE_zheevr of the loaded OpenBLAS, or None; resolved once."""
    lint, ptr, real = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    for lib in _libraries():
        fn = next((getattr(lib, n) for n in ZHEEVR if hasattr(lib, n)), None)
        if fn is not None:
            # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, lint,
                           ptr, lint, real, real, lint, lint, real, ptr, ptr, ptr, lint, ptr]
            fn.restype = lint
            return fn
    return None


def eigh_inplace(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian matrix s, overwriting s.

    A square C-contiguous complex128 s goes to LAPACKE_zheevr.  LAPACK
    reads the buffer column-major, which is s^T = conj(s), so the
    eigenvectors it returns are conjugated back in place; they come
    Fortran-ordered.  Any other s, or a process with no LAPACKE_zheevr
    loaded, takes np.linalg.eigh, which leaves s intact.
    """
    fn = zheevr()
    square = s.ndim == 2 and s.shape[0] == s.shape[1]
    if fn is None or not square or s.dtype != np.complex128 or not s.flags.c_contiguous:
        return np.linalg.eigh(s)
    n = s.shape[0]
    w = np.empty(n)
    z = np.empty((n, n), dtype=np.complex128, order="F")
    isuppz = np.empty(2 * max(n, 1), dtype=np.int64)
    found = np.zeros(1, dtype=np.int64)
    info = fn(_COL_MAJOR, b"V", b"A", b"L", n, s.ctypes.data, max(n, 1), 0.0, 0.0, 0, 0,
              0.0, found.ctypes.data, w.ctypes.data, z.ctypes.data, max(n, 1),
              isuppz.ctypes.data)
    if info != 0 or found[0] != n:
        raise np.linalg.LinAlgError(f"zheevr failed: info {info}, {found[0]} of {n} eigenpairs")
    np.conjugate(z, out=z)
    return w, z
