"""The OpenBLAS that numpy loaded: its thread count and two LAPACK Hermitian eigensolvers.

numpy's wheels link one OpenBLAS, found here by name among the mapped
libraries.  Through ctypes it gives single_blas_thread its thread-count
functions, and lapacke binds ILP64 LAPACKE routines on first use, not at
import: zheevr, the MRRR eigensolver, works in place with O(n) workspace
besides the eigenvectors (numpy's eigh, zheevd, takes about two more n x n
matrices), and zhbev takes the eigenvalues of a Hermitian band matrix from
its band storage.  ctypes releases the GIL, so worker threads overlap.  On
another BLAS none is found: thread pinning is a no-op, eigh_inplace falls
back to np.linalg.eigh, and lapacke returns None.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# thread-count functions of scipy-openblas, ILP64 and LP64 OpenBLAS; "{}" is get or set
THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                    "openblas_{}_num_threads")
# ILP64 LAPACKE routines, as scipy-openblas and a 64_-suffixed OpenBLAS export them
LAPACKE_NAMES = ("scipy_LAPACKE_{}64_", "LAPACKE_{}64_")
# argument codes after the int layout: zheevr(jobz, range, uplo, n, a, lda, vl, vu, il,
# iu, abstol, m, w, z, ldz, isuppz) and zhbev(jobz, uplo, n, kd, ab, ldab, w, z, ldz)
SIGNATURES = {"zheevr": "cccipiddiidpppip", "zhbev": "cciipippi"}
_CTYPES = {"c": ctypes.c_char, "i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}

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
def lapacke(routine: str):
    """The bound ILP64 LAPACKE_<routine> of the loaded OpenBLAS, or None; resolved once."""
    for lib in _libraries():
        fn = next((getattr(lib, n.format(routine)) for n in LAPACKE_NAMES
                   if hasattr(lib, n.format(routine))), None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int, *(_CTYPES[c] for c in SIGNATURES[routine])]
            fn.restype = ctypes.c_int64
            return fn
    return None


def eigh_inplace(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian s, read from its upper triangle.

    A square C-contiguous complex128 s goes to LAPACKE_zheevr, which reads it
    column-major with uplo L, as s^T = conj(s): so it returns conjugated
    eigenvectors, conjugated back in place and Fortran-ordered, and overwrites
    s.  Any other s, or a process with no LAPACKE_zheevr loaded, takes
    np.linalg.eigh on the same upper triangle, which leaves s intact.
    """
    fn = lapacke("zheevr")
    square = s.ndim == 2 and s.shape[0] == s.shape[1]
    if fn is None or not square or s.dtype != np.complex128 or not s.flags.c_contiguous:
        return np.linalg.eigh(s, UPLO="U")
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


def band_eigvalsh(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian A stored as ab[j, i - j] = A[i, j]; overwrites ab."""
    if ab.dtype != np.complex128 or not ab.flags.c_contiguous:
        raise ValueError("band storage must be C-contiguous complex128")
    w = np.empty(ab.shape[0])
    info = lapacke("zhbev")(_COL_MAJOR, b"N", b"L", ab.shape[0], ab.shape[1] - 1,
                            ab.ctypes.data, ab.shape[1], w.ctypes.data, None, 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zhbev failed: info {info}")
    return w
