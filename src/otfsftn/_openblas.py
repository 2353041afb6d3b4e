"""The OpenBLAS that numpy loaded: its thread count, LAPACK Hermitian eigensolvers and zherk.

numpy's wheels link one OpenBLAS, found here by name among the mapped
libraries.  Through ctypes it gives single_blas_thread its thread-count
functions, and lapacke and cblas bind ILP64 LAPACKE and CBLAS routines on
first use, not at import.  HermitianEVD runs the divide-and-conquer EVD
(Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995) as its three LAPACK
stages, zhetrd, dstedc and zunmtr, through their _work entry points, so
every workspace is a numpy buffer: the tridiagonal's eigenvectors and
dstedc's n^2-sized workspace share one buffer, which a caller may lend, where
numpy's eigh (zheevd) takes about two more n x n matrices, and zunmtr
back-transforms any block.  zhbev takes the eigenvalues of a Hermitian band
matrix from its band storage.  ctypes releases the GIL, so worker threads
overlap.  On another BLAS none is found: thread pinning is a no-op,
HermitianEVD falls back to np.linalg.eigh, and lapacke and cblas return None.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# thread-count functions of scipy-openblas, ILP64 and LP64 OpenBLAS; "{}" is get or set
THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                    "openblas_{}_num_threads")
# ILP64 LAPACKE and CBLAS routines, as scipy-openblas and a 64_-suffixed OpenBLAS export them
LAPACKE_NAMES = ("scipy_LAPACKE_{}64_", "LAPACKE_{}64_")
CBLAS_NAMES = ("scipy_cblas_{}64_", "cblas_{}64_")
# argument codes after the int layout: zhetrd_work(uplo, n, a, lda, d, e, tau, work, lwork),
# dstedc_work(compz, n, d, e, z, ldz, work, lwork, iwork, liwork), zunmtr_work(side, uplo,
# trans, m, n, a, lda, tau, c, ldc, work, lwork), zhbev(jobz, uplo, n, kd, ab, ldab, w, z, ldz)
# and cblas_zherk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc), its enums C ints
SIGNATURES = {"zhetrd_work": "cipippppi", "dstedc_work": "cipppipipi",
              "zunmtr_work": "ccciipippipi", "zhbev": "cciipippi", "zherk": "eeiidpidpi"}
_STAGES = ("zhetrd_work", "dstedc_work", "zunmtr_work")
_CTYPES = {"c": ctypes.c_char, "e": ctypes.c_int, "i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
ROW_UPPER_CONJ = (101, 121, 113)  # CblasRowMajor, CblasUpper, CblasConjTrans


def _libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS mapped into this process; none where /proc is unreadable."""
    try:
        with open("/proc/self/maps") as maps:  # a pathname is field 6 to the end, spaces and all
            named = [line.split(maxsplit=5)[5].rstrip("\n") for line in maps if "openblas" in line.lower()]
    except OSError:
        return []
    # a deleted mapping's path would load another file than the one mapped
    return [ctypes.CDLL(p) for p in sorted({p for p in named if not p.endswith(" (deleted)")})]


@functools.cache
def thread_controls() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process; found once."""
    found = []
    for lib in _libraries():
        name = next((n for n in THREAD_FUNCTIONS if hasattr(lib, n.format("set"))), None)
        if name is not None:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return tuple(found)


@functools.cache
def lapacke(routine: str, names: tuple[str, ...] = LAPACKE_NAMES, restype=ctypes.c_int64):
    """The bound ILP64 LAPACKE_<routine> (the first of names) of the loaded OpenBLAS, or None."""
    for lib in _libraries():
        fn = next((getattr(lib, n.format(routine)) for n in names
                   if hasattr(lib, n.format(routine))), None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int, *(_CTYPES[c] for c in SIGNATURES[routine])]
            fn.restype = restype
            return fn
    return None


cblas = functools.partial(lapacke, names=CBLAS_NAMES, restype=None)  # cblas_<routine>, void


def _call(routine: str, *args) -> None:
    """LAPACKE_<routine> on column-major arrays, passed by address; a nonzero info raises."""
    info = lapacke(routine)(_COL_MAJOR, *(a.ctypes.data if isinstance(a, np.ndarray) else a
                                          for a in args))
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed: info {info}")


def _widen(buf: np.ndarray, n: int) -> np.ndarray:
    """The real column-major n x n matrix in buf's first n^2 doubles, as complex in place.

    Columns [a, b) with b <= 2a never overlap their target, so the blocks
    move last first, halving, with no temporary (a whole-matrix assignment
    would copy all n^2 doubles first); column 0 overlaps its target and is
    copied.
    """
    real = buf.view(np.float64)[: n * n].reshape(n, n).T
    z = buf[: n * n].reshape(n, n).T
    b = n
    while b > 1:
        a = (b + 1) // 2
        z[:, a:b] = real[:, a:b]
        b = a
    z[:, :1] = real[:, :1].copy()
    return z


@functools.cache
def _lwork(n: int) -> int:
    """The larger of zhetrd's optimal workspace and zunmtr's on n x n (or fewer rows), queried
    once per n; a query reads only the sizes, so it is handed no matrix."""
    lwork, none = np.empty(2, dtype=np.complex128), np.empty(1, dtype=np.complex128)
    ld = max(n, 1)
    _call("zhetrd_work", b"L", n, none, ld, none, none, none, lwork, -1)
    _call("zunmtr_work", b"L", b"L", b"N", n, n, none, ld, none, none, ld, lwork[1:], -1)
    return max(1, int(lwork.real.max()))


class HermitianEVD:
    """The Hermitian s, from its upper triangle, as conj(Q Z) diag(w) conj(Q Z)^H in three stages.

    s is read column-major with uplo L, as s^T = conj(s): zhetrd reduces it in place to a real
    tridiagonal (s keeps the reflectors Q), and dstedc writes its eigenpairs, w ascending and Z in
    the first n^2 doubles of buf (flat complex, (n + 1)^2 entries; new if None), its workspace after.
    spare is the C-ordered n-row tail of that spent workspace, room for n/2 + 2 columns or more.
    zunmtr applies Q^T to a block of it (apply_qt), or Q to Z widened in place (basis).  Any s but
    a square C-contiguous complex128 one, or a BLAS without the three routines, takes
    np.linalg.eigh, which leaves s intact: there Q is its basis, Z = I and zt None.
    """

    def __init__(self, s: np.ndarray, buf: np.ndarray | None = None):
        n = self.n = s.shape[0]
        if (any(lapacke(r) is None for r in _STAGES) or s.shape != (n, n)
                or s.dtype != np.complex128 or not s.flags.c_contiguous):
            (self.w, self.q), self.zt = np.linalg.eigh(s, UPLO="U"), None
            self.spare = np.empty((n, n // 2 + 2), dtype=np.complex128)
            return
        ld = self.ld = max(n, 1)
        d, e, self.tau = np.empty(n), np.empty(ld), np.empty(ld, dtype=np.complex128)
        self.q, self.buf = s, np.empty((n + 1) ** 2, dtype=np.complex128) if buf is None else buf
        real = self.buf.view(np.float64)
        self.work = np.empty(_lwork(n), dtype=np.complex128)
        _call("zhetrd_work", b"L", n, s, ld, d, e, self.tau, self.work, self.work.size)
        iwork = np.empty(3 + 5 * n, dtype=np.int64)
        _call("dstedc_work", b"I", n, d, e, real, ld, real[n * n :], real.size - n * n, iwork, iwork.size)
        self.w, self.zt = d, real[: n * n].reshape(n, n)  # row j of zt is column j of Z
        room = (self.buf.size - (n * n + 1) // 2) // ld  # whole columns past Z
        self.spare = self.buf[self.buf.size - n * room :].reshape(n, room)

    def apply_qt(self, x: np.ndarray) -> np.ndarray:
        """x = Q^T x in place on a complex n-row block with contiguous rows (zunmtr on x^T)."""
        if self.zt is None:
            x[...] = self.q.T @ x
        else:
            _call("zunmtr_work", b"R", b"L", b"N", x.shape[1], self.n, self.q, self.ld, self.tau,
                  x, x.strides[0] // x.itemsize, self.work, self.work.size)
        return x

    def basis(self) -> np.ndarray:
        """s's eigenvectors conj(Q Z), Fortran-ordered, formed in place from Z, which is spent."""
        if self.zt is None:
            return self.q
        z = _widen(self.buf, self.n)
        _call("zunmtr_work", b"L", b"L", b"N", self.n, self.n, self.q, self.ld, self.tau, z, self.ld,
              self.work, self.work.size)
        return np.conjugate(z, out=z)


def band_eigvalsh(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian A stored as ab[j, i - j] = A[i, j]; overwrites ab."""
    if ab.dtype != np.complex128 or not ab.flags.c_contiguous:
        raise ValueError("band storage must be C-contiguous complex128")
    w = np.empty(ab.shape[0])
    _call("zhbev", b"N", b"L", ab.shape[0], ab.shape[1] - 1, ab, ab.shape[1], w, None, 1)
    return w
