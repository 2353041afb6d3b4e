"""Normalized DFT matrices and the delay-Doppler <-> time-domain maps.

The frame is an M x N grid (M delay bins, N Doppler bins) vectorized
column-wise into a length-MN vector.  Converting between domains applies an
N-point (inverse) DFT across the Doppler axis while leaving the delay axis
untouched, i.e. multiplication by (F_N kron I_M) or its adjoint.  The
Kronecker product is never materialized: vectors are reshaped to the grid and
hit with the small N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridShape:
    """Frame geometry: M delay bins (subcarriers) by N Doppler bins (slots)."""

    M: int
    N: int

    def __post_init__(self) -> None:
        if self.M < 1 or self.N < 1:
            raise ValueError(f"grid dimensions must be >= 1, got M={self.M}, N={self.N}")

    @property
    def MN(self) -> int:
        return self.M * self.N


@lru_cache(maxsize=64)
def dft_matrix(n: int) -> np.ndarray:
    """Normalized n-point DFT matrix, entry (k, m) = exp(-2j*pi*k*m/n)/sqrt(n); read-only."""
    if n < 1:
        raise ValueError(f"DFT order must be >= 1, got {n}")
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    w.flags.writeable = False
    return w


def _check_frame(x: np.ndarray, shape: GridShape, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != shape.MN:
        raise ValueError(f"{name} must have {shape.MN} rows, got shape {x.shape}")
    return x


def dd_to_time(x_dd: np.ndarray, shape: GridShape) -> np.ndarray:
    """Map a vectorized delay-Doppler grid to time-domain samples.

    Computes (F_N^H kron I_M) @ x_dd for a length-MN vector or, column by
    column, an MN x k matrix.  Row n*M + m holds Doppler slot n, so grouping
    the rows by slot turns the map into one N x N product.
    """
    x_dd = _check_frame(x_dd, shape, "x_dd")
    fn = dft_matrix(shape.N)  # F_N is symmetric, so F_N^H = conj(F_N)
    return (fn.conj() @ x_dd.reshape(shape.N, -1)).reshape(x_dd.shape)


def time_to_dd(z: np.ndarray, shape: GridShape) -> np.ndarray:
    """Map time-domain samples to the vectorized delay-Doppler grid.

    Computes (F_N kron I_M) @ z, vector or matrix; exact inverse of :func:`dd_to_time`.
    """
    z = _check_frame(z, shape, "z")
    return (dft_matrix(shape.N) @ z.reshape(shape.N, -1)).reshape(z.shape)


def conjugate_by_dd(a: np.ndarray, shape: GridShape) -> np.ndarray:
    """Similarity transform (F_N kron I_M) @ A @ (F_N^H kron I_M).

    Applied block-wise on the Doppler index of rows and columns; preserves
    eigenvalues, trace and Frobenius norm.
    """
    a = np.asarray(a)
    mn = shape.MN
    if a.shape != (mn, mn):
        raise ValueError(f"matrix must be {mn}x{mn}, got {a.shape}")
    fn = dft_matrix(shape.N)
    # rows: index i = m1 + M*n1 -> reshape axis to (N, M); contract F over n1
    left = np.einsum("kn,nmj->kmj", fn, a.reshape(shape.N, shape.M, mn))
    left = left.reshape(mn, mn)
    # columns: same contraction with F^H from the right
    right = np.einsum("inm,kn->ikm", left.reshape(mn, shape.N, shape.M), fn.conj())
    return right.reshape(mn, mn)
