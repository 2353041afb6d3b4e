"""Root-raised-cosine pulse shaping and the symbol-rate correlation matrix.

The pulse is its roll-off beta in [0, 1], which every function here takes as
a float; check_alpha rejects a roll-off outside that range by name.  With
transmit and receive filters equal to the same unit-energy RRC pulse, the
matched-filter cascade is the raised cosine g(t).  Times are in units of
the Nyquist interval T0.  Sampling g at the compressed interval T_f = alpha*T0
yields a symmetric Toeplitz matrix G that is simultaneously the
intersymbol-interference operator and the shape of the matched-filter noise
covariance.  gram_matrix samples G's first row and factors G from it, once
per (alpha, beta, MN), into the NoiseShape that whitens the channel and
colors the noise: G is centrosymmetric, so its eigenbasis V is kept as two
half-order real factors, and at alpha = 1, where G = I, as nothing at all.
Neither G nor V is ever formed; V^T x and V x are half-order products.  The
simulator works in the time domain; G itself and the delay-Doppler image
G_eq, which shares G's spectrum, are formed only by the oracles (dense_g,
gram_dd).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .transforms import GridShape, conjugate_by_dd

log = logging.getLogger(__name__)

# Relative floor applied to near-zero eigenvalues of G / G_eq before any
# inversion downstream; the matrix is near-singular at alpha = 1/(1+beta).
EIG_FLOOR_REL = 1e-10

# Half-width around a removable singularity (in units of T0) that switches
# evaluation to the analytic limit.
_SING_TOL = 1e-8

_windows = np.lib.stride_tricks.sliding_window_view


@dataclass(frozen=True, eq=False)
class NoiseShape:
    """The noise shape G = V diag(raw) V^T, kept as the two half-order real factors of V.

    G is the real symmetric Toeplitz matrix with first row row = g(k*T_f),
    k < n.  It is centrosymmetric, so with n = 2m + r its eigenvectors are
    even, [u; t; J u], or odd, [u; 0; -J u] (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976): the columns of even ((m+r) x (m+r)) hold the
    [u; t], those of odd (m x m) the u.  The eigenpairs are in block order
    [even, odd], ascending in each block, so column k of V pairs with raw[k],
    G's eigenvalue, and lam[k], the same clamped from below by
    floor_spectrum; floored counts the clamped ones.  Each column's sign is
    the eigensolver's: flipping one negates a row of C = diag(lam)^{-1/2} V^T H
    and leaves C^H C, and all derived from it, unchanged.  Where G = I only
    the identity marker is kept: no row or factors, and raw and lam are unit
    views that own no memory.  vt and v apply V^T and V to a real or complex
    vector or block of n rows as two half-order real products on the folds
    x_top +/- J x_bot, and columns writes a run of V's columns; dense_g
    allocates G for the oracles.  Every trial of an (alpha, beta, MN)
    instance shares it read-only.
    """

    raw: np.ndarray
    lam: np.ndarray
    row: np.ndarray | None = None
    even: np.ndarray | None = None
    odd: np.ndarray | None = None
    floored: int = 0

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def identity(self) -> bool:
        return self.even is None

    def vt(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """V^T x into out, else as a new array (x itself, made contiguous, where G = I)."""
        return self._fold(x, transpose=True, out=out)

    def v(self, y: np.ndarray) -> np.ndarray:
        """V y as a new array (y itself, made contiguous, where G = I)."""
        return self._fold(y, transpose=False)

    def columns(self, odd: int, k: int, out: np.ndarray) -> np.ndarray:
        """The first k columns of V's even (odd 0) or odd block, [u; t; J u] or [u; 0; -J u],
        into the complex n-row block out."""
        m, r = divmod(self.n, 2)
        f = (self.even, self.odd)[odd][:, :k]
        out.imag, real = 0.0, out.real
        real[m : m + r], real[: f.shape[0]] = 0.0, f  # the even block's t overwrites the zeros
        np.multiply(f[:m][::-1], (1.0, -1.0)[odd], out=real[m + r :])
        return out

    def dense_g(self, dtype: type = float) -> np.ndarray:
        """G as a new n x n array; it allocates, so only the oracles call it."""
        if self.identity:
            return np.eye(self.n, dtype=dtype)
        return np.array(_toeplitz(self.row, self.n), dtype)

    def _fold(self, x: np.ndarray, transpose: bool, out: np.ndarray | None = None) -> np.ndarray:
        """V^T x or V x on x's real image, each complex column as a (real, imag) pair, into out
        (of x's shape and dtype) or a new array.  Rows may be strided, as in a column strip."""
        x = np.asarray(x)
        dtype = np.complex128 if np.iscomplexobj(x) else np.float64
        z = x if x.dtype == dtype and x.strides[-1:] == (x.itemsize,) else np.ascontiguousarray(x, dtype)
        if self.identity:
            return np.ascontiguousarray(z) if out is None else np.copyto(out, z) or out
        real = lambda a: (a[:, None] if a.ndim == 1 else a).view(np.float64)
        z, o = real(z), real(np.empty(x.shape, dtype) if out is None else out)
        m, r = divmod(self.n, 2)
        if transpose:  # [E^T (x_top + J x_bot; x_mid); O^T (x_top - J x_bot)]
            top, bot = z[:m], z[m + r:][::-1]
            f = np.empty((m + r, z.shape[1]))
            np.add(top, bot, out=f[:m])
            f[m:] = z[m : m + r]
            np.matmul(self.even.T, f, out=o[: m + r])
            np.matmul(self.odd.T, np.subtract(top, bot, out=f[:m]), out=o[m + r:])
        else:  # with a = E y_even and b = O y_odd: [a_top + b; a_mid; J (a_top - b)]
            a = np.matmul(self.even, z[: m + r], out=o[: m + r])
            b = self.odd @ z[m + r:]
            np.subtract(a[:m], b, out=o[m + r:][::-1])
            a[:m] += b
        return o.view(dtype).reshape(x.shape) if out is None else out


def rc_autocorr(t: float | np.ndarray, beta: float) -> float | np.ndarray:
    """Raised-cosine matched-filter response g(t) of the unit-energy RRC pulse.

    Evaluated in closed form; the removable singularity at |t| = T0/(2*beta)
    uses its analytic limit.  g(0) = 1 and g vanishes at nonzero integer
    multiples of T0.
    """
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if beta == 0.0:
        out = np.sinc(x)
    else:
        out = np.empty_like(x)
        sing = np.abs(np.abs(x) - 1.0 / (2.0 * beta)) < _SING_TOL
        out[sing] = np.sinc(1.0 / (2.0 * beta)) * np.pi / 4.0
        xr = x[~sing]
        out[~sing] = np.sinc(xr) * np.cos(np.pi * beta * xr) / (1.0 - (2.0 * beta * xr) ** 2)
    return out.item() if scalar else out


def rrc_impulse(t: float | np.ndarray, beta: float) -> float | np.ndarray:
    """Unit-energy root-raised-cosine impulse response in closed form.

    The singular points t = 0 and |t| = T0/(4*beta) are evaluated by their
    analytic limits.  Used by the waveform-level oracle and the colored-noise
    validation, not by the matrix model.
    """
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if beta == 0.0:
        out = np.sinc(x)
        return out.item() if scalar else out
    out = np.empty_like(x)
    zero = np.abs(x) < _SING_TOL
    sing = np.abs(np.abs(x) - 1.0 / (4.0 * beta)) < _SING_TOL
    rest = ~(zero | sing)
    out[zero] = 1.0 - beta + 4.0 * beta / np.pi
    out[sing] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    xr = x[rest]
    num = np.sin(np.pi * xr * (1.0 - beta)) + 4.0 * beta * xr * np.cos(np.pi * xr * (1.0 + beta))
    den = np.pi * xr * (1.0 - (4.0 * beta * xr) ** 2)
    out[rest] = num / den
    return out.item() if scalar else out


def check_alpha(alpha: float, beta: float) -> None:
    """Reject roll-offs outside [0, 1] and packing ratios outside [1/(1+beta), 1]."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"roll-off must lie in [0, 1], got {beta}")
    lo = 1.0 / (1.0 + beta)
    if not lo <= alpha <= 1.0:
        raise ValueError(
            f"packing ratio {alpha} outside admissible range "
            f"[1/(1+beta) = {lo:.6g}, 1]"
        )


def floor_spectrum(w: np.ndarray) -> tuple[np.ndarray, int]:
    """The floor policy on a noise shape's eigenvalues w: (w floored, clamped count).

    The floor is EIG_FLOOR_REL times the largest eigenvalue, and clamping
    logs one warning.
    """
    top = float(w.max())
    if top <= 0.0:
        raise ValueError("noise-shape matrix has no positive eigenvalue")
    floor = EIG_FLOOR_REL * top
    floored = int(np.count_nonzero(w < floor))
    if floored:
        log.warning("floored %d eigenvalue(s) of the noise shape at %.3e", floored, floor)
    return np.maximum(w, floor), floored


def _toeplitz(row: np.ndarray, size: int) -> np.ndarray:
    """The read-only strided view [i, j] = row[|i-j|], i, j < size ([:size] keeps size 0 empty)."""
    return _windows(np.concatenate([row[size - 1 : 0 : -1], row[:size]]), size)[:size, ::-1]


def noise_shape(row: np.ndarray) -> NoiseShape:
    """Factor the symmetric Toeplitz noise shape G with first row row, floor policy applied.

    row = e_0 (G = I) takes no eigensolver.  Otherwise, with n = 2m + r,
    A = G[:m, :m] and C = G[m+r:, :m], the even block A + J C, bordered for
    odd n by sqrt(2) times the middle column and by the middle entry, and
    the odd block A - J C are each written from strided Toeplitz and Hankel
    views of row into a buffer of their own and factored in turn; G and V
    are never formed.  The floor policy is floor_spectrum's.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or not row.size:
        raise ValueError(f"expected the first row of G, got shape {row.shape}")
    if row[0] == 1.0 and np.count_nonzero(row) == 1:
        unit = np.broadcast_to(1.0, row.size)
        return NoiseShape(raw=unit, lam=unit)
    m, r = divmod(row.size, 2)
    pairs = []
    for size, fold in ((m + r, np.add), (m, np.subtract)):
        block = _toeplitz(row, size).copy()  # [i, j] = fold(row[|i-j|], row[n-1-i-j])
        fold(block, _windows(row[::-1][: 2 * size - 1], size)[:size], out=block)
        block[m:] /= np.sqrt(2.0)  # odd n: the even block's doubled row and column m
        block[:, m:] /= np.sqrt(2.0)
        w, b = np.linalg.eigh(block)
        del block
        b[:m] *= np.sqrt(0.5)  # the u of [u; t; J u] and of [u; 0; -J u]
        pairs.append((w, b))
    (w_even, even), (w_odd, odd) = pairs
    raw = np.concatenate([w_even, w_odd])
    lam, floored = floor_spectrum(raw)
    return NoiseShape(raw=raw, lam=lam, row=row, even=even, odd=odd, floored=floored)


def lag_windows(lags: np.ndarray, n: int, alpha: float, beta: float) -> np.ndarray:
    """The read-only strided view W[i, m] = g(lags[i+n-1-m]*T_f), T_f = alpha*T0.

    Any n consecutive rows of W form one n x n Toeplitz matrix.  At alpha = 1
    the closed form's zero crossings at nonzero lags, exact only up to
    rounding, are pinned to exact zeros, so G and the identity channel's H
    are exactly the identity.
    """
    g = (lags == 0).astype(float) if alpha == 1.0 else np.asarray(rc_autocorr(lags * alpha, beta))
    return _windows(g, n)[:, ::-1]


def gram_matrix(shape: GridShape, alpha: float, beta: float) -> NoiseShape:
    """Factor the MN x MN symbol correlation matrix G(k, m) = g((k-m)*T_f) from its first row."""
    check_alpha(alpha, beta)
    return noise_shape(lag_windows(np.arange(shape.MN), 1, alpha, beta)[:, 0])  # g(k*T_f), k < MN


def gram_dd(noise: NoiseShape, shape: GridShape) -> np.ndarray:
    """The delay-Doppler image G_eq = (F_N kron I_M) G (F_N^H kron I_M), symmetrized Hermitian."""
    g_eq = conjugate_by_dd(noise.dense_g(complex), shape)
    return 0.5 * (g_eq + g_eq.conj().T)
