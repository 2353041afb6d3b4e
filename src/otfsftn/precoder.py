"""Whitening, subchannel decomposition, water-filling and the precoder pair.

The transceiver is solved in two steps, both in the time domain.
derive_subchannels works once per channel: on the factored noise shape
G = V diag(lam) V^T it whitens the channel into C = diag(lam)^{-1/2} V^T H,
eigendecomposes C^H C = U_t diag(xi) U_t^H and reads the per-direction
energy weights phi = diag(U_t^H G U_t) from the columns of V below G's
flat top (_phi), with no U_t on the way.  V^T and V are applied as the
noise shape's half-order products, in column strips, so neither G nor V is
formed.  -C^H C is formed once, by zherk, as the one triangle the
eigensolver reads, straight into the buffer it overwrites, and C is
released as soon as nothing reads it.  finalize works
once per power allocation: given powers gamma (water-filled under
sum(gamma*phi) = MN, the subchannel count, or uniform) it forms the
precoder P_t = U_t diag(gamma)^{1/2}.  The receive weights
D_t = (V diag(lam)^{-1/2} C U_t)^H do not depend on gamma, so the derivation
forms them and keeps D_t, not C; subchannel_gains runs the same
decomposition for the gains alone from the path list, folding each strip of
H into C in a pair of buffers each thread of a sweep reuses.  D_t H P_t = diag(xi*sqrt(gamma)) and
D_t G D_t^H = diag(xi), so the link becomes a bank of parallel scalar
Gaussian subchannels with gains xi and powers gamma, whatever phases the
eigensolver gives U_t: row j of D_t turns against column j, and phi ignores both.

The delay-Doppler map F = F_N kron I_M is unitary, so the DD-domain pair
P = F P_t, D = D_t F^H diagonalizes H_eq = F H F^H and G_eq = F G F^H with
the same xi and phi.  Only the oracles form that pair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .channel import STRIP, DdChannel, channel_strips, column_strips, effective_channel, nyquist_entries
from .config import SystemConfig
from .pulse import NoiseShape

# subchannels whose whitened gain falls below this fraction of the largest
# are excluded from allocation (guards 1/(xi*snr) against blowup)
XI_ACTIVE_REL = 1e-12

FLAT_EPS = np.finfo(float).eps  # phi drops G's eigenvalues within MN*FLAT_EPS of its largest, relative


@dataclass(frozen=True, eq=False)
class Subchannels:
    """The derivation for one channel: basis U_t, gains xi, energy weights phi, receive weights D.

    Every power allocation on the channel shares it read-only.
    """

    noise: NoiseShape
    U_t: np.ndarray
    xi: np.ndarray
    phi: np.ndarray
    D: np.ndarray

    @property
    def floored(self) -> int:
        return self.noise.floored


@dataclass(frozen=True, eq=False)
class PrecoderSolution:
    """One power allocation on a derivation: powers gamma and the precoder P = U_t diag(gamma)^{1/2}."""

    sub: Subchannels
    gamma: np.ndarray
    P: np.ndarray

    @property
    def xi(self) -> np.ndarray:
        return self.sub.xi


def _strips(n: int):
    """Column slices of width STRIP covering range(n)."""
    return (slice(j, min(j + STRIP, n)) for j in range(0, n, STRIP))


def hermitian_evd_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigvecs, eigvals) with a = eigvecs @ diag(eigvals) @ eigvecs^H;
    the eigenvectors are LAPACK's as returned, with no phase or tie order imposed.
    a is checked to be Hermitian and is not modified; the solver overwrites its working
    copy -(a + a^H)/2, whose ascending eigenvalues negate to a's descending ones.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    herm_err = float(np.abs(a - a.conj().T).max(initial=0.0))
    if herm_err > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm_err:.3e}")
    evd = _openblas.HermitianEVD(-0.5 * (a + a.conj().T))
    return evd.basis(), -evd.w


def _whiten(strips, noise: NoiseShape, c: np.ndarray) -> np.ndarray:
    """The whitened channel C = diag(lam)^{-1/2} V^T H into the n x n c, each strip
    (columns, H[:, columns]) of H folded straight into C's and divided there."""
    root = np.sqrt(noise.lam)[:, None]
    for j, h in strips:
        np.divide(noise.vt(h, out=c[:, j]), root, out=c[:, j])
    return c


def _neg_gram(c: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """-C^H C in the row-major upper triangle only of the C-ordered s (new if None); the rest is
    unset.  The loaded OpenBLAS's zherk writes it, or where it has none numpy does, by row strips."""
    k, n = c.shape
    s = np.empty((n, n), dtype=np.result_type(c.dtype, np.float64)) if s is None else s
    if (herk := _openblas.cblas("zherk")) is not None and c.dtype == np.complex128 and c.flags.c_contiguous:
        herk(*_openblas.ROW_UPPER_CONJ, n, k, -1.0, c.ctypes.data, n, 0.0, s.ctypes.data, n)
        return s
    for j in _strips(n):
        np.matmul(-c[:, j].conj().T, c[:, j.start :], out=s[j, j.start :])
    return s


def _phi(evd: _openblas.HermitianEVD, noise: NoiseShape) -> np.ndarray:
    """phi = diag(U_t^H G U_t) = c - sum_k (c - raw_k) |(V^T U_t)_kj|^2 with c = max(raw).

    The columns of V^T U_t have unit norm, so the flat k, raw_k >= c - MN*FLAT_EPS*c, which
    are most of them (G's raised-cosine spectrum is flat at the top), move phi by at most
    MN*FLAT_EPS*c and are dropped.  The rest, a leading run of each block of V, are written
    block by block into evd.spare, turned into (V_K^T Q)^T and multiplied by Z^T in row strips.
    """
    raw, n = noise.raw, noise.n
    c = raw.max()
    phi = np.full(n, c)
    if noise.identity:  # nothing is steep, and V has no blocks
        return phi
    for odd, w in enumerate((raw[: n - n // 2], raw[n - n // 2 :])):  # each ascending
        w = c - w[: np.searchsorted(w, c - n * FLAT_EPS * c)]
        x = evd.apply_qt(noise.columns(odd, w.size, evd.spare[:, : w.size])).view(np.float64)
        w2 = np.repeat(w, 2)  # for x's columns, (real, imag) pairs
        for j in _strips(n):
            y = x[j] if evd.zt is None else evd.zt[j] @ x
            phi[j] -= np.square(y, out=y) @ w2
            del y  # before the next strip's product
    return phi


def derive_subchannels(h: np.ndarray, noise: NoiseShape) -> Subchannels:
    """Whiten the time-domain channel H, decompose it into scalar subchannels and form D_t.

    The noise shape carries the floored spectrum, and floored reports how
    many eigenvalues it clamped.  phi is subchannel_gains' to the bit.
    """
    h, n = np.asarray(h, dtype=complex), noise.n
    if h.shape != (n, n):
        raise ValueError(f"H {h.shape} does not match the noise shape {(n, n)}")
    # the gains path's strips, so that C, and xi and phi with it, match it bit for bit
    strips = ((j, h[:, j]) for j in column_strips(n, (n + 1) ** 2))
    c = _whiten(strips, noise, np.empty((n, n), dtype=complex))
    evd = _openblas.HermitianEVD(_neg_gram(c))
    xi, phi = np.maximum(-evd.w, 0.0), _phi(evd, noise)
    u_t = evd.basis()
    del evd  # and with it the reflectors
    w = c @ u_t
    del c
    w /= np.sqrt(noise.lam)[:, None]
    for j in _strips(w.shape[1]):
        w[:, j] = noise.v(w[:, j])
    return Subchannels(noise=noise, U_t=u_t, xi=xi, phi=phi, D=np.conjugate(w, out=w).T)


def _folded_band(chan: DdChannel, cfg: SystemConfig) -> np.ndarray:
    """H^H H at alpha = 1 as lower band storage in the order (0, n-1, 1, n-2, ...).

    There G = I and H has one nonzero per delay tap in each row (nyquist_entries), so H^H H is a
    cyclic band and its folded half-width is at most 2*l_max.  The band sums products of pairs of
    a row's nonzeros, in the order of H's rows and then its columns.
    """
    n = cfg.MN
    rows, cols, v = nyquist_entries(chan, cfg)
    f = np.where(cols < (n + 1) // 2, 2 * cols, 2 * (n - cols) - 1)  # folded positions
    start = np.flatnonzero(np.diff(rows, prepend=-1))
    kd = int((np.maximum.reduceat(f, start) - np.minimum.reduceat(f, start)).max(initial=0))
    ab = np.zeros((n, kd + 1), dtype=complex)
    for d in range(kd + 1):  # a row's nonzeros are at most kd apart
        same = rows[d:] == rows[: rows.size - d]
        p, q, z = f[: rows.size - d][same], f[d:][same], (v[: rows.size - d].conj() * v[d:])[same]
        np.add.at(ab.reshape(-1), np.minimum(p, q) * kd + np.maximum(p, q),
                  np.where(p >= q, z, z.conj()))  # ab[j, i - j] = (H^H H)[i, j], i >= j
    return ab


def subchannel_gains(chan: DdChannel, cfg: SystemConfig, noise: NoiseShape,
                     bufs: threading.local | None = None) -> tuple[np.ndarray, np.ndarray]:
    """xi and phi of derive_subchannels(effective_channel(chan, cfg), noise), with no dense H.

    Where G is exactly the identity (alpha = 1), C = H and phi = 1: zhbev takes xi from the
    folded band of H^H H summed from the taps (a BLAS without zhbev: the dense eigvalsh).
    Any other G takes the EVD short of U_t, and _phi, in bufs.pair, two flat (MN + 1)^2
    complex buffers made on first use (bufs: a sweep's threading.local; a new one if None).
    H's strips are built in the first and folded into C in the second, zherk writes -C^H C
    into the first, and the EVD's Z and workspace take the second: a solve on a reused pair
    allocates no MN x MN array.
    """
    n = cfg.MN
    if n != noise.n:
        raise ValueError(f"H {(n, n)} does not match the noise shape {(noise.n, noise.n)}")
    if noise.identity:
        xi = (-np.linalg.eigvalsh(_neg_gram(effective_channel(chan, cfg)), UPLO="U")
              if _openblas.lapacke("zhbev") is None
              else _openblas.band_eigvalsh(_folded_band(chan, cfg))[::-1])
        return np.maximum(xi, 0.0), np.ones(n)
    bufs = threading.local() if bufs is None else bufs
    if not hasattr(bufs, "pair"):
        bufs.pair = tuple(np.empty((n + 1) ** 2, dtype=complex) for _ in range(2))
    a, b = bufs.pair
    c = _whiten(channel_strips(chan, cfg, a), noise, b[: n * n].reshape(n, n))
    evd = _openblas.HermitianEVD(_neg_gram(c, a[: n * n].reshape(n, n)), b)
    return np.maximum(-evd.w, 0.0), _phi(evd, noise)


def waterfill(xi: np.ndarray, phi: np.ndarray, snr: float) -> tuple[np.ndarray, float]:
    """Water-filling powers gamma under the weighted constraint sum(gamma*phi) = xi.size.

    The constraint holds the derived transmit power at one unit per
    subchannel.  gamma[n] = max(mu/phi[n] - 1/(xi[n]*snr), 0).  Subchannel n
    activates at the water level t[n] = phi[n]/(xi[n]*snr); with k
    subchannels active the constraint fixes mu_k = (xi.size + sum of the k
    smallest t)/k, and the solution takes the largest k with mu_k above the
    k-th smallest t.  Subchannels with xi below 1e-12 of the largest are
    forced inactive.
    """
    xi = np.asarray(xi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if xi.shape != phi.shape:
        raise ValueError(f"xi and phi must match, got {xi.shape} vs {phi.shape}")
    if np.any(xi < 0.0):
        raise ValueError("subchannel gains must be nonnegative")
    if np.any(phi <= 0.0):
        raise ValueError("energy weights must be positive")
    if not 0.0 < snr < np.inf:  # also rejects a nan snr
        raise ValueError(f"snr must be positive and finite, got {snr}")

    usable = xi > XI_ACTIVE_REL * xi.max() if xi.max() > 0.0 else np.zeros_like(xi, bool)
    if not usable.any():
        raise ValueError("no usable subchannels: all gains are numerically zero")
    thresh = np.full_like(phi, np.inf)
    thresh[usable] = phi[usable] / (xi[usable] * snr)

    # levels relative to the smallest threshold t_(1), so that xi.size is not
    # lost against thresholds near 1/snr at very low SNR
    t_sorted = np.sort(thresh[usable])
    rel = t_sorted - t_sorted[0]
    nu_k = (xi.size + np.cumsum(rel)) / np.arange(1, rel.size + 1)
    nu = float(nu_k[np.flatnonzero(nu_k > rel)[-1]])  # nu_1 = xi.size > 0 = rel[0]
    gamma = np.maximum(nu - (thresh - t_sorted[0]), 0.0) / phi
    return gamma, float(t_sorted[0] + nu)


def finalize(sub: Subchannels, gamma: np.ndarray) -> PrecoderSolution:
    """The allocation of powers gamma on sub, with its precoder P = U_t diag(gamma)^{1/2}."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != sub.xi.shape:
        raise ValueError(f"gamma must have shape {sub.xi.shape}, got {gamma.shape}")
    return PrecoderSolution(sub=sub, gamma=gamma, P=sub.U_t * np.sqrt(gamma)[None, :])


def solve_precoder(h: np.ndarray, noise: NoiseShape, snr: float) -> PrecoderSolution:
    """Water-filled solution from the time-domain H and the noise shape."""
    sub = derive_subchannels(h, noise)
    return finalize(sub, waterfill(sub.xi, sub.phi, snr)[0])
