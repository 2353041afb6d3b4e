"""Whitening, subchannel decomposition, water-filling and the precoder pair.

The transceiver is solved in two steps, both in the time domain.
derive_subchannels works once per channel: on the factored noise shape
G = V diag(lam) V^T it whitens the channel into C = diag(lam)^{-1/2} V^T H,
eigendecomposes C^H C = U_t diag(xi) U_t^H and reads the per-direction
energy weights phi from U_t^H G U_t.  finalize works once per power
allocation: given powers gamma (water-filled under sum(gamma*phi) = MN, or
uniform) it forms the precoder P_t = U_t diag(gamma)^{1/2}.  The receive
weights D_t = (V diag(lam)^{-1/2} C U_t)^H do not depend on gamma; a
derivation forms them on first read.  D_t H P_t = diag(xi*sqrt(gamma)) and
D_t G D_t^H = diag(xi), so the link becomes a bank of parallel scalar
Gaussian subchannels with gains xi and powers gamma.

The delay-Doppler map F = F_N kron I_M is unitary, so the DD-domain pair
P = F P_t, D = D_t F^H diagonalizes H_eq = F H F^H and G_eq = F G F^H with
the same xi and phi.  Only the oracles form that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pulse import NoiseShape
from .transforms import GridShape

# subchannels whose whitened gain falls below this fraction of the largest
# are excluded from allocation (guards 1/(xi*snr) against blowup)
XI_ACTIVE_REL = 1e-12


@dataclass(frozen=True, eq=False)
class Subchannels:
    """The derivation for one channel: C, the basis U_t, gains xi and energy weights phi.

    Every power allocation on the channel shares it read-only.
    """

    noise: NoiseShape
    C: np.ndarray
    U_t: np.ndarray
    xi: np.ndarray
    phi: np.ndarray

    @property
    def floored(self) -> int:
        return self.noise.floored

    @cached_property
    def D(self) -> np.ndarray:
        """Receive weights D_t = (V diag(lam)^{-1/2} C U_t)^H, formed on first read."""
        return _receive_weights(self)


@dataclass(frozen=True, eq=False)
class PrecoderSolution:
    """One power allocation on a derivation: powers gamma and the precoder P = U_t diag(gamma)^{1/2}."""

    sub: Subchannels
    gamma: np.ndarray
    P: np.ndarray

    @property
    def xi(self) -> np.ndarray:
        return self.sub.xi


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def hermitian_evd_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The basis is made reproducible: each eigenvector is phase-rotated so its
    first non-negligible component is real positive, and columns inside a
    degenerate eigenvalue group are ordered by a lexicographic key.
    Returns (eigvecs, eigvals) with a = eigvecs @ diag(eigvals) @ eigvecs^H.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    herm_err = float(np.abs(a - a.conj().T).max())
    if herm_err > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm_err:.3e}")
    w, v = np.linalg.eigh(_symmetrize(a))
    w = w[::-1].copy()
    v = v[:, ::-1].copy()

    # phase-normalize: first component with |.| > 1e-8 made real positive
    lead = np.argmax(np.abs(v) > 1e-8, axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    v *= (np.conj(pivots) / np.abs(pivots))[None, :]

    # deterministic ordering inside degenerate groups: leading-component
    # index first (keeps standard bases in natural order), full vector next
    n = w.size
    tie = 1e-12 * max(1.0, float(np.abs(w).max()))
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(w[j + 1] - w[i]) <= tie:
            j += 1
        if j > i:
            keys = [
                (
                    int(lead[c]),
                    np.round(np.concatenate([v[:, c].real, v[:, c].imag]), 9).tobytes(),
                )
                for c in range(i, j + 1)
            ]
            order = sorted(range(j + 1 - i), key=keys.__getitem__)
            v[:, i : j + 1] = v[:, [i + o for o in order]]
        i = j + 1
    return v, w


def _real_matmul(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r @ z for real r and complex z, as one real product on z's interleaved parts."""
    return (r @ np.ascontiguousarray(z).view(np.float64)).view(np.complex128)


def derive_subchannels(h: np.ndarray, noise: NoiseShape, shape: GridShape) -> Subchannels:
    """Whiten the time-domain channel H and decompose it into scalar subchannels.

    The noise shape carries the floored spectrum, and floored reports how
    many eigenvalues it clamped.
    """
    mn = shape.MN
    h = np.asarray(h)
    if h.shape != (mn, mn) or noise.V.shape != (mn, mn):
        raise ValueError(
            f"expected {mn}x{mn} matrices, got H {h.shape} and noise shape {noise.V.shape}"
        )
    c = _real_matmul(noise.V.T, h) / np.sqrt(noise.lam)[:, None]
    u_t, xi = hermitian_evd_desc(c.conj().T @ c)
    xi = np.maximum(xi, 0.0)

    phi_c = np.einsum("in,in->n", u_t.conj(), _real_matmul(noise.G, u_t))
    imag_max = float(np.abs(phi_c.imag).max())
    if imag_max > 1e-10 * max(1.0, float(np.abs(phi_c.real).max())):
        raise AssertionError(f"energy weights are not real: max imag {imag_max:.3e}")
    return Subchannels(noise=noise, C=c, U_t=u_t, xi=xi, phi=phi_c.real.copy())


def waterfill(
    xi: np.ndarray,
    phi: np.ndarray,
    snr: float,
    budget: float,
) -> tuple[np.ndarray, float]:
    """Water-filling powers gamma under the weighted constraint sum(gamma*phi) = budget.

    gamma[n] = max(mu/phi[n] - 1/(xi[n]*snr), 0).  Subchannel n activates at
    the water level t[n] = phi[n]/(xi[n]*snr); with k subchannels active the
    budget fixes mu_k = (budget + sum of the k smallest t)/k, and the solution
    takes the largest k with mu_k above the k-th smallest t.  Subchannels
    with xi below 1e-12 of the largest are forced inactive.
    """
    xi = np.asarray(xi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if xi.shape != phi.shape:
        raise ValueError(f"xi and phi must match, got {xi.shape} vs {phi.shape}")
    if np.any(xi < 0.0):
        raise ValueError("subchannel gains must be nonnegative")
    if np.any(phi <= 0.0):
        raise ValueError("energy weights must be positive")
    if not (0.0 < snr < np.inf and budget > 0.0):  # also rejects a nan snr
        raise ValueError(f"snr must be positive and finite, budget positive: {snr}, {budget}")

    usable = xi > XI_ACTIVE_REL * xi.max() if xi.max() > 0.0 else np.zeros_like(xi, bool)
    if not usable.any():
        raise ValueError("no usable subchannels: all gains are numerically zero")
    thresh = np.full_like(phi, np.inf)
    thresh[usable] = phi[usable] / (xi[usable] * snr)

    t_sorted = np.sort(thresh[usable])
    mu_k = (budget + np.cumsum(t_sorted)) / np.arange(1, t_sorted.size + 1)
    above = np.flatnonzero(mu_k > t_sorted)
    # mu_1 = budget + t_(1) exceeds t_(1) unless rounding swallows the budget
    mu = float(mu_k[above[-1] if above.size else 0])
    gamma = np.maximum(mu - thresh, 0.0) / phi
    return gamma, mu


def uniform_gamma(phi: np.ndarray, budget: float) -> np.ndarray:
    """Equal powers rescaled to meet sum(gamma*phi) = budget; the no-PA case."""
    phi = np.asarray(phi, dtype=float)
    return np.full_like(phi, budget / float(phi.sum()))


def _receive_weights(sub: Subchannels) -> np.ndarray:
    w = (sub.C @ sub.U_t) / np.sqrt(sub.noise.lam)[:, None]
    return _real_matmul(sub.noise.V, w).conj().T


def finalize(sub: Subchannels, gamma: np.ndarray) -> PrecoderSolution:
    """The allocation of powers gamma on sub, with its precoder P = U_t diag(gamma)^{1/2}."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != sub.xi.shape:
        raise ValueError(f"gamma must have shape {sub.xi.shape}, got {gamma.shape}")
    return PrecoderSolution(sub=sub, gamma=gamma, P=sub.U_t * np.sqrt(gamma)[None, :])


def solve_precoder(
    h: np.ndarray, noise: NoiseShape, shape: GridShape, snr: float
) -> PrecoderSolution:
    """Water-filled solution from the time-domain H and the noise shape."""
    sub = derive_subchannels(h, noise, shape)
    return finalize(sub, waterfill(sub.xi, sub.phi, snr, float(shape.MN))[0])
