"""Whitening, subchannel decomposition, water-filling and the precoder pair.

The chain runs in the time domain on the factored noise shape
G = V diag(lam) V^T: whiten the channel into C = diag(lam)^{-1/2} V^T H,
eigendecompose C^H C = U_t diag(xi) U_t^H, read the per-direction energy
weights phi from U_t^H G U_t, water-fill the powers gamma under
sum(gamma*phi) = MN, and map the basis to the delay-Doppler grid as
U = (F_N kron I_M) U_t.  The unitary map leaves xi and phi unchanged, so
this is the DD-domain chain on H_eq and G_eq without forming either.  The
precoder is P = U diag(gamma)^{1/2} and the receive weights are
D = U_t^H C^H diag(lam)^{-1/2} V^T (F_N^H kron I_M).  D H_eq P is then
diagonal and D whitens the correlated noise, so the link becomes a bank of
parallel scalar Gaussian subchannels with gains xi and powers gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulse import NoiseShape
from .transforms import GridShape, time_to_dd

# subchannels whose whitened gain falls below this fraction of the largest
# are excluded from allocation (guards 1/(xi*snr) against blowup)
XI_ACTIVE_REL = 1e-12


@dataclass(eq=False)
class PrecoderSolution:
    """State of the diagonalizing transceiver chain for one (channel, SNR)."""

    shape: GridShape
    noise: NoiseShape
    C: np.ndarray
    U_t: np.ndarray
    U: np.ndarray
    xi: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray | None = None
    P_mat: np.ndarray | None = None
    D: np.ndarray | None = None

    @property
    def floored(self) -> int:
        return self.noise.floored


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


def derive_subchannels(h: np.ndarray, noise: NoiseShape, shape: GridShape) -> PrecoderSolution:
    """Whiten the time-domain channel H and decompose it into scalar subchannels.

    Fills C, U_t, U, xi and phi of the solution; the noise shape carries the
    floored spectrum, and floored reports how many eigenvalues it clamped.
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
    return PrecoderSolution(shape=shape, noise=noise, C=c, U_t=u_t, U=time_to_dd(u_t, shape),
                            xi=xi, phi=phi_c.real.copy())


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


def receive_weights(sol: PrecoderSolution) -> np.ndarray:
    """Receive weights D = ((F_N kron I_M) V diag(lam)^{-1/2} C U_t)^H; independent of gamma."""
    w = (sol.C @ sol.U_t) / np.sqrt(sol.noise.lam)[:, None]
    return time_to_dd(_real_matmul(sol.noise.V, w), sol.shape).conj().T


def finalize(sol: PrecoderSolution, D: np.ndarray | None = None) -> PrecoderSolution:
    """Fill the precoder P = U diag(gamma)^{1/2} and receive weights D.

    D, when given, must be receive_weights of the same derived solution; a
    sweep forms it once and shares it across power allocations.
    """
    if sol.gamma is None:
        raise ValueError("solution field 'gamma' must be filled before finalize")
    sol.P_mat = sol.U * np.sqrt(sol.gamma)[None, :]
    sol.D = receive_weights(sol) if D is None else D
    return sol


def solve_precoder(
    h: np.ndarray, noise: NoiseShape, shape: GridShape, snr: float
) -> PrecoderSolution:
    """Water-filled, finalized solution from the time-domain H and the noise shape."""
    sol = derive_subchannels(h, noise, shape)
    sol.gamma, _ = waterfill(sol.xi, sol.phi, snr, float(shape.MN))
    return finalize(sol)
