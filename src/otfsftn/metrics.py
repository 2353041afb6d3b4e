"""Mutual information, normalized rates, frame energy and BER accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CODE_RATE, SystemConfig
from .pulse import NoiseShape, floor_spectrum
from .link import Loading

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class RatePoint:
    """One point of an information-rate curve."""

    snr_db: float
    alpha: float
    beta: float
    mode: str  # pa | no_pa | nyquist
    mi_bits: float
    rate_bps_hz: float
    seeds: int


@dataclass(frozen=True)
class BerCounter:
    """Bit and error totals; merges by integer addition, so reduction order is free."""

    errors: int = 0
    total: int = 0

    @property
    def ber(self) -> float:
        return self.errors / self.total if self.total else 0.0

    def merge(self, other: "BerCounter") -> "BerCounter":
        return BerCounter(self.errors + other.errors, self.total + other.total)


def ber_accumulate(tx_bits: np.ndarray, rx_bits: np.ndarray, counter: BerCounter) -> BerCounter:
    """Fold the bit comparison of a frame, or of a block of frames, into the counter."""
    tx_bits = np.asarray(tx_bits)
    rx_bits = np.asarray(rx_bits)
    if tx_bits.shape != rx_bits.shape:
        raise ValueError(f"bit streams differ in length: {tx_bits.shape} vs {rx_bits.shape}")
    errs = int(np.count_nonzero(tx_bits != rx_bits))
    return counter.merge(BerCounter(errors=errs, total=tx_bits.size))


def mi_logdet(h_eq: np.ndarray, g_eq: np.ndarray, rxx: np.ndarray, sigma0_sq: float) -> float:
    """Gaussian mutual information log2 det(I + H_eq Rxx H_eq^H G_eq^{-1}/sigma0^2).

    Evaluated through the whitened congruence: eigenvalues of the Hermitian
    kernel C Rxx C^H / sigma0^2 with C = diag(lam)^{-1/2} V^H H_eq, never an
    explicit determinant of raw entries.  G_eq = V diag(lam) V^H is factored
    here by eigh, and its spectrum floored by floor_spectrum as the
    simulator's noise shape is.  Returns bits per frame.
    """
    rxx = np.asarray(rxx)
    w_r = np.linalg.eigvalsh(0.5 * (rxx + rxx.conj().T))
    scale = max(1.0, float(w_r.max())) if w_r.size else 1.0
    if w_r.size and w_r.min() < -1e-9 * scale:
        raise ValueError(f"input covariance is not PSD: min eigenvalue {w_r.min():.3e}")
    w, v = np.linalg.eigh(g_eq)
    c = (v.conj().T @ h_eq) / np.sqrt(floor_spectrum(w)[0])[:, None]
    kernel = c @ rxx @ c.conj().T / sigma0_sq
    w = np.linalg.eigvalsh(0.5 * (kernel + kernel.conj().T))
    w = np.maximum(w, 0.0)
    return float(np.sum(np.log1p(w)) / _LN2)


def mi_sum(xi: np.ndarray, gamma: np.ndarray, snr: float) -> float:
    """Diagonalized mutual information sum(log2(1 + snr*gamma_n*xi_n)) in bits."""
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(xi < 0.0) or np.any(gamma < 0.0):
        raise ValueError("subchannel gains and powers must be nonnegative")
    prod = xi * gamma
    active = prod > 0.0
    return float(np.sum(np.log1p(snr * prod[active])) / _LN2)


def info_rate(mi_bits: float, cfg: SystemConfig) -> float:
    """Normalize bits/frame by time-bandwidth: R = mi / ((1+beta) * alpha * MN)."""
    return mi_bits / cfg.time_bandwidth


def transmission_rate(loading: Loading, cfg: SystemConfig) -> float:
    """Rate of a bit-loaded frame with the rate-3/4 coding factor, bps/Hz; inverts target_bits."""
    return (CODE_RATE * loading.total_bits) / cfg.time_bandwidth


def frame_energy(s: np.ndarray, noise: NoiseShape) -> float:
    """Transmitted frame energy s^H G s = sum_k raw_k |(V^T s)_k|^2 of the matched-filter pulses."""
    s = np.asarray(s)
    if s.shape != (noise.n,):
        raise ValueError(f"expected {noise.n} samples, got {s.shape}")
    y = noise.vt(s)
    return float(noise.raw @ (y.real**2 + y.imag**2))
