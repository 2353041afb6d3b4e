"""Root-raised-cosine pulse shaping and the symbol-rate correlation matrix.

With transmit and receive filters equal to the same unit-energy RRC pulse,
the matched-filter cascade is the raised cosine g(t).  Times are in units of
the Nyquist interval T0.  Sampling g at the compressed interval T_f = alpha*T0
yields a symmetric Toeplitz matrix G that is simultaneously the
intersymbol-interference operator and the shape of the matched-filter noise
covariance.  gram_matrix builds G and factors it, once per (alpha, beta, MN),
into the NoiseShape that whitens the channel and colors the noise.  The
simulator works in the time domain; the delay-Doppler image G_eq, which
shares G's spectrum, is formed only by the oracles (gram_dd).
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


@dataclass(frozen=True)
class PulseSpec:
    """Roll-off and oracle-only truncation span (in units of T0) of the pulse."""

    beta: float
    span: float = 32.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"roll-off must lie in [0, 1], got {self.beta}")
        if self.span < 1.0:
            raise ValueError(f"span must be >= 1 symbol interval, got {self.span}")

    def admissible_alpha(self) -> float:
        """Smallest packing ratio with a well-conditioned correlation matrix."""
        return 1.0 / (1.0 + self.beta)


@dataclass(frozen=True, eq=False)
class NoiseShape:
    """The noise shape G factored once as G = V diag(lam) V^T, V real orthogonal.

    lam is descending and clamped from below at floor (0.0 when the floor
    policy is disabled); floored counts the clamped eigenvalues.  Every trial
    of an (alpha, beta, MN) instance shares it read-only.
    """

    G: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    floored: int
    floor: float


def rc_autocorr(t: float | np.ndarray, spec: PulseSpec) -> float | np.ndarray:
    """Raised-cosine matched-filter response g(t) of the unit-energy RRC pulse.

    Evaluated in closed form; the removable singularity at |t| = T0/(2*beta)
    uses its analytic limit.  g(0) = 1 and g vanishes at nonzero integer
    multiples of T0.
    """
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if spec.beta == 0.0:
        out = np.sinc(x)
    else:
        out = np.empty_like(x)
        sing = np.abs(np.abs(x) - 1.0 / (2.0 * spec.beta)) < _SING_TOL
        out[sing] = np.sinc(1.0 / (2.0 * spec.beta)) * np.pi / 4.0
        xr = x[~sing]
        out[~sing] = (
            np.sinc(xr) * np.cos(np.pi * spec.beta * xr) / (1.0 - (2.0 * spec.beta * xr) ** 2)
        )
    return out.item() if scalar else out


def rrc_impulse(t: float | np.ndarray, spec: PulseSpec) -> float | np.ndarray:
    """Unit-energy root-raised-cosine impulse response in closed form.

    The singular points t = 0 and |t| = T0/(4*beta) are evaluated by their
    analytic limits.  Used by the waveform-level oracle and the colored-noise
    validation, not by the matrix model.
    """
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if spec.beta == 0.0:
        out = np.sinc(x)
        return out.item() if scalar else out
    out = np.empty_like(x)
    b = spec.beta
    zero = np.abs(x) < _SING_TOL
    sing = np.abs(np.abs(x) - 1.0 / (4.0 * b)) < _SING_TOL
    rest = ~(zero | sing)
    out[zero] = 1.0 - b + 4.0 * b / np.pi
    out[sing] = (b / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * b))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * b))
    )
    xr = x[rest]
    num = np.sin(np.pi * xr * (1.0 - b)) + 4.0 * b * xr * np.cos(np.pi * xr * (1.0 + b))
    den = np.pi * xr * (1.0 - (4.0 * b * xr) ** 2)
    out[rest] = num / den
    return out.item() if scalar else out


def check_alpha(alpha: float, spec: PulseSpec) -> None:
    """Reject packing ratios outside [1/(1+beta), 1]."""
    lo = spec.admissible_alpha()
    if not lo <= alpha <= 1.0:
        raise ValueError(
            f"packing ratio {alpha} outside admissible range "
            f"[1/(1+beta) = {lo:.6g}, 1]"
        )


def noise_shape(g: np.ndarray, eig_floor_rel: float = EIG_FLOOR_REL) -> NoiseShape:
    """Real eigendecomposition of the symmetric noise shape G, floor policy applied.

    A positive eig_floor_rel clamps eigenvalues below that fraction of the
    largest one and logs one warning; zero disables the floor, and a singular
    G is then rejected.  Ties keep eigh's column order, so G = I gives V = I.
    """
    w, v = np.linalg.eigh(g)
    order = np.argsort(-w, kind="stable")
    lam, v = w[order], v[:, order]
    if lam[0] <= 0.0:
        raise ValueError("noise-shape matrix has no positive eigenvalue")
    floor = eig_floor_rel * lam[0] if eig_floor_rel > 0.0 else 0.0
    if floor == 0.0 and lam[-1] <= 0.0:
        raise ValueError("noise shape is singular and flooring is disabled")
    floored = int(np.count_nonzero(lam < floor))
    if floored:
        log.warning("floored %d eigenvalue(s) of the noise shape at %.3e", floored, floor)
    return NoiseShape(G=g, V=v, lam=np.maximum(lam, floor), floored=floored, floor=floor)


def sampled_autocorr(lags: np.ndarray, alpha: float, spec: PulseSpec) -> np.ndarray:
    """g(n*T_f) at the integer lags n, T_f = alpha*T0.

    At alpha = 1 the closed form's zero crossings at nonzero lags are exact
    only up to rounding; they are pinned to exact zeros, so G and the
    identity channel's H are exactly the identity.
    """
    if alpha == 1.0:
        return (lags == 0).astype(float)
    return np.asarray(rc_autocorr(lags * alpha, spec))


def gram_matrix(shape: GridShape, alpha: float, spec: PulseSpec) -> NoiseShape:
    """Build the MN x MN symbol correlation matrix G(k, m) = g((k-m)*T_f) and factor it."""
    check_alpha(alpha, spec)
    idx = np.arange(shape.MN)
    return noise_shape(sampled_autocorr(idx, alpha, spec)[np.abs(np.subtract.outer(idx, idx))])


def gram_dd(noise: NoiseShape, shape: GridShape) -> np.ndarray:
    """The delay-Doppler image G_eq = (F_N kron I_M) G (F_N^H kron I_M), symmetrized Hermitian."""
    g_eq = conjugate_by_dd(noise.G.astype(complex), shape)
    return 0.5 * (g_eq + g_eq.conj().T)
