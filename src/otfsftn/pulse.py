"""Root-raised-cosine pulse shaping and the symbol-rate correlation matrix.

With transmit and receive filters equal to the same unit-energy RRC pulse,
the matched-filter cascade is the raised cosine g(t).  Times are in units of
the Nyquist interval T0.  Sampling g at the compressed interval T_f = alpha*T0
yields a symmetric Toeplitz matrix G that is simultaneously the
intersymbol-interference operator and the shape of the matched-filter noise
covariance.  gram_matrix builds G and factors it, once per (alpha, beta, MN),
into the NoiseShape that whitens the channel and colors the noise: as two
half-order real EVDs, since G is centrosymmetric, and with none at alpha = 1,
where G = I.  The simulator works in the time domain; the delay-Doppler image
G_eq, which shares G's spectrum, is formed only by the oracles (gram_dd).
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
    """The noise shape G factored once as G = V diag(lam) V^H.

    V is unitary, and real (so V^H = V^T) when G is real, as the simulator's
    G always is; the delay-Doppler G_eq gives a complex V.  V is exactly I
    where G is.  lam is descending and clamped from below at floor (0.0 when
    the floor policy is disabled); floored counts the clamped eigenvalues.
    Every trial of an (alpha, beta, MN) instance shares it read-only.
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


def is_identity(g: np.ndarray) -> bool:
    """Whether the square matrix g is exactly the identity, tested with no n x n temporary."""
    return np.count_nonzero(g) == g.shape[0] and bool(np.all(g.diagonal() == 1.0))


def _centrosymmetric_eigh(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenpairs of a real symmetric g = J g J from two half-order blocks.

    With n = 2m + r, A = g[:m, :m] and C = g[m+r:, :m], the even vectors
    [u; t; J u] solve A + J C, bordered for odd n by sqrt(2) times the middle
    column and by the middle entry, and the odd ones [u; 0; -J u] solve
    A - J C (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Ties keep the
    order [even, odd]; each column's first entry above 1e-8 is positive.
    """
    n = g.shape[0]
    m, r = divmod(n, 2)
    even = g[: m + r, : m + r] + g[m:, : m + r][::-1]  # odd n: row and column m doubled
    even[m:] /= np.sqrt(2.0)
    even[:, m:] /= np.sqrt(2.0)
    blocks = (np.linalg.eigh(even), np.linalg.eigh(g[:m, :m] - g[m + r:, :m][::-1]))
    w = np.concatenate([blocks[0][0], blocks[1][0]])
    order = np.argsort(-w, kind="stable")
    col = np.argsort(order)
    v = np.zeros((n, n))
    for (_, b), cols, mirror in zip(blocks, (col[: m + r], col[m + r:]), (1.0, -1.0)):
        b[:m] *= np.sqrt(0.5)
        if b.size:
            b *= np.sign(b[np.argmax(np.abs(b) > 1e-8, axis=0), np.arange(b.shape[1])])
        v[: len(b), cols] = b
        v[m + r:, cols] = mirror * b[:m][::-1]
    return w[order], v


def noise_shape(g: np.ndarray, eig_floor_rel: float = EIG_FLOOR_REL) -> NoiseShape:
    """Eigendecomposition of the Hermitian noise shape G, floor policy applied.

    G = I gives V = I with no eigensolver; a real centrosymmetric G (every
    gram_matrix G) is split in two halves; any other G, such as the complex
    G_eq, goes to eigh.  A positive eig_floor_rel clamps eigenvalues below
    that fraction of the largest one and logs one warning; zero disables the
    floor, and a singular G is then rejected.
    """
    if is_identity(g):
        lam, v = np.ones(g.shape[0]), np.eye(g.shape[0])
    elif np.isrealobj(g) and np.array_equal(g, g[::-1, ::-1]):
        lam, v = _centrosymmetric_eigh(g)
    else:
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


def lag_windows(lags: np.ndarray, n: int, alpha: float, spec: PulseSpec) -> np.ndarray:
    """The read-only strided view W[i, m] = g(lags[i+n-1-m]*T_f), T_f = alpha*T0.

    Any n consecutive rows of W form one n x n Toeplitz matrix.  At alpha = 1
    the closed form's zero crossings at nonzero lags, exact only up to
    rounding, are pinned to exact zeros, so G and the identity channel's H
    are exactly the identity.
    """
    g = (lags == 0).astype(float) if alpha == 1.0 else np.asarray(rc_autocorr(lags * alpha, spec))
    return np.lib.stride_tricks.sliding_window_view(g, n)[:, ::-1]


def gram_matrix(shape: GridShape, alpha: float, spec: PulseSpec) -> NoiseShape:
    """Build the MN x MN symbol correlation matrix G(k, m) = g((k-m)*T_f) and factor it."""
    check_alpha(alpha, spec)
    lags = np.abs(np.arange(1 - shape.MN, shape.MN))
    return noise_shape(np.ascontiguousarray(lag_windows(lags, shape.MN, alpha, spec)))


def gram_dd(noise: NoiseShape, shape: GridShape) -> np.ndarray:
    """The delay-Doppler image G_eq = (F_N kron I_M) G (F_N^H kron I_M), symmetrized Hermitian."""
    g_eq = conjugate_by_dd(noise.G.astype(complex), shape)
    return 0.5 * (g_eq + g_eq.conj().T)
