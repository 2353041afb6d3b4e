"""End-to-end frame pipeline on the diagonalized link.

Bits are Gray-mapped onto per-subchannel QAM constellations chosen by the
bit loader and precoded straight into time-domain samples, s = P x.  The
dense channel adds matched-filter-correlated noise, z = H s + eta, and the
receive weights diagonalize the result, y_d = D z.  P and D are the
time-domain pair of the precoder module, so no frame visits the
delay-Doppler grid.  The result is one scalar Gaussian observation per
subchannel, from which hard decisions and exact log-likelihood ratios are
computed.

Frames travel in blocks: run_frame takes one generator per frame and pushes
an MN x k block, one frame per column, through the chain as matrix-matrix
products (P X, H S + E, D Z).  Frame t draws its bits and then its two noise
vectors from its own generator, so a frame's realization does not depend on
the block it rides in.  The transmit, noise, channel, receive and detection
functions accept one frame or a block.

Gray mapping conventions (fixed here so golden files are portable):
QPSK maps the bit pair (b0, b1) to ((1-2*b0) + 1j*(1-2*b1))/sqrt(2); square
QAM treats the first half of a symbol's bits as the in-phase Gray PAM label
and the second half as the quadrature label.  All constellations have unit
average energy.  LLRs are log(P[bit=0]/P[bit=1]), so a positive LLR votes
for bit 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .precoder import PrecoderSolution
from .pulse import NoiseShape
from .channel import EffectiveChannel

SUPPORTED_BITS = (2, 4, 6, 8)


def _gray_to_binary(v: int) -> int:
    b = 0
    while v:
        b ^= v
        v >>= 1
    return b


def _build_constellation(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-energy square QAM points indexed by the MSB-first bit label."""
    half = bits // 2
    m_axis = 1 << half
    pam = np.array([m_axis - 1 - 2 * _gray_to_binary(v) for v in range(m_axis)], dtype=float)
    scale = np.sqrt(3.0 / (2.0 * (m_axis**2 - 1)))
    labels = np.arange(1 << bits)
    points = scale * (pam[labels >> half] + 1j * pam[labels & (m_axis - 1)])
    bit_table = (labels[:, None] >> np.arange(bits - 1, -1, -1)[None, :]) & 1
    return points, bit_table.astype(np.uint8)


_POINTS: dict[int, np.ndarray] = {}
_BIT_TABLE: dict[int, np.ndarray] = {}
for _b in SUPPORTED_BITS:
    _POINTS[_b], _BIT_TABLE[_b] = _build_constellation(_b)


def constellation(bits: int) -> np.ndarray:
    """Constellation points for a 2^bits Gray QAM, indexed by bit label."""
    if bits not in _POINTS:
        raise ValueError(f"unsupported constellation size: {bits} bits")
    return _POINTS[bits]


@dataclass(frozen=True)
class Loading:
    """Per-subchannel constellation sizes."""

    bits_per_symbol: np.ndarray

    def __post_init__(self) -> None:
        bad = set(np.unique(self.bits_per_symbol)) - {0, *SUPPORTED_BITS}
        if bad:
            raise ValueError(f"unsupported bits-per-symbol value(s): {sorted(bad)}")

    @property
    def total_bits(self) -> int:
        return int(self.bits_per_symbol.sum())

    def loaded(self) -> np.ndarray:
        return np.flatnonzero(self.bits_per_symbol > 0)


@dataclass
class FrameRecord:
    """A block of simulated frames, one per column, from bits to diagonalized observation."""

    tx_bits: np.ndarray
    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    y_d: np.ndarray


def bit_loading(
    xi: np.ndarray,
    gamma: np.ndarray,
    snr: float,
    target_rate_bps_hz: float | None,
    cfg: SystemConfig,
) -> Loading:
    """Assign constellation sizes to subchannels to hit a target rate.

    The required bit total inverts the transmission-rate formula (coding
    factor 3/4) and is rounded to the nearest even value; bits then go two
    at a time to the subchannel with the largest margin xi*gamma*snr / 2^b,
    never to a zero-power subchannel.  A None target loads QPSK on every
    powered subchannel.
    """
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    active = gamma > 0.0
    b = np.zeros(xi.size, dtype=int)
    if target_rate_bps_hz is None:
        b[active] = 2
        return Loading(bits_per_symbol=b)

    total = target_rate_bps_hz * (1.0 + cfg.beta) * cfg.MN * cfg.alpha * (4.0 / 3.0)
    total = 2 * int(round(total / 2.0))
    max_total = 8 * int(np.count_nonzero(active))
    if total > max_total:
        max_rate = (0.75 * max_total) / (((1.0 + cfg.beta) * cfg.alpha) * cfg.MN)
        raise ValueError(
            f"target rate {target_rate_bps_hz} bps/Hz needs {total} bits but only "
            f"{max_total} fit; maximum achievable rate is {max_rate:.6g} bps/Hz"
        )
    s_eff = xi * gamma * snr
    margin = np.where(active, s_eff, -np.inf)
    for _ in range(total // 2):
        n = int(np.argmax(margin))  # argmax takes the lowest index on ties
        b[n] += 2
        margin[n] = s_eff[n] / (1 << b[n]) if b[n] < 8 else -np.inf
    return Loading(bits_per_symbol=b)


def map_bits(bits: np.ndarray, loading: Loading) -> np.ndarray:
    """Map a bit stream (or a block, one frame per column) onto the loaded
    subchannels; unloaded ones carry 0."""
    bits = np.asarray(bits).astype(np.int64)
    if bits.ndim not in (1, 2) or bits.shape[0] != loading.total_bits:
        raise ValueError(f"expected {loading.total_bits} bits, got shape {bits.shape}")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit stream must contain only 0s and 1s")
    b = loading.bits_per_symbol
    x = np.zeros((b.size,) + bits.shape[1:], dtype=complex)
    offsets = np.concatenate([[0], np.cumsum(b)])
    for nbits in SUPPORTED_BITS:
        sel = np.flatnonzero(b == nbits)
        if sel.size == 0:
            continue
        idx = offsets[sel][:, None] + np.arange(nbits)[None, :]
        labels = np.moveaxis(bits[idx], 1, -1) @ (1 << np.arange(nbits - 1, -1, -1))
        x[sel] = _POINTS[nbits][labels]
    return x


def transmit(x: np.ndarray, sol: PrecoderSolution) -> np.ndarray:
    """Precode into time-domain samples s = P x."""
    x = np.asarray(x)
    mn = sol.P.shape[1]
    if x.ndim not in (1, 2) or x.shape[0] != mn:
        raise ValueError(f"expected {mn} symbols, got {x.shape}")
    return sol.P @ x


def colored_noise(
    noise: NoiseShape,
    sigma0_sq: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Draw matched-filter noise with covariance sigma0^2 * G = sigma0^2 * V diag(lam) V^T.

    One generator gives one noise vector; a sequence gives an MN x k block
    whose column t draws its real and then its imaginary part from rng[t].
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    w = np.stack([r.standard_normal(noise.lam.size) for r in rngs for _ in "ri"], axis=1)
    # color the real and imaginary parts of every frame in one real product;
    # adjacent (real, imaginary) columns of e read as one complex column
    e = noise.V @ (np.sqrt(0.5 * sigma0_sq * noise.lam)[:, None] * w)
    eta = e.view(np.complex128)
    return eta[:, 0] if isinstance(rng, np.random.Generator) else eta


def propagate(s: np.ndarray, eff: EffectiveChannel, eta: np.ndarray) -> np.ndarray:
    """Received matched-filtered samples z = H s + eta."""
    s = np.asarray(s)
    eta = np.asarray(eta)
    if s.ndim not in (1, 2) or s.shape[0] != eff.H.shape[0] or eta.shape != s.shape:
        raise ValueError("signal/noise length does not match the channel dimension")
    return eff.H @ s + eta


def receive(z: np.ndarray, sol: PrecoderSolution) -> np.ndarray:
    """Diagonalize the received samples: y_d = D z."""
    return sol.sub.D @ z


def _subchannel_scales(sol: PrecoderSolution, loading: Loading) -> np.ndarray:
    sel = loading.loaded()
    a = sol.xi[sel] * np.sqrt(sol.gamma[sel])
    if np.any(a == 0.0):
        bad = sel[np.flatnonzero(a == 0.0)[0]]
        raise ValueError(f"subchannel {bad} is loaded but has zero effective gain")
    return a


def llr(
    y_d: np.ndarray,
    sol: PrecoderSolution,
    loading: Loading,
    sigma0_sq: float,
) -> np.ndarray:
    """Exact per-bit log-likelihood ratios, log P[bit=0] - log P[bit=1].

    Uses the Gaussian kernel exp(-|y_n - xi_n*sqrt(gamma_n)*x|^2/(xi_n*sigma0^2))
    summed over constellation points via a stable log-sum-exp.  An MN x k
    block of observations gives a total_bits x k block, computed column by
    column so the per-point metrics of only one frame are held at a time.
    """
    _subchannel_scales(sol, loading)
    y_d = np.asarray(y_d)
    cols = y_d.reshape(y_d.shape[0], -1)
    b = loading.bits_per_symbol
    out = np.empty((loading.total_bits, cols.shape[1]))
    offsets = np.concatenate([[0], np.cumsum(b)])
    for nbits in SUPPORTED_BITS:
        sel = np.flatnonzero(b == nbits)
        if sel.size == 0:
            continue
        pts = _POINTS[nbits]
        bit_tab = _BIT_TABLE[nbits]
        a = sol.xi[sel] * np.sqrt(sol.gamma[sel])
        var = sol.xi[sel] * sigma0_sq
        for f in range(cols.shape[1]):
            # metric[i, c]: log-likelihood of point c on the i-th selected subchannel
            metric = -np.abs(cols[sel, f][:, None] - a[:, None] * pts[None, :]) ** 2 / var[:, None]
            for j in range(nbits):
                zero = metric[:, bit_tab[:, j] == 0]
                one = metric[:, bit_tab[:, j] == 1]
                out[offsets[sel] + j, f] = _logsumexp(zero) - _logsumexp(one)
    return out.reshape((loading.total_bits,) + y_d.shape[1:])


def _logsumexp(m: np.ndarray) -> np.ndarray:
    peak = m.max(axis=1)
    return peak + np.log(np.exp(m - peak[:, None]).sum(axis=1))


def hard_detect(y_d: np.ndarray, sol: PrecoderSolution, loading: Loading) -> np.ndarray:
    """Minimum-distance decisions per diagonal subchannel, demapped to bits.

    An MN x k block of observations, one frame per column, gives a
    total_bits x k block of bits.
    """
    _subchannel_scales(sol, loading)
    y_d = np.asarray(y_d)
    cols = y_d.reshape(y_d.shape[0], -1)
    b = loading.bits_per_symbol
    out = np.empty((loading.total_bits, cols.shape[1]), dtype=np.uint8)
    offsets = np.concatenate([[0], np.cumsum(b)])
    for nbits in SUPPORTED_BITS:
        sel = np.flatnonzero(b == nbits)
        if sel.size == 0:
            continue
        a = sol.xi[sel] * np.sqrt(sol.gamma[sel])
        est = cols[sel] / a[:, None]
        # running minimum over the points: first-index ties as in argmin,
        # without holding a (subchannel, frame, point) array
        best = np.full(est.shape, np.inf)
        nearest = np.zeros(est.shape, dtype=np.intp)
        for c, p in enumerate(_POINTS[nbits]):
            d = np.abs(est - p) ** 2
            closer = d < best
            best = np.where(closer, d, best)
            nearest[closer] = c
        idx = offsets[sel][:, None] + np.arange(nbits)[None, :]
        out[idx] = _BIT_TABLE[nbits][nearest].transpose(0, 2, 1)
    return out.reshape((loading.total_bits,) + y_d.shape[1:])


def run_frame(
    loading: Loading,
    sol: PrecoderSolution,
    eff: EffectiveChannel,
    noise: NoiseShape,
    sigma0_sq: float,
    rngs: Sequence[np.random.Generator],
) -> FrameRecord:
    """Push a block of frames through the full pipeline; frame t draws its
    bits and then its noise from rngs[t] and fills column t of the record."""
    tx_bits = np.stack(
        [rng.integers(0, 2, size=loading.total_bits, dtype=np.int64) for rng in rngs], axis=1
    )
    x = map_bits(tx_bits, loading)
    s = transmit(x, sol)
    eta = colored_noise(noise, sigma0_sq, rngs) if sigma0_sq > 0.0 else np.zeros(s.shape, complex)
    z = propagate(s, eff, eta)
    return FrameRecord(tx_bits=tx_bits, x=x, s=s, z=z, y_d=receive(z, sol))


LLR_DUMP_HEADER = "frame,subchannel,bit,llr"


def format_llr_records(frame_idx: int, loading: Loading, llrs: np.ndarray) -> str:
    """Delimited LLR records for one frame, one line per transmitted bit."""
    lines = []
    pos = 0
    for n in loading.loaded():
        for j in range(int(loading.bits_per_symbol[n])):
            lines.append(f"{frame_idx},{n},{j},{llrs[pos]:.12g}")
            pos += 1
    return "\n".join(lines)
