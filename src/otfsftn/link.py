"""End-to-end frame pipeline on the diagonalized link, and its scalar equivalent.

Bits are Gray-mapped onto per-subchannel QAM constellations chosen by the
bit loader.  The matrix link, run_frame, precodes them into time-domain
samples, s = P x, adds matched-filter-correlated noise behind the dense
channel, z = H s + eta, and diagonalizes the result, y_d = D z, with the
precoder module's time-domain pair P, D.  That leaves one scalar Gaussian
observation per subchannel, y_d = xi sqrt(gamma) x + n with independent
n_k ~ CN(0, sigma0^2 xi_k), which scalar_frames draws with no matrix
product: the BER sweep runs on it, and run_frame is its oracle.  Detection
reads only xi and gamma.  On a square Gray QAM the observation separates
into two Gray PAM axes, so a hard decision is a threshold test per axis and
each bit's exact LLR sums over the levels of its own axis only.

Both paths draw k frames from one generator and fill an MN x k block, one
frame per column: first the block's bits, frame by frame, then a 2k x MN
block of standard normals whose rows 2t and 2t + 1 are frame t's real and
imaginary parts.  A one-frame block thus draws its bits and then its two
noise vectors.  Where H, P, D and the noise basis V are exactly I (the
identity channel at alpha = 1) the paths agree bit for bit.  The transmit,
noise, channel, receive and detection functions accept one frame or a block.

Gray mapping conventions (fixed here so golden files are portable):
QPSK maps the bit pair (b0, b1) to ((1-2*b0) + 1j*(1-2*b1))/sqrt(2); square
QAM treats the first half of a symbol's bits as the in-phase Gray PAM label
and the second half as the quadrature label.  All constellations have unit
average energy.  LLRs are log(P[bit=0]/P[bit=1]), so a positive LLR votes
for bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .config import CODE_RATE, ConfigError, SystemConfig, target_bits
from .precoder import PrecoderSolution
from .pulse import NoiseShape

SUPPORTED_BITS = (2, 4, 6, 8)


def _build_constellation(bits: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Unit-energy square QAM points by MSB-first bit label, and their Gray PAM axis:
    its levels and bits by label."""
    half = bits // 2
    m_axis = 1 << half
    k = np.arange(m_axis)  # level rank, top level first; k ^ (k >> 1) is its Gray label
    levels = np.empty(m_axis)
    levels[k ^ (k >> 1)] = np.sqrt(3.0 / (2.0 * (m_axis**2 - 1))) * (m_axis - 1 - 2 * k)
    inphase, quadrature = np.divmod(np.arange(1 << bits), m_axis)
    axis_bits = (k[:, None] >> np.arange(half - 1, -1, -1)[None, :]) & 1
    return levels[inphase] + 1j * levels[quadrature], (levels, axis_bits.astype(np.uint8))


_POINTS: dict[int, np.ndarray] = {}
_PAM: dict[int, tuple[np.ndarray, np.ndarray]] = {}
for _b in SUPPORTED_BITS:
    _POINTS[_b], _PAM[_b] = _build_constellation(_b)


@cache
def _decisions(nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints e and axis bits by count: bits[count of e <= v] are the first-index argmin's over the
    Gray labels of |v - level|, as numpy rounds it.  The label changes where neighbouring levels'
    distances cross and, far off the axis, where several distances round equal; between anchors (levels,
    midpoints, +-2^e for |e| <= 60) it changes at most once, which bisecting the doubles' order finds."""
    rank = lambda o: np.where(o < 0, np.int64(-(2**63)) - o, o)  # a double's bits <-> its rank
    label = lambda o: np.argmin(np.abs(rank(o).view(np.float64)[:, None] - _PAM[nbits][0]), axis=1)
    up, power = np.sort(_PAM[nbits][0]), 2.0 ** np.arange(-60, 61)
    o = np.sort(rank(np.concatenate([up, (up[1:] + up[:-1]) / 2, power, -power]).view(np.int64)))
    lo, hi = (side[label(o[1:]) != label(o[:-1])] for side in (o[:-1], o[1:]))
    while np.any(hi - lo > 1):
        left = label(mid := lo + (hi - lo) // 2) == label(lo)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return rank(hi).view(np.float64), _PAM[nbits][1][np.concatenate([label(o[:1]), label(hi)])]


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
        bad = set(self.bits_per_symbol.tolist()) - {0, *SUPPORTED_BITS}
        if bad:
            raise ValueError(f"unsupported bits-per-symbol value(s): {sorted(bad)}")

    @cached_property
    def total_bits(self) -> int:
        return int(self.bits_per_symbol.sum())

    @cached_property
    def bit_labels(self) -> list[str]:
        """'subchannel,bit' for each transmitted bit, in order, as LLR records label them."""
        b = self.bits_per_symbol
        n = np.repeat(np.arange(b.size), b)
        return _labels(b.size)[n, np.arange(n.size) - np.repeat(np.cumsum(b) - b, b)].tolist()

    def loaded(self) -> np.ndarray:
        return np.flatnonzero(self.bits_per_symbol > 0)

    @cached_property
    def groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(nbits, sel, rows) for each loaded order: the subchannels sel
        carrying nbits bits and their bit rows, rows[i, j] = bit j of sel[i]."""
        b = self.bits_per_symbol
        offsets = np.concatenate([[0], np.cumsum(b)])
        sels = ((nbits, np.flatnonzero(b == nbits)) for nbits in SUPPORTED_BITS)
        return tuple((nbits, sel, offsets[sel][:, None] + np.arange(nbits)) for nbits, sel in sels if sel.size)


@cache
def _labels(mn: int) -> np.ndarray:
    """The mn x 8 object array of the strings 'n,j', the label of bit j of subchannel n."""
    return np.array([f"{n},{j}" for n in range(mn) for j in range(8)], dtype=object).reshape(mn, 8)


def _span(idx: np.ndarray) -> np.ndarray | slice:
    """The increasing indices idx as a slice where they form one contiguous run, as
    they do where one order covers every loaded subchannel; scatters through a
    slice skip numpy's per-element index arithmetic."""
    return slice(idx[0], idx[-1] + 1) if idx.size and idx[-1] - idx[0] + 1 == idx.size else idx


class FrameWorkspace:
    """Buffers a worker reuses, as leading views, for each block of at most `frames` frames of mn symbols:
    real holds the 2k x MN normals, then hard_detect's quotients once those are in y_d; y_d the observations."""

    def __init__(self, mn: int, frames: int) -> None:
        self.real = np.empty(2 * frames * mn)
        self.y_d = np.empty(frames * mn, dtype=complex)


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

    The required bit total is target_bits (coding factor 3/4, rounded to
    the nearest even value); bits then go two at a time to the subchannel
    with the largest margin xi*gamma*snr / 2^b, never to a zero-power
    subchannel.  A None target loads QPSK on every powered subchannel.  A
    target the powered subchannels cannot carry at 256-QAM raises ConfigError.
    """
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    active = gamma > 0.0
    b = np.zeros(xi.size, dtype=int)
    if target_rate_bps_hz is None:
        b[active] = 2
        return Loading(bits_per_symbol=b)

    total = target_bits(target_rate_bps_hz, cfg)
    max_total = 8 * int(np.count_nonzero(active))
    if total > max_total:
        max_rate = CODE_RATE * max_total / cfg.time_bandwidth
        raise ConfigError(
            f"target rate {target_rate_bps_hz} bps/Hz needs {total} bits but only "
            f"{max_total} fit; maximum achievable rate is {max_rate:.6g} bps/Hz"
        )
    # a subchannel's 2 bits after b carry margin s / 2^b, which never exceeds the one before, so
    # the greedy order is every powered subchannel's four margins sorted by (-margin, index,
    # bits): largest first, the lowest index on ties; the stable sort keeps bits ascending
    idx = np.repeat(np.flatnonzero(active), 4)
    margin = ((xi * gamma * snr)[active][:, None] / np.array([1.0, 4.0, 16.0, 64.0])).ravel()
    chosen = idx[np.lexsort((idx, -margin))[: total // 2]]
    return Loading(bits_per_symbol=2 * np.bincount(chosen, minlength=xi.size))


def map_bits(bits: np.ndarray, loading: Loading) -> np.ndarray:
    """Map a bit stream (or a block, one frame per column) onto the loaded
    subchannels; unloaded ones carry 0."""
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[0] != loading.total_bits:
        raise ValueError(f"expected {loading.total_bits} bits, got shape {bits.shape}")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bit stream must contain only 0s and 1s")
    frames = np.atleast_2d(np.asarray(bits, dtype=np.uint8).T)  # one frame per row, even with no bits
    x = np.zeros((frames.shape[0], loading.bits_per_symbol.size), dtype=complex)
    _axis_levels(frames, loading, x.view(np.float64))
    return x.T.reshape((x.shape[1],) + bits.shape[1:])


def _axis_levels(frames: np.ndarray, loading: Loading, parts: np.ndarray) -> None:
    """Write bit rows' symbols into the loaded subchannels of parts' rows as complex bytes: an axis's label is
    its half of the bits, its rank k the label's prefix XORs, its level the table's (2^(nbits/2) - 1 - 2k) d."""
    for nbits, sel, rows in loading.groups:
        g = frames[:, _span(rows.ravel())].reshape(len(frames), 2 * sel.size, nbits // 2)
        rank = prefix = g[..., 0]
        for j in range(1, nbits // 2):
            prefix = prefix ^ g[..., j]
            rank = rank << 1 | prefix
        axes = _span((2 * sel[:, None] + np.arange(2)).ravel())
        level = parts[:, axes] if isinstance(axes, slice) else np.empty(rank.shape)
        np.multiply(((1 << nbits // 2) - 1 - 2 * rank).view(np.int8), np.abs(_PAM[nbits][0]).min(), out=level)
        if not isinstance(axes, slice):
            parts[:, axes] = level


def transmit(x: np.ndarray, sol: PrecoderSolution) -> np.ndarray:
    """Precode into time-domain samples s = P x."""
    x = np.asarray(x)
    mn = sol.P.shape[1]
    if x.ndim not in (1, 2) or x.shape[0] != mn:
        raise ValueError(f"expected {mn} symbols, got {x.shape}")
    return sol.P @ x


def _scaled_white(var: np.ndarray, sigma0_sq: float, rng: np.random.Generator, k: int,
                  *, workspace: FrameWorkspace | None = None) -> np.ndarray:
    """sqrt(sigma0^2 var / 2) w for a 2k x MN standard normal w drawn in one call, whose
    rows 2t and 2t + 1 are frame t's real and imaginary parts; w is the head of workspace.real, if given."""
    if not 0.0 <= sigma0_sq < np.inf:
        raise ValueError(f"sigma0_sq must be non-negative and finite, got {sigma0_sq}")
    out = None if workspace is None else workspace.real[: 2 * k * var.size].reshape(2 * k, var.size)
    w = rng.standard_normal((2 * k, var.size), out=out)
    return np.multiply(w, np.sqrt(0.5 * sigma0_sq * var), out=w)


def colored_noise(
    noise: NoiseShape, sigma0_sq: float, rng: np.random.Generator, k: int
) -> np.ndarray:
    """Draw k frames of matched-filter noise with covariance sigma0^2 * G = sigma0^2 * V diag(lam) V^T.

    White noise scaled by sqrt(lam) is colored by V's half-order product.
    The MN x k block's column t takes rows 2t and 2t + 1 of one 2k x MN
    normal draw as its real and imaginary parts.  A variance of 0 gives zero
    noise; a negative or non-finite one raises.
    """
    white = _scaled_white(noise.lam, sigma0_sq, rng, k)
    # one pair of half-order real products colors every frame's real and imaginary parts
    return noise.v(white.T.copy()).view(np.complex128)


def propagate(s: np.ndarray, h: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Received matched-filtered samples z = H s + eta."""
    s = np.asarray(s)
    eta = np.asarray(eta)
    if s.ndim not in (1, 2) or s.shape[0] != h.shape[0] or eta.shape != s.shape:
        raise ValueError("signal/noise length does not match the channel dimension")
    return h @ s + eta


def receive(z: np.ndarray, sol: PrecoderSolution) -> np.ndarray:
    """Diagonalize the received samples: y_d = D z."""
    return sol.sub.D @ z


def _observations(y_d: np.ndarray, xi: np.ndarray, gamma: np.ndarray, loading: Loading) -> tuple:
    """The scales a = xi*sqrt(gamma) of the observation y_d = a x + noise and y_d as a
    k x MN block, one frame per row; a loaded subchannel needs a nonzero a and finite y_d."""
    a = xi * np.sqrt(gamma)
    frames = np.asarray(y_d).reshape(np.shape(y_d)[0], -1).T
    sel = loading.loaded()
    for bad, what in ((a[sel] == 0.0, "is loaded but has zero effective gain"),
                      (~np.isfinite(frames).all(axis=0)[sel], "has a non-finite observation")):
        if bad.any():
            raise ValueError(f"subchannel {sel[bad][0]} {what}")
    return a, frames


def llr(
    y_d: np.ndarray, xi: np.ndarray, gamma: np.ndarray, loading: Loading, sigma0_sq: float
) -> np.ndarray:
    """Exact per-bit log-likelihood ratios, log P[bit=0] - log P[bit=1].

    The Gaussian kernel exp(-|y_n - a_n x|^2/(xi_n sigma0^2)), a_n =
    xi_n sqrt(gamma_n), factors into an in-phase and a quadrature part, and
    each bit of a square Gray QAM label selects the level of one axis only,
    so the other axis cancels exactly from that bit's LLR.  Each bit's LLR
    is therefore a stable log-sum-exp over the 2^(b/2) levels of its axis.
    An MN x k block of observations gives a total_bits x k block.
    """
    if not 0.0 < sigma0_sq < np.inf:
        raise ValueError(f"sigma0_sq must be positive and finite, got {sigma0_sq}")
    a, frames = _observations(y_d, xi, gamma, loading)
    out = np.empty((loading.total_bits, frames.shape[0]))
    for nbits, sel, rows in loading.groups:
        levels, axis_bits = _PAM[nbits]
        y = frames[:, sel].T
        # metric[i, axis, f, l]: log-likelihood of level l on the in-phase (axis 0)
        # or quadrature (axis 1) part of frame f on the i-th selected subchannel
        dist = np.stack((y.real, y.imag), axis=1)[..., None] - a[sel, None, None, None] * levels
        metric = -(dist**2) / (xi[sel, None, None, None] * sigma0_sq)
        per_bit = [_logsumexp(metric[..., bit == 0]) - _logsumexp(metric[..., bit == 1])
                   for bit in axis_bits.T]
        # (i, axis, bit of the axis, f): the in-phase bits lead the label
        out[rows] = np.stack(per_bit, axis=2).reshape(sel.size, nbits, -1)
    return out.reshape((loading.total_bits,) + np.shape(y_d)[1:])


def _logsumexp(m: np.ndarray) -> np.ndarray:
    peak = m.max(axis=-1)
    return peak + np.log(np.exp(m - peak[..., None]).sum(axis=-1))


def hard_detect(y_d: np.ndarray, xi: np.ndarray, gamma: np.ndarray, loading: Loading,
                *, workspace: FrameWorkspace | None = None) -> np.ndarray:
    """Minimum-distance decisions per diagonal subchannel, demapped to bits.

    Per axis, v = y (1/a) and _decisions' breakpoints give the first-index argmin of |v - level|,
    ties to the lowest Gray label.  An MN x k block of observations gives a total_bits x k block.
    The quotients v overwrite workspace.real, if given.
    """
    a, frames = _observations(y_d, xi, gamma, loading)
    out = np.empty((frames.shape[0], loading.total_bits), dtype=np.uint8)
    for nbits, sel, rows in loading.groups:
        edges, table = _decisions(nbits)
        # per frame, each subchannel's y / a as (re, im): each part times 1/a, as numpy's y / a rounds
        # it but for the sign of an exact zero, which no label depends on; real, not complex, so that
        # numpy broadcasts 1/a through a 64 KiB buffer, not a 128 KiB one
        y = np.ascontiguousarray(frames[:, _span(sel)]).view(np.float64)
        v = np.multiply(y, np.repeat(1.0 / a[sel], 2), order="C",
                        out=None if workspace is None else workspace.real[: y.size].reshape(y.shape))
        # QPSK's bit is 1 from its first breakpoint to its second
        bits = (v >= edges[0]) ^ (v >= edges[1]) if nbits == 2 else table[np.searchsorted(edges, v, side="right")]
        out[:, _span(rows.ravel())] = bits.reshape(len(frames), rows.size)
    return out.T.reshape((loading.total_bits,) + np.shape(y_d)[1:])


def _draw_bits(loading: Loading, rng: np.random.Generator, k: int) -> np.ndarray:
    """k frames' bits, one frame per column: the bits k frame-by-frame calls integers(0, 2,
    total_bits) would draw, drawn as int64 for whole frames at a time straight into a uint8 block."""
    n = loading.total_bits
    bits = np.empty((k, n), dtype=np.uint8)
    step = max(1, 16383 // max(n, 1))  # below 128 KiB of int64s, glibc's default mmap threshold
    for t in range(0, k, step):
        bits[t : t + step] = rng.integers(0, 2, (min(step, k - t), n), dtype=np.int64)
    return bits.T


def run_frame(
    loading: Loading,
    sol: PrecoderSolution,
    h: np.ndarray,
    sigma0_sq: float,
    rng: np.random.Generator,
    k: int,
) -> FrameRecord:
    """Push a block of k frames through the full pipeline, frame t in column t
    of the record; the block draws its bits and then its noise, shaped by the
    noise shape sol was derived on, from rng."""
    tx_bits = _draw_bits(loading, rng, k)
    x = map_bits(tx_bits, loading)
    s = transmit(x, sol)
    z = propagate(s, h, colored_noise(sol.sub.noise, sigma0_sq, rng, k))
    return FrameRecord(tx_bits=tx_bits, x=x, s=s, z=z, y_d=receive(z, sol))


def scalar_frames(
    loading: Loading, xi: np.ndarray, gamma: np.ndarray, sigma0_sq: float,
    rng: np.random.Generator, k: int, *, workspace: FrameWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """run_frame's tx_bits and y_d, drawn from rng as run_frame draws them, on the
    scalar equivalent y_d = xi sqrt(gamma) x + n, n_k ~ CN(0, sigma0^2 xi_k), as
    D H P = diag(xi*sqrt(gamma)) and D G D^H = diag(xi).  A variance of 0 gives
    no noise; a negative or non-finite one raises.  Given a workspace, the noise
    and y_d take its buffers, and y_d is valid until the workspace's next block."""
    tx_bits = _draw_bits(loading, rng, k)
    w = _scaled_white(xi, sigma0_sq, rng, k, workspace=workspace)
    y_d = None if workspace is None else workspace.y_d[: k * xi.size].reshape(k, xi.size).T
    return tx_bits, compose_frames(loading, xi, gamma, tx_bits, w, y_d)


def frame_draws(loading: Loading, xi: np.ndarray, sigma0_sq: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """scalar_frames' draws for a one-frame block, in its order: the bits, total_bits x 1, then
    the 2 x MN noise rows sqrt(sigma0^2 xi / 2) w, the real row first."""
    return _draw_bits(loading, rng, 1), _scaled_white(xi, sigma0_sq, rng, 1)


def compose_frames(loading: Loading, xi: np.ndarray, gamma: np.ndarray, tx_bits: np.ndarray,
                   w: np.ndarray, y_d: np.ndarray | None = None) -> np.ndarray:
    """scalar_frames' MN x k y_d (new if None) from its draws, the bits tx_bits, total_bits x k,
    and the 2k x MN noise w, rows 2t and 2t + 1 frame t's real and imaginary parts.  Each
    element's arithmetic is its own, so subchannels stacked from several loadings compose
    as each would alone."""
    y_d = np.empty((len(w) // 2, xi.size), complex).T if y_d is None else y_d
    y_d[loading.bits_per_symbol == 0] = 0  # _axis_levels writes only the loaded subchannels
    parts = y_d.T.view(np.float64)  # row t: frame t's real and imaginary parts, interleaved
    _axis_levels(tx_bits.T, loading, parts)
    parts *= np.repeat(xi * np.sqrt(gamma), 2)
    parts[:, 0::2] += w[0::2]
    parts[:, 1::2] += w[1::2]
    return y_d


LLR_DUMP_HEADER = "frame,subchannel,bit,llr"


def format_llr_records(frame_idx: int, loading: Loading, llrs: np.ndarray) -> str:
    """Delimited LLR records for one frame, one line per transmitted bit, written by one % operation."""
    if not loading.bit_labels:
        return ""
    sep = f",%.12g\n{frame_idx},"
    return f"{frame_idx},{sep.join(loading.bit_labels)},%.12g" % tuple(llrs.tolist())
