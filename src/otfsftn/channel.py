"""Sparse delay-Doppler channels and their dense matrix images.

Channels are lists of paths, each a (complex gain, integer delay tap,
integer + fractional Doppler tap) tuple.  The EVA profile maps the 3GPP
excess-delay table onto the grid's tap resolution with Jakes-model Doppler
per tap; the synthetic profile draws distinct (delay, Doppler) pairs with
unit average total power.  From a path list the effective matrix H
combines channel dispersion with the matched-filter response of the config's
pulse, its roll-off beta sampled at its packing ratio alpha.  channel_strips
emits H a column strip at a time, which effective_channel stacks into the
dense H; only the oracles form its delay-Doppler image H_eq.

A brute-force continuous-time simulator (oversampled pulse train, per-path
delay-and-Doppler, discrete matched filtering) serves as the independent
oracle for the matrix model; it reads alpha and beta from the same config.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .config import EVA_DELAYS_NS, EVA_POWERS_DB, SystemConfig
from .pulse import check_alpha, lag_windows, rrc_impulse
from .transforms import GridShape, dd_to_time

# columns per strip wherever a full MN x MN temporary would otherwise be formed
STRIP = 64

# waveform_oracle's pulse truncation half-width, in units of T0, and its
# samples per compressed symbol interval T_f
ORACLE_SPAN = 32.0
ORACLE_OVERSAMPLE = 16


@dataclass(frozen=True)
class DdPath:
    """One propagation path in delay-Doppler tap coordinates."""

    gain: complex
    delay_tap: int
    doppler_int: int
    doppler_frac: float

    def __post_init__(self) -> None:
        if not -0.5 < self.doppler_frac <= 0.5:
            raise ValueError(f"fractional Doppler must lie in (-1/2, 1/2], got {self.doppler_frac}")
        if self.delay_tap < 0:
            raise ValueError(f"delay tap must be >= 0, got {self.delay_tap}")

    @property
    def doppler_tap(self) -> float:
        return self.doppler_int + self.doppler_frac


@dataclass(frozen=True)
class DdChannel:
    """A sparse delay-Doppler channel realization."""

    paths: tuple[DdPath, ...]

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def max_delay_tap(self) -> int:
        return max(p.delay_tap for p in self.paths)


def identity_channel() -> DdChannel:
    """Single unit-gain path at the origin; the AWGN-equivalent channel."""
    return DdChannel(paths=(DdPath(1.0 + 0.0j, 0, 0, 0.0),))


def eva_profile() -> tuple[np.ndarray, np.ndarray]:
    """EVA delays (seconds) and mean path powers normalized to sum to 1."""
    delays = np.asarray(EVA_DELAYS_NS) * 1e-9
    powers = 10.0 ** (np.asarray(EVA_POWERS_DB) / 10.0)
    return delays, powers / powers.sum()


def _split_doppler(tap: float) -> tuple[int, float]:
    """Split a real Doppler tap into integer part and fraction in (-1/2, 1/2]."""
    k = int(np.ceil(tap - 0.5))
    return k, tap - k


def eva_channel(nu_max_hz: float, cfg: SystemConfig, rng: np.random.Generator) -> DdChannel:
    """Draw one EVA realization on the grid implied by cfg.

    Delays quantize to the tap resolution 1/(M*delta_f); per-tap gains are
    circularly-symmetric Gaussian with the profile's mean powers; per-tap
    Doppler is nu_max*cos(theta) with theta uniform on [-pi, pi].
    """
    if nu_max_hz > cfg.delta_f_hz / 2.0:
        raise ValueError(
            f"nu_max {nu_max_hz} Hz exceeds delta_f/2 = {cfg.delta_f_hz / 2.0:.6g} Hz"
        )
    delays, powers = eva_profile()
    taps = np.rint(delays * cfg.M * cfg.delta_f_hz).astype(int)
    cp = cfg.effective_cp_len()
    if taps.max() >= cp:
        raise ValueError(f"EVA delay tap {taps.max()} exceeds CP length {cp} - 1")

    gains = rng.standard_normal(len(taps)) + 1j * rng.standard_normal(len(taps))
    gains *= np.sqrt(powers / 2.0)
    frame_s = cfg.N / cfg.delta_f_hz  # N*T, the Doppler tap resolution is its inverse

    # a coinciding (delay, Doppler) pair, of probability zero unless nu_max = 0, is just two
    # paths: effective_channel sums the paths on a tap and waveform_oracle applies each one
    doppler_taps = nu_max_hz * np.cos(rng.uniform(-np.pi, np.pi, size=len(taps))) * frame_s

    paths = []
    for g, l, d in zip(gains, taps, doppler_taps):
        k, kappa = _split_doppler(float(d))
        paths.append(DdPath(complex(g), int(l), k, kappa))
    return DdChannel(paths=tuple(paths))


def synthetic_channel(
    num_paths: int,
    l_max: int,
    k_max: int,
    frac_doppler: bool,
    rng: np.random.Generator,
) -> DdChannel:
    """Draw num_paths paths with distinct (delay, Doppler) tap pairs.

    Delay taps are uniform on {0..l_max}, integer Doppler taps uniform on
    {-k_max..k_max}, gains i.i.d. complex Gaussian with variance 1/num_paths.
    """
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    pairs = (l_max + 1) * (2 * k_max + 1)
    if num_paths > pairs:
        raise ValueError(
            f"cannot place {num_paths} paths on {pairs} distinct (delay, Doppler) pairs"
        )
    flat = rng.choice(pairs, size=num_paths, replace=False)
    delay = flat // (2 * k_max + 1)
    dopp = flat % (2 * k_max + 1) - k_max
    gains = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) * np.sqrt(
        1.0 / (2.0 * num_paths)
    )
    if frac_doppler:
        # uniform on (-1/2, 1/2]
        kappa = 0.5 - rng.uniform(0.0, 1.0, size=num_paths)
    else:
        kappa = np.zeros(num_paths)
    paths = tuple(
        DdPath(complex(g), int(l), int(k), float(f))
        for g, l, k, f in zip(gains, delay, dopp, kappa)
    )
    return DdChannel(paths=paths)


def channel_for_config(cfg: SystemConfig, rng: np.random.Generator) -> DdChannel:
    """Draw one realization of the configured channel profile."""
    ch = cfg.channel
    if ch.profile == "identity":
        return identity_channel()
    if ch.profile == "eva":
        return eva_channel(ch.nu_max_hz, cfg, rng)
    return synthetic_channel(ch.num_paths, ch.l_max, ch.k_max, ch.frac_doppler, rng)


def _checked_taps(chan: DdChannel, cfg: SystemConfig) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """cfg's prefix length, once cfg and chan are checked, and per delay tap, ascending, the
    row weights: every path on a tap shares its matched-filter response, so their
    Doppler-rotated gains sum into one weight per row k."""
    if cfg.cp_mode not in ("literal", "circular"):
        raise ValueError(f"cp_mode must be 'literal' or 'circular', got '{cfg.cp_mode}'")
    check_alpha(cfg.alpha, cfg.beta)
    cp, mn = cfg.effective_cp_len(), cfg.MN
    if chan.max_delay_tap() >= cp:
        raise ValueError(f"channel delay tap {chan.max_delay_tap()} exceeds CP length {cp} - 1")
    if cp > mn:  # the prefix image at m - MN would have to wrap more than once
        raise ValueError(f"CP length {cp} exceeds the frame length MN = {mn}")
    k = np.arange(mn)
    return cp, [(tap, sum(p.gain * np.exp(2j * np.pi * p.doppler_tap * (k - tap) / mn)
                          for p in chan.paths if p.delay_tap == tap))
                for tap in sorted({p.delay_tap for p in chan.paths})]


def column_strips(n: int, size: int) -> list[slice]:
    """channel_strips' column strips of an n x n H in size complex entries: at most STRIP
    columns, and few enough that a strip, its product and a real window sum fit."""
    width = min(STRIP, 2 * size // (5 * n))
    return [slice(j, min(j + width, n)) for j in range(0, n, width)]


def channel_strips(chan: DdChannel, cfg: SystemConfig, buf: np.ndarray):
    """Yield (columns, H[:, columns]) over column_strips(MN, buf.size), H as effective_channel's,
    each strip built at the head of the flat complex buf with its temporaries after it and
    valid until the next is yielded."""
    cp, weights = _checked_taps(chan, cfg)
    mn, l_top = cfg.MN, chan.max_delay_tap()
    # rows l_top - l + k of the windows hold g((k - m - l)*T_f) for delay tap l,
    # and the MN rows after those its prefix image at m - MN, which in circular
    # mode each of the last cp columns also receives
    w = lag_windows(np.arange(-(mn - 1) - l_top, 2 * mn), mn, cfg.alpha, cfg.beta)
    keep = mn - cp if cfg.cp_mode == "circular" else mn
    for j in column_strips(mn, buf.size):
        size = mn * (j.stop - j.start)
        h, prod = buf[:size].reshape(mn, -1), buf[size : 2 * size].reshape(mn, -1)
        both = buf[2 * size :].view(np.float64)[:size].reshape(mn, -1)
        own = max(keep - j.start, 0)  # columns before keep, which take no prefix image
        h[...] = 0.0
        for tap, weight in weights:
            main = w[l_top - tap : l_top - tap + mn, j]
            np.multiply(weight[:, None], main[:, :own], out=prod[:, :own])
            if own < h.shape[1]:
                image = w[l_top - tap + mn : l_top - tap + 2 * mn, j]
                np.add(main[:, own:], image[:, own:], out=both[:, own:])
                np.multiply(weight[:, None], both[:, own:], out=prod[:, own:])
            h += prod
        yield j, h


def effective_channel(chan: DdChannel, cfg: SystemConfig) -> np.ndarray:
    """Dense MN x MN effective channel H for the configured packing ratio and roll-off.

    Entry (k, m) sums h_p * exp(2j*pi*(k_p+kappa_p)*(k-l_p)/MN) * g((k-m-l_p)*T_f)
    over paths.  In circular mode each of the last cp_len symbols additionally
    contributes its cyclic-prefix image at position m - MN, which is how the
    transmitted prefix makes the dispersive response wrap around the frame.
    In literal mode the formula applies verbatim with no wraparound.  The
    mode is cfg.cp_mode.  H is channel_strips' strips, 16 columns wide.
    """
    h = np.empty((cfg.MN, cfg.MN), dtype=complex)
    for j, strip in channel_strips(chan, cfg, np.empty(40 * cfg.MN, dtype=complex)):
        h[:, j] = strip
    return h


def nyquist_entries(chan: DdChannel, cfg: SystemConfig) -> tuple[np.ndarray, ...]:
    """(rows, columns, values) of H's nonzeros at alpha = 1, in np.nonzero's order.  There the
    windows are Kronecker deltas: row k takes each tap l's weight at column k - l, in circular
    mode at its prefix image k - l + MN where k < l."""
    if cfg.alpha != 1.0:
        raise ValueError(f"H is a scatter of tap weights only at alpha = 1, got {cfg.alpha}")
    taps, weights = zip(*_checked_taps(chan, cfg)[1])
    rows = np.arange(cfg.MN)[:, None]
    cols, values = rows - np.array(taps), np.array(weights).T
    live = (values != 0.0) & ((cols >= 0) | (cfg.cp_mode == "circular"))
    order = np.argsort(cols % cfg.MN, axis=1)  # in each row, columns ascending
    live, cols, values = (np.take_along_axis(a, order, axis=1) for a in (live, cols % cfg.MN, values))
    return np.broadcast_to(rows, live.shape)[live], cols[live], values[live]


def waveform_oracle(x_p: np.ndarray, chan: DdChannel, cfg: SystemConfig) -> np.ndarray:
    """Noiseless continuous-time reference for the matrix model at cfg's alpha and beta.

    Builds the pulse train (ORACLE_OVERSAMPLE samples per T_f, truncated at
    +/- ORACLE_SPAN) with an explicit cyclic prefix, applies each path as a
    delay plus Doppler rotation, matched-filters by discrete convolution with
    the time-reversed pulse, removes the prefix and samples at the symbol instants.
    """
    alpha = cfg.alpha
    check_alpha(alpha, cfg.beta)
    shape = GridShape(cfg.M, cfg.N)
    mn = shape.MN
    cp = cfg.effective_cp_len()

    # all times live on the grid t = i*dt with dt = T_f/ORACLE_OVERSAMPLE;
    # integer delay taps land exactly on it
    dt = alpha / ORACLE_OVERSAMPLE
    hw = int(np.ceil(ORACLE_SPAN / dt))
    h_taps = np.asarray(rrc_impulse(np.arange(-hw, hw + 1) * dt, cfg.beta))

    s = dd_to_time(np.asarray(x_p, dtype=complex), shape)
    positions = np.arange(-cp, mn)  # symbol slots, prefix = tail copy
    amps = s[positions % mn]

    i_min = -cp * ORACLE_OVERSAMPLE - hw
    i_max = (mn - 1) * ORACLE_OVERSAMPLE + hw
    tx = np.zeros(i_max - i_min + 1, dtype=complex)
    for n, a in zip(positions, amps):
        c = n * ORACLE_OVERSAMPLE - i_min
        tx[c - hw : c + hw + 1] += a * h_taps

    l_top = chan.max_delay_tap()
    r_min, r_max = i_min, i_max + l_top * ORACLE_OVERSAMPLE
    rx = np.zeros(r_max - r_min + 1, dtype=complex)
    grid = np.arange(r_min, r_max + 1)
    for p in chan.paths:
        shift = p.delay_tap * ORACLE_OVERSAMPLE
        # Doppler exponent 2*pi*nu*(t - tau) with nu = doppler_tap/(MN*T_f)
        rot = np.exp(2j * np.pi * p.doppler_tap * (grid - shift) / (mn * ORACLE_OVERSAMPLE))
        lo = i_min + shift - r_min
        rx[lo : lo + tx.size] += p.gain * rot[lo : lo + tx.size] * tx

    mf = np.convolve(rx, np.conj(h_taps[::-1])) * dt
    # output index c sits at absolute grid index r_min - hw + c
    sample_idx = np.arange(mn) * ORACLE_OVERSAMPLE - (r_min - hw)
    return mf[sample_idx]


DUMP_HEADER = "# dd-channel-dump v1"


def dump_paths(chan: DdChannel) -> str:
    """Serialize a channel realization to the structured text dump format."""
    buf = io.StringIO()
    buf.write(DUMP_HEADER + "\n")
    buf.write(f"# paths {chan.num_paths}\n")
    buf.write("# columns gain_re gain_im delay_tap doppler_int doppler_frac\n")
    for p in chan.paths:
        buf.write(
            f"{p.gain.real:+.17e} {p.gain.imag:+.17e} {p.delay_tap:d} "
            f"{p.doppler_int:d} {p.doppler_frac:+.17e}\n"
        )
    return buf.getvalue()


def load_paths(text: str) -> DdChannel:
    """Inverse of :func:`dump_paths` (exact round trip).

    The text must start with the v1 header (a leading provenance line, as
    channel-dump writes, is allowed) and hold as many paths as it declares.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("# provenance "):
        lines = lines[1:]
    if not lines or lines[0] != DUMP_HEADER:
        raise ValueError(f"dump does not start with the '{DUMP_HEADER}' header")
    count = lines[1].removeprefix("# paths ") if len(lines) > 1 else ""
    if not count.isdigit():
        raise ValueError("dump lacks the '# paths N' line after its header")
    rows = [line.split() for line in lines[2:] if not line.startswith("#")]
    paths = [
        DdPath(complex(float(re_), float(im)), int(l), int(k), float(kappa))
        for re_, im, l, k, kappa in rows
    ]
    if len(paths) != int(count):
        raise ValueError(f"dump declares {count} paths but holds {len(paths)}")
    if not paths:
        raise ValueError("dump contains no paths")
    return DdChannel(paths=tuple(paths))
