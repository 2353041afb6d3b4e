"""Seeded Monte-Carlo sweeps, self-validation and CSV emission.

Every random draw derives from (master_seed, sweep_point_index, trial_index)
through a counter-style seed sequence, so results are a pure function of the
configuration and seed.

With threads >= 2 a sweep maps its trials on one pool of that many worker
threads, with OpenBLAS pinned to one thread while they run; set-up outside
the trials, and threads == 1, keep the user's BLAS thread count.  CSVs are
byte-identical for any thread count.  The LLR dump is byte-identical for any
threads >= 2, and at threads == 1 when BLAS runs one thread; other BLAS
counts split reductions differently and may move LLRs in the last digits.
The identity channel's G, H and subchannel basis are exactly the identity,
so its BER CSV does not depend on the BLAS thread count either.

A BER sweep point runs its frames in blocks.  On a shared channel (profile
identity) the channel and its subchannel decomposition are solved once per
alpha, and trial indices are cut into consecutive blocks of FRAME_BLOCK
frames, each one matrix-matrix pass of the link; a per-trial channel gives
blocks of one frame.  Block boundaries depend only on trial indices, and
worker threads map whole blocks, so the thread count never changes which
frames share a product.
"""

from __future__ import annotations

import contextlib
import ctypes
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .config import ChannelConfig, ConfigError, SystemConfig, config_digest, validate_config
from .channel import (
    DdChannel,
    channel_for_config,
    dump_paths,
    effective_channel,
    identity_channel,
    synthetic_channel,
    waveform_oracle,
)
from .link import (
    LLR_DUMP_HEADER,
    bit_loading,
    format_llr_records,
    hard_detect,
    llr,
    run_frame,
)
from .metrics import BerCounter, RatePoint, ber_accumulate, info_rate, mi_logdet, mi_sum
from .precoder import derive_subchannels, finalize, solve_precoder, uniform_gamma, waterfill
from .pulse import PulseSpec, gram_dd, gram_matrix, rc_autocorr
from .transforms import GridShape, conjugate_by_dd, dd_to_time, dft_matrix, time_to_dd

RATE_CSV_HEADER = "snr_db,alpha,beta,mode,mi_bits,rate_bps_hz,seeds"
BER_CSV_HEADER = "snr_db,alpha,beta,target_rate,bits,errors,ber,trials"

MAX_FRAME_SYMBOLS = 1536
# frames per block on a shared channel: wide enough for matrix-matrix
# products, small enough that the MN x FRAME_BLOCK working set stays minor
FRAME_BLOCK = 64


@dataclass(frozen=True)
class BerRow:
    snr_db: float
    alpha: float
    beta: float
    target_rate: float | None
    bits: int
    errors: int
    ber: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    kind: str  # "rate" | "ber"
    rows: tuple
    provenance: str

    def to_csv(self) -> str:
        lines = [f"# provenance {self.provenance}"]
        if self.kind == "rate":
            lines.append(RATE_CSV_HEADER)
            for r in self.rows:
                lines.append(
                    f"{_fmt(r.snr_db)},{_fmt(r.alpha)},{_fmt(r.beta)},{r.mode},"
                    f"{_fmt(r.mi_bits)},{_fmt(r.rate_bps_hz)},{r.seeds}"
                )
        else:
            lines.append(BER_CSV_HEADER)
            for r in self.rows:
                tr = "" if r.target_rate is None else _fmt(r.target_rate)
                lines.append(
                    f"{_fmt(r.snr_db)},{_fmt(r.alpha)},{_fmt(r.beta)},{tr},"
                    f"{r.bits},{r.errors},{_fmt(r.ber)},{r.trials}"
                )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _provenance(cfg: SystemConfig, digest: str | None) -> str:
    if digest is None:
        digest = config_digest(repr(cfg))
    return (
        f"config_sha256={digest} master_seed={cfg.master_seed} version={__version__} "
        f"snr_def=sigma_x^2/sigma_0^2_per_complex_symbol"
    )


def trial_rng(master_seed: int, point_idx: int, trial_idx: int) -> np.random.Generator:
    """Counter-derived generator for one (sweep point, trial) cell."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(point_idx, trial_idx))
    )


def assert_memory_budget(cfg: SystemConfig) -> None:
    """Guard the frame size."""
    if cfg.MN > MAX_FRAME_SYMBOLS:
        raise ConfigError(f"frame size MN={cfg.MN} exceeds the supported maximum {MAX_FRAME_SYMBOLS}")


def _snr_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


# thread-count functions of scipy-openblas, ILP64 and LP64 OpenBLAS; "{}" is get or set
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


def _openblas_threads() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: BLAS is left alone
        return []
    found = []
    for lib in map(ctypes.CDLL, libs):
        name = next((n for n in _OPENBLAS_THREADS if hasattr(lib, n.format("set"))), None)
        if name is not None:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return found


@contextlib.contextmanager
def single_blas_thread():
    """Pin every loaded OpenBLAS to one thread, restoring its count on exit.

    The count is process-wide, so it also binds BLAS calls other threads make
    meanwhile.  A no-op when no OpenBLAS thread setter is found (a numpy on
    another BLAS).
    """
    controls = _openblas_threads()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


@contextlib.contextmanager
def _trial_map(threads: int):
    """Map trials serially (threads == 1) or on one worker pool per sweep.

    Pool maps pin BLAS to one thread; set-up between maps keeps the user's count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        yield lambda fn, items: [fn(x) for x in items]
        return

    def pinned_map(fn, items):
        with single_blas_thread():
            return list(pool.map(fn, items))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pinned_map


def run_rate_sweep(cfg: SystemConfig, threads: int = 1, digest: str | None = None) -> SweepResult:
    """Information-rate curves: water-filled, uniform-power and Nyquist baselines.

    One channel realization per trial index, shared by every (alpha, mode)
    curve so curves differ only in the transceiver, not the fading ensemble.
    The two alpha=1 baselines (same roll-off, and the rectangular beta=0
    bound) are emitted as mode "nyquist", both water-filled.
    """
    validate_config(cfg)
    assert_memory_budget(cfg)
    shape = GridShape(cfg.M, cfg.N)
    channels = [
        channel_for_config(cfg, trial_rng(cfg.master_seed, 0, t)) for t in range(cfg.trials)
    ]

    # (alpha, beta, modes) instances; at alpha=1 the pulse tail vanishes at
    # every sampling lag, so both baselines share one matrix instance
    instances: list[tuple[float, float, tuple[str, ...]]] = [
        (a, cfg.beta, ("pa", "no_pa")) for a in cfg.alpha_grid
    ]
    instances.append((1.0, cfg.beta, ("nyquist",)))
    instances.append((1.0, 0.0, ("nyquist",)))

    rows: list[RatePoint] = []
    with _trial_map(threads) as trial_map:
        for alpha, beta, modes in instances:
            pulse = PulseSpec(beta=beta)
            noise = gram_matrix(shape, alpha, pulse)
            cfg_pt = replace(cfg.with_alpha(alpha), beta=beta)

            def one_trial(chan):
                eff = effective_channel(chan, pulse, cfg_pt)
                sol = derive_subchannels(eff.H, noise, shape)
                mi = np.empty((len(cfg.snr_db_grid), 2))
                for i, snr_db in enumerate(cfg.snr_db_grid):
                    snr = _snr_linear(snr_db)
                    gamma_pa, _ = waterfill(sol.xi, sol.phi, snr, float(shape.MN))
                    mi[i, 0] = mi_sum(sol.xi, gamma_pa, snr)
                    mi[i, 1] = mi_sum(sol.xi, uniform_gamma(sol.phi, float(shape.MN)), snr)
                return mi

            mean_mi = np.mean(trial_map(one_trial, channels), axis=0)

            for i, snr_db in enumerate(cfg.snr_db_grid):
                for mode in modes:
                    col = 1 if mode == "no_pa" else 0
                    mi = float(mean_mi[i, col])
                    rows.append(
                        RatePoint(
                            snr_db=snr_db, alpha=alpha, beta=beta, mode=mode,
                            mi_bits=mi, rate_bps_hz=info_rate(mi, cfg_pt), seeds=cfg.trials,
                        )
                    )
    rows.sort(key=lambda r: (r.alpha, r.snr_db, r.beta, r.mode))
    return SweepResult(kind="rate", rows=tuple(rows), provenance=_provenance(cfg, digest))


def _ber_point(
    cfg_a: SystemConfig,
    snr_db: float,
    point_idx: int,
    pulse: PulseSpec,
    noise,
    shared,
    trial_map,
    collect_llrs: bool,
) -> tuple[BerCounter, list[str]]:
    shape = GridShape(cfg_a.M, cfg_a.N)
    snr = _snr_linear(snr_db)
    sigma0_sq = 1.0 / snr  # sigma_x^2 = 1

    def load(sub):
        """Water-fill, finalize and bit-load the derivation at this SNR."""
        sol = finalize(sub, waterfill(sub.xi, sub.phi, snr, float(shape.MN))[0])
        return sol, bit_loading(sub.xi, sol.gamma, snr, cfg_a.target_rate_bps_hz, cfg_a)

    link = None
    if shared is not None:
        eff, sub = shared
        link = (eff, *load(sub))
        starts = range(0, cfg_a.trials, FRAME_BLOCK)
        blocks = [range(t, min(t + FRAME_BLOCK, cfg_a.trials)) for t in starts]
    else:
        blocks = [range(t, t + 1) for t in range(cfg_a.trials)]

    def one_block(block: range) -> tuple[BerCounter, list[str]]:
        rngs = [trial_rng(cfg_a.master_seed, point_idx, t) for t in block]
        if link is None:
            eff = effective_channel(channel_for_config(cfg_a, rngs[0]), pulse, cfg_a)
            sol, loading = load(derive_subchannels(eff.H, noise, shape))
        else:
            eff, sol, loading = link
        frame = run_frame(loading, sol, eff, noise, sigma0_sq, rngs)
        rx = hard_detect(frame.y_d, sol, loading)
        counter = ber_accumulate(frame.tx_bits, rx, BerCounter())
        records = []
        if collect_llrs:
            llrs = llr(frame.y_d, sol, loading, sigma0_sq)
            records = [format_llr_records(t, loading, llrs[:, i]) for i, t in enumerate(block)]
        return counter, records

    total = BerCounter()
    llr_lines = []
    for counter, records in trial_map(one_block, blocks):
        total = total.merge(counter)
        llr_lines.extend(rec for rec in records if rec)
    return total, llr_lines


def run_ber_sweep(
    cfg: SystemConfig,
    threads: int = 1,
    digest: str | None = None,
    llr_sink=None,
) -> SweepResult:
    """Uncoded BER over the (alpha, snr) grid with exact bit and error counts.

    A fresh channel realization is drawn per trial, except on the identity
    channel, whose subchannels are derived once per alpha and power-loaded
    per SNR point.  When llr_sink (a writable text file) is given, per-frame
    exact LLR records are streamed to it in the delimited format of the link
    layer.
    """
    validate_config(cfg)
    assert_memory_budget(cfg)
    rows: list[BerRow] = []
    with _trial_map(threads) as trial_map:
        if llr_sink is not None:
            llr_sink.write(f"# provenance {_provenance(cfg, digest)}\n")
            llr_sink.write(LLR_DUMP_HEADER + "\n")

        point_idx = 0
        for alpha in cfg.alpha_grid:
            cfg_a = cfg.with_alpha(alpha)
            pulse = PulseSpec(beta=cfg.beta)
            shape = GridShape(cfg.M, cfg.N)
            noise = gram_matrix(shape, alpha, pulse)
            shared = None
            if cfg.channel.profile == "identity":
                eff = effective_channel(identity_channel(), pulse, cfg_a)
                sub = derive_subchannels(eff.H, noise, shape)
                sub.D  # form the receive weights now, not racing in the workers
                shared = (eff, sub)
            for snr_db in cfg.snr_db_grid:
                counter, llr_lines = _ber_point(
                    cfg_a, snr_db, point_idx, pulse, noise, shared, trial_map, llr_sink is not None
                )
                if llr_sink is not None:
                    for chunk in llr_lines:
                        llr_sink.write(chunk + "\n")
                rows.append(
                    BerRow(
                        snr_db=snr_db, alpha=alpha, beta=cfg.beta,
                        target_rate=cfg.target_rate_bps_hz,
                        bits=counter.total, errors=counter.errors, ber=counter.ber,
                        trials=cfg.trials,
                    )
                )
                point_idx += 1
    rows.sort(key=lambda r: (r.alpha, r.snr_db))
    return SweepResult(kind="ber", rows=tuple(rows), provenance=_provenance(cfg, digest))


def channel_dump(cfg: SystemConfig, digest: str | None = None) -> str:
    """Serialize the first channel realization of the configured ensemble."""
    validate_config(cfg)
    chan = channel_for_config(cfg, trial_rng(cfg.master_seed, 0, 0))
    return f"# provenance {_provenance(cfg, digest)}\n" + dump_paths(chan)


# ---------------------------------------------------------------------------
# self-validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.ok else "FAIL"
            msg = f" :: {c.detail}" if (c.detail and not c.ok) else ""
            lines.append(f"[{tag}] {c.name} ({c.seconds:.2f} s){msg}")
        good = sum(c.ok for c in self.checks)
        lines.append(f"{good}/{len(self.checks)} checks passed")
        return "\n".join(lines)


_VALIDATE_SHAPES = (GridShape(4, 2), GridShape(8, 4), GridShape(16, 4))


def _kron_dd(shape: GridShape) -> np.ndarray:
    return np.kron(dft_matrix(shape.N), np.eye(shape.M))


def _eva_cfg(shape: GridShape, alpha: float, seed: int, nu_max: float = 400.0) -> SystemConfig:
    return SystemConfig(
        M=shape.M, N=shape.N, alpha_grid=(alpha,), beta=0.25, delta_f_hz=30e3,
        cp_len=None, master_seed=seed,
        channel=ChannelConfig(profile="eva", nu_max_hz=nu_max),
    )


def _check_dft_unitarity(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for n in list(range(1, 17)) + [32, 64]:
        f = dft_matrix(n)
        worst = max(worst, float(np.abs(f.conj().T @ f - np.eye(n)).max()))
    return worst <= 1e-12, f"max unitarity residual {worst:.2e} (bound 1e-12)"


def _check_dd_roundtrip(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for shape in _VALIDATE_SHAPES + (GridShape(4, 3),):
        x = rng.standard_normal(shape.MN) + 1j * rng.standard_normal(shape.MN)
        worst = max(worst, float(np.abs(time_to_dd(dd_to_time(x, shape), shape) - x).max()))
    shape = GridShape(2, 3)
    k = _kron_dd(shape)
    z = rng.standard_normal(shape.MN) + 1j * rng.standard_normal(shape.MN)
    worst = max(worst, float(np.abs(time_to_dd(z, shape) - k @ z).max()))
    worst = max(worst, float(np.abs(dd_to_time(z, shape) - k.conj().T @ z).max()))
    return worst <= 1e-12, f"max roundtrip/oracle residual {worst:.2e} (bound 1e-12)"


def _check_conjugation(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    detail = []
    ok = True
    for shape in _VALIDATE_SHAPES:
        a = rng.standard_normal((shape.MN, shape.MN)) + 1j * rng.standard_normal((shape.MN, shape.MN))
        a = 0.5 * (a + a.conj().T)
        b = conjugate_by_dd(a, shape)
        tr = abs(np.trace(b) - np.trace(a)) / max(1.0, abs(np.trace(a)))
        fro = abs(np.linalg.norm(b) - np.linalg.norm(a)) / np.linalg.norm(a)
        eig = float(np.abs(np.sort(np.linalg.eigvalsh(0.5 * (b + b.conj().T)))
                           - np.sort(np.linalg.eigvalsh(a))).max())
        ok &= tr <= 1e-10 and fro <= 1e-10 and eig <= 1e-9
        detail.append(f"{shape.M}x{shape.N}: tr {tr:.1e} fro {fro:.1e} eig {eig:.1e}")
    return ok, "; ".join(detail)


def _check_pulse_shape(seed: int) -> tuple[bool, str]:
    spec = PulseSpec(beta=0.25)
    t = np.linspace(-8.0, 8.0, 2001)
    g = np.asarray(rc_autocorr(t, spec))
    even = float(np.abs(g - g[::-1]).max())
    inside = bool(np.all(np.abs(g) <= 1.0 + 1e-12))
    peak_only = bool(np.all(np.abs(g[np.abs(t) > 1e-9]) < 1.0))
    return even <= 1e-12 and inside and peak_only, (
        f"evenness {even:.2e}, |g|<=1 {inside}, strict interior {peak_only}"
    )


def _check_nyquist_identity(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        noise = gram_matrix(shape, 1.0, PulseSpec(beta=0.25))
        worst = max(worst, float(np.abs(noise.G - np.eye(shape.MN)).max()))
        worst = max(worst, float(np.abs(gram_dd(noise, shape) - np.eye(shape.MN)).max()))
    return worst <= 1e-12, f"max deviation from identity {worst:.2e}"


def _check_gram_structure(seed: int) -> tuple[bool, str]:
    spec = PulseSpec(beta=0.25)
    ok = True
    min_eig = np.inf
    for shape in _VALIDATE_SHAPES:
        alpha = spec.admissible_alpha()
        g = gram_matrix(shape, alpha, spec).G
        idx = np.arange(shape.MN)
        lags = np.abs(np.subtract.outer(idx, idx))
        ok &= bool(np.array_equal(g, g[0][lags]))
        expect = rc_autocorr(alpha, spec)
        ok &= abs(g[0, 1] - expect) <= 1e-15
        min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
    ok &= min_eig >= -1e-9
    return ok, f"Toeplitz structure ok={ok}, min eigenvalue {min_eig:.2e} (bound -1e-9)"


def _check_floor_policy(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    spec = PulseSpec(beta=0.25)
    alpha = spec.admissible_alpha()
    noise = gram_matrix(shape, alpha, spec)
    cfg = _eva_cfg(shape, alpha, seed)
    chan = channel_for_config(cfg, trial_rng(seed, 0, 0))
    eff = effective_channel(chan, spec, cfg)
    sol = derive_subchannels(eff.H, noise, shape)
    if sol.noise.floor <= 0.0:
        return False, "eigenvalue floor policy is disabled on the noise-shape spectrum"
    lam_min = float(sol.noise.lam.min())
    ok = lam_min >= 1e-10 * float(sol.noise.lam.max()) and lam_min > 0.0
    return ok, f"floored spectrum min {lam_min:.2e}, clamped {sol.floored} value(s)"


def _check_gram_dd_spectrum(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        noise = gram_matrix(shape, 0.85, PulseSpec(beta=0.25))
        wg = np.sort(np.linalg.eigvalsh(noise.G))
        we = np.sort(np.linalg.eigvalsh(gram_dd(noise, shape)))
        worst = max(worst, float(np.abs(wg - we).max()))
    return worst <= 1e-9, f"max eigenvalue mismatch {worst:.2e} (bound 1e-9)"


def _check_channel_linearity(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    spec = PulseSpec(beta=0.25)
    cfg = _eva_cfg(shape, 0.9, seed)
    chan = channel_for_config(cfg, trial_rng(seed, 0, 1))
    eff = effective_channel(chan, spec, cfg)
    scaled = DdChannel(paths=tuple(replace(p, gain=2.5 * p.gain) for p in chan.paths))
    eff2 = effective_channel(scaled, spec, cfg)
    lin = float(np.abs(eff2.H - 2.5 * eff.H).max())
    fro = abs(np.linalg.norm(eff.H_eq) - np.linalg.norm(eff.H)) / np.linalg.norm(eff.H)
    ok = lin <= 1e-12 and fro <= 1e-10
    return ok, f"gain linearity {lin:.2e}, Frobenius preservation {fro:.2e}"


def _check_doppler_periodicity(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    spec = PulseSpec(beta=0.25)
    cfg = replace(_eva_cfg(shape, 0.9, seed), cp_mode="literal")
    chan = channel_for_config(cfg, trial_rng(seed, 0, 2))
    eff = effective_channel(chan, spec, cfg)
    shifted = DdChannel(
        paths=tuple(replace(p, doppler_int=p.doppler_int + shape.MN) for p in chan.paths)
    )
    eff2 = effective_channel(shifted, spec, cfg)
    res = float(np.abs(eff2.H - eff.H).max())
    return res <= 1e-9, f"Doppler-tap periodicity residual {res:.2e}"


def _check_separability(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    cfg = SystemConfig(
        M=8, N=4, alpha_grid=(1.0,), beta=0.25, cp_len=4, master_seed=seed,
    )
    chan = synthetic_channel(5, 3, 1, False, trial_rng(seed, 0, 3))
    eff = effective_channel(chan, PulseSpec(beta=0.25), cfg)
    impulse = np.zeros(shape.MN, complex)
    impulse[0] = 1.0
    resp = eff.H_eq @ impulse
    support = int(np.count_nonzero(np.abs(resp) > 1e-9))
    return support == chan.num_paths, (
        f"impulse response support {support}, expected {chan.num_paths} paths"
    )


def _check_precoder_identities(seed: int) -> tuple[bool, str]:
    detail = []
    ok = True
    for shape in _VALIDATE_SHAPES:
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 0.9, spec)
        cfg = _eva_cfg(shape, 0.9, seed)
        chan = channel_for_config(cfg, trial_rng(seed, 0, 4))
        eff = effective_channel(chan, spec, cfg)
        sol = solve_precoder(eff.H, noise, shape, 10.0)
        # the delay-Doppler pair P = (F_N kron I_M) P_t, D = D_t (F_N kron I_M)^H
        kron = _kron_dd(shape)
        p, d = kron @ sol.P, sol.sub.D @ kron.conj().T
        bound = 1e-8 * float(sol.xi.max())
        r1 = float(np.abs(d @ eff.H_eq @ p - np.diag(sol.xi * np.sqrt(sol.gamma))).max())
        r2 = float(np.abs(d @ gram_dd(noise, shape) @ d.conj().T - np.diag(sol.xi)).max())
        ok &= r1 <= bound and r2 <= bound
        detail.append(f"{shape.M}x{shape.N}: diag {r1:.1e} whiten {r2:.1e} (bound {bound:.1e})")
    return ok, "; ".join(detail)


def _check_waterfill_kkt(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        xi = rng.uniform(0.05, 2.0, shape.MN)
        phi = rng.uniform(0.5, 1.5, shape.MN)
        snr = 3.0
        gamma, mu = waterfill(xi, phi, snr, float(shape.MN))
        residual = abs(float(gamma @ phi) - shape.MN)
        ok &= residual <= 1e-10 * shape.MN
        act = gamma > 0.0
        kkt = float(np.abs(phi[act] * (gamma[act] + 1.0 / (xi[act] * snr)) - mu).max()) / mu
        ok &= kkt <= 1e-8
        slack = mu / phi[~act] - 1.0 / (xi[~act] * snr) if (~act).any() else np.array([0.0])
        ok &= bool(np.all(slack <= 1e-8))
        worst = max(worst, residual / shape.MN, kkt)
    return ok, f"max constraint/KKT residual {worst:.2e}"


def _check_mi_equivalence(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 0.85, spec)
        cfg = _eva_cfg(shape, 0.85, seed)
        chan = channel_for_config(cfg, trial_rng(seed, 0, 5))
        eff = effective_channel(chan, spec, cfg)
        snr = 10.0
        sol = solve_precoder(eff.H, noise, shape, snr)
        p = _kron_dd(shape) @ sol.P  # the delay-Doppler precoder
        direct = mi_logdet(eff.H_eq, gram_dd(noise, shape), p @ p.conj().T, 1.0 / snr)
        diag = mi_sum(sol.xi, sol.gamma, snr)
        worst = max(worst, abs(direct - diag) / max(diag, 1e-12))
    return worst <= 1e-6, f"max relative MI mismatch {worst:.2e} (bound 1e-6)"


def _check_pa_dominance(seed: int) -> tuple[bool, str]:
    worst = -np.inf
    for shape in _VALIDATE_SHAPES:
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 0.85, spec)
        cfg = _eva_cfg(shape, 0.85, seed)
        chan = channel_for_config(cfg, trial_rng(seed, 0, 6))
        eff = effective_channel(chan, spec, cfg)
        sol = derive_subchannels(eff.H, noise, shape)
        for snr_db in (0.0, 10.0, 20.0):
            snr = _snr_linear(snr_db)
            gamma, _ = waterfill(sol.xi, sol.phi, snr, float(shape.MN))
            gap = mi_sum(sol.xi, uniform_gamma(sol.phi, float(shape.MN)), snr) - mi_sum(
                sol.xi, gamma, snr
            )
            worst = max(worst, gap)
    return worst <= 1e-9, f"max uniform-minus-waterfilled MI gap {worst:.2e} (bound 1e-9)"


def _check_link_noiseless(seed: int) -> tuple[bool, str]:
    total_err = 0
    for shape in _VALIDATE_SHAPES:
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 0.9, spec)
        cfg = _eva_cfg(shape, 0.9, seed)
        chan = channel_for_config(cfg, trial_rng(seed, 0, 7))
        eff = effective_channel(chan, spec, cfg)
        sol = solve_precoder(eff.H, noise, shape, 100.0)
        loading = bit_loading(sol.xi, sol.gamma, 100.0, None, cfg)
        frame = run_frame(loading, sol, eff, noise, 0.0, [trial_rng(seed, 1, 7)])
        rx = hard_detect(frame.y_d, sol, loading)
        total_err += int(np.count_nonzero(rx != frame.tx_bits))
    return total_err == 0, f"{total_err} bit errors across noiseless frames"


def _check_waveform_oracle(seed: int) -> tuple[bool, str]:
    shape = GridShape(16, 4)
    spec = PulseSpec(beta=0.25, span=32.0)
    cfg = _eva_cfg(shape, 0.9, seed, nu_max=50.0)
    chan = channel_for_config(cfg, trial_rng(seed, 0, 8))
    eff = effective_channel(chan, spec, cfg)
    rng = trial_rng(seed, 1, 8)
    x_p = (rng.standard_normal(shape.MN) + 1j * rng.standard_normal(shape.MN)) / np.sqrt(2.0)
    z_model = eff.H @ dd_to_time(x_p, shape)
    z_wave = waveform_oracle(x_p, chan, cfg, spec, oversample=16)
    rel = float(np.abs(z_model - z_wave).max() / np.abs(z_wave).max())
    return rel <= 1e-3, f"matrix-vs-waveform relative max-abs {rel:.2e} (bound 1e-3)"


_CHECKS = (
    ("transforms-unitarity", _check_dft_unitarity),
    ("transforms-roundtrip", _check_dd_roundtrip),
    ("transforms-conjugation", _check_conjugation),
    ("pulse-shape", _check_pulse_shape),
    ("gram-nyquist-identity", _check_nyquist_identity),
    ("gram-toeplitz-psd", _check_gram_structure),
    ("gram-floor-policy", _check_floor_policy),
    ("gram-dd-spectrum", _check_gram_dd_spectrum),
    ("channel-linearity", _check_channel_linearity),
    ("channel-doppler-periodicity", _check_doppler_periodicity),
    ("channel-dd-separability", _check_separability),
    ("precoder-identities", _check_precoder_identities),
    ("waterfill-kkt", _check_waterfill_kkt),
    ("mi-equivalence", _check_mi_equivalence),
    ("pa-dominance", _check_pa_dominance),
    ("link-noiseless", _check_link_noiseless),
    ("waveform-oracle", _check_waveform_oracle),
)


def validate(cfg: SystemConfig | None = None, seed: int | None = None) -> ValidationReport:
    """Run every module's invariant checks at small sizes and report pass/fail.

    The seed (default: the config's master_seed) must lie in [0, 2**64).
    """
    if seed is None:
        seed = cfg.master_seed if cfg is not None else 20240901
    if not 0 <= seed < 2**64:
        raise ValueError(f"validate seed must lie in [0, 2**64), got {seed}")
    results = []
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, seconds=time.perf_counter() - t0, detail=detail))
    return ValidationReport(checks=tuple(results))
