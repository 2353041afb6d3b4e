"""Seeded Monte-Carlo sweeps, self-validation and CSV emission.

Every random draw derives from (master_seed, sweep_point_index, trial_index)
through numpy's SeedSequence (trial_rng), so results are a pure function of
the configuration and seed.

With threads >= 2 a sweep maps its jobs on one pool of that many worker
threads, with OpenBLAS pinned to one thread for the whole sweep, set-up
included; so is a frame of at most SERIAL_BLAS_MAX_MN symbols at threads == 1,
while a larger one keeps the user's count.  CSVs, and LLR dumps run on one
BLAS thread, are byte-identical for any threads; other BLAS counts split
reductions differently and may move gains and LLRs in the last digits.  At
alpha = 1 the identity channel's G, H and gains are exactly I, I and 1, so its
BER CSV does not depend on the BLAS thread count.  Each sweep keeps one
threading.local, on which each thread's gains solves reuse its pair of
buffers and its frame blocks one link.FrameWorkspace.

Per alpha a sweep maps one job per key through one map (_trial_map); the
calling thread reads the results in key order.  The rate sweep maps _solver
over keys (0, t): it draws trial t's channel from trial_rng(master_seed, 0, t)
and returns its gains (subchannel_gains) and that stream, so every alpha
redraws trial t's channel from one stream.  The BER sweep maps _ber_job over
(point, block of trials) keys.  A job power-loads gains (_power_load) and runs
its block through _link_block on the scalar-equivalent link, with no precoder
or receive weights (validate holds it against the matrix link): each entry
draws frames from one stream into its rows of one stacked block
(link.scalar_frames), which is detected once.  On a shared channel (profile
identity) the gains are solved and loaded once per point, and a block is one
entry of FRAME_BLOCK trials' frames from trial_rng(master_seed, point, first
trial).  On a per-trial channel a block is one one-frame entry per trial, on
the gains and stream _solver gives (point, trial), STACK_MN subchannels at
most.  Block boundaries depend only on trial indices.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from ._openblas import thread_controls
from ._version import __version__
from .config import (
    ChannelConfig, SystemConfig, config_digest, snr_linear, validate_config,
)
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
    FrameWorkspace,
    Loading,
    bit_loading,
    format_llr_records,
    hard_detect,
    llr,
    run_frame,
    scalar_frames,
)
from .metrics import BerCounter, RatePoint, ber_accumulate, info_rate, mi_logdet, mi_sum
from .precoder import (
    derive_subchannels, solve_precoder, subchannel_gains, waterfill,
)
from . import pulse
from .pulse import NoiseShape, gram_dd, gram_matrix, noise_shape, rc_autocorr
from .transforms import GridShape, conjugate_by_dd, dd_to_time, dft_matrix, time_to_dd

# frames per block on a shared channel: wide enough to vectorize the draws
# and detection, small enough that the MN x FRAME_BLOCK working set stays minor.
# A block draws from one stream, so changing it changes the identity channel's outputs
FRAME_BLOCK = 64

# subchannels a block of per-trial channels stacks, at least one trial's: enough to run the
# link's small-array work once for several trials, few enough that its temporaries stay minor
STACK_MN = 2048

# the largest frame whose serial sweep runs on one BLAS thread: up to here a second thread barely
# shortens the EVD and spins idle between calls; from about MN = 510 up two threads win
SERIAL_BLAS_MAX_MN = 384


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
    rows: tuple  # of RatePoint or of BerRow
    provenance: str

    def to_csv(self) -> str:
        """The provenance line, a header of the row dataclass's field names and one line per row."""
        header = ",".join(f.name for f in fields(self.rows[0]))
        lines = [f"# provenance {self.provenance}", header]
        lines += [",".join(map(_fmt, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """One CSV cell: a float to 12 significant digits, None empty, anything else through str."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def _provenance(cfg: SystemConfig, digest: str | None) -> str:
    if digest is None:
        digest = config_digest(repr(cfg))
    return (
        f"config_sha256={digest} master_seed={cfg.master_seed} version={__version__} "
        f"snr_def=sigma_x^2/sigma_0^2_per_complex_symbol"
    )


def trial_rng(master_seed: int, point_idx: int, trial_idx: int) -> np.random.Generator:
    """default_rng(SeedSequence(master_seed, spawn_key=(point_idx, trial_idx)))."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(point_idx, trial_idx)))


@contextlib.contextmanager
def single_blas_thread():
    """Pin every loaded OpenBLAS to one thread, restoring its count on exit.

    The count is process-wide, so it also binds BLAS calls other threads make
    meanwhile.  A no-op when no OpenBLAS thread setter is found (a numpy on
    another BLAS).
    """
    controls = thread_controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


@contextlib.contextmanager
def _trial_map(threads: int, mn: int):
    """The map a sweep runs its jobs through, results in order: the builtin map (threads == 1)
    or the map of one worker pool per sweep, whose unstarted jobs are cancelled on exit.

    BLAS is pinned to one thread for the whole context, set-up included, when threads > 1
    or the frame has at most SERIAL_BLAS_MAX_MN symbols.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    with single_blas_thread() if threads > 1 or mn <= SERIAL_BLAS_MAX_MN else contextlib.nullcontext():
        if threads == 1:
            yield map
            return
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            yield pool.map
        finally:
            pool.shutdown(cancel_futures=True)


def _solver(cfg: SystemConfig, noise: NoiseShape, bufs: threading.local):
    """solve(key) for trial key = (point, trial): its gains and its stream past the channel, (xi, phi, rng)."""
    def solve(key: tuple[int, int]) -> tuple:
        rng = trial_rng(cfg.master_seed, *key)
        return *subchannel_gains(channel_for_config(cfg, rng), cfg, noise, bufs), rng
    return solve


def _mi_table(xi: np.ndarray, phi: np.ndarray, snr_db_grid) -> np.ndarray:
    """Per SNR point, one trial's water-filled and unit-power MI (unit powers: sum(phi) = tr G = MN)."""
    return np.array([(mi_sum(xi, waterfill(xi, phi, snr)[0], snr), mi_sum(xi, np.ones(xi.size), snr))
                     for snr in map(snr_linear, snr_db_grid)])


def _block_width(cfg: SystemConfig) -> int:
    """Trials per BER job: FRAME_BLOCK on the identity channel, else as many as STACK_MN subchannels hold."""
    return FRAME_BLOCK if cfg.channel.profile == "identity" else max(1, STACK_MN // cfg.MN)


def work_items(cfg: SystemConfig, command: str) -> int:
    """Jobs a sweep's pool maps at once: a rate sweep's trials, or a BER alpha's (point, block) pairs."""
    if command == "rate":
        return cfg.trials
    return len(cfg.snr_db_grid) * -(-cfg.trials // _block_width(cfg))


def run_rate_sweep(cfg: SystemConfig, threads: int = 1, digest: str | None = None) -> SweepResult:
    """Information-rate curves: water-filled, uniform-power and Nyquist baselines.

    One channel realization per trial index, drawn again for each alpha from
    the trial's stream and so shared by every (alpha, mode) curve: curves
    differ only in the transceiver, not the fading ensemble.
    Each distinct alpha of the grid, and alpha = 1, is solved once per trial
    and emits all of its rows.  The two alpha = 1 baselines (same roll-off,
    and the rectangular beta = 0 bound) are emitted as mode "nyquist", both
    water-filled: at alpha = 1 neither G nor H depends on beta, so they share
    one MI and differ only in the time-bandwidth normalization.  There
    G = I, and the gains are the eigenvalues of the band H^H H (subchannel_gains).
    """
    validate_config(cfg)
    shape = GridShape(cfg.M, cfg.N)
    rows: list[RatePoint] = []
    bufs = threading.local()  # each worker's gains buffers
    with _trial_map(threads, cfg.MN) as trial_map:
        for alpha in sorted({*cfg.alpha_grid, 1.0}):
            cfg_a = cfg.with_alpha(alpha)
            solve = _solver(cfg_a, gram_matrix(shape, alpha, cfg.beta), bufs)
            solved = trial_map(solve, [(0, t) for t in range(cfg.trials)])
            mean_mi = np.mean([_mi_table(xi, phi, cfg.snr_db_grid) for xi, phi, _ in solved], axis=0)
            del solve, solved  # and the noise shape, before the next alpha's is factored

            # (config, mode, MI column) of each row this alpha emits
            curves = [(cfg_a, "pa", 0), (cfg_a, "no_pa", 1)] if alpha in cfg.alpha_grid else []
            if alpha == 1.0:
                curves += [(cfg_a, "nyquist", 0), (replace(cfg_a, beta=0.0), "nyquist", 0)]
            for i, snr_db in enumerate(cfg.snr_db_grid):
                for cfg_pt, mode, col in curves:
                    mi = float(mean_mi[i, col])
                    rows.append(
                        RatePoint(
                            snr_db=snr_db, alpha=alpha, beta=cfg_pt.beta, mode=mode,
                            mi_bits=mi, rate_bps_hz=info_rate(mi, cfg_pt), seeds=cfg.trials,
                        )
                    )
    rows.sort(key=lambda r: (r.alpha, r.snr_db, r.beta, r.mode))
    return SweepResult(rows=tuple(rows), provenance=_provenance(cfg, digest))


def run_ber_sweep(
    cfg: SystemConfig,
    threads: int = 1,
    digest: str | None = None,
    llr_sink=None,
) -> SweepResult:
    """Uncoded BER over the (alpha, snr) grid with exact bit and error counts.

    A fresh channel realization is drawn per trial, except on the identity
    channel, whose gains are solved once per alpha and power-loaded per SNR
    point; frames run on the scalar-equivalent link.  When llr_sink (a
    writable text file) is given, per-frame exact LLR records are streamed to
    it in the delimited format of the link layer.
    """
    validate_config(cfg)
    soft = llr_sink is not None
    width = _block_width(cfg)
    blocks = [range(t, min(t + width, cfg.trials)) for t in range(0, cfg.trials, width)]
    rows: list[BerRow] = []
    bufs = threading.local()  # each thread's gains buffers and frame workspace
    with _trial_map(threads, cfg.MN) as trial_map:
        if soft:
            llr_sink.write(f"# provenance {_provenance(cfg, digest)}\n")
            llr_sink.write(LLR_DUMP_HEADER + "\n")

        for a, alpha in enumerate(cfg.alpha_grid):
            points = range(a * len(cfg.snr_db_grid), (a + 1) * len(cfg.snr_db_grid))
            job = _ber_job(cfg.with_alpha(alpha), gram_matrix(GridShape(cfg.M, cfg.N), alpha, cfg.beta), soft, bufs)
            results = trial_map(job, [(p, block) for p in points for block in blocks])
            for snr_db in cfg.snr_db_grid:
                total = BerCounter()
                for counter, records in itertools.islice(results, len(blocks)):
                    total = total.merge(counter)
                    for rec in records:
                        if rec:
                            llr_sink.write(rec + "\n")
                rows.append(BerRow(snr_db=snr_db, alpha=alpha, beta=cfg.beta, target_rate=cfg.target_rate_bps_hz,
                                   bits=total.total, errors=total.errors, ber=total.ber, trials=cfg.trials))
    rows.sort(key=lambda r: (r.alpha, r.snr_db))
    return SweepResult(rows=tuple(rows), provenance=_provenance(cfg, digest))


def _ber_job(cfg: SystemConfig, noise: NoiseShape, soft: bool, bufs: threading.local):
    """job(key) for key = (point, block of trials) at cfg's alpha, points alpha-major: the block's
    _link_block (counter, records).  On the identity channel a block is one entry of len(block) frames
    from its first trial's stream, on its point's load, made here once; on a per-trial channel each
    trial is a one-frame entry on the gains and stream _solver gives it."""
    snrs = [snr_linear(snr_db) for snr_db in cfg.snr_db_grid]
    if shared := cfg.channel.profile == "identity":
        xi, phi = subchannel_gains(identity_channel(), cfg, noise, bufs)
        loads = [(xi, *_power_load(xi, phi, snr, cfg)) for snr in snrs]
    else:
        solve = _solver(cfg, noise, bufs)

    def job(key: tuple[int, range]) -> tuple[BerCounter, list[str]]:
        point, block = key
        i = point % len(snrs)  # the point's place in the SNR grid
        if shared:
            entries = [(block.start, *loads[i], trial_rng(cfg.master_seed, point, block.start))]
        else:
            entries = [(t, xi, *_power_load(xi, phi, snrs[i], cfg), rng)
                       for t in block for xi, phi, rng in [solve((point, t))]]
        if not hasattr(bufs, "frames"):  # this thread's frame workspace, made on its first block
            bufs.frames = FrameWorkspace(cfg.MN, _block_width(cfg))
        return _link_block(entries, len(block) if shared else 1, snrs[i], soft, bufs.frames)
    return job


def _power_load(xi: np.ndarray, phi: np.ndarray, snr: float, cfg: SystemConfig) -> tuple[np.ndarray, Loading]:
    """Gains' water-filled powers gamma at snr and the loading bit_loading gives them."""
    gamma = waterfill(xi, phi, snr)[0]
    return gamma, bit_loading(xi, gamma, snr, cfg.target_rate_bps_hz, cfg)


def _link_block(entries: list, k: int, snr: float, soft: bool,
                workspace: FrameWorkspace) -> tuple[BerCounter, list[str]]:
    """One block of frames on the scalar-equivalent link.  Each entry (first trial, xi, gamma, loading, rng)
    draws k frames from rng (scalar_frames) into its rows of one stacked y_d, in the workspace; detection,
    the error count and, if soft, the LLRs then run once on the stacked subchannels.  Its counter and, if
    soft, the LLR records, those of an entry's frame i as trial first + i."""
    sigma0_sq = 1.0 / snr  # sigma_x^2 = 1
    _, xis, gammas, loadings, _ = zip(*entries)
    mn = xis[0].size
    y_d = workspace.y_d[: k * mn * len(entries)].reshape(k, -1).T
    bits = [scalar_frames(ld, x, g, sigma0_sq, rng, k, workspace=workspace, out=y_d[e * mn : (e + 1) * mn])[0]
            for e, (_, x, g, ld, rng) in enumerate(entries)]
    tx_bits = bits[0] if len(bits) == 1 else np.concatenate(bits)
    xi, gamma = np.concatenate(xis), np.concatenate(gammas)
    loading = loadings[0] if len(loadings) == 1 else Loading(np.concatenate([ld.bits_per_symbol for ld in loadings]))
    counter = ber_accumulate(tx_bits, hard_detect(y_d, xi, gamma, loading, workspace=workspace), BerCounter())
    if not soft:
        return counter, []
    llrs = np.split(llr(y_d, xi, gamma, loading, sigma0_sq), np.cumsum([ld.total_bits for ld in loadings])[:-1])
    return counter, [format_llr_records(first + i, ld, v[:, i])
                     for (first, *_), ld, v in zip(entries, loadings, llrs) for i in range(k)]


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


def _eva_instance(
    shape: GridShape, alpha: float, seed: int, stream: int
) -> tuple[NoiseShape, SystemConfig, np.ndarray]:
    """Noise shape, config and effective channel H of one EVA instance, its
    channel drawn from trial_rng(seed, 0, stream)."""
    cfg = _eva_cfg(shape, alpha, seed)
    chan = channel_for_config(cfg, trial_rng(seed, 0, stream))
    return gram_matrix(shape, alpha, cfg.beta), cfg, effective_channel(chan, cfg)


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
    t = np.linspace(-8.0, 8.0, 2001)
    g = np.asarray(rc_autocorr(t, 0.25))
    even = float(np.abs(g - g[::-1]).max())
    inside = bool(np.all(np.abs(g) <= 1.0 + 1e-12))
    peak_only = bool(np.all(np.abs(g[np.abs(t) > 1e-9]) < 1.0))
    return even <= 1e-12 and inside and peak_only, (
        f"evenness {even:.2e}, |g|<=1 {inside}, strict interior {peak_only}"
    )


def _check_nyquist_identity(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        noise = gram_matrix(shape, 1.0, 0.25)
        worst = max(worst, float(np.abs(noise.dense_g() - np.eye(shape.MN)).max()))
        worst = max(worst, float(np.abs(gram_dd(noise, shape) - np.eye(shape.MN)).max()))
    return worst <= 1e-12, f"max deviation from identity {worst:.2e}"


def _check_gram_structure(seed: int) -> tuple[bool, str]:
    alpha, beta = 0.8, 0.25  # the admissible edge alpha = 1/(1+beta)
    ok = True
    min_eig = np.inf
    for shape in _VALIDATE_SHAPES:
        g = gram_matrix(shape, alpha, beta).dense_g()
        idx = np.arange(shape.MN)
        lags = np.abs(np.subtract.outer(idx, idx))
        ok &= bool(np.array_equal(g, g[0][lags]))
        expect = rc_autocorr(alpha, beta)
        ok &= abs(g[0, 1] - expect) <= 1e-15
        min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
    ok &= min_eig >= -1e-9
    return ok, f"Toeplitz structure ok={ok}, min eigenvalue {min_eig:.2e} (bound -1e-9)"


def _check_floor_policy(seed: int) -> tuple[bool, str]:
    # the all-ones G: eigenvalues 8 and seven zeros, each clamped, deliberately, so not logged
    pulse.log.addFilter(hush := lambda record: False)
    try:
        noise = noise_shape(np.ones(8))
    finally:
        pulse.log.removeFilter(hush)
    lam_min = float(noise.lam.min())
    ok = noise.floored == 7 and lam_min == pulse.EIG_FLOOR_REL * float(noise.raw.max()) > 0.0
    return ok, f"floored spectrum min {lam_min:.2e}, clamped {noise.floored} of 7 value(s)"


def _check_gram_dd_spectrum(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for shape in _VALIDATE_SHAPES:
        noise = gram_matrix(shape, 0.85, 0.25)
        wg = np.sort(np.linalg.eigvalsh(noise.dense_g()))
        we = np.sort(np.linalg.eigvalsh(gram_dd(noise, shape)))
        worst = max(worst, float(np.abs(wg - we).max()))
    return worst <= 1e-9, f"max eigenvalue mismatch {worst:.2e} (bound 1e-9)"


def _check_channel_linearity(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    cfg = _eva_cfg(shape, 0.9, seed)
    chan = channel_for_config(cfg, trial_rng(seed, 0, 1))
    h = effective_channel(chan, cfg)
    scaled = DdChannel(paths=tuple(replace(p, gain=2.5 * p.gain) for p in chan.paths))
    lin = float(np.abs(effective_channel(scaled, cfg) - 2.5 * h).max())
    fro = abs(np.linalg.norm(conjugate_by_dd(h, shape)) - np.linalg.norm(h)) / np.linalg.norm(h)
    ok = lin <= 1e-12 and fro <= 1e-10
    return ok, f"gain linearity {lin:.2e}, Frobenius preservation {fro:.2e}"


def _check_doppler_periodicity(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    cfg = replace(_eva_cfg(shape, 0.9, seed), cp_mode="literal")
    chan = channel_for_config(cfg, trial_rng(seed, 0, 2))
    shifted = DdChannel(
        paths=tuple(replace(p, doppler_int=p.doppler_int + shape.MN) for p in chan.paths)
    )
    res = float(np.abs(effective_channel(shifted, cfg) - effective_channel(chan, cfg)).max())
    return res <= 1e-9, f"Doppler-tap periodicity residual {res:.2e}"


def _check_separability(seed: int) -> tuple[bool, str]:
    shape = GridShape(8, 4)
    cfg = SystemConfig(
        M=8, N=4, alpha_grid=(1.0,), beta=0.25, cp_len=4, master_seed=seed,
    )
    chan = synthetic_channel(5, 3, 1, False, trial_rng(seed, 0, 3))
    impulse = np.zeros(shape.MN, complex)
    impulse[0] = 1.0
    resp = conjugate_by_dd(effective_channel(chan, cfg), shape) @ impulse
    support = int(np.count_nonzero(np.abs(resp) > 1e-9))
    return support == chan.num_paths, (
        f"impulse response support {support}, expected {chan.num_paths} paths"
    )


def _check_precoder_identities(seed: int) -> tuple[bool, str]:
    detail = []
    ok = True
    for shape in _VALIDATE_SHAPES:
        noise, _, h = _eva_instance(shape, 0.9, seed, 4)
        sol = solve_precoder(h, noise, 10.0)
        # the delay-Doppler pair P = (F_N kron I_M) P_t, D = D_t (F_N kron I_M)^H
        kron = _kron_dd(shape)
        p, d = kron @ sol.P, sol.sub.D @ kron.conj().T
        bound = 1e-8 * float(sol.xi.max())
        h_eq = conjugate_by_dd(h, shape)
        r1 = float(np.abs(d @ h_eq @ p - np.diag(sol.xi * np.sqrt(sol.gamma))).max())
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
        gamma, mu = waterfill(xi, phi, snr)
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
        noise, _, h = _eva_instance(shape, 0.85, seed, 5)
        snr = 10.0
        sol = solve_precoder(h, noise, snr)
        p = _kron_dd(shape) @ sol.P  # the delay-Doppler precoder
        h_eq = conjugate_by_dd(h, shape)
        direct = mi_logdet(h_eq, gram_dd(noise, shape), p @ p.conj().T, 1.0 / snr)
        diag = mi_sum(sol.xi, sol.gamma, snr)
        worst = max(worst, abs(direct - diag) / max(diag, 1e-12))
    return worst <= 1e-6, f"max relative MI mismatch {worst:.2e} (bound 1e-6)"


def _check_pa_dominance(seed: int) -> tuple[bool, str]:
    worst = -np.inf
    for shape in _VALIDATE_SHAPES:
        noise, _, h = _eva_instance(shape, 0.85, seed, 6)
        sol = derive_subchannels(h, noise)
        for snr_db in (0.0, 10.0, 20.0):
            snr = snr_linear(snr_db)
            gamma, _ = waterfill(sol.xi, sol.phi, snr)
            gap = mi_sum(sol.xi, np.ones(sol.xi.size), snr) - mi_sum(sol.xi, gamma, snr)
            worst = max(worst, gap)
    return worst <= 1e-9, f"max uniform-minus-waterfilled MI gap {worst:.2e} (bound 1e-9)"


def _check_link_noiseless(seed: int) -> tuple[bool, str]:
    total_err = 0
    for shape in _VALIDATE_SHAPES:
        noise, cfg, h = _eva_instance(shape, 0.9, seed, 7)
        sol = solve_precoder(h, noise, 100.0)
        loading = bit_loading(sol.xi, sol.gamma, 100.0, None, cfg)
        frame = run_frame(loading, sol, h, 0.0, trial_rng(seed, 1, 7), 1)
        rx = hard_detect(frame.y_d, sol.xi, sol.gamma, loading)
        total_err += int(np.count_nonzero(rx != frame.tx_bits))
    return total_err == 0, f"{total_err} bit errors across noiseless frames"


def _check_llr_calibration(seed: int) -> tuple[bool, str]:
    """Matrix-link hard-decision errors against the count the exact LLRs predict.

    An exact LLR L makes its hard decision wrong with probability
    p = 1/(1 + e^|L|), so the errors of independent bits have mean sum(p)
    and variance sum(p(1 - p)) for any channel and seed (Land, Hoeher et al.,
    2005).  QPSK makes the hard decision the LLR's sign.  One 2 dB point over
    four EVA instances of 256 frames each.
    """
    snr = snr_linear(2.0)
    errors, mean, var = 0, 0.0, 0.0
    for stream in range(9, 13):
        noise, cfg, h = _eva_instance(GridShape(16, 4), 0.9, seed, stream)
        sol = solve_precoder(h, noise, snr)
        loading = bit_loading(sol.xi, sol.gamma, snr, None, cfg)
        frame = run_frame(loading, sol, h, 1.0 / snr, trial_rng(seed, stream, 0), 256)
        rx = hard_detect(frame.y_d, sol.xi, sol.gamma, loading)
        soft = llr(frame.y_d, sol.xi, sol.gamma, loading, 1.0 / snr)
        p = np.exp(-np.logaddexp(0.0, np.abs(soft)))  # 1/(1 + e^|L|) without overflow
        errors += int(np.count_nonzero(rx != frame.tx_bits))
        mean += float(p.sum())
        var += float((p * (1.0 - p)).sum())
    z = (errors - mean) / var**0.5
    return abs(z) <= 5.0, f"{errors} errors, LLRs predict {mean:.1f}: z = {z:+.2f} (bound 5)"


def _check_waveform_oracle(seed: int) -> tuple[bool, str]:
    shape = GridShape(16, 4)
    cfg = _eva_cfg(shape, 0.9, seed, nu_max=50.0)
    chan = channel_for_config(cfg, trial_rng(seed, 0, 8))
    rng = trial_rng(seed, 1, 8)
    x_p = (rng.standard_normal(shape.MN) + 1j * rng.standard_normal(shape.MN)) / np.sqrt(2.0)
    z_model = effective_channel(chan, cfg) @ dd_to_time(x_p, shape)
    z_wave = waveform_oracle(x_p, chan, cfg)
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
    ("link-llr-calibration", _check_llr_calibration),
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
