"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the observed figure and its bound (visible with -s
or in the captured output section)."""

import time
from dataclasses import replace
from math import erfc, sqrt

import numpy as np

from otfsftn import (
    ChannelConfig,
    GridShape,
    Loading,
    SystemConfig,
    bit_loading,
    conjugate_by_dd,
    derive_subchannels,
    effective_channel,
    eva_channel,
    finalize,
    frame_energy,
    gram_dd,
    gram_matrix,
    map_bits,
    mi_logdet,
    mi_sum,
    run_ber_sweep,
    run_rate_sweep,
    solve_precoder,
    transmission_rate,
    transmit,
    waterfill,
    waveform_oracle,
)
from otfsftn.harness import trial_rng
from otfsftn.transforms import dd_to_time, dft_matrix

from conftest import complex_gaussian, eva_config, identity_config


def report(ok: bool, num: int, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_nyquist_degeneracy():
    t0 = time.perf_counter()
    shape = GridShape(128, 12)  # MN = 1536
    noise = gram_matrix(shape, 1.0, 0.25)
    dev = float(np.abs(noise.dense_g() - np.eye(shape.MN)).max())
    elapsed = time.perf_counter() - t0
    report(
        dev <= 1e-12 and elapsed < 5.0, 1, "nyquist-degeneracy",
        f"max|G - I| = {dev:.2e} (bound 1e-12) in {elapsed:.2f} s (< 5 s) at MN = 1536",
    )


def test_criterion_02_diagonalization_identities():
    t0 = time.perf_counter()
    shape = GridShape(32, 6)
    noise = gram_matrix(shape, 0.9, 0.25)
    g_eq = gram_dd(noise, shape)
    kron = np.kron(dft_matrix(shape.N), np.eye(shape.M))  # F = F_N kron I_M
    worst = 0.0
    for seed in range(10):
        cfg = eva_config(32, 6, 0.9, nu_max=2000.0, seed=seed)
        chan = eva_channel(2000.0, cfg, trial_rng(seed, 0, 0))
        h = effective_channel(chan, cfg)
        sol = solve_precoder(h, noise, snr=10.0)
        # the delay-Doppler pair P = F P_t, D = D_t F^H
        p, d = kron @ sol.P, sol.sub.D @ kron.conj().T
        bound = 1e-8 * float(sol.xi.max())
        h_eq = conjugate_by_dd(h, shape)
        r1 = float(np.abs(d @ h_eq @ p - np.diag(sol.xi * np.sqrt(sol.gamma))).max())
        r2 = float(np.abs(d @ g_eq @ d.conj().T - np.diag(sol.xi)).max())
        worst = max(worst, r1 / bound, r2 / bound)
    elapsed = time.perf_counter() - t0
    report(
        worst <= 1.0 and elapsed < 60.0, 2, "diagonalization-identities",
        f"worst residual = {worst:.2e} of the 1e-8*max(xi) bound over 10 EVA "
        f"instances at (32, 6), {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_03_waterfilling_optimality():
    shape = GridShape(8, 6)  # MN = 48
    noise = gram_matrix(shape, 0.85, 0.25)
    cfg = eva_config(8, 6, 0.85, nu_max=2000.0, seed=42)
    chan = eva_channel(2000.0, cfg, trial_rng(42, 0, 0))
    h = effective_channel(chan, cfg)
    sol = derive_subchannels(h, noise)
    snr = 10.0
    gamma, mu = waterfill(sol.xi, sol.phi, snr)

    residual = abs(float(gamma @ sol.phi) - shape.MN)
    act = gamma > 0.0
    kkt = float(np.abs(sol.phi[act] * (gamma[act] + 1.0 / (sol.xi[act] * snr)) - mu).max()) / mu

    best = mi_sum(sol.xi, gamma, snr)
    rng = np.random.default_rng(7)
    exceed = 0
    for _ in range(100):
        pert = np.maximum(gamma + rng.normal(0.0, 0.25, shape.MN), 0.0)
        pert *= shape.MN / float(pert @ sol.phi)
        if mi_sum(sol.xi, pert, snr) > best + 1e-9:
            exceed += 1
    ok = residual <= 1e-10 * shape.MN and kkt <= 1e-8 and exceed == 0
    report(
        ok, 3, "waterfilling-optimality",
        f"constraint residual {residual:.2e} (bound {1e-10 * shape.MN:.1e}), KKT "
        f"{kkt:.2e} (bound 1e-8), {exceed}/100 perturbations beat the optimum",
    )


def test_criterion_04_mi_formula_equivalence():
    shape = GridShape(16, 4)
    kron = np.kron(dft_matrix(shape.N), np.eye(shape.M))
    worst = 0.0
    for alpha in (0.8, 0.9):
        noise = gram_matrix(shape, alpha, 0.25)
        g_eq = gram_dd(noise, shape)
        for seed in range(20):
            cfg = eva_config(16, 4, alpha, nu_max=2000.0, seed=seed)
            chan = eva_channel(2000.0, cfg, trial_rng(seed, 1, 0))
            h = effective_channel(chan, cfg)
            sub = derive_subchannels(h, noise)
            h_eq = conjugate_by_dd(h, shape)
            for snr_db in (0.0, 10.0, 20.0):
                snr = 10.0 ** (snr_db / 10.0)
                gamma, _ = waterfill(sub.xi, sub.phi, snr)
                p = kron @ finalize(sub, gamma).P  # the delay-Doppler precoder
                direct = mi_logdet(h_eq, g_eq, p @ p.conj().T, 1.0 / snr)
                diag = mi_sum(sub.xi, gamma, snr)
                worst = max(worst, abs(direct - diag) / max(diag, 1e-12))
    report(
        worst <= 1e-6, 4, "mi-formula-equivalence",
        f"max relative log-det vs diagonalized-sum mismatch {worst:.2e} "
        f"(bound 1e-6) over 2 alphas x 20 seeds x 3 SNRs at (16, 4)",
    )


def test_criterion_05_rate_curve_ordering():
    t0 = time.perf_counter()
    cfg = SystemConfig(
        M=64, N=6, alpha_grid=(0.8, 0.9), beta=0.25,
        snr_db_grid=(0.0, 5.0, 10.0, 15.0, 20.0), master_seed=1, trials=20,
        cp_len=4,
        channel=ChannelConfig(profile="synthetic", num_paths=20, l_max=3, k_max=5, frac_doppler=True),
    )
    result = run_rate_sweep(cfg)
    rows = {(r.alpha, r.beta, r.mode, r.snr_db): r.rate_bps_hz for r in result.rows}

    pa_dominates = all(
        rows[(a, 0.25, "pa", s)] >= rows[(a, 0.25, "no_pa", s)]
        for a in (0.8, 0.9)
        for s in cfg.snr_db_grid
    )
    ordering = all(
        rows[(0.8, 0.25, "pa", s)] >= rows[(0.9, 0.25, "pa", s)] >= rows[(1.0, 0.25, "nyquist", s)]
        for s in (10.0, 15.0, 20.0)
    )
    bounded = all(
        rows[(a, 0.25, m, s)] <= rows[(1.0, 0.0, "nyquist", s)]
        for (a, b, m, s) in [
            (0.8, 0.25, "pa", s) for s in (10.0, 15.0, 20.0)
        ] + [(0.9, 0.25, "pa", s) for s in (10.0, 15.0, 20.0)]
        + [(1.0, 0.25, "nyquist", s) for s in (10.0, 15.0, 20.0)]
    )
    elapsed = time.perf_counter() - t0
    report(
        pa_dominates and ordering and bounded and elapsed < 600.0,
        5, "rate-curve-ordering",
        f"PA >= no-PA everywhere: {pa_dominates}; R(0.8) >= R(0.9) >= R(Nyquist RRC) "
        f"at SNR >= 10 dB: {ordering}; all under the beta=0 bound: {bounded}; "
        f"{elapsed:.1f} s (< 600 s), M=64 N=6, 20 seeds",
    )


def test_criterion_06_waveform_oracle_crosscheck():
    shape = GridShape(16, 4)
    cfg = eva_config(16, 4, 0.9, nu_max=100.0, seed=5)
    chan = eva_channel(100.0, cfg, trial_rng(5, 0, 0))
    h = effective_channel(chan, replace(cfg, cp_mode="circular"))
    rng = np.random.default_rng(55)
    x_p = complex_gaussian(rng, shape.MN)
    z_model = h @ dd_to_time(x_p, shape)
    z_wave = waveform_oracle(x_p, chan, cfg)
    rel = float(np.abs(z_model - z_wave).max() / np.abs(z_wave).max())
    report(
        rel <= 1e-3, 6, "waveform-oracle-crosscheck",
        f"matrix-model vs brute-force waveform relative max-abs {rel:.2e} "
        f"(bound 1e-3) at (16, 4), alpha 0.9, EVA, oversample 16, span 32",
    )


def test_criterion_07_awgn_ber_sanity():
    t0 = time.perf_counter()
    cfg = SystemConfig(
        M=32, N=16, alpha_grid=(1.0,), beta=0.25,
        snr_db_grid=(0.0, 2.0, 4.0, 6.0, 8.0), master_seed=13, trials=1000,
    )
    result = run_ber_sweep(cfg)  # identity channel, QPSK on every subchannel
    lines = []
    ok = True
    for row in result.rows:
        snr = 10.0 ** (row.snr_db / 10.0)
        p = 0.5 * erfc(sqrt(snr / 2.0))  # Q(sqrt(2 Eb/N0)) for Gray QPSK
        assert p >= 1e-3
        assert row.bits >= 1_000_000
        se = sqrt(p * (1.0 - p) / row.bits)
        ok &= abs(row.ber - p) <= 3.0 * se
        lines.append(f"{row.snr_db:g} dB: {row.ber:.3e} vs {p:.3e} (3se {3*se:.1e})")
    elapsed = time.perf_counter() - t0
    report(
        ok and elapsed < 300.0, 7, "awgn-ber-sanity",
        "; ".join(lines) + f"; {elapsed:.0f} s (< 300 s), >= 1e6 bits per point",
    )


def test_criterion_08_energy_constraint():
    shape = GridShape(8, 6)
    noise = gram_matrix(shape, 0.85, 0.25)
    cfg = eva_config(8, 6, 0.85, nu_max=2000.0, seed=3)
    chan = eva_channel(2000.0, cfg, trial_rng(3, 0, 0))
    h = effective_channel(chan, cfg)
    sol = solve_precoder(h, noise, snr=10.0)
    loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
    rng = np.random.default_rng(31)
    frames = 10_000
    vals = np.empty(frames)
    for i in range(frames):
        bits = rng.integers(0, 2, loading.total_bits)
        s = transmit(map_bits(bits, loading), sol)
        vals[i] = frame_energy(s, noise)
    rel = abs(vals.mean() - shape.MN) / shape.MN
    report(
        rel <= 0.01, 8, "energy-constraint",
        f"mean frame energy over 10^4 water-filled frames = {vals.mean():.3f} "
        f"vs MN = {shape.MN} ({100*rel:.2f}%, bound 1%)",
    )


def test_criterion_09_transmission_rate_anchor():
    cfg = identity_config(8, 6, 0.8, beta=0.25)
    loading = Loading(bits_per_symbol=np.full(cfg.MN, 2))
    rt = transmission_rate(loading, cfg)
    report(
        rt == 1.5, 9, "transmission-rate-anchor",
        f"all-QPSK loading at beta 0.25, alpha 0.8 gives R_t = {rt!r} (exactly 1.5)",
    )


def test_criterion_10_determinism_across_threads():
    cfg = SystemConfig(
        M=16, N=4, alpha_grid=(0.9,), beta=0.25, delta_f_hz=30e3,
        snr_db_grid=(6.0, 10.0), master_seed=77, trials=8, cp_len=3,
        channel=ChannelConfig(profile="eva", nu_max_hz=1000.0),
    )
    csv_1 = run_ber_sweep(cfg, threads=1).to_csv()
    csv_4 = run_ber_sweep(cfg, threads=4).to_csv()
    report(
        csv_1.encode() == csv_4.encode(), 10, "determinism-across-threads",
        f"BER CSV byte-identical for 1 vs 4 worker threads ({len(csv_1)} bytes)",
    )
