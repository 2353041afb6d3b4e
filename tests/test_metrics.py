import numpy as np
import pytest

from otfsftn import (
    BerCounter,
    GridShape,
    Loading,
    ber_accumulate,
    conjugate_by_dd,
    derive_subchannels,
    dft_matrix,
    effective_channel,
    eva_channel,
    finalize,
    frame_energy,
    gram_dd,
    gram_matrix,
    info_rate,
    mi_logdet,
    mi_sum,
    transmission_rate,
    waterfill,
)

from conftest import complex_gaussian, eva_config, identity_config


class TestMiLogdet:
    def test_awgn_closed_form(self):
        shape = GridShape(4, 2)
        eye = np.eye(shape.MN, dtype=complex)
        snr = 10.0
        mi = mi_logdet(eye, eye, eye, sigma0_sq=1.0 / snr)
        assert abs(mi - shape.MN * np.log2(1.0 + snr)) <= 1e-9

    def test_zero_input_covariance(self):
        eye = np.eye(8, dtype=complex)
        assert mi_logdet(eye, eye, np.zeros((8, 8), complex), 0.1) == 0.0

    def test_rejects_non_psd(self, rng):
        eye = np.eye(4, dtype=complex)
        bad = -np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="PSD"):
            mi_logdet(eye, eye, bad, 1.0)

    @pytest.mark.parametrize("m,n", [(16, 4), (4, 2)])
    @pytest.mark.parametrize("alpha", [0.8, 0.9])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_equals_diagonalized_sum(self, m, n, alpha, snr_db):
        # the two formulations are mutual oracles; 20 seeds per shape
        shape = GridShape(m, n)
        noise = gram_matrix(shape, alpha, 0.25)
        g_eq = gram_dd(noise, shape)
        kron = np.kron(dft_matrix(shape.N), np.eye(shape.M))
        snr = 10.0 ** (snr_db / 10.0)
        for seed in range(20):
            cfg = eva_config(m, n, alpha, seed=seed)
            chan = eva_channel(2000.0, cfg, np.random.default_rng(seed))
            h = effective_channel(chan, cfg)
            sub = derive_subchannels(h, noise)
            gamma, _ = waterfill(sub.xi, sub.phi, snr)
            p = kron @ finalize(sub, gamma).P  # the delay-Doppler precoder
            direct = mi_logdet(conjugate_by_dd(h, shape), g_eq, p @ p.conj().T, 1.0 / snr)
            diag = mi_sum(sub.xi, gamma, snr)
            assert abs(direct - diag) <= 1e-6 * max(diag, 1e-9)


class TestMiSum:
    def test_zero_power(self):
        assert mi_sum(np.ones(4), np.zeros(4), 10.0) == 0.0

    def test_single_unit_term(self):
        assert abs(mi_sum(np.array([1.0]), np.array([1.0]), 1.0) - 1.0) <= 1e-15

    def test_skips_inactive_terms(self):
        xi = np.array([1.0, 0.0, 2.0])
        gamma = np.array([1.0, 5.0, 0.0])
        assert abs(mi_sum(xi, gamma, 1.0) - np.log2(2.0)) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mi_sum(np.array([-0.1]), np.array([1.0]), 1.0)


class TestRates:
    def test_degenerate_shannon_rate(self):
        cfg = identity_config(4, 2, 1.0, beta=0.0)
        snr = 10.0
        mi = cfg.MN * np.log2(1.0 + snr)
        assert abs(info_rate(mi, cfg) - np.log2(1.0 + snr)) <= 1e-12

    def test_alpha_scaling(self):
        mi = 100.0
        r1 = info_rate(mi, identity_config(4, 2, 1.0))
        r2 = info_rate(mi, identity_config(4, 2, 0.8))
        assert abs(r2 - r1 / 0.8) <= 1e-12

    def test_unit_rate_arithmetic(self):
        cfg = identity_config(4, 2, 0.8, beta=0.25)
        assert info_rate(float(cfg.MN), cfg) == 1.0

    def test_transmission_rate_anchor(self):
        # all-QPSK at beta = 0.25, alpha = 0.8 is exactly 1.5 bps/Hz
        cfg = identity_config(8, 6, 0.8, beta=0.25)
        loading = Loading(bits_per_symbol=np.full(cfg.MN, 2))
        assert transmission_rate(loading, cfg) == 1.5

    def test_transmission_rate_linear(self):
        cfg = identity_config(4, 2, 0.9, beta=0.25)
        l1 = Loading(bits_per_symbol=np.full(cfg.MN, 2))
        l2 = Loading(bits_per_symbol=np.full(cfg.MN, 4))
        assert abs(transmission_rate(l2, cfg) - 2.0 * transmission_rate(l1, cfg)) <= 1e-15

    def test_empty_loading(self):
        cfg = identity_config(4, 2, 0.9)
        assert transmission_rate(Loading(bits_per_symbol=np.zeros(8, int)), cfg) == 0.0


class TestFrameEnergy:
    def test_nyquist_is_plain_norm(self, rng):
        shape = GridShape(4, 2)
        noise = gram_matrix(shape, 1.0, 0.25)
        s = complex_gaussian(rng, shape.MN)
        assert abs(frame_energy(s, noise) - np.linalg.norm(s) ** 2) <= 1e-12

    def test_zero_signal(self):
        noise = gram_matrix(GridShape(4, 2), 0.9, 0.25)
        assert frame_energy(np.zeros(8, complex), noise) == 0.0

    def test_dimension_mismatch(self):
        noise = gram_matrix(GridShape(4, 2), 0.9, 0.25)
        with pytest.raises(ValueError):
            frame_energy(np.zeros(5, complex), noise)


class TestBerCounter:
    def test_identical_streams(self):
        c = ber_accumulate(np.zeros(100, int), np.zeros(100, int), BerCounter())
        assert c.errors == 0 and c.total == 100 and c.ber == 0.0

    def test_complemented_stream(self):
        tx = np.zeros(50, int)
        c = ber_accumulate(tx, 1 - tx, BerCounter())
        assert c.errors == 50 and c.ber == 1.0

    def test_known_flip_count(self, rng):
        tx = rng.integers(0, 2, 1000)
        rx = tx.copy()
        rx[[10, 500, 999]] ^= 1
        c = ber_accumulate(tx, rx, BerCounter())
        assert c.errors == 3 and c.total == 1000 and c.ber == 0.003

    def test_merge_associative(self):
        a = BerCounter(1, 10)
        b = BerCounter(2, 20)
        c = BerCounter(3, 30)
        assert a.merge(b).merge(c) == c.merge(b).merge(a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ber_accumulate(np.zeros(3, int), np.zeros(4, int), BerCounter())


class TestPaDominance:
    def test_waterfilling_beats_uniform(self):
        shape = GridShape(16, 4)
        noise = gram_matrix(shape, 0.85, 0.25)
        for seed in range(5):
            cfg = eva_config(16, 4, 0.85, seed=seed)
            chan = eva_channel(2000.0, cfg, np.random.default_rng(seed + 100))
            h = effective_channel(chan, cfg)
            sol = derive_subchannels(h, noise)
            for snr_db in (0.0, 10.0, 20.0):
                snr = 10.0 ** (snr_db / 10.0)
                gamma, _ = waterfill(sol.xi, sol.phi, snr)
                uni = np.ones(sol.xi.size)
                assert mi_sum(sol.xi, gamma, snr) >= mi_sum(sol.xi, uni, snr) - 1e-9
