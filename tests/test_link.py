import itertools

import numpy as np
import pytest

from otfsftn import (
    GridShape,
    Loading,
    PulseSpec,
    bit_loading,
    colored_noise,
    constellation,
    dft_matrix,
    effective_channel,
    eva_channel,
    frame_energy,
    gram_matrix,
    hard_detect,
    identity_channel,
    llr,
    map_bits,
    propagate,
    rc_autocorr,
    receive,
    run_frame,
    solve_precoder,
    transmit,
)
from otfsftn.link import _BIT_TABLE, format_llr_records

from conftest import complex_gaussian, eva_config, identity_config


def solved_eva_link(m, n, alpha, seed, snr=10.0, nu_max=2000.0):
    shape = GridShape(m, n)
    spec = PulseSpec(beta=0.25)
    cfg = eva_config(m, n, alpha, nu_max=nu_max, seed=seed)
    noise = gram_matrix(shape, alpha, spec)
    chan = eva_channel(nu_max, cfg, np.random.default_rng(seed))
    eff = effective_channel(chan, spec, cfg)
    sol = solve_precoder(eff.H, noise, shape, snr)
    return shape, cfg, noise, eff, sol


class TestConstellations:
    def test_qpsk_anchor_point(self):
        pts = constellation(2)
        # bit pair (0, 0) -> ((1-0) + j(1-0))/sqrt(2)
        assert abs(pts[0b00] - (1 + 1j) / np.sqrt(2)) <= 1e-15
        assert abs(pts[0b01] - (1 - 1j) / np.sqrt(2)) <= 1e-15
        assert abs(pts[0b10] - (-1 + 1j) / np.sqrt(2)) <= 1e-15
        assert abs(pts[0b11] - (-1 - 1j) / np.sqrt(2)) <= 1e-15

    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_unit_average_energy(self, bits):
        pts = constellation(bits)
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_gray_neighbours_differ_in_one_bit(self, bits):
        # nearest geometric neighbours along each axis flip exactly one bit
        pts = constellation(bits)
        labels = _BIT_TABLE[bits]
        step = np.min(np.abs(pts[1:] - pts[0])[np.abs(pts[1:] - pts[0]) > 1e-12])
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if abs(pts[a] - pts[b]) <= step * 1.000001:
                    assert int(np.sum(labels[a] != labels[b])) == 1

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            constellation(3)


class TestBitLoading:
    def test_uniform_margins_all_qpsk(self):
        n = 8
        xi = np.ones(n)
        gamma = np.ones(n)
        cfg = identity_config(4, 2, 0.8)
        # target chosen so the bit total is exactly 2 per subchannel
        target = 0.75 * 2 * n / (((1 + cfg.beta) * 0.8) * n)
        loading = bit_loading(xi, gamma, 10.0, target, cfg)
        np.testing.assert_array_equal(loading.bits_per_symbol, np.full(n, 2))

    def test_zero_power_never_loaded(self):
        cfg = identity_config(4, 2, 0.8)
        xi = np.ones(8)
        gamma = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        target = 0.75 * 12 / (((1 + cfg.beta) * 0.8) * 8)
        loading = bit_loading(xi, gamma, 10.0, target, cfg)
        assert loading.bits_per_symbol[2] == 0 and loading.bits_per_symbol[5] == 0
        assert loading.total_bits == 12

    def test_none_target_is_qpsk_on_active(self):
        cfg = identity_config(4, 2, 0.9)
        gamma = np.array([1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        loading = bit_loading(np.ones(8), gamma, 10.0, None, cfg)
        np.testing.assert_array_equal(loading.bits_per_symbol, np.where(gamma > 0, 2, 0))

    def test_greedy_matches_exhaustive_maxmin(self, rng):
        # exhaustive max-min margin search over all valid assignments at MN = 6
        n, total = 6, 10
        cfg = identity_config(3, 2, 0.8)
        s = rng.uniform(0.5, 20.0, n)
        target = 0.75 * total / (((1 + cfg.beta) * 0.8) * n)
        loading = bit_loading(s, np.ones(n), 1.0, target, cfg)
        assert loading.total_bits == total

        def min_margin(assign):
            return min(sv / (1 << b) for sv, b in zip(s, assign))

        best = max(
            min_margin(a)
            for a in itertools.product((0, 2, 4, 6, 8), repeat=n)
            if sum(a) == total
        )
        assert abs(min_margin(loading.bits_per_symbol) - best) <= 1e-12

    def test_unreachable_target_reports_maximum(self):
        cfg = identity_config(4, 2, 0.8)
        gamma = np.concatenate([np.ones(4), np.zeros(4)])
        with pytest.raises(ValueError, match="maximum achievable"):
            bit_loading(np.ones(8), gamma, 10.0, 10.0, cfg)


class TestMapBits:
    def test_qpsk_mapping(self):
        loading = Loading(bits_per_symbol=np.array([2, 0, 2]))
        x = map_bits(np.array([0, 0, 1, 1]), loading)
        assert abs(x[0] - (1 + 1j) / np.sqrt(2)) <= 1e-15
        assert x[1] == 0.0
        assert abs(x[2] - (-1 - 1j) / np.sqrt(2)) <= 1e-15

    def test_mixed_sizes_roundtrip(self, rng):
        b = np.array([2, 4, 0, 6, 8, 2, 0, 4])
        loading = Loading(bits_per_symbol=b)
        bits = rng.integers(0, 2, loading.total_bits)
        x = map_bits(bits, loading)
        assert x[2] == 0.0 and x[6] == 0.0
        # demap through a unit-gain solution
        class Ident:
            xi = np.ones(8)
            gamma = np.ones(8)
        out = hard_detect(x, Ident(), loading)
        np.testing.assert_array_equal(out, bits)

    def test_bit_count_mismatch(self):
        loading = Loading(bits_per_symbol=np.array([2, 2]))
        with pytest.raises(ValueError, match="bits"):
            map_bits(np.zeros(3, dtype=int), loading)


class TestTransmitPropagate:
    def test_transmit_norm_identity(self, rng):
        shape, cfg, noise, eff, sol = solved_eva_link(4, 3, 0.9, seed=3)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        expect = np.linalg.norm(np.sqrt(sol.gamma) * x)
        assert abs(np.linalg.norm(s) - expect) <= 1e-10 * max(expect, 1.0)

    def test_propagate_identities(self, rng):
        shape, cfg, noise, eff, sol = solved_eva_link(4, 3, 0.9, seed=4)
        s = complex_gaussian(rng, shape.MN)
        eta = complex_gaussian(rng, shape.MN)
        np.testing.assert_array_equal(propagate(np.zeros_like(s), eff, eta), eta)
        z1 = propagate(s, eff, np.zeros_like(s))
        s2 = complex_gaussian(rng, shape.MN)
        z2 = propagate(s2, eff, np.zeros_like(s))
        z12 = propagate(s + s2, eff, np.zeros_like(s))
        assert np.abs(z12 - z1 - z2).max() <= 1e-12

    def test_mean_frame_energy(self, rng):
        # transmit-side energy identity at (4, 3): mean s^H G s = MN
        shape, cfg, noise, eff, sol = solved_eva_link(4, 3, 0.85, seed=5, snr=10.0)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        frames = 10_000
        vals = np.empty(frames)
        rng2 = np.random.default_rng(17)
        for i in range(frames):
            bits = rng2.integers(0, 2, loading.total_bits)
            x = map_bits(bits, loading)
            s = transmit(x, sol)
            vals[i] = frame_energy(s, noise)
        se = vals.std(ddof=1) / np.sqrt(frames)
        assert abs(vals.mean() - shape.MN) <= 3.0 * se


class TestColoredNoise:
    def test_white_at_nyquist(self, rng):
        shape = GridShape(4, 2)
        noise = gram_matrix(shape, 1.0, PulseSpec(beta=0.25))
        draws = 20_000
        etas = np.stack([colored_noise(noise, 0.5, rng) for _ in range(draws)])
        cov = etas.conj().T @ etas / draws
        assert np.abs(cov - 0.5 * np.eye(shape.MN)).max() <= 0.02

    def test_zero_mean(self, rng):
        shape = GridShape(4, 2)
        noise = gram_matrix(shape, 0.85, PulseSpec(beta=0.25))
        draws = 10_000
        etas = np.stack([colored_noise(noise, 1.0, rng) for _ in range(draws)])
        se = 1.0 / np.sqrt(draws)
        assert np.abs(etas.mean(axis=0)).max() <= 3.0 * se

    def test_covariance_matches_pulse_lag(self, rng):
        # empirical E[eta_0 eta_1^*] = sigma0^2 g(T_f) at alpha = 0.85
        shape = GridShape(4, 4)
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 0.85, spec)
        sigma0_sq = 0.8
        draws = 100_000
        rng2 = np.random.default_rng(23)
        prods = np.empty(draws, dtype=complex)
        for i in range(draws):
            eta = colored_noise(noise, sigma0_sq, rng2)
            prods[i] = eta[0] * np.conj(eta[1])
        expect = sigma0_sq * rc_autocorr(0.85, spec)
        se = prods.std(ddof=1) / np.sqrt(draws)
        assert abs(prods.mean() - expect) <= 3.0 * se


class TestReceive:
    def test_noiseless_diagonal_identity(self, rng):
        shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.9, seed=6)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        z = propagate(s, eff, np.zeros(shape.MN, complex))
        y_d = receive(z, sol)
        expect = sol.xi * np.sqrt(sol.gamma) * x
        assert np.abs(y_d - expect).max() <= 1e-8

    def test_degenerate_identity_link(self, rng):
        shape = GridShape(4, 2)
        cfg = identity_config(4, 2, 1.0)
        spec = PulseSpec(beta=0.25)
        noise = gram_matrix(shape, 1.0, spec)
        eff = effective_channel(identity_channel(), spec, cfg)
        sol = solve_precoder(eff.H, noise, shape, snr=10.0)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        y_d = receive(propagate(s, eff, np.zeros(shape.MN, complex)), sol)
        assert np.abs(y_d - x).max() <= 1e-8

    def test_whitened_noise_covariance(self):
        # x = 0: y_d = D eta has covariance sigma0^2 diag(xi)
        shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.85, seed=7)
        sigma0_sq = 0.6
        draws = 10_000
        rng2 = np.random.default_rng(29)
        samples = np.empty((draws, shape.MN), dtype=complex)
        for i in range(draws):
            eta = colored_noise(noise, sigma0_sq, rng2)
            y_d = receive(eta, sol)
            samples[i] = y_d
        var = np.mean(np.abs(samples) ** 2, axis=0)
        expect = sigma0_sq * sol.xi
        se = np.std(np.abs(samples) ** 2, axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(var - expect) <= 3.0 * se + 1e-12)
        # cross-correlation of the two strongest subchannels is statistically zero
        cross = np.mean(samples[:, 0] * np.conj(samples[:, 1]))
        cross_se = np.std(samples[:, 0] * np.conj(samples[:, 1]), ddof=1) / np.sqrt(draws)
        assert abs(cross) <= 3.0 * cross_se


class TestLlr:
    def test_noiseless_signs_match_bits(self, rng):
        shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.9, seed=8, snr=100.0)
        loading = bit_loading(sol.xi, sol.gamma, 100.0, None, cfg)
        frame = run_frame(loading, sol, eff, noise, 0.0, [np.random.default_rng(2)])
        vals = llr(frame.y_d, sol, loading, sigma0_sq=0.01)
        detected = (vals < 0).astype(int)
        np.testing.assert_array_equal(detected, frame.tx_bits)

    def test_zero_observation_gives_zero_llrs(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        class Sol:
            xi = np.ones(1)
            gamma = np.ones(1)
        vals = llr(np.zeros(1, complex), Sol(), loading, 1.0)
        np.testing.assert_allclose(vals, np.zeros(2), atol=1e-12)

    def test_matches_bruteforce_16qam(self, rng):
        # direct 16-term likelihood sums, written independently of the
        # vectorized implementation
        loading = Loading(bits_per_symbol=np.array([4]))
        class Sol:
            xi = np.array([0.8])
            gamma = np.array([1.3])
        sigma0_sq = 0.37
        pts = constellation(4)
        a = 0.8 * np.sqrt(1.3)
        for _ in range(50):
            y = complex_gaussian(rng, 1)
            vals = llr(y, Sol(), loading, sigma0_sq)
            for j in range(4):
                num = 0.0
                den = 0.0
                for label in range(16):
                    like = np.exp(-abs(y[0] - a * pts[label]) ** 2 / (0.8 * sigma0_sq))
                    if (label >> (3 - j)) & 1:
                        den += like
                    else:
                        num += like
                assert abs(vals[j] - np.log(num / den)) <= 1e-10

    def test_rejects_zero_gain_loaded_subchannel(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        class Sol:
            xi = np.array([1.0])
            gamma = np.array([0.0])
        with pytest.raises(ValueError, match="zero effective gain"):
            llr(np.zeros(1, complex), Sol(), loading, 1.0)


class TestHardDetect:
    def test_noiseless_recovery_exact(self):
        shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.85, seed=9, snr=50.0)
        loading = bit_loading(sol.xi, sol.gamma, 50.0, None, cfg)
        frame = run_frame(loading, sol, eff, noise, 0.0, [np.random.default_rng(3)])
        rx = hard_detect(frame.y_d, sol, loading)
        np.testing.assert_array_equal(rx, frame.tx_bits)

    def test_sign_flip_flips_qpsk_bits(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        class Sol:
            xi = np.ones(1)
            gamma = np.ones(1)
        y = np.array([(1 + 1j) / np.sqrt(2)])
        np.testing.assert_array_equal(hard_detect(y, Sol(), loading), [0, 0])
        np.testing.assert_array_equal(hard_detect(-y, Sol(), loading), [1, 1])

    def test_agrees_with_llr_signs_qpsk(self, rng):
        # Gray QPSK: minimum-distance decisions equal LLR sign decisions
        loading = Loading(bits_per_symbol=np.array([2] * 10))
        class Sol:
            xi = np.full(10, 1.2)
            gamma = np.full(10, 0.9)
        sigma0_sq = 0.5
        for _ in range(1000):
            y = complex_gaussian(rng, 10) * 2.0
            hard = hard_detect(y, Sol(), loading)
            soft = (llr(y, Sol(), loading, sigma0_sq) < 0).astype(np.uint8)
            np.testing.assert_array_equal(hard, soft)


class TestLlrConsistency:
    def test_tanh_sign_structure(self):
        # E[tanh(LLR/2) | bit] carries the transmitted bit's sign at 3 sigma
        shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.9, seed=11, snr=10.0)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        sigma0_sq = 0.1
        rng2 = np.random.default_rng(41)
        soft0, soft1 = [], []
        for _ in range(300):
            frame = run_frame(loading, sol, eff, noise, sigma0_sq, [rng2])
            soft = np.tanh(llr(frame.y_d, sol, loading, sigma0_sq) / 2.0)
            soft0.extend(soft[frame.tx_bits == 0])
            soft1.extend(soft[frame.tx_bits == 1])
        soft0 = np.asarray(soft0)
        soft1 = np.asarray(soft1)
        assert soft0.mean() > 3.0 * soft0.std(ddof=1) / np.sqrt(soft0.size)
        assert soft1.mean() < -3.0 * soft1.std(ddof=1) / np.sqrt(soft1.size)


class TestNoiselessRecoveryGrid:
    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("m,n", [(4, 3), (8, 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_admissible_corner(self, beta, m, n, seed):
        # noiseless hard decisions recover the bit stream exactly across the
        # admissible packing range, including the edge
        shape = GridShape(m, n)
        spec = PulseSpec(beta=beta)
        lo = spec.admissible_alpha()
        for alpha in (lo + 0.02, 0.95, 1.0):
            cfg = eva_config(m, n, alpha, beta=beta, nu_max=2000.0, seed=seed)
            noise = gram_matrix(shape, alpha, spec)
            chan = eva_channel(2000.0, cfg, np.random.default_rng(seed))
            eff = effective_channel(chan, spec, cfg)
            sol = solve_precoder(eff.H, noise, shape, snr=30.0)
            loading = bit_loading(sol.xi, sol.gamma, 30.0, None, cfg)
            frame = run_frame(loading, sol, eff, noise, 0.0, [np.random.default_rng(seed + 7)])
            rx = hard_detect(frame.y_d, sol, loading)
            np.testing.assert_array_equal(rx, frame.tx_bits)


def _solved_identity_link(m, n, alpha, snr=10.0):
    shape = GridShape(m, n)
    spec = PulseSpec(beta=0.25)
    cfg = identity_config(m, n, alpha)
    noise = gram_matrix(shape, alpha, spec)
    eff = effective_channel(identity_channel(), spec, cfg)
    return shape, cfg, noise, eff, solve_precoder(eff.H, noise, shape, snr)


class TestFrameBlock:
    @pytest.mark.parametrize("link,target", [("eva", 1.5), ("identity", None)])
    def test_block_matches_single_frames(self, link, target):
        if link == "eva":
            shape, cfg, noise, eff, sol = solved_eva_link(8, 4, 0.9, seed=12)
        else:
            shape, cfg, noise, eff, sol = _solved_identity_link(8, 4, 0.9)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, target, cfg)
        sigma0_sq, k = 0.3, 5
        rngs = [np.random.default_rng(100 + t) for t in range(k)]
        block = run_frame(loading, sol, eff, noise, sigma0_sq, rngs)
        rx = hard_detect(block.y_d, sol, loading)
        soft = llr(block.y_d, sol, loading, sigma0_sq)
        assert block.tx_bits.shape == rx.shape == soft.shape == (loading.total_bits, k)
        assert block.y_d.shape == (shape.MN, k)
        for t in range(k):
            one = run_frame(loading, sol, eff, noise, sigma0_sq, [np.random.default_rng(100 + t)])
            y_d = one.y_d[:, 0]
            np.testing.assert_array_equal(block.tx_bits[:, t], one.tx_bits[:, 0])
            assert np.abs(block.y_d[:, t] - y_d).max() <= 1e-12 * np.abs(y_d).max()
            np.testing.assert_array_equal(rx[:, t], hard_detect(y_d, sol, loading))
            ref = llr(y_d, sol, loading, sigma0_sq)
            assert np.abs(soft[:, t] - ref).max() <= 1e-12 * np.abs(ref).max()


class TestFrameRecord:
    def test_pipeline_consistency(self, rng):
        shape, cfg, noise, eff, sol = solved_eva_link(4, 3, 0.9, seed=10)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        frame = run_frame(loading, sol, eff, noise, 0.1, [rng])
        assert frame.tx_bits.size == loading.total_bits
        np.testing.assert_allclose(frame.s, sol.P @ frame.x, atol=1e-12)
        np.testing.assert_allclose(frame.y_d, sol.sub.D @ frame.z, atol=1e-12)
        # delay-Doppler oracle: the pair mapped to the grid, D_t F^H and F P_t
        # with F = F_N kron I_M, diagonalizes H_eq
        kron = np.kron(dft_matrix(shape.N), np.eye(shape.M))
        dhp = (sol.sub.D @ kron.conj().T) @ eff.H_eq @ (kron @ sol.P)
        bound = 1e-8 * sol.xi.max()
        assert np.abs(dhp - np.diag(sol.xi * np.sqrt(sol.gamma))).max() <= bound

    def test_llr_dump_format(self):
        loading = Loading(bits_per_symbol=np.array([2, 0, 2]))
        text = format_llr_records(7, loading, np.array([1.5, -2.0, 0.25, 3.0]))
        assert text.splitlines() == [
            "7,0,0,1.5",
            "7,0,1,-2",
            "7,2,0,0.25",
            "7,2,1,3",
        ]
