import heapq
import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest

from otfsftn import (
    ConfigError,
    GridShape,
    Loading,
    bit_loading,
    colored_noise,
    conjugate_by_dd,
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
    scalar_frames,
    solve_precoder,
    transmit,
    waterfill,
)
from otfsftn.config import CODE_RATE, snr_linear, target_bits
from otfsftn.harness import FRAME_BLOCK, STACK_MN, _link_block, trial_rng
from otfsftn.link import (
    FrameWorkspace, SUPPORTED_BITS, _decisions, _draw_bits, _scaled_white, _span, format_llr_records,
)
from otfsftn.metrics import BerCounter, ber_accumulate
from otfsftn.precoder import subchannel_gains

from conftest import complex_gaussian, eva_config, identity_config


def solved_eva_link(m, n, alpha, seed, snr=10.0, nu_max=2000.0):
    shape = GridShape(m, n)
    cfg = eva_config(m, n, alpha, nu_max=nu_max, seed=seed)
    noise = gram_matrix(shape, alpha, 0.25)
    chan = eva_channel(nu_max, cfg, np.random.default_rng(seed))
    h = effective_channel(chan, cfg)
    sol = solve_precoder(h, noise, snr)
    return shape, cfg, noise, h, sol


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
        labels = (np.arange(1 << bits)[:, None] >> np.arange(bits - 1, -1, -1)) & 1
        step = np.min(np.abs(pts[1:] - pts[0])[np.abs(pts[1:] - pts[0]) > 1e-12])
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if abs(pts[a] - pts[b]) <= step * 1.000001:
                    assert int(np.sum(labels[a] != labels[b])) == 1

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            constellation(3)

    def test_loading_names_unsupported_sizes(self):
        with pytest.raises(ValueError, match=r"unsupported bits-per-symbol value\(s\): \[3, 5\]$"):
            Loading(bits_per_symbol=np.array([2, 5, 0, 3, 5]))


class TestBitLabels:
    @pytest.mark.parametrize("b", [[2, 0, 4, 6, 0, 8, 2], [0, 0, 0], [8] * 40, [2] * 192, []])
    def test_table_matches_fstrings(self, b):
        # the labels index a cached per-MN table; the f-string per bit they replace is the oracle
        loading = Loading(bits_per_symbol=np.array(b, dtype=int))
        assert loading.bit_labels == [f"{n},{j}" for n, nb in enumerate(b) for j in range(nb)]

    def test_random_loadings(self, rng):
        for _ in range(50):
            b = rng.choice([0, *SUPPORTED_BITS], size=int(rng.integers(1, 300)))
            assert Loading(bits_per_symbol=b).bit_labels == [
                f"{n},{j}" for n, nb in enumerate(b.tolist()) for j in range(nb)]


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

    def test_heap_matches_argmax_loop(self):
        # the former greedy loop, one argmax over all margins per two bits, as
        # the oracle: seeded cases with tied and zero margins, unpowered
        # subchannels, and bit totals up to every powered subchannel at 256-QAM
        def argmax_loading(xi, gamma, snr, total):
            active = gamma > 0.0
            b = np.zeros(xi.size, dtype=int)
            s_eff = xi * gamma * snr
            margin = np.where(active, s_eff, -np.inf)
            for _ in range(total // 2):
                n = int(np.argmax(margin))
                b[n] += 2
                margin[n] = s_eff[n] / (1 << b[n]) if b[n] < 8 else -np.inf
            return b

        rng = np.random.default_rng(7)
        cfg = identity_config(4, 2, 0.8)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            xi = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, rng.uniform(0.1, 10.0)], size=n)
            gamma = np.where(rng.random(n) < 0.2, 0.0, rng.choice([1.0, 2.0, 0.5], size=n))
            powered = int(np.count_nonzero(gamma > 0.0))
            if powered == 0:
                continue
            total = 2 * int(rng.integers(1, 4 * powered + 1))
            target = CODE_RATE * total / cfg.time_bandwidth
            assert target_bits(target, cfg) == total
            loading = bit_loading(xi, gamma, 3.0, target, cfg)
            np.testing.assert_array_equal(loading.bits_per_symbol,
                                          argmax_loading(xi, gamma, 3.0, total))

    def test_sort_matches_heap_loop(self):
        # the former heap loop, kept as the oracle: pop the largest margin (lowest index, then
        # fewest bits, on ties), load two more bits there, push the next margin below 256-QAM;
        # random, tied and zero gains, unpowered subchannels and every feasible bit total
        def heap_loading(xi, gamma, snr, total):
            b = np.zeros(xi.size, dtype=int)
            s_eff = (xi * gamma * snr).tolist()
            heap = [(-s_eff[n], n, 0) for n in np.flatnonzero(gamma > 0.0).tolist()]
            heapq.heapify(heap)
            for _ in range(total // 2):
                _, n, bits = heapq.heappop(heap)
                b[n] = bits = bits + 2
                if bits < 8:
                    heapq.heappush(heap, (-s_eff[n] / (1 << bits), n, bits))
            return b

        rng = np.random.default_rng(11)
        cfg = identity_config(4, 2, 0.8)
        cases = 0
        while cases < 3000:
            n = int(rng.integers(1, 48))
            kind = cases % 3
            if kind == 0:  # random gains
                xi = rng.uniform(0.0, 10.0, n)
            elif kind == 1:  # few distinct values, so margins tie across subchannels and bit counts
                xi = rng.choice([1.0, 4.0, 16.0, 64.0, 0.25], size=n)
            else:  # zero and subnormal gains, whose quarters tie at 0
                xi = rng.choice([0.0, 5e-324, 1e-310, 1.0, 2.0], size=n)
            gamma = np.where(rng.random(n) < 0.25, 0.0, rng.choice([1.0, 0.5, 3.0], size=n))
            powered = int(np.count_nonzero(gamma > 0.0))
            if powered == 0:
                continue
            total = 2 * int(rng.integers(0, 4 * powered + 1))
            target = CODE_RATE * total / cfg.time_bandwidth
            if target_bits(target, cfg) != total or total == 0:
                continue
            cases += 1
            loading = bit_loading(xi, gamma, 1.7, target, cfg)
            np.testing.assert_array_equal(loading.bits_per_symbol, heap_loading(xi, gamma, 1.7, total))

    def test_unreachable_target_reports_maximum(self):
        cfg = identity_config(4, 2, 0.8)
        gamma = np.concatenate([np.ones(4), np.zeros(4)])
        with pytest.raises(ValueError, match="maximum achievable"):
            bit_loading(np.ones(8), gamma, 10.0, 10.0, cfg)

    def test_target_beyond_powered_subchannels_is_config_error(self):
        # 4.5 bps/Hz needs 48 bits: within 256-QAM on all 8 subchannels, not on the 4 powered
        cfg = identity_config(4, 2, 0.8)
        gamma = np.concatenate([np.ones(4), np.zeros(4)])
        with pytest.raises(ConfigError, match="needs 48 bits but only 32 fit"):
            bit_loading(np.ones(8), gamma, 10.0, 4.5, cfg)


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
        # demap through unit gains
        xi, gamma = np.ones(8), np.ones(8)
        out = hard_detect(x, xi, gamma, loading)
        np.testing.assert_array_equal(out, bits)

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_every_label_maps_to_its_table_point(self, bits):
        # each axis level is built from its bits; to the bit, it is the constellation table's
        labels = np.arange(1 << bits)
        stream = ((labels[:, None] >> np.arange(bits - 1, -1, -1)) & 1).ravel()
        x = map_bits(np.stack([stream, stream], axis=1), Loading(bits_per_symbol=np.full(labels.size, bits)))
        assert x[:, 0].tobytes() == x[:, 1].tobytes() == constellation(bits).tobytes()

    @pytest.mark.parametrize("b", [[2] * 6, [0, 2, 2, 2, 0, 0], [2, 0, 2, 2, 0, 2], [4, 4, 2, 2, 0, 6]])
    def test_slice_and_index_scatters_agree(self, rng, b):
        # one order on one contiguous run scatters through a slice, any other
        # through its indices; each subchannel must carry its own label
        assert _span(np.arange(3, 7)) == slice(3, 7) and not isinstance(_span(np.array([0, 2])), slice)
        loading = Loading(bits_per_symbol=np.array(b))
        bits = rng.integers(0, 2, (loading.total_bits, 5))
        x = map_bits(bits, loading)
        offsets = np.cumsum([0, *b])
        for n, nbits in enumerate(b):
            alone = map_bits(bits[offsets[n] : offsets[n + 1]], Loading(np.array([nbits]))) if nbits else [0.0]
            np.testing.assert_array_equal(x[n], alone[0])
        np.testing.assert_array_equal(hard_detect(x, np.ones(len(b)), np.ones(len(b)), loading), bits)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["frame", "block"])
    def test_loading_without_bits(self, shape):
        # no subchannel carries bits: all-zero symbols, and hard decisions
        # give back an empty bit block of the shape map_bits was given
        loading = Loading(bits_per_symbol=np.array([0, 0]))
        x = map_bits(np.zeros(shape, dtype=np.uint8), loading)
        assert x.shape == (2,) + shape[1:] and not x.any()
        assert hard_detect(x, np.ones(2), np.ones(2), loading).shape == shape

    def test_bit_count_mismatch(self):
        loading = Loading(bits_per_symbol=np.array([2, 2]))
        with pytest.raises(ValueError, match="bits"):
            map_bits(np.zeros(3, dtype=int), loading)


class TestTransmitPropagate:
    def test_transmit_norm_identity(self, rng):
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.9, seed=3)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        expect = np.linalg.norm(np.sqrt(sol.gamma) * x)
        assert abs(np.linalg.norm(s) - expect) <= 1e-10 * max(expect, 1.0)

    def test_propagate_identities(self, rng):
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.9, seed=4)
        s = complex_gaussian(rng, shape.MN)
        eta = complex_gaussian(rng, shape.MN)
        np.testing.assert_array_equal(propagate(np.zeros_like(s), h, eta), eta)
        z1 = propagate(s, h, np.zeros_like(s))
        s2 = complex_gaussian(rng, shape.MN)
        z2 = propagate(s2, h, np.zeros_like(s))
        z12 = propagate(s + s2, h, np.zeros_like(s))
        assert np.abs(z12 - z1 - z2).max() <= 1e-12

    def test_mean_frame_energy(self, rng):
        # transmit-side energy identity at (4, 3): mean s^H G s = MN
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.85, seed=5, snr=10.0)
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
        noise = gram_matrix(shape, 1.0, 0.25)
        draws = 20_000
        etas = np.stack([colored_noise(noise, 0.5, rng, 1)[:, 0] for _ in range(draws)])
        cov = etas.conj().T @ etas / draws
        assert np.abs(cov - 0.5 * np.eye(shape.MN)).max() <= 0.02

    def test_zero_mean(self, rng):
        shape = GridShape(4, 2)
        noise = gram_matrix(shape, 0.85, 0.25)
        draws = 10_000
        etas = np.stack([colored_noise(noise, 1.0, rng, 1)[:, 0] for _ in range(draws)])
        se = 1.0 / np.sqrt(draws)
        assert np.abs(etas.mean(axis=0)).max() <= 3.0 * se

    def test_covariance_matches_pulse_lag(self, rng):
        # empirical E[eta_0 eta_1^*] = sigma0^2 g(T_f) at alpha = 0.85
        shape = GridShape(4, 4)
        beta = 0.25
        noise = gram_matrix(shape, 0.85, beta)
        sigma0_sq = 0.8
        draws = 100_000
        rng2 = np.random.default_rng(23)
        prods = np.empty(draws, dtype=complex)
        for i in range(draws):
            eta = colored_noise(noise, sigma0_sq, rng2, 1)[:, 0]
            prods[i] = eta[0] * np.conj(eta[1])
        expect = sigma0_sq * rc_autocorr(0.85, beta)
        se = prods.std(ddof=1) / np.sqrt(draws)
        assert abs(prods.mean() - expect) <= 3.0 * se


    @pytest.mark.parametrize("sigma0_sq", [-0.5, np.nan, np.inf])
    def test_rejects_bad_variance(self, rng, sigma0_sq):
        noise = gram_matrix(GridShape(4, 2), 0.85, 0.25)
        with pytest.raises(ValueError, match="sigma0_sq"):
            colored_noise(noise, sigma0_sq, rng, 1)

    def test_zero_variance_is_noiseless(self, rng):
        noise = gram_matrix(GridShape(4, 2), 0.85, 0.25)
        np.testing.assert_array_equal(colored_noise(noise, 0.0, rng, 2), np.zeros((8, 2)))


class TestReceive:
    def test_noiseless_diagonal_identity(self, rng):
        shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.9, seed=6)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        z = propagate(s, h, np.zeros(shape.MN, complex))
        y_d = receive(z, sol)
        expect = sol.xi * np.sqrt(sol.gamma) * x
        assert np.abs(y_d - expect).max() <= 1e-8

    def test_degenerate_identity_link(self, rng):
        shape = GridShape(4, 2)
        cfg = identity_config(4, 2, 1.0)
        noise = gram_matrix(shape, 1.0, 0.25)
        h = effective_channel(identity_channel(), cfg)
        sol = solve_precoder(h, noise, snr=10.0)
        x = complex_gaussian(rng, shape.MN)
        s = transmit(x, sol)
        y_d = receive(propagate(s, h, np.zeros(shape.MN, complex)), sol)
        assert np.abs(y_d - x).max() <= 1e-8

    def test_whitened_noise_covariance(self):
        # x = 0: y_d = D eta has covariance sigma0^2 diag(xi)
        shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.85, seed=7)
        sigma0_sq = 0.6
        draws = 10_000
        rng2 = np.random.default_rng(29)
        samples = np.empty((draws, shape.MN), dtype=complex)
        for i in range(draws):
            eta = colored_noise(noise, sigma0_sq, rng2, 1)[:, 0]
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
        shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.9, seed=8, snr=100.0)
        loading = bit_loading(sol.xi, sol.gamma, 100.0, None, cfg)
        frame = run_frame(loading, sol, h, 0.0, np.random.default_rng(2), 1)
        vals = llr(frame.y_d, sol.xi, sol.gamma, loading, sigma0_sq=0.01)
        detected = (vals < 0).astype(int)
        np.testing.assert_array_equal(detected, frame.tx_bits)

    def test_zero_observation_gives_zero_llrs(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        xi, gamma = np.ones(1), np.ones(1)
        vals = llr(np.zeros(1, complex), xi, gamma, loading, 1.0)
        np.testing.assert_allclose(vals, np.zeros(2), atol=1e-12)

    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_matches_bruteforce(self, rng, bits):
        # direct 2^bits-term likelihood sums over the 2D constellation, written
        # independently of the per-axis implementation, on a block of frames
        loading = Loading(bits_per_symbol=np.array([bits, 0, bits, bits]))
        xi, gamma = np.array([0.8, 1.0, 1.7, 0.3]), np.array([1.3, 0.0, 0.6, 2.1])
        sigma0_sq, frames = 0.37, 5
        pts = constellation(bits)
        labels = np.arange(1 << bits)
        y = complex_gaussian(rng, 4 * frames).reshape(4, frames)
        vals = llr(y, xi, gamma, loading, sigma0_sq)
        assert vals.shape == (3 * bits, frames)
        pos = 0
        for n in (0, 2, 3):
            a = xi[n] * np.sqrt(gamma[n])
            for j in range(bits):
                one = (labels >> (bits - 1 - j)) & 1 == 1
                for f in range(frames):
                    like = np.exp(-np.abs(y[n, f] - a * pts) ** 2 / (xi[n] * sigma0_sq))
                    expect = np.log(like[~one].sum() / like[one].sum())
                    assert abs(vals[pos, f] - expect) <= 1e-10 * max(1.0, abs(expect))
                pos += 1

    @pytest.mark.parametrize("sigma0_sq", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_bad_noise_variance(self, sigma0_sq):
        loading = Loading(bits_per_symbol=np.array([2]))
        xi, gamma = np.ones(1), np.ones(1)
        with pytest.raises(ValueError, match="sigma0_sq"):
            llr(np.ones(1, complex), xi, gamma, loading, sigma0_sq)

    def test_rejects_zero_gain_loaded_subchannel(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        xi, gamma = np.array([1.0]), np.array([0.0])
        with pytest.raises(ValueError, match="zero effective gain"):
            llr(np.zeros(1, complex), xi, gamma, loading, 1.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_breakpoints_and_neighbours_are_first_index_argmin(self, bits, order):
        # each breakpoint of the decision table and the three doubles either side of it,
        # where the label changes; subchannel n observes v[n] in phase, frame f v[f] in quadrature
        edges, _ = _decisions(bits)
        v = [edges]
        for toward in (np.inf, -np.inf):
            x = edges
            for _ in range(3):
                v.append(x := np.nextafter(x, toward))
        v = np.unique(np.concatenate(v))
        assert v.size == 7 * edges.size
        half = bits // 2
        levels = constellation(bits)[:: 1 << half].real
        nearest = np.argmin(np.abs(v[:, None] - levels), axis=1)
        assert np.unique(nearest).size == 1 << half  # every label wins somewhere
        y = np.empty((v.size, v.size), complex, order=order)
        y.real, y.imag = v[:, None], v[None, :]
        label_bits = (nearest[:, None] >> np.arange(half - 1, -1, -1)) & 1
        expected = np.concatenate(np.broadcast_arrays(label_bits[:, :, None], label_bits.T[None]), axis=1)
        rx = hard_detect(y, np.ones(v.size), np.ones(v.size), Loading(bits_per_symbol=np.full(v.size, bits)))
        np.testing.assert_array_equal(rx, expected.reshape(v.size * bits, v.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_rejects_non_finite_observation(self, bad):
        loading = Loading(bits_per_symbol=np.array([2, 0, 4, 2]))
        xi, gamma = np.ones(4), np.ones(4)
        y = np.ones((4, 3), complex)
        y[1, 0] = np.nan  # an unloaded subchannel is not read
        assert np.all(np.isfinite(llr(y, xi, gamma, loading, 0.5)))
        y[3, 0] = y[2, 2] = bad
        with pytest.raises(ValueError, match="subchannel 2 has a non-finite observation"):
            llr(y, xi, gamma, loading, 0.5)


class TestHardDetect:
    def test_noiseless_recovery_exact(self):
        shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.85, seed=9, snr=50.0)
        loading = bit_loading(sol.xi, sol.gamma, 50.0, None, cfg)
        frame = run_frame(loading, sol, h, 0.0, np.random.default_rng(3), 1)
        rx = hard_detect(frame.y_d, sol.xi, sol.gamma, loading)
        np.testing.assert_array_equal(rx, frame.tx_bits)

    def test_sign_flip_flips_qpsk_bits(self):
        loading = Loading(bits_per_symbol=np.array([2]))
        xi, gamma = np.ones(1), np.ones(1)
        y = np.array([(1 + 1j) / np.sqrt(2)])
        np.testing.assert_array_equal(hard_detect(y, xi, gamma, loading), [0, 0])
        np.testing.assert_array_equal(hard_detect(-y, xi, gamma, loading), [1, 1])

    def test_agrees_with_llr_signs_qpsk(self, rng):
        # Gray QPSK: minimum-distance decisions equal LLR sign decisions
        loading = Loading(bits_per_symbol=np.array([2] * 10))
        xi, gamma = np.full(10, 1.2), np.full(10, 0.9)
        sigma0_sq = 0.5
        for _ in range(1000):
            y = complex_gaussian(rng, 10) * 2.0
            hard = hard_detect(y, xi, gamma, loading)
            soft = (llr(y, xi, gamma, loading, sigma0_sq) < 0).astype(np.uint8)
            np.testing.assert_array_equal(hard, soft)


    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_matches_bruteforce_nearest_point(self, rng, bits):
        # first-index nearest point of the 2D constellation, demapped MSB first
        loading = Loading(bits_per_symbol=np.array([bits, bits, 0, bits]))
        xi, gamma = np.array([1.2, 0.4, 1.0, 2.5]), np.array([0.9, 1.6, 0.0, 0.3])
        frames = 200
        pts = constellation(bits)
        y = 1.5 * complex_gaussian(rng, 4 * frames).reshape(4, frames)
        rx = hard_detect(y, xi, gamma, loading)
        pos = 0
        for n in (0, 1, 3):
            est = y[n] / (xi[n] * np.sqrt(gamma[n]))
            nearest = np.argmin(np.abs(est[:, None] - pts[None, :]) ** 2, axis=1)
            for j in range(bits):
                np.testing.assert_array_equal(rx[pos], (nearest >> (bits - 1 - j)) & 1)
                pos += 1

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_equals_first_index_argmin(self, bits, order):
        # the threshold decision against the search it replaced, the first-index
        # argmin of |v - level| over the Gray-indexed levels, where it matters most:
        # every level, every midpoint and the floats one ulp either side of it,
        # signed zero and subnormals (where QPSK ties exactly) and far off the axis
        # (where every level ties); a tie must go to the lower Gray label
        half = bits // 2
        levels = constellation(bits)[:: 1 << half].real  # in-phase level of each axis label
        ascending = np.sort(levels)
        mids = (ascending[:-1] + ascending[1:]) / 2
        v = np.concatenate([levels, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
                            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]])
        dist = np.abs(v[:, None] - levels)
        nearest = np.argmin(dist, axis=1)
        assert np.any((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1)  # ties occur
        # subchannel n observes v[n] in phase and every v[f] in quadrature, frame f
        y = np.empty((v.size, v.size), complex, order=order)
        y.real, y.imag = v[:, None], v[None, :]
        label_bits = (nearest[:, None] >> np.arange(half - 1, -1, -1)) & 1
        expected = np.concatenate(np.broadcast_arrays(label_bits[:, :, None], label_bits.T[None]), axis=1)
        loading = Loading(bits_per_symbol=np.full(v.size, bits))
        rx = hard_detect(y, np.ones(v.size), np.ones(v.size), loading)
        np.testing.assert_array_equal(rx, expected.reshape(v.size * bits, v.size))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bits", [2, 4, 6, 8])
    def test_breakpoints_and_neighbours_are_first_index_argmin(self, bits, order):
        # each breakpoint of the decision table and the three doubles either side of it,
        # where the label changes; subchannel n observes v[n] in phase, frame f v[f] in quadrature
        edges, _ = _decisions(bits)
        v = [edges]
        for toward in (np.inf, -np.inf):
            x = edges
            for _ in range(3):
                v.append(x := np.nextafter(x, toward))
        v = np.unique(np.concatenate(v))
        assert v.size == 7 * edges.size
        half = bits // 2
        levels = constellation(bits)[:: 1 << half].real
        nearest = np.argmin(np.abs(v[:, None] - levels), axis=1)
        assert np.unique(nearest).size == 1 << half  # every label wins somewhere
        y = np.empty((v.size, v.size), complex, order=order)
        y.real, y.imag = v[:, None], v[None, :]
        label_bits = (nearest[:, None] >> np.arange(half - 1, -1, -1)) & 1
        expected = np.concatenate(np.broadcast_arrays(label_bits[:, :, None], label_bits.T[None]), axis=1)
        rx = hard_detect(y, np.ones(v.size), np.ones(v.size), Loading(bits_per_symbol=np.full(v.size, bits)))
        np.testing.assert_array_equal(rx, expected.reshape(v.size * bits, v.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_rejects_non_finite_observation(self, bad):
        loading = Loading(bits_per_symbol=np.array([2, 0, 4, 2]))
        xi, gamma = np.ones(4), np.ones(4)
        y = np.ones((4, 3), complex)
        y[1, 0] = np.nan  # an unloaded subchannel is not read
        hard_detect(y, xi, gamma, loading)
        y[3, 0] = y[2, 2] = bad
        with pytest.raises(ValueError, match="subchannel 2 has a non-finite observation"):
            hard_detect(y, xi, gamma, loading)


class TestLlrConsistency:
    def test_tanh_sign_structure(self):
        # E[tanh(LLR/2) | bit] carries the transmitted bit's sign at 3 sigma
        shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.9, seed=11, snr=10.0)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        sigma0_sq = 0.1
        rng2 = np.random.default_rng(41)
        soft0, soft1 = [], []
        for _ in range(300):
            frame = run_frame(loading, sol, h, sigma0_sq, rng2, 1)
            soft = np.tanh(llr(frame.y_d, sol.xi, sol.gamma, loading, sigma0_sq) / 2.0)
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
        lo = 1.0 / (1.0 + beta)
        for alpha in (lo + 0.02, 0.95, 1.0):
            cfg = eva_config(m, n, alpha, beta=beta, nu_max=2000.0, seed=seed)
            noise = gram_matrix(shape, alpha, beta)
            chan = eva_channel(2000.0, cfg, np.random.default_rng(seed))
            h = effective_channel(chan, cfg)
            sol = solve_precoder(h, noise, snr=30.0)
            loading = bit_loading(sol.xi, sol.gamma, 30.0, None, cfg)
            frame = run_frame(loading, sol, h, 0.0, np.random.default_rng(seed + 7), 1)
            rx = hard_detect(frame.y_d, sol.xi, sol.gamma, loading)
            np.testing.assert_array_equal(rx, frame.tx_bits)


def _solved_identity_link(m, n, alpha, snr=10.0):
    shape = GridShape(m, n)
    cfg = identity_config(m, n, alpha)
    noise = gram_matrix(shape, alpha, 0.25)
    h = effective_channel(identity_channel(), cfg)
    return shape, cfg, noise, h, solve_precoder(h, noise, snr)


class TestFrameBlock:
    @pytest.mark.parametrize("link,target", [("eva", 1.5), ("identity", None)])
    def test_block_matches_single_frames(self, link, target):
        # each column of a block is one frame of the per-frame pipeline, fed the
        # block's bits and noise column
        if link == "eva":
            shape, cfg, noise, h, sol = solved_eva_link(8, 4, 0.9, seed=12)
        else:
            shape, cfg, noise, h, sol = _solved_identity_link(8, 4, 0.9)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, target, cfg)
        sigma0_sq, k = 0.3, 5
        block = run_frame(loading, sol, h, sigma0_sq, np.random.default_rng(100), k)
        rx = hard_detect(block.y_d, sol.xi, sol.gamma, loading)
        soft = llr(block.y_d, sol.xi, sol.gamma, loading, sigma0_sq)
        assert block.tx_bits.shape == rx.shape == soft.shape == (loading.total_bits, k)
        assert block.y_d.shape == (shape.MN, k)
        rng = np.random.default_rng(100)
        bits = _draw_bits(loading, rng, k)
        eta = colored_noise(sol.sub.noise, sigma0_sq, rng, k)
        np.testing.assert_array_equal(block.tx_bits, bits)
        for t in range(k):
            y_d = receive(propagate(transmit(map_bits(bits[:, t], loading), sol), h, eta[:, t]), sol)
            assert np.abs(block.y_d[:, t] - y_d).max() <= 1e-12 * np.abs(y_d).max()
            np.testing.assert_array_equal(rx[:, t], hard_detect(y_d, sol.xi, sol.gamma, loading))
            ref = llr(y_d, sol.xi, sol.gamma, loading, sigma0_sq)
            assert np.abs(soft[:, t] - ref).max() <= 1e-12 * np.abs(ref).max()


def _generator(kind, seed):
    """A PCG64 or Philox generator; a buffered-half-word PCG64 has drawn one 32-bit half and holds the other."""
    g = np.random.Generator((np.random.Philox if kind == "philox" else np.random.PCG64)(seed))
    if kind == "buffered-half-word":
        g.integers(0, 7, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"]
    return g


class TestScalarFrames:
    """scalar_frames, the BER sweep's frame path, against run_frame, its oracle."""

    def test_identity_block_matches_matrix_link_bit_for_bit(self):
        # the ber-awgn512 link: identity channel at alpha = 1, MN = 512, one
        # 64-frame block from one generator; there xi = 1 and H, V, P and D are exactly I
        snr = snr_linear(4.0)
        shape, cfg, noise, h, sol = _solved_identity_link(32, 16, 1.0, snr=snr)
        xi, phi = subchannel_gains(identity_channel(), cfg, noise)
        gamma = waterfill(xi, phi, snr)[0]
        np.testing.assert_array_equal(xi, sol.xi)
        np.testing.assert_array_equal(gamma, sol.gamma)
        loading = bit_loading(xi, gamma, snr, None, cfg)
        oracle = run_frame(loading, sol, h, 1.0 / snr, np.random.default_rng(300), 64)
        tx_bits, y_d = scalar_frames(loading, xi, gamma, 1.0 / snr, np.random.default_rng(300), 64)
        np.testing.assert_array_equal(tx_bits, oracle.tx_bits)
        assert y_d.shape == (shape.MN, 64)
        assert y_d.tobytes() == oracle.y_d.tobytes()

    def test_eva_matches_matrix_link_in_distribution(self):
        # at alpha = 0.8 the oracle colors its noise in G's eigenbasis, so the
        # paths agree in distribution only: independent frames on one loading
        # give error counts within Z = 5 binomial deviations of each other,
        # and each path's LLR-sign errors lie within Z = 5 of the count its
        # LLRs predict, sum(p) with p = 1/(1 + e^|L|)
        snr = snr_linear(8.0)
        shape, cfg, noise, h, sol = solved_eva_link(16, 4, 0.8, seed=21, snr=snr)
        loading = bit_loading(sol.xi, sol.gamma, snr, 1.5, cfg)
        sigma0_sq, k = 1.0 / snr, 512
        oracle = run_frame(loading, sol, h, sigma0_sq, np.random.default_rng(0), k)
        scalar = scalar_frames(loading, sol.xi, sol.gamma, sigma0_sq, np.random.default_rng(1), k)
        errors = []
        for tx_bits, y_d in ((oracle.tx_bits, oracle.y_d), scalar):
            errors.append(np.count_nonzero(hard_detect(y_d, sol.xi, sol.gamma, loading) != tx_bits))
            soft = llr(y_d, sol.xi, sol.gamma, loading, sigma0_sq)
            p = np.exp(-np.logaddexp(0.0, np.abs(soft)))
            sign_errors = np.count_nonzero((soft < 0) != (tx_bits == 1))
            assert abs(sign_errors - p.sum()) <= 5.0 * np.sqrt((p * (1.0 - p)).sum())
        n = loading.total_bits * k
        p_bar = sum(errors) / (2.0 * n)
        assert min(errors) > 1000  # the point is far from error-free
        assert abs(errors[0] - errors[1]) <= 5.0 * np.sqrt(2.0 * n * p_bar * (1.0 - p_bar)) + 1.0

    def test_one_buffer_matches_the_complex_sum(self, rng):
        # y_d is summed in one complex buffer through its float64 view; byte
        # for byte it is a x + (w_re + 1j w_im)^T over separate temporaries
        b = rng.choice(np.array([0, *SUPPORTED_BITS]), 512)
        loading = Loading(bits_per_symbol=b)
        xi, gamma = rng.uniform(0.1, 2.0, 512), rng.uniform(0.0, 2.0, 512)
        tx_bits, y_d = scalar_frames(loading, xi, gamma, 0.3, np.random.default_rng(70), 64)
        gen = np.random.default_rng(70)
        bits = _draw_bits(loading, gen, 64)
        w = _scaled_white(xi, 0.3, gen, 64)
        oracle = (xi * np.sqrt(gamma))[:, None] * map_bits(bits, loading) + (w[::2] + 1j * w[1::2]).T
        assert tx_bits.tobytes() == bits.tobytes()
        assert y_d.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("kind", ["pcg64", "philox", "buffered-half-word"])
    def test_scaled_white_matches_per_row_draws(self, kind):
        # one draw fills a block's rows, in C order, as one draw per row does
        var = np.linspace(0.5, 2.0, 37)
        gen = _generator(kind, 5)
        rows = np.array([gen.standard_normal(37) for _ in range(10)])
        w = _scaled_white(var, 0.3, _generator(kind, 5), 5)
        assert w.tobytes() == (rows * np.sqrt(0.5 * 0.3 * var)).tobytes()

    @pytest.mark.parametrize("kind", ["pcg64", "philox", "buffered-half-word"])
    def test_width_one_block_is_the_per_frame_draw(self, kind):
        # a per-trial channel's blocks are one frame wide: its bits are one integers
        # call and its noise the real and then the imaginary normal row
        loading = Loading(bits_per_symbol=np.array([2, 4, 0, 6, 8, 2]))
        xi, gamma = np.array([0.7, 1.2, 1.0, 2.0, 0.9, 1.4]), np.array([1.5, 0.8, 0.0, 0.4, 1.1, 0.6])
        gen = _generator(kind, 9)
        bits = gen.integers(0, 2, size=loading.total_bits, dtype=np.int64).astype(np.uint8)
        w_re, w_im = (gen.standard_normal(xi.size) * np.sqrt(0.5 * 0.3 * xi) for _ in "ri")
        tx_bits, y_d = scalar_frames(loading, xi, gamma, 0.3, _generator(kind, 9), 1)
        assert tx_bits.tobytes() == bits.tobytes()
        oracle = (xi * np.sqrt(gamma)) * map_bits(bits, loading) + (w_re + 1j * w_im)
        assert y_d[:, 0].tobytes() == oracle.tobytes()

    def test_detection_does_not_depend_on_memory_layout(self):
        loading = Loading(bits_per_symbol=np.array([2, 4, 0, 6, 8, 2]))
        xi, gamma = np.array([0.7, 1.2, 1.0, 2.0, 0.9, 1.4]), np.array([1.5, 0.8, 0.0, 0.4, 1.1, 0.6])
        _, y_d = scalar_frames(loading, xi, gamma, 0.3, np.random.default_rng(0), 9)
        c_block, f_block = np.ascontiguousarray(y_d), np.asfortranarray(y_d)
        np.testing.assert_array_equal(hard_detect(c_block, xi, gamma, loading),
                                      hard_detect(f_block, xi, gamma, loading))
        assert (llr(c_block, xi, gamma, loading, 0.3).tobytes()
                == llr(f_block, xi, gamma, loading, 0.3).tobytes())

    def test_zero_variance_is_noiseless(self):
        loading = Loading(bits_per_symbol=np.array([2, 0, 4]))
        xi, gamma = np.array([0.7, 1.0, 2.0]), np.array([1.5, 0.0, 0.4])
        tx_bits, y_d = scalar_frames(loading, xi, gamma, 0.0, np.random.default_rng(5), 2)
        np.testing.assert_array_equal(y_d, (xi * np.sqrt(gamma))[:, None] * map_bits(tx_bits, loading))
        np.testing.assert_array_equal(hard_detect(y_d, xi, gamma, loading), tx_bits)

    @pytest.mark.parametrize("sigma0_sq", [-0.5, np.nan, np.inf])
    def test_rejects_bad_noise_variance(self, sigma0_sq):
        loading = Loading(bits_per_symbol=np.array([2]))
        with pytest.raises(ValueError, match="sigma0_sq"):
            scalar_frames(loading, np.ones(1), np.ones(1), sigma0_sq, np.random.default_rng(1), 1)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,)])
    def test_rejects_out_of_the_wrong_shape(self, shape):
        loading = Loading(bits_per_symbol=np.array([2, 2]))
        out = np.empty(shape[::-1], complex).T
        with pytest.raises(ValueError, match=re.escape(f"out must have shape (2, 2), got {shape}")):
            scalar_frames(loading, np.ones(2), np.ones(2), 0.3, np.random.default_rng(1), 2, out=out)

    def test_no_generators_give_empty_blocks(self):
        # a block of no frames keeps its leading dimensions on both paths
        loading = Loading(bits_per_symbol=np.array([2, 2]))
        tx_bits, y_d = scalar_frames(loading, np.ones(2), np.ones(2), 0.3, np.random.default_rng(0), 0)
        assert tx_bits.shape == (4, 0) and y_d.shape == (2, 0)
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.9, seed=10)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, 1.5, cfg)
        frame = run_frame(loading, sol, h, 0.1, np.random.default_rng(0), 0)
        assert frame.tx_bits.shape == (loading.total_bits, 0) and frame.y_d.shape == (shape.MN, 0)
        assert hard_detect(frame.y_d, sol.xi, sol.gamma, loading).shape == (loading.total_bits, 0)


class TestStackedFrames:
    """Trials stacked on one link pass, each trial's scalar_frames filling its rows of one stacked out,
    against each trial's scalar_frames, hard_detect and llr run alone, as a BER block runs them."""

    MN = 24
    LOADINGS = (
        np.tile([2, 0, 4, 6, 0, 8], 4),  # mixed orders and unloaded subchannels
        np.full(MN, 2),  # all QPSK
        np.zeros(MN, dtype=int),  # no bits
        np.where(np.arange(MN) % 3, 4, 0),  # one higher order, two in three subchannels
        np.repeat([8, 0], MN // 2),
    )

    @pytest.mark.parametrize("sigma0_sq", [0.3, 0.0])
    def test_matches_per_trial_link(self, sigma0_sq):
        rng = np.random.default_rng(8)
        kinds = ("pcg64", "philox", "buffered-half-word", "pcg64", "philox")
        trials = []
        for b in self.LOADINGS:
            xi = rng.uniform(0.2, 2.0, self.MN)
            # unloaded subchannels are powered or not, as water-filling and a target leave them
            gamma = np.where(b > 0, rng.uniform(0.5, 2.0, self.MN), rng.choice([0.0, 1.3], self.MN))
            trials.append((Loading(bits_per_symbol=b), xi, gamma))
        # one frame per trial, as on per-trial channels, and two: frames lie len(trials) * MN apart in out
        for k in (1, 2):
            alone = []
            gens = [_generator(kind, 40 + t) for t, kind in enumerate(kinds)]
            for (loading, xi, gamma), gen in zip(trials, gens):
                tx_bits, y_d = scalar_frames(loading, xi, gamma, sigma0_sq, gen, k)
                soft = llr(y_d, xi, gamma, loading, sigma0_sq or 1.0)
                alone.append((tx_bits, y_d, hard_detect(y_d, xi, gamma, loading), soft))
            gens_stacked = [_generator(kind, 40 + t) for t, kind in enumerate(kinds)]
            y_d = np.full((k, len(trials) * self.MN), np.nan, complex).T
            tx_bits = np.concatenate([
                scalar_frames(loading, xi, gamma, sigma0_sq, gen, k, out=y_d[t * self.MN : (t + 1) * self.MN])[0]
                for t, ((loading, xi, gamma), gen) in enumerate(zip(trials, gens_stacked))
            ])
            loading = Loading(bits_per_symbol=np.concatenate(self.LOADINGS))
            xi, gamma = (np.concatenate([t[i] for t in trials]) for i in (1, 2))
            rx = hard_detect(y_d, xi, gamma, loading)
            soft = llr(y_d, xi, gamma, loading, sigma0_sq or 1.0)
            assert tx_bits.shape == rx.shape == soft.shape == (loading.total_bits, k)
            for i, stacked in enumerate((tx_bits, y_d, rx, soft)):
                assert stacked.tobytes() == np.concatenate([a[i] for a in alone]).tobytes()
            for gen, gen_stacked in zip(gens, gens_stacked):
                np.testing.assert_equal(gen_stacked.bit_generator.state, gen.bit_generator.state)


class TestDrawBits:
    """_draw_bits against the frame-by-frame Generator.integers draws it reproduces."""

    @staticmethod
    def integers_oracle(loading, rng, k):
        bits = [rng.integers(0, 2, size=loading.total_bits, dtype=np.int64) for _ in range(k)]
        return np.array(bits, np.uint8).reshape(k, loading.total_bits).T

    # [2] * 512 is drawn 15 frames at a time and [8] * 1536 a frame at a time, each draw below
    # 128 KiB of int64s where a frame allows it: k = 9 and 40 cross the draws' boundaries
    @pytest.mark.parametrize("b", [[2, 4, 0, 6, 8, 2], [8, 6, 4, 2, 8], [0, 0], [2] * 7, [2] * 512, [8] * 1536])
    @pytest.mark.parametrize("k", [0, 1, 9, 40])
    def test_matches_integers(self, b, k):
        loading = Loading(bits_per_symbol=np.array(b))
        rng, oracle_rng = np.random.default_rng(50), np.random.default_rng(50)
        bits = _draw_bits(loading, rng, k)
        assert bits.shape == (loading.total_bits, k)
        assert bits.tobytes() == self.integers_oracle(loading, oracle_rng, k).tobytes()
        # the noise that follows is unchanged
        assert rng.standard_normal(3).tobytes() == oracle_rng.standard_normal(3).tobytes()

    def test_fresh_generators_match_integers_unprobed(self):
        # the frame path never reads a generator's state
        class Unprobed(np.random.PCG64):
            state = property(lambda self: pytest.fail("state probed"))

        loading = Loading(bits_per_symbol=np.array([2, 4, 0, 6, 8, 2]))
        state = dict(trial_rng(5, 3, 0).bit_generator.state, bit_generator="Unprobed")
        np.random.PCG64.state.__set__(bit_generator := Unprobed(), state)
        tx_bits, _ = scalar_frames(loading, np.ones(6), np.ones(6), 0.3, np.random.Generator(bit_generator), 9)
        assert tx_bits.tobytes() == self.integers_oracle(loading, trial_rng(5, 3, 0), 9).tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_used_and_other_generators_match_integers(self, bit_generator):
        # a PCG64 that drew one 32-bit half holds the other, which integers reads first
        loading = Loading(bits_per_symbol=np.array([2, 4, 6]))
        for used in (False, True):
            rng, oracle_rng = (np.random.Generator(bit_generator(60)) for _ in "ab")
            if used:
                for g in (rng, oracle_rng):
                    g.integers(0, 2**32, dtype=np.uint32)
            bits = _draw_bits(loading, rng, 5)
            assert bits.tobytes() == self.integers_oracle(loading, oracle_rng, 5).tobytes()
            draw = lambda g: g.integers(0, 2**31, 3, np.uint32).tobytes()  # reads any buffered half
            assert draw(rng) == draw(oracle_rng)  # and leaves the generators alike


def largest_allocation(call):
    """The most traced memory one bytecode instruction of call() adds to what it started with: the
    largest block call() allocates, where no one instruction holds two large blocks at once."""
    largest = start = 0

    def trace(frame, event, arg):
        nonlocal largest, start
        frame.f_trace_opcodes = True
        largest = max(largest, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        return trace

    before = sys.gettrace()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sys.settrace(trace)
        call()
    finally:
        sys.settrace(before)
        tracemalloc.stop()
    return largest


class TestFrameWorkspace:
    """Blocks on one reused FrameWorkspace against the same calls made with none."""

    MN = 512
    LOADINGS = {
        "qpsk": Loading(bits_per_symbol=np.full(MN, 2)),
        # powered subchannels left unloaded, as a target rate leaves them
        "mixed": Loading(bits_per_symbol=np.tile([2, 0, 4, 6, 0, 8, 2, 0], MN // 8)),
    }

    @classmethod
    def outputs(cls, loading, sigma0_sq, seed, k, workspace):
        """tx_bits, y_d, hard decisions and LLRs of one block as bytes, and the generator's state after it."""
        xi, gamma = np.linspace(0.5, 2.0, cls.MN), np.linspace(1.5, 0.5, cls.MN)
        rng = np.random.default_rng(seed)
        out = None if workspace is None else workspace.y_d[: k * cls.MN].reshape(k, cls.MN).T
        tx_bits, y_d = scalar_frames(loading, xi, gamma, sigma0_sq, rng, k, workspace=workspace, out=out)
        rx = hard_detect(y_d, xi, gamma, loading, workspace=workspace)
        soft = llr(y_d, xi, gamma, loading, sigma0_sq or 1.0)
        if sigma0_sq == 0.0:
            assert not y_d[loading.bits_per_symbol == 0].any()
        return [(a.shape, a.tobytes()) for a in (tx_bits, y_d, rx, soft)] + [rng.bit_generator.state]

    @pytest.mark.parametrize("frames, blocks", [
        # a full block, then the partial last one of 1000 = 15 * 64 + 40 frames
        (64, [("qpsk", 0.3, 1, 64), ("qpsk", 0.3, 2, 40)]),
        # noiseless mixed blocks after QPSK: unloaded rows must not keep QPSK's values
        (64, [("qpsk", 0.3, 3, 64), ("mixed", 0.0, 4, 64), ("mixed", 0.3, 5, 40), ("mixed", 0.0, 6, 9)]),
        # one-frame blocks, as on a fading channel
        (1, [("mixed", 0.3, 7, 1), ("qpsk", 0.3, 8, 1), ("mixed", 0.0, 9, 1)]),
        # blocks of no frames after a full one
        (64, [("qpsk", 0.3, 10, 64), ("mixed", 0.3, 11, 0), ("qpsk", 0.3, 12, 0), ("mixed", 0.0, 13, 1)]),
    ])
    def test_warm_workspace_keeps_no_state(self, frames, blocks):
        workspace = FrameWorkspace(self.MN, frames)
        for name, sigma0_sq, seed, k in blocks:
            args = (self.LOADINGS[name], sigma0_sq, seed, k)
            assert self.outputs(*args, workspace) == self.outputs(*args, None)

    def test_warm_block_allocates_nothing_glibc_maps(self):
        # a block of 128 KiB or more, glibc's default mmap threshold, maps and faults in fresh pages
        loading, xi = self.LOADINGS["qpsk"], np.ones(self.MN)
        rng = np.random.default_rng(14)
        width = STACK_MN // self.MN  # the trials of a fading block at this MN

        def block(workspace):
            out = None if workspace is None else workspace.y_d.reshape(FRAME_BLOCK, self.MN).T
            tx_bits, y_d = scalar_frames(loading, xi, xi, 0.3, rng, FRAME_BLOCK, workspace=workspace, out=out)
            ber_accumulate(tx_bits, hard_detect(y_d, xi, xi, loading, workspace=workspace), BerCounter())

        # the sweep's runner: one entry of FRAME_BLOCK frames, and one frame of each of width trials
        identity = lambda workspace: _link_block([(0, xi, xi, loading, rng)], FRAME_BLOCK, 3.0, False, workspace)
        fading = lambda workspace: _link_block([(t, xi, xi, loading, rng) for t in range(width)], 1, 3.0, False,
                                               workspace)
        for run, frames in ((block, FRAME_BLOCK), (identity, FRAME_BLOCK), (fading, width)):
            workspace = FrameWorkspace(self.MN, frames)
            run(workspace)  # fills the workspace and the decision table
            assert largest_allocation(lambda: run(workspace)) < 128 * 1024
            assert workspace.real.nbytes + workspace.y_d.nbytes <= 2 * 16 * self.MN * frames
        assert largest_allocation(lambda: block(None)) >= 16 * self.MN * FRAME_BLOCK  # a fresh y_d


class TestFrameRecord:
    def test_pipeline_consistency(self, rng):
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.9, seed=10)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        frame = run_frame(loading, sol, h, 0.1, rng, 1)
        assert frame.tx_bits.size == loading.total_bits
        np.testing.assert_allclose(frame.s, sol.P @ frame.x, atol=1e-12)
        np.testing.assert_allclose(frame.y_d, sol.sub.D @ frame.z, atol=1e-12)
        # delay-Doppler oracle: the pair mapped to the grid, D_t F^H and F P_t
        # with F = F_N kron I_M, diagonalizes H_eq
        kron = np.kron(dft_matrix(shape.N), np.eye(shape.M))
        dhp = (sol.sub.D @ kron.conj().T) @ conjugate_by_dd(h, shape) @ (kron @ sol.P)
        bound = 1e-8 * sol.xi.max()
        assert np.abs(dhp - np.diag(sol.xi * np.sqrt(sol.gamma))).max() <= bound

    @pytest.mark.parametrize("sigma0_sq", [-0.5, np.nan, np.inf])
    def test_rejects_bad_noise_variance(self, sigma0_sq):
        shape, cfg, noise, h, sol = solved_eva_link(4, 3, 0.9, seed=10)
        loading = bit_loading(sol.xi, sol.gamma, 10.0, None, cfg)
        with pytest.raises(ValueError, match="sigma0_sq"):
            run_frame(loading, sol, h, sigma0_sq, np.random.default_rng(1), 1)

    def test_llr_dump_format(self):
        loading = Loading(bits_per_symbol=np.array([2, 0, 2]))
        text = format_llr_records(7, loading, np.array([1.5, -2.0, 0.25, 3.0]))
        assert text.splitlines() == [
            "7,0,0,1.5",
            "7,0,1,-2",
            "7,2,0,0.25",
            "7,2,1,3",
        ]

    @staticmethod
    def format_llr_records_loop(frame_idx, loading, llrs):
        # the per-record double loop the vectorized formatter replaced, kept as its oracle
        lines = []
        pos = 0
        for n in loading.loaded():
            for j in range(int(loading.bits_per_symbol[n])):
                lines.append(f"{frame_idx},{n},{j},{llrs[pos]:.12g}")
                pos += 1
        return "\n".join(lines)

    @pytest.mark.parametrize("seed", range(6))
    def test_llr_dump_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 200))
        b = rng.choice([0, *SUPPORTED_BITS], size=size, p=[0.4, 0.3, 0.1, 0.1, 0.1])
        loading = Loading(bits_per_symbol=b)
        # LLR columns as the BER sweep passes them: strided views of a frame block
        llrs = (rng.standard_normal((loading.total_bits, 3)) * 10.0 ** rng.integers(-3, 4))[:, 1]
        llrs[rng.random(llrs.size) < 0.05] = 0.0
        frame = int(rng.integers(0, 10**6))
        assert format_llr_records(frame, loading, llrs) == self.format_llr_records_loop(
            frame, loading, llrs)

    def test_llr_dump_edge_doubles(self):
        # '%.12g' and '{:.12g}' both print through PyOS_double_to_string: signed
        # zeros, subnormals, extremes, non-finite values and exact ties at the
        # 13th significant digit, which round half to even
        tiny = np.nextafter(0.0, 1.0)
        edges = [-0.0, 0.0, tiny, -tiny, 1e-310, -2.2250738585072014e-308 / 3, 1e300, -1e300,
                 np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan,
                 1000000000005.0, 1000000000015.0, -1000000000025.0, 123456789012.5,
                 123456789013.5, -123456789014.5, 0.1, 1 / 3, 2.5e-5, 99999999999.95, -1e-12]
        loading = Loading(bits_per_symbol=np.array([0, 2] * (len(edges) // 2)))
        llrs = np.array(edges)
        text = format_llr_records(12, loading, llrs)
        assert text == self.format_llr_records_loop(12, loading, llrs)
        assert text.splitlines()[:2] == ["12,1,0,-0", "12,1,1,0"]
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[13:16]] == [
            "1e+12", "1.00000000002e+12", "-1.00000000002e+12"]
        assert format_llr_records(3, Loading(bits_per_symbol=np.zeros(4, int)), np.empty(0)) == ""
