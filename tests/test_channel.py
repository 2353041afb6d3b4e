import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otfsftn import (
    DdChannel,
    DdPath,
    GridShape,
    conjugate_by_dd,
    dd_to_time,
    dump_paths,
    effective_channel,
    eva_channel,
    gram_matrix,
    identity_channel,
    load_paths,
    rc_autocorr,
    synthetic_channel,
    waveform_oracle,
)
from otfsftn.channel import channel_for_config, channel_strips, column_strips, eva_profile
from otfsftn.config import ChannelConfig
from otfsftn.pulse import lag_windows

from conftest import complex_gaussian, eva_config, identity_config


class TestEvaChannel:
    def test_nine_paths(self, rng):
        cfg = eva_config(64, 4, 0.9)
        chan = eva_channel(1000.0, cfg, rng)
        assert chan.num_paths == 9

    def test_mean_powers_normalized(self):
        _, powers = eva_profile()
        assert abs(powers.sum() - 1.0) <= 1e-12

    def test_zero_doppler_is_delay_only(self, rng):
        cfg = eva_config(64, 4, 0.9, nu_max=0.0)
        chan = eva_channel(0.0, cfg, rng)
        assert all(p.doppler_int == 0 and p.doppler_frac == 0.0 for p in chan.paths)

    def test_delay_tap_arithmetic(self, rng):
        # largest EVA delay 2510 ns at delta_f = 30 kHz, M = 64:
        # round(2510e-9 * 64 * 30e3) = round(4.8192) = 5
        cfg = eva_config(64, 4, 0.9, cp_len=6)
        chan = eva_channel(1000.0, cfg, rng)
        assert chan.max_delay_tap() == round(2510e-9 * 64 * 30e3) == 5

    def test_jakes_doppler_relation(self):
        cfg = eva_config(64, 4, 0.9)
        nu_max = 2000.0
        chan = eva_channel(nu_max, cfg, np.random.default_rng(20240901))
        # replay the draws: 18 normals for the nine complex gains, then the angles
        replay = np.random.default_rng(20240901)
        replay.standard_normal(18)
        angles = replay.uniform(-np.pi, np.pi, size=chan.num_paths)
        frame = cfg.N / cfg.delta_f_hz
        for p, theta in zip(chan.paths, angles, strict=True):
            nu = p.doppler_tap / frame
            assert abs(nu - nu_max * np.cos(theta)) <= 1e-9 * nu_max

    def test_coinciding_pairs_are_kept_and_summed(self):
        # at M = 5 every EVA delay rounds to tap 0, so one angle for all nine
        # paths makes their (delay, Doppler) pairs coincide: the first draw is
        # kept, and H is that of one path carrying the summed gain
        class OneAngle:
            normals = np.random.default_rng(4)

            def standard_normal(self, size):
                return self.normals.standard_normal(size)

            def uniform(self, low, high, size):
                return np.full(size, 0.3)

        cfg = eva_config(5, 3, 0.9)
        chan = eva_channel(2000.0, cfg, OneAngle())
        assert chan.num_paths == 9
        assert len({(p.delay_tap, p.doppler_int, p.doppler_frac) for p in chan.paths}) == 1
        p0 = chan.paths[0]
        one = DdChannel(paths=(DdPath(sum(p.gain for p in chan.paths), 0, p0.doppler_int,
                                      p0.doppler_frac),))
        h, ref = effective_channel(chan, cfg), effective_channel(one, cfg)
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_fraction_in_half_open_interval(self, rng):
        cfg = eva_config(64, 4, 0.9)
        for _ in range(20):
            chan = eva_channel(7500.0, cfg, rng)
            for p in chan.paths:
                assert -0.5 < p.doppler_frac <= 0.5

    def test_rejects_oversized_doppler(self, rng):
        cfg = eva_config(64, 4, 0.9)
        with pytest.raises(ValueError, match="delta_f/2"):
            eva_channel(20e3, cfg, rng)

    def test_rejects_delay_beyond_cp(self, rng):
        cfg = eva_config(64, 4, 0.9, cp_len=3)
        with pytest.raises(ValueError, match="CP"):
            eva_channel(1000.0, cfg, rng)


class TestSyntheticChannel:
    def test_distinct_pairs(self, rng):
        # the rate-curve setup: 20 paths, k_max = 5
        chan = synthetic_channel(20, 7, 5, True, rng)
        pairs = {(p.delay_tap, p.doppler_int) for p in chan.paths}
        assert len(pairs) == 20

    def test_tap_ranges(self, rng):
        chan = synthetic_channel(30, 4, 3, True, rng)
        for p in chan.paths:
            assert 0 <= p.delay_tap <= 4
            assert -3 <= p.doppler_int <= 3
            assert -0.5 < p.doppler_frac <= 0.5

    def test_integer_doppler_when_disabled(self, rng):
        chan = synthetic_channel(10, 3, 2, False, rng)
        assert all(p.doppler_frac == 0.0 for p in chan.paths)

    def test_mean_power_normalized(self, rng):
        draws = 10_000
        num_paths = 4
        total = np.empty(draws)
        for i in range(draws):
            chan = synthetic_channel(num_paths, 3, 2, False, rng)
            total[i] = sum(abs(p.gain) ** 2 for p in chan.paths)
        # sum of 2*num_paths unit-variance half-gaussians: var = 1/num_paths
        se = np.sqrt(1.0 / num_paths / draws)
        assert abs(total.mean() - 1.0) <= 3.0 * se

    def test_rejects_impossible_distinctness(self, rng):
        with pytest.raises(ValueError, match="distinct"):
            synthetic_channel(10, 1, 1, False, rng)

    def test_identity_channel_degenerate(self):
        chan = identity_channel()
        assert chan.num_paths == 1
        p = chan.paths[0]
        assert p.gain == 1.0 + 0.0j and p.delay_tap == 0 and p.doppler_tap == 0.0


class TestDdPath:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            DdPath(1.0 + 0j, 0, 0, 0.75)
        with pytest.raises(ValueError):
            DdPath(1.0 + 0j, 0, 0, -0.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            DdPath(1.0 + 0j, -1, 0, 0.0)


def single_path_channel(gain, l, k, kappa=0.0):
    return DdChannel(paths=(DdPath(gain, l, k, kappa),))


class TestEffectiveChannel:
    def test_identity_at_nyquist(self):
        cfg = identity_config(4, 3, 1.0, cp_len=2)
        h = effective_channel(single_path_channel(1.0 + 0j, 0, 0), cfg)
        assert np.abs(h - np.eye(12)).max() <= 1e-12
        assert np.abs(conjugate_by_dd(h, GridShape(4, 3)) - np.eye(12)).max() <= 1e-12

    def test_pure_delay_literal(self):
        cfg = identity_config(4, 3, 1.0, cp_len=2, cp_mode="literal")
        h = effective_channel(single_path_channel(1.0 + 0j, 1, 0), cfg)
        expect = np.zeros((12, 12))
        for k in range(1, 12):
            expect[k, k - 1] = 1.0
        assert np.abs(h - expect).max() <= 1e-12

    def test_pure_delay_circular_wraps(self):
        cfg = identity_config(4, 3, 1.0, cp_len=2, cp_mode="circular")
        h = effective_channel(single_path_channel(1.0 + 0j, 1, 0), cfg)
        expect = np.zeros((12, 12))
        for k in range(12):
            expect[k, (k - 1) % 12] = 1.0
        assert np.abs(h - expect).max() <= 1e-12

    def test_pure_doppler_phase_ramp(self):
        cfg = identity_config(4, 3, 1.0, cp_len=2)
        h = effective_channel(single_path_channel(1.0 + 0j, 0, 1), cfg)
        expect = np.diag(np.exp(2j * np.pi * np.arange(12) / 12))
        assert np.abs(h - expect).max() <= 1e-12

    def test_doppler_shifts_dd_impulse(self):
        # a pure integer-Doppler path moves a DD impulse by one Doppler bin
        m, n = 4, 3
        shape = GridShape(m, n)
        cfg = identity_config(m, n, 1.0, cp_len=2)
        h = effective_channel(single_path_channel(1.0 + 0j, 0, 1), cfg)
        for delay_bin in (0, 2):
            for dopp_bin in range(n):
                x = np.zeros(shape.MN, complex)
                x[delay_bin + m * dopp_bin] = 1.0
                y = conjugate_by_dd(h, shape) @ x
                mag = np.abs(y)
                peak = int(np.argmax(mag))
                assert peak == delay_bin + m * ((dopp_bin + 1) % n)
                assert abs(mag[peak] - 1.0) <= 1e-12

    def test_formula_oracle_small(self, rng):
        # direct elementwise evaluation of the two-dimensional formula
        m, n = 4, 2
        cfg = eva_config(m, n, 0.9, cp_len=3, cp_mode="literal")
        chan = DdChannel(
            paths=(
                DdPath(0.7 - 0.2j, 1, 1, 0.25),
                DdPath(-0.3 + 0.5j, 2, -1, -0.4),
            )
        )
        h = effective_channel(chan, cfg)
        from otfsftn import rc_autocorr

        mn = m * n
        expect = np.zeros((mn, mn), complex)
        for p in chan.paths:
            for k in range(mn):
                for mm in range(mn):
                    expect[k, mm] += (
                        p.gain
                        * np.exp(2j * np.pi * (p.doppler_int + p.doppler_frac) * (k - p.delay_tap) / mn)
                        * rc_autocorr((k - mm - p.delay_tap) * 0.9, 0.25)
                    )
        assert np.abs(h - expect).max() <= 1e-12

    def test_circular_adds_cp_image(self, rng):
        # circular mode = literal plus the prefix image of the last cp_len columns
        m, n = 4, 3
        cfg = eva_config(m, n, 0.85, cp_len=3, nu_max=1000.0)
        chan = DdChannel(paths=(DdPath(0.9 + 0.1j, 2, 1, 0.2),))
        lit = effective_channel(chan, replace(cfg, cp_mode="literal"))
        circ = effective_channel(chan, replace(cfg, cp_mode="circular"))
        from otfsftn import rc_autocorr

        mn = m * n
        delta = np.zeros((mn, mn), complex)
        p = chan.paths[0]
        for k in range(mn):
            for mm in range(mn - cfg.cp_len, mn):
                delta[k, mm] = (
                    p.gain
                    * np.exp(2j * np.pi * p.doppler_tap * (k - p.delay_tap) / mn)
                    * rc_autocorr((k - (mm - mn) - p.delay_tap) * 0.85, 0.25)
                )
        assert np.abs((circ - lit) - delta).max() <= 1e-12

    def test_linear_in_gains(self, rng):
        cfg = eva_config(8, 4, 0.9)
        chan = eva_channel(1000.0, cfg, np.random.default_rng(3))
        h1 = effective_channel(chan, cfg)
        scaled = DdChannel(
            paths=tuple(replace(p, gain=(1.5 - 0.5j) * p.gain) for p in chan.paths)
        )
        h2 = effective_channel(scaled, cfg)
        assert np.abs(h2 - (1.5 - 0.5j) * h1).max() <= 1e-12

    def test_frobenius_preserved(self, rng):
        cfg = eva_config(8, 4, 0.85)
        chan = eva_channel(2000.0, cfg, rng)
        h = effective_channel(chan, cfg)
        h_eq = conjugate_by_dd(h, GridShape(8, 4))
        assert abs(np.linalg.norm(h_eq) - np.linalg.norm(h)) <= 1e-10 * np.linalg.norm(h)

    def test_doppler_tap_periodicity_literal(self, rng):
        cfg = eva_config(8, 4, 0.9, cp_mode="literal")
        chan = eva_channel(3000.0, cfg, rng)
        shifted = DdChannel(
            paths=tuple(replace(p, doppler_int=p.doppler_int + 32 * 2) for p in chan.paths)
        )
        h1 = effective_channel(chan, cfg)
        h2 = effective_channel(shifted, cfg)
        assert np.abs(h1 - h2).max() <= 1e-9

    def test_circular_path_contribution_at_nyquist(self):
        # at alpha = 1 each path alone fills exactly MN entries, one per row,
        # all of magnitude |h_p|, on a cyclically shifted diagonal
        cfg = replace(identity_config(8, 4, 1.0, cp_len=4), cp_mode="circular")
        chan = synthetic_channel(5, 3, 2, False, np.random.default_rng(3))
        for p in chan.paths:
            h = effective_channel(DdChannel(paths=(p,)), cfg)
            nz = np.abs(h) > 1e-12
            assert int(nz.sum()) == 32
            mags = np.abs(h[nz])
            assert np.abs(mags - abs(p.gain)).max() <= 1e-12
            cols = np.argmax(nz, axis=1)
            np.testing.assert_array_equal(cols, (np.arange(32) - p.delay_tap) % 32)

    def test_separability_at_nyquist(self):
        # integer taps, alpha = 1, circular: the DD response of an impulse
        # is supported on exactly one shifted position per path
        m, n = 8, 4
        shape = GridShape(m, n)
        cfg = identity_config(m, n, 1.0, cp_len=4)
        chan = synthetic_channel(6, 3, 1, False, np.random.default_rng(11))
        h = effective_channel(chan, replace(cfg, cp_mode="circular"))
        x = np.zeros(shape.MN, complex)
        x[0] = 1.0
        resp = conjugate_by_dd(h, shape) @ x
        assert int(np.count_nonzero(np.abs(resp) > 1e-9)) == chan.num_paths

    def test_rejects_delay_beyond_cp(self):
        cfg = identity_config(4, 3, 0.9, cp_len=1)
        with pytest.raises(ValueError, match="CP"):
            effective_channel(single_path_channel(1.0 + 0j, 1, 0), cfg)


def per_path_reference(chan, beta, cfg, mode):
    """Effective channel by one lag-table gather per path, the prefix image
    added through a full-matrix mask."""
    mn = cfg.MN
    cp = cfg.effective_cp_len()
    k = np.arange(mn)
    diff = k[:, None] - k[None, :]
    l_top = chan.max_delay_tap()
    d_min = -(mn - 1) - l_top
    d_max = (mn - 1) + mn
    lag_table = np.asarray(rc_autocorr(np.arange(d_min, d_max + 1) * cfg.alpha, beta))
    h = np.zeros((mn, mn), dtype=complex)
    cp_cols = k[None, :] >= mn - cp
    for p in chan.paths:
        phase = np.exp(2j * np.pi * p.doppler_tap * (k - p.delay_tap) / mn)
        gv = lag_table[diff - p.delay_tap - d_min]
        if mode == "circular":
            gv = gv + np.where(cp_cols, lag_table[diff - p.delay_tap + mn - d_min], 0.0)
        h += (p.gain * phase)[:, None] * gv
    return h


class TestPerTapBuild:
    # summing paths per delay tap reorders the additions, so the bound is a
    # few ulps of the O(1) entries rather than exact equality; the roll-off
    # comes from the config, so the reference is built with the config's beta
    @pytest.mark.parametrize("profile,mode,beta", [
        pytest.param(profile, mode, beta, id=f"{profile}-{mode}" + ("" if beta == 0.25 else "-beta0.5"))
        for beta in (0.25, 0.5)
        for profile in ("synthetic", "eva", "identity")
        for mode in ("circular", "literal")
    ])
    def test_matches_per_path_loop(self, profile, mode, beta):
        if profile == "synthetic":
            # 20 paths on 4 delay taps, so most taps carry several paths
            cfg = identity_config(
                16, 6, 0.8, beta=beta, cp_len=4,
                channel=ChannelConfig(profile="synthetic", num_paths=20, l_max=3, k_max=5),
            )
        elif profile == "eva":
            cfg = eva_config(16, 4, 0.85, beta=beta, nu_max=2000.0)
        else:
            cfg = identity_config(8, 4, 0.9, beta=beta, cp_len=2)
        worst = 0.0
        for seed in range(3):
            chan = channel_for_config(cfg, np.random.default_rng(seed))
            h = effective_channel(chan, replace(cfg, cp_mode=mode))
            worst = max(worst, float(np.abs(h - per_path_reference(chan, beta, cfg, mode)).max()))
        assert worst <= 1e-13

    def test_dd_image_is_kron_conjugation(self, rng):
        cfg = eva_config(8, 4, 0.9)
        shape = GridShape(8, 4)
        h = effective_channel(eva_channel(2000.0, cfg, rng), cfg)
        assert h.shape == (shape.MN, shape.MN)
        kron = np.kron(np.fft.fft(np.eye(shape.N), norm="ortho"), np.eye(shape.M))
        assert np.abs(conjugate_by_dd(h, shape) - kron @ h @ kron.conj().T).max() <= 1e-12


def gather_effective_channel(chan, cfg):
    """Effective channel by an integer lag-index gather per delay tap, the
    prefix image added in its own branch: the construction the strided
    windows replaced, kept as the byte-level reference."""
    mn = cfg.MN
    cp = cfg.effective_cp_len()
    l_top = chan.max_delay_tap()
    lags = np.arange(-(mn - 1) - l_top, 2 * mn)
    lag_table = (lags == 0).astype(float) if cfg.alpha == 1.0 else np.asarray(
        rc_autocorr(lags * cfg.alpha, cfg.beta))
    k = np.arange(mn)
    diff = k[:, None] - k[None, :] + (mn - 1)
    h = np.zeros((mn, mn), dtype=complex)
    for tap in sorted({p.delay_tap for p in chan.paths}):
        weight = sum(p.gain * np.exp(2j * np.pi * p.doppler_tap * (k - tap) / mn)
                     for p in chan.paths if p.delay_tap == tap)
        gv = lag_table[l_top - tap :][diff]
        if cfg.cp_mode == "circular":
            gv[:, mn - cp :] += lag_table[l_top - tap + mn :][diff[:, mn - cp :]]
        h += weight[:, None] * gv
    return h


def gather_gram(mn, alpha, beta):
    """G by gathering g(|k - m|*T_f) through an integer index matrix."""
    idx = np.arange(mn)
    g = (idx == 0).astype(float) if alpha == 1.0 else np.asarray(rc_autocorr(idx * alpha, beta))
    return g[np.abs(np.subtract.outer(idx, idx))]


def strip_effective_channel(chan, cfg):
    """Effective channel as the sum of every tap's weighted window products, the
    prefix image added in the last cp columns: the dense build alpha = 1 no
    longer runs, kept as its byte-level reference."""
    mn = cfg.MN
    keep = mn - cfg.effective_cp_len() if cfg.cp_mode == "circular" else mn
    l_top = chan.max_delay_tap()
    w = lag_windows(np.arange(-(mn - 1) - l_top, 2 * mn), mn, cfg.alpha, cfg.beta)
    k = np.arange(mn)
    h = np.zeros((mn, mn), dtype=complex)
    for tap in sorted({p.delay_tap for p in chan.paths}):
        weight = sum(p.gain * np.exp(2j * np.pi * p.doppler_tap * (k - tap) / mn)
                     for p in chan.paths if p.delay_tap == tap)[:, None]
        main, image = w[l_top - tap : l_top - tap + mn], w[l_top - tap + mn : l_top - tap + 2 * mn]
        h[:, :keep] += weight * main[:, :keep]
        h[:, keep:] += weight * (main[:, keep:] + image[:, keep:])
    return h


class TestStridedBuild:
    # (M, N, cp_len): an odd MN = 15, the rate grid's MN = 96, and cp_len = MN
    @pytest.mark.parametrize("m,n,cp_len", [(5, 3, 4), (16, 6, 4), (4, 2, 8)])
    @pytest.mark.parametrize("profile", ["identity", "synthetic", "eva"])
    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_bytes_match_index_gather(self, m, n, cp_len, profile, alpha, beta):
        channel = {
            "identity": ChannelConfig(),
            "synthetic": ChannelConfig(profile="synthetic", num_paths=6, l_max=3, k_max=1),
            "eva": ChannelConfig(profile="eva", nu_max_hz=2000.0),
        }[profile]
        cfg = identity_config(m, n, alpha, beta=beta, cp_len=cp_len, delta_f_hz=30e3,
                              channel=channel)
        gram = gram_matrix(GridShape(m, n), alpha, beta).dense_g()
        assert gram.flags.c_contiguous
        assert gram.tobytes() == gather_gram(m * n, alpha, beta).tobytes()
        for seed in range(2):
            chan = channel_for_config(cfg, np.random.default_rng(seed))
            for mode in ("circular", "literal"):
                mode_cfg = replace(cfg, cp_mode=mode)
                h = effective_channel(chan, mode_cfg)
                assert h.tobytes() == gather_effective_channel(chan, mode_cfg).tobytes()

    @pytest.mark.parametrize("mode", ["circular", "literal"])
    @pytest.mark.parametrize("m,n,cp_len", [(5, 3, 4), (16, 6, 4), (4, 2, 8)])
    def test_nyquist_scatter_matches_strip_build(self, m, n, cp_len, mode):
        # at alpha = 1 each tap's weight is written straight into its column;
        # delay taps up to cp_len - 1 reach the wrap-around columns in circular mode
        channel = ChannelConfig(profile="synthetic", num_paths=6, l_max=cp_len - 1, k_max=1,
                                frac_doppler=True)
        cfg = identity_config(m, n, 1.0, cp_len=cp_len, cp_mode=mode, channel=channel)
        mn, wrapped = m * n, 0
        for seed in range(3):
            chan = channel_for_config(cfg, np.random.default_rng(seed))
            h = effective_channel(chan, cfg)
            assert h.tobytes() == strip_effective_channel(chan, cfg).tobytes()
            assert np.count_nonzero(h) == sum(mn - l * (mode == "literal")
                                              for l in {p.delay_tap for p in chan.paths})
            wrapped += np.count_nonzero(np.triu(h, mn - cp_len + 1))
        assert (wrapped > 0) == (mode == "circular")

    # MN = 15, 64 and 384: the gains path's strips are 6, 26 and 64 columns wide,
    # effective_channel's 16, and keep = MN - cp_len falls inside a strip of both
    @pytest.mark.parametrize("m,n,cp_len", [(5, 3, 4), (16, 4, 4), (64, 6, 4)])
    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    def test_effective_channel_is_the_stacked_strips(self, m, n, cp_len, alpha):
        channel = ChannelConfig(profile="synthetic", num_paths=6, l_max=cp_len - 1, k_max=1,
                                frac_doppler=True)
        mn = m * n
        for mode in ("circular", "literal"):
            cfg = identity_config(m, n, alpha, cp_len=cp_len, cp_mode=mode, channel=channel)
            chan = channel_for_config(cfg, np.random.default_rng(mn))
            buf = np.empty((mn + 1) ** 2, dtype=complex)
            strips = [(j, strip.copy()) for j, strip in channel_strips(chan, cfg, buf)]
            assert [j for j, _ in strips] == column_strips(mn, buf.size)
            assert any(j.start < mn - cp_len < j.stop for j, _ in strips)
            stacked = np.hstack([strip for _, strip in strips])
            assert effective_channel(chan, cfg).tobytes() == stacked.tobytes()

    def test_peak_memory_is_h_plus_a_strip(self):
        # H itself plus one row strip's product; no lag-index matrix and no
        # MN x MN product per delay tap
        cfg = identity_config(
            64, 6, 0.8, cp_len=4,
            channel=ChannelConfig(profile="synthetic", num_paths=20, l_max=3, k_max=5),
        )
        chan = channel_for_config(cfg, np.random.default_rng(1))
        effective_channel(chan, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            effective_channel(chan, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.MN == 384
        assert peak - base <= 1.25 * 16 * cfg.MN**2


class TestWaveformOracle:
    def test_identity_channel_nyquist(self, rng):
        shape = GridShape(8, 4)
        cfg = identity_config(8, 4, 1.0, cp_len=2)
        x_p = complex_gaussian(rng, shape.MN)
        z = waveform_oracle(x_p, identity_channel(), cfg)
        s = dd_to_time(x_p, shape)
        assert np.abs(z - s).max() <= 1e-3 * np.abs(s).max()

    def test_zero_input(self):
        cfg = identity_config(4, 2, 0.9, cp_len=2)
        z = waveform_oracle(np.zeros(8, complex), identity_channel(), cfg)
        assert np.abs(z).max() == 0.0

    def test_matches_matrix_model_eva(self, rng):
        # the oracle and the matrix model both read the roll-off from the config
        shape = GridShape(16, 4)
        for beta in (0.25, 0.5):
            cfg = eva_config(16, 4, 0.9, beta=beta, nu_max=100.0, seed=5)
            chan = eva_channel(100.0, cfg, np.random.default_rng(5))
            h = effective_channel(chan, replace(cfg, cp_mode="circular"))
            x_p = complex_gaussian(rng, shape.MN)
            z_model = h @ dd_to_time(x_p, shape)
            z_wave = waveform_oracle(x_p, chan, cfg)
            assert np.abs(z_model - z_wave).max() <= 1e-3 * np.abs(z_wave).max()

    def test_prefix_as_long_as_frame(self, rng):
        # cp_len = MN: the prefix image of every column wraps exactly once
        shape = GridShape(4, 2)
        cfg = identity_config(4, 2, 0.9, cp_len=8)
        chan = single_path_channel(0.8 - 0.3j, 7, 0)
        x_p = complex_gaussian(rng, shape.MN)
        z_model = effective_channel(chan, cfg) @ dd_to_time(x_p, shape)
        z_wave = waveform_oracle(x_p, chan, cfg)
        assert np.abs(z_model - z_wave).max() <= 1e-3 * np.abs(z_wave).max()

    def test_rejects_prefix_longer_than_frame(self):
        cfg = identity_config(4, 2, 0.9, cp_len=9)
        with pytest.raises(ValueError, match="CP length 9 exceeds the frame length MN = 8"):
            effective_channel(single_path_channel(1.0 + 0j, 3, 0), cfg)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_rejects_roll_off_outside_unit_interval(self, beta):
        cfg = identity_config(4, 2, 0.9, beta=beta, cp_len=2)
        with pytest.raises(ValueError, match="roll-off must lie in"):
            gram_matrix(GridShape(4, 2), 0.9, beta)
        with pytest.raises(ValueError, match="roll-off must lie in"):
            effective_channel(identity_channel(), cfg)
        with pytest.raises(ValueError, match="roll-off must lie in"):
            waveform_oracle(np.zeros(8, complex), identity_channel(), cfg)


class TestDump:
    def test_roundtrip_exact(self, rng):
        cfg = eva_config(64, 4, 0.9)
        chan = eva_channel(5000.0, cfg, rng)
        back = load_paths(dump_paths(chan))
        assert back.paths == chan.paths

    def test_roundtrip_after_provenance_line(self, rng):
        chan = eva_channel(5000.0, eva_config(64, 4, 0.9), rng)
        assert load_paths("# provenance x\n" + dump_paths(chan)).paths == chan.paths

    def test_rejects_missing_or_wrong_header(self, rng):
        lines = dump_paths(eva_channel(5000.0, eva_config(64, 4, 0.9), rng)).splitlines()
        with pytest.raises(ValueError, match="header"):
            load_paths("\n".join(lines[1:]))
        with pytest.raises(ValueError, match="header"):
            load_paths("\n".join(["# dd-channel-dump v2"] + lines[1:]))
        with pytest.raises(ValueError, match="header"):
            load_paths("\n".join(l for l in lines if not l.startswith("#")))

    def test_rejects_wrong_path_count(self, rng):
        text = dump_paths(eva_channel(5000.0, eva_config(64, 4, 0.9), rng))
        with pytest.raises(ValueError, match="declares 10 paths but holds 9"):
            load_paths(text.replace("# paths 9", "# paths 10"))
        with pytest.raises(ValueError, match="declares 9 paths but holds 8"):
            load_paths(text.rsplit("\n", 2)[0])
        with pytest.raises(ValueError, match="paths N"):
            load_paths(text.replace("# paths 9", "# paths nine"))

    def test_dump_format(self):
        text = dump_paths(identity_channel())
        lines = text.splitlines()
        assert lines[0] == "# dd-channel-dump v1"
        assert lines[1] == "# paths 1"
        assert len([l for l in lines if not l.startswith("#")]) == 1
