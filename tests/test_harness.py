import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import otfsftn.pulse
from otfsftn import ConfigError, parse_config, run_ber_sweep, run_rate_sweep, validate
from otfsftn.cli import main as cli_main
import otfsftn._openblas as _openblas
import otfsftn.harness as harness
import otfsftn.link as link
from otfsftn.harness import channel_dump, single_blas_thread, trial_rng

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
M: 4
N: 2
alpha: 1.0
beta: 0.25
channel:
  profile: identity
"""

FIG1_STYLE = """
M: 128
N: 12
alpha: [0.8, 0.9, 1.0]
beta: 0.25
snr_db_grid: [0, 10, 20]
master_seed: 7
trials: 2
cp_len: 8
channel:
  profile: synthetic
  num_paths: 20
  l_max: 7
  k_max: 5
  frac_doppler: true
"""

AWGN_QPSK = """
M: 4
N: 4
alpha: 1.0
beta: 0.25
snr_db_grid: [0, 4]
master_seed: 11
trials: 40
channel:
  profile: identity
"""

SYNTH_BER = """
M: 8
N: 4
alpha: [0.9]
beta: 0.25
snr_db_grid: [4, 8]
master_seed: 5
trials: 16
cp_len: 4
channel:
  profile: synthetic
  num_paths: 5
  l_max: 3
  k_max: 2
  frac_doppler: true
"""

EVA_BER = """
M: 16
N: 4
alpha: [0.9]
beta: 0.25
delta_f_hz: 30000
snr_db_grid: [8]
master_seed: 3
trials: 6
cp_len: 3
channel:
  profile: eva
  nu_max_hz: 1000
"""


class TestParseConfig:
    def test_minimal_accepted(self):
        cfg = parse_config(MINIMAL)
        assert cfg.M == 4 and cfg.N == 2 and cfg.alpha == 1.0
        assert cfg.channel.profile == "identity"
        assert cfg.effective_cp_len() == 1

    def test_rate_curve_setup_accepted(self):
        cfg = parse_config(FIG1_STYLE)
        assert cfg.alpha_grid == (0.8, 0.9, 1.0)
        assert cfg.channel.num_paths == 20 and cfg.channel.k_max == 5

    def test_alpha_below_bound_rejected(self):
        with pytest.raises(ConfigError, match="1/\\(1\\+beta\\) = 0.8"):
            parse_config(MINIMAL.replace("alpha: 1.0", "alpha: 0.7"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(MINIMAL + "\nbogus_key: 3\n")

    def test_unknown_channel_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown channel key"):
            parse_config(MINIMAL + "  bogus: 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="required key 'beta'"):
            parse_config("M: 4\nN: 2\nalpha: 1.0\n")

    def test_cp_shorter_than_delay_rejected(self):
        with pytest.raises(ConfigError, match="cp_len"):
            parse_config(EVA_BER.replace("cp_len: 3", "cp_len: 1"))

    def test_oversized_doppler_rejected(self):
        with pytest.raises(ConfigError, match="delta_f/2"):
            parse_config(EVA_BER.replace("nu_max_hz: 1000", "nu_max_hz: 16000"))

    def test_impossible_synthetic_distinctness(self):
        bad = FIG1_STYLE.replace("l_max: 7", "l_max: 0").replace("k_max: 5", "k_max: 0")
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(bad)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")

    def test_duplicate_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha entries must be distinct"):
            parse_config(MINIMAL.replace("alpha: 1.0", "alpha: [0.9, 0.9]"))

    def test_malformed_values_rejected(self):
        with pytest.raises(ConfigError, match="malformed config value"):
            parse_config("M: abc\nN: 2\nalpha: 1.0\nbeta: 0.25\n")
        with pytest.raises(ConfigError, match="'alpha'"):
            parse_config("M: 4\nN: 2\nalpha: [0.9, oops]\nbeta: 0.25\n")

    @pytest.mark.parametrize("snr", [".nan", ".inf", "-.inf"])
    def test_non_finite_snr_rejected(self, snr):
        with pytest.raises(ConfigError, match="snr_db_grid entries must be finite"):
            parse_config(MINIMAL + f"snr_db_grid: [0, {snr}]\n")

    @pytest.mark.parametrize("snr", ["4000", "-4000", "-3200"])
    def test_extreme_snr_rejected(self, snr):
        # finite in dB, but 10^(snr_db/10) overflows, underflows to zero, or
        # leaves an infinite noise variance 1/SNR
        with pytest.raises(ConfigError, match=f"snr_db_grid entries must be finite.*got {snr}"):
            parse_config(MINIMAL + f"snr_db_grid: [0, {snr}]\n")

    def test_infeasible_target_rate_rejected(self):
        # at M=8, N=4 a frame carries at most 8*32 = 256 bits (256-QAM everywhere):
        # 5 bps/Hz needs 214 at alpha 0.8 but 266 at alpha 1
        text = MINIMAL.replace("M: 4", "M: 8").replace("N: 2", "N: 4")
        cfg = parse_config(text.replace("alpha: 1.0", "alpha: 0.8") + "target_rate_bps_hz: 6.0\n")
        assert cfg.target_rate_bps_hz == 6.0
        text = text.replace("alpha: 1.0", "alpha: [0.8, 1.0]") + "target_rate_bps_hz: 5.0\n"
        with pytest.raises(ConfigError, match="target_rate_bps_hz 5.0 needs 266 bits per frame at alpha 1.0"):
            parse_config(text)

    @pytest.mark.parametrize("profile", ["eva", "identity"])
    @pytest.mark.parametrize("key", ["delta_f_hz", "target_rate_bps_hz"])
    def test_non_finite_real_key_rejected(self, key, profile):
        base = EVA_BER if profile == "eva" else MINIMAL
        text = "".join(l for l in base.splitlines(True) if not l.startswith(key)) + f"{key}: .inf\n"
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite, got inf"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("M: 4", "M: 4.9", "'M' must be int"),
            ("N: 2", "N: true", "'N' must be int"),
            ("M: 4", "M: 4\ntrials: 2.7", "'trials' must be int"),
            ("M: 4", "M: 4\nmaster_seed: true", "'master_seed' must be int"),
            ("M: 4", "M: 4\ncp_len: '2'", "'cp_len' must be int"),
            ("profile: identity", "profile: identity\n  num_paths: 1.5", "'num_paths' must be int"),
            ("profile: identity", "profile: identity\n  frac_doppler: 'false'", "'frac_doppler' must be bool"),
            ("profile: identity", "profile: identity\n  frac_doppler: 0", "'frac_doppler' must be bool"),
            ("alpha: 1.0", "alpha: true", "'alpha' must be int or float"),
            ("beta: 0.25", "beta: '0.25'", "'beta' must be int or float"),
            ("M: 4", "M: 4\nsnr_db_grid: [true, '3']", "'snr_db_grid' must be int or float"),
            ("M: 4", "M: 4\ndelta_f_hz: '1e4'", "'delta_f_hz' must be int or float"),
            ("M: 4", "M: 4\ntarget_rate_bps_hz: '1.5'", "'target_rate_bps_hz' must be int or float"),
            ("profile: identity", "profile: identity\n  nu_max_hz: false", "'nu_max_hz' must be int or float"),
        ],
    )
    def test_integer_and_bool_fields_strict(self, old, new, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(MINIMAL.replace(old, new))

    def test_frame_size_cap(self):
        big = MINIMAL.replace("M: 4", "M: 1600")
        with pytest.raises(ConfigError, match="1536"):
            parse_config(big)

    def test_prefix_longer_than_frame_rejected(self):
        # MN = 8: a prefix of 9 symbols would wrap around the frame twice
        with pytest.raises(ConfigError, match="cp_len 9 exceeds the frame length MN = 8"):
            parse_config(MINIMAL + "cp_len: 9\n")
        assert parse_config(MINIMAL + "cp_len: 8\n").effective_cp_len() == 8
        # the default prefix, max delay tap + 1, is held to the same bound
        deep = MINIMAL.replace("profile: identity", "profile: synthetic\n  l_max: 8")
        with pytest.raises(ConfigError, match="cp_len 9 exceeds"):
            parse_config(deep)


class TestRateSweep:
    def test_identity_awgn_is_shannon(self):
        cfg = parse_config(AWGN_QPSK)
        result = run_rate_sweep(cfg)
        # the beta = 0 Nyquist baseline on the identity channel is the AWGN rate
        for row in result.rows:
            if row.mode == "nyquist" and row.beta == 0.0:
                snr = 10.0 ** (row.snr_db / 10.0)
                assert abs(row.rate_bps_hz - np.log2(1.0 + snr)) <= 1e-9

    def test_pa_dominates_no_pa(self):
        cfg = parse_config(FIG1_STYLE.replace("M: 128", "M: 16").replace("N: 12", "N: 4"))
        result = run_rate_sweep(cfg)
        by_key = {(r.alpha, r.snr_db, r.mode): r for r in result.rows}
        for alpha in (0.8, 0.9, 1.0):
            for snr in (0.0, 10.0, 20.0):
                assert by_key[(alpha, snr, "pa")].rate_bps_hz >= by_key[(alpha, snr, "no_pa")].rate_bps_hz

    def test_rows_sorted_and_csv_schema(self):
        cfg = parse_config(AWGN_QPSK)
        result = run_rate_sweep(cfg)
        csv = result.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("# provenance config_sha256=")
        assert lines[1] == "snr_db,alpha,beta,mode,mi_bits,rate_bps_hz,seeds"
        keys = [(r.alpha, r.snr_db) for r in result.rows]
        assert keys == sorted(keys)

    def test_nyquist_rows_share_one_mi(self):
        cfg = parse_config(FIG1_STYLE.replace("M: 128", "M: 8").replace("N: 12", "N: 4"))
        result = run_rate_sweep(cfg)
        for snr_db in cfg.snr_db_grid:
            rows = {r.beta: r for r in result.rows if r.mode == "nyquist" and r.snr_db == snr_db}
            assert sorted(rows) == [0.0, cfg.beta]
            rect, rolled = rows[0.0], rows[cfg.beta]
            assert rect.mi_bits == rolled.mi_bits
            # R = mi / ((1+beta) * alpha * MN) at alpha = 1
            assert rect.rate_bps_hz == pytest.approx((1.0 + cfg.beta) * rolled.rate_bps_hz, rel=1e-15)
            assert rect.rate_bps_hz == pytest.approx(rect.mi_bits / cfg.MN, rel=1e-15)

    def test_threads_change_nothing(self):
        cfg = parse_config(FIG1_STYLE.replace("M: 128", "M: 8").replace("N: 12", "N: 4"))
        a = run_rate_sweep(cfg, threads=1).to_csv()
        b = run_rate_sweep(cfg, threads=4).to_csv()
        assert a == b

    @pytest.mark.parametrize("threads", [1, 2])
    def test_channels_shared_across_alphas(self, monkeypatch, threads):
        # each alpha, alpha = 1 included, redraws trial t's channel from trial t's stream
        cfg = parse_config(FIG1_STYLE.replace("M: 128", "M: 8").replace("N: 12", "N: 4")
                           .replace("trials: 2", "trials: 3"))
        expected = [harness.channel_for_config(cfg, trial_rng(cfg.master_seed, 0, t)) for t in range(3)]
        assert len(set(expected)) == 3
        seen = {}
        real = harness.subchannel_gains
        monkeypatch.setattr(harness, "subchannel_gains",
                            lambda chan, cfg, *a: seen.setdefault(cfg.alpha, []).append(chan) or real(chan, cfg, *a))
        run_rate_sweep(cfg, threads=threads)
        assert sorted(seen) == [0.8, 0.9, 1.0]
        assert all(sorted(chans, key=expected.index) == expected for chans in seen.values())


class TestNoiseShapePerInstance:
    SMALL = FIG1_STYLE.replace("M: 128", "M: 8").replace("N: 12", "N: 4").replace(
        "trials: 2", "trials: 3")

    def test_one_noise_shape_per_instance(self, monkeypatch):
        built = []
        original = otfsftn.pulse.noise_shape

        def counting(g, *args, **kwargs):
            ns = original(g, *args, **kwargs)
            built.append(ns)
            return ns

        monkeypatch.setattr(otfsftn.pulse, "noise_shape", counting)
        run_rate_sweep(parse_config(self.SMALL), threads=2)
        # alphas 0.8, 0.9, 1.0; the alpha = 1 Nyquist baselines share the 1.0 solve
        assert len(built) == 3

    def test_subchannel_evd_only_where_g_is_not_identity(self, monkeypatch):
        import otfsftn._openblas as _openblas

        sizes = []
        real = _openblas.HermitianEVD
        monkeypatch.setattr(
            _openblas, "HermitianEVD", lambda s, *buf: sizes.append(s.shape) or real(s, *buf))
        cfg = parse_config(self.SMALL)
        assert 1.0 in cfg.alpha_grid
        run_rate_sweep(cfg, threads=2)
        # one per trial at alphas 0.8 and 0.9, none at alpha = 1 (G = I)
        assert len(sizes) == 2 * cfg.trials

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_one_buffer_pair_per_worker(self, monkeypatch, threads):
        # every gains solve of a worker, at both alphas below 1, reuses its one pair; more
        # workers than cores and a short switch interval give a shared pair its chance to show
        pairs = {}
        real = harness.subchannel_gains

        def spy(chan, cfg, noise, bufs):
            out = real(chan, cfg, noise, bufs)
            if cfg.alpha < 1.0:
                pairs.setdefault(threading.get_ident(), set()).add(id(bufs.pair))
            return out

        cfg = parse_config(self.SMALL)
        serial = run_rate_sweep(cfg).to_csv()
        monkeypatch.setattr(harness, "subchannel_gains", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_rate_sweep(cfg, threads=threads).to_csv() == serial
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(pairs) <= threads and all(len(ids) == 1 for ids in pairs.values())

    def test_rate_sweep_never_forms_receive_weights(self, monkeypatch):
        import otfsftn.precoder as precoder

        # the gains need no derivation, so no receive weights either
        calls = []
        real = precoder.derive_subchannels
        spy = lambda *a: calls.append(1) or real(*a)
        monkeypatch.setattr(precoder, "derive_subchannels", spy)
        monkeypatch.setattr(harness, "derive_subchannels", spy)
        run_rate_sweep(parse_config(self.SMALL), threads=2)
        assert calls == []

    def test_floor_warning_once_per_noise_shape(self, monkeypatch, caplog):
        # at MN = 32 the default relative floor never bites, even at the
        # admissibility edge, so a larger floor makes the edge instance clamp
        monkeypatch.setattr(otfsftn.pulse, "EIG_FLOOR_REL", 0.05)
        cfg = parse_config(self.SMALL.replace("alpha: [0.8, 0.9, 1.0]", "alpha: 0.8"))
        assert cfg.alpha_grid == (1.0 / (1.0 + cfg.beta),)
        with caplog.at_level(logging.WARNING, logger="otfsftn.pulse"):
            run_rate_sweep(cfg, threads=2)
        # three trials, but only the alpha = 0.8 noise shape clamps, once
        assert len([r for r in caplog.records if "floored" in r.message]) == 1


class TestBerSweep:
    def test_noiseless_limit_zero_errors(self):
        cfg = parse_config(AWGN_QPSK.replace("snr_db_grid: [0, 4]", "snr_db_grid: [200]"))
        result = run_ber_sweep(cfg)
        assert all(r.errors == 0 for r in result.rows)
        assert all(r.bits > 0 for r in result.rows)

    def test_byte_identical_across_threads(self):
        cfg = parse_config(EVA_BER)
        a = run_ber_sweep(cfg, threads=1).to_csv()
        b = run_ber_sweep(cfg, threads=4).to_csv()
        assert a == b

    def test_awgn_qpsk_matches_q_function(self):
        from math import erfc, sqrt

        text = AWGN_QPSK.replace("M: 4", "M: 8").replace("trials: 40", "trials: 100")
        cfg = parse_config(text)
        result = run_ber_sweep(cfg)
        for row in result.rows:
            snr = 10.0 ** (row.snr_db / 10.0)
            p = 0.5 * erfc(sqrt(snr) / sqrt(2.0))  # Q(sqrt(2 Eb/N0)) for QPSK
            se = sqrt(p * (1.0 - p) / row.bits)
            assert abs(row.ber - p) <= 3.0 * se

    def test_llr_dump_schema(self):
        cfg = parse_config(EVA_BER.replace("trials: 6", "trials: 2"))
        sink = io.StringIO()
        run_ber_sweep(cfg, llr_sink=sink)
        lines = sink.getvalue().splitlines()
        assert lines[0].startswith("# provenance config_sha256=")
        assert lines[1] == "frame,subchannel,bit,llr"
        first = lines[2].split(",")
        assert len(first) == 4
        int(first[0]); int(first[1]); int(first[2]); float(first[3])

    def test_csv_schema(self):
        cfg = parse_config(AWGN_QPSK)
        lines = run_ber_sweep(cfg).to_csv().splitlines()
        assert lines[1] == "snr_db,alpha,beta,target_rate,bits,errors,ber,trials"

    def test_identity_blocks_identical_across_threads(self):
        # 70 trials: one full frame block and one partial block per point
        cfg = parse_config(AWGN_QPSK.replace("trials: 40", "trials: 70"))
        outs = []
        for threads in (1, 2):
            sink = io.StringIO()
            csv = run_ber_sweep(cfg, threads=threads, llr_sink=sink).to_csv()
            outs.append((csv.encode(), sink.getvalue().encode()))
        assert outs[0] == outs[1]
        frames = [int(l.split(",")[0]) for l in outs[0][1].decode().splitlines()[2:]]
        # two SNR points, each with frames 0..69 in order, 32 QPSK bits a frame
        assert frames == [t for _ in range(2) for t in range(70) for _ in range(32)]

    def test_identity_subchannels_derived_once_per_alpha(self, monkeypatch):
        import otfsftn.harness as harness

        calls = []
        real = harness.subchannel_gains
        monkeypatch.setattr(
            harness, "subchannel_gains", lambda *a: calls.append(1) or real(*a)
        )
        cfg = parse_config(
            AWGN_QPSK.replace("alpha: 1.0", "alpha: [0.9, 1.0]").replace("trials: 40", "trials: 140")
        )
        # more workers than cores and a short switch interval, over three
        # frame blocks a point, give a race in the workers its chance
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 8):
                calls.clear()
                result = run_ber_sweep(cfg, threads=threads)
                assert len(result.rows) == 4 and len(calls) == 2
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("target, snr_db", [("1.2", 8.0), ("1.2", -4.0), ("null", 8.0)])
    def test_fading_block_matches_per_trial_link(self, target, snr_db):
        # a block of trials on one stacked link pass, against each trial water-filled,
        # bit-loaded and run through scalar_frames, hard_detect and llr alone: mixed
        # orders; at -4 dB unpowered subchannels; with no target, QPSK on every powered one
        cfg = parse_config(EVA_BER + f"target_rate_bps_hz: {target}\n").with_alpha(0.9)
        noise = harness.gram_matrix(harness.GridShape(cfg.M, cfg.N), 0.9, cfg.beta)
        block = range(3, 9)

        def solved():
            out = []
            for t in block:
                rng = trial_rng(cfg.master_seed, 0, t)
                chan = harness.channel_for_config(cfg, rng)
                out.append((*harness.subchannel_gains(chan, cfg, noise), rng))
            return out

        snr, trials = 10.0 ** (snr_db / 10.0), solved()
        counter, records = harness._fading_block(trials, block, snr, cfg, True)
        errors = bits = 0
        expected, loaded = [], []
        for t, (xi, phi, rng) in zip(block, solved()):
            gamma = harness.waterfill(xi, phi, snr)[0]
            loading = harness.bit_loading(xi, gamma, snr, cfg.target_rate_bps_hz, cfg)
            tx_bits, y_d = link.scalar_frames(loading, xi, gamma, 1.0 / snr, rng, 1)
            errors += int(np.count_nonzero(harness.hard_detect(y_d, xi, gamma, loading) != tx_bits))
            bits += tx_bits.size
            expected.append(link.format_llr_records(t, loading, link.llr(y_d, xi, gamma, loading, 1.0 / snr)[:, 0]))
            loaded.append(loading.bits_per_symbol)
            np.testing.assert_equal(trials[t - block.start][2].bit_generator.state, rng.bit_generator.state)
        assert (counter.errors, counter.total) == (errors, bits) and errors > 0
        assert records == expected
        b = np.array(loaded)
        assert len({tuple(row) for row in b}) > 1 or target == "null"  # trials load differently
        assert (b == 0).any()
        assert (np.isin(b, (0, 2)).all()) == (target == "null")

    def test_llr_dump_identical_across_threads(self):
        cfg = parse_config(EVA_BER.replace("trials: 6", "trials: 4"))
        sinks = []
        for threads in (1, 3):
            sink = io.StringIO()
            run_ber_sweep(cfg, threads=threads, llr_sink=sink)
            sinks.append(sink.getvalue())
        assert sinks[0] == sinks[1]


def _blas_counts(controls):
    return [get() for get, _ in controls]


class TestThreads:
    @pytest.fixture
    def blas_two(self):
        """OpenBLAS set to two threads for the test, so a pin to one shows."""
        controls = _openblas.thread_controls()
        if not controls:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = _blas_counts(controls)
        for _, put in controls:
            put(2)
        yield controls
        for (_, put), count in zip(controls, before):
            put(count)

    def _spy_gains(self, monkeypatch, controls, fail=False, name="subchannel_gains", stub=None):
        """The BLAS counts each call of harness.<name> sees; stub(*args) replaces the call."""
        seen = []
        real = getattr(harness, name)

        def spy(*args):
            seen.append(_blas_counts(controls))
            if fail:
                raise RuntimeError("gains failed")
            return (stub or real)(*args)

        monkeypatch.setattr(harness, name, spy)
        return seen

    def test_pool_pins_blas_and_restores_it(self, blas_two, monkeypatch):
        seen = self._spy_gains(monkeypatch, blas_two)
        run_ber_sweep(parse_config(EVA_BER), threads=2)
        assert len(seen) == 6 and all(c == [1] * len(blas_two) for c in seen)
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_blas_restored_when_sweep_raises(self, blas_two, monkeypatch):
        for threads in (1, 2):  # MN = 64: pinned for the whole sweep at threads == 1 too
            seen = self._spy_gains(monkeypatch, blas_two, fail=True)
            with pytest.raises(RuntimeError, match="gains failed"):
                run_ber_sweep(parse_config(EVA_BER), threads=threads)
            assert seen and seen[0] == [1] * len(blas_two)
            assert _blas_counts(blas_two) == [2] * len(blas_two)

    @pytest.mark.parametrize("text", [EVA_BER, AWGN_QPSK.replace("trials: 40", "trials: 140")],
                             ids=["fading", "identity"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_restored_when_the_calling_thread_raises(self, blas_two, text, threads):
        # writing the first LLR record fails while the map is part read, its pin held
        # (threads 2); the sweep must still lift every pin it took
        class FailingSink(io.StringIO):
            def write(self, text):
                if text.startswith("0,"):
                    raise OSError("disk full")
                return super().write(text)

        with pytest.raises(OSError, match="disk full"):
            run_ber_sweep(parse_config(text), threads=threads, llr_sink=FailingSink())
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    @pytest.mark.parametrize("sweep", [run_rate_sweep, run_ber_sweep])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_small_frame_sweep_runs_on_one_blas_thread(self, blas_two, monkeypatch, sweep, threads):
        # MN = 64 is below SERIAL_BLAS_MAX_MN: set-up (noise shapes; the rate sweep's
        # channels) and trials (the BER sweep's channels; every gains solve) see one thread
        cfg = parse_config(EVA_BER)
        assert cfg.MN <= harness.SERIAL_BLAS_MAX_MN
        seen = [self._spy_gains(monkeypatch, blas_two, name=name)
                for name in ("gram_matrix", "channel_for_config", "subchannel_gains")]
        sweep(cfg, threads=threads)
        assert all(calls and all(c == [1] * len(blas_two) for c in calls) for calls in seen)
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_large_frame_sweep_pins_blas_only_on_a_pool(self, blas_two, monkeypatch, threads):
        # MN = 768 is above SERIAL_BLAS_MAX_MN: a pool pins the whole sweep, set-up (noise
        # shapes) and gains alike; at threads == 1 both keep the user's count.  Stub gains,
        # so no 768-sized EVD runs.
        cfg = parse_config(EVA_BER.replace("N: 4", "N: 48").replace("trials: 6", "trials: 2"))
        assert cfg.MN == 768 > harness.SERIAL_BLAS_MAX_MN
        set_up = self._spy_gains(monkeypatch, blas_two, name="gram_matrix")
        gains = self._spy_gains(monkeypatch, blas_two,
                                stub=lambda chan, cfg, noise, bufs: (np.ones(noise.n), np.ones(noise.n)))
        run_ber_sweep(cfg, threads=threads)
        count = [1 if threads > 1 else 2] * len(blas_two)
        assert set_up == [count] and gains == [count] * 2
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_sweep_cancels_jobs_not_started(self, blas_two, monkeypatch):
        # the first LLR record fails while the jobs of points 1 and 2 wait on the failing
        # sink: the pool runs the jobs it has started and drops the rest
        cfg = parse_config(EVA_BER.replace("snr_db_grid: [8]", "snr_db_grid: [8, 12, 16]"))
        failed = threading.Event()
        real_rng = harness.trial_rng
        monkeypatch.setattr(harness, "trial_rng",
                            lambda seed, p, t: (p == 0 or failed.wait(30)) and real_rng(seed, p, t))
        gains = self._spy_gains(monkeypatch, blas_two)

        class FailingSink(io.StringIO):
            def write(self, text):
                if text.startswith("0,"):
                    failed.set()
                    raise OSError("disk full")
                return super().write(text)

        with pytest.raises(OSError, match="disk full"):
            run_ber_sweep(cfg, threads=2, llr_sink=FailingSink())
        assert cfg.trials <= len(gains) < 3 * cfg.trials
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    # MN = 512: large enough that BLAS splits the set-up products across threads
    AWGN_512 = (
        AWGN_QPSK.replace("M: 4", "M: 32").replace("N: 4", "N: 16")
        .replace("snr_db_grid: [0, 4]", "snr_db_grid: [0]").replace("trials: 40", "trials: 8")
    )

    def test_identity_csv_independent_of_threads(self, blas_two):
        cfg = parse_config(self.AWGN_512)
        assert run_ber_sweep(cfg, threads=2).to_csv() == run_ber_sweep(cfg, threads=1).to_csv()

    def test_identity_csv_independent_of_blas_threads(self, blas_two):
        cfg = parse_config(self.AWGN_512)
        with single_blas_thread():
            pinned = run_ber_sweep(cfg).to_csv()
        assert run_ber_sweep(cfg).to_csv() == pinned

    @pytest.fixture
    def fresh_controls(self):
        """thread_controls looked up anew in the test, and again after it."""
        _openblas.thread_controls.cache_clear()
        yield
        _openblas.thread_controls.cache_clear()

    def test_pin_is_no_op_without_setter(self, blas_two, monkeypatch, fresh_controls):
        monkeypatch.setattr(_openblas, "THREAD_FUNCTIONS", ("no_such_blas_{}_num_threads",))
        assert _openblas.thread_controls() == ()
        with single_blas_thread():
            assert _blas_counts(blas_two) == [2] * len(blas_two)

        def unreadable(*args):
            raise OSError("process maps unreadable")

        monkeypatch.setattr(_openblas, "open", unreadable, raising=False)
        _openblas.thread_controls.cache_clear()
        assert _openblas.thread_controls() == ()

    def test_controls_read_the_maps_once(self, blas_two, monkeypatch, fresh_controls):
        reads = []

        def counting_open(*args, **kwargs):
            reads.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(_openblas, "open", counting_open, raising=False)
        for _ in range(2):
            with single_blas_thread():
                assert _blas_counts(blas_two) == [1] * len(blas_two)
        assert reads == ["/proc/self/maps"]
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_maps_path_with_a_space_loads(self, blas_two, monkeypatch, tmp_path, fresh_controls):
        # a maps line's pathname runs from its sixth field to the end of the line;
        # a deleted mapping's path would name another file, so it is skipped
        (loaded,) = {lib._name for lib in _openblas._libraries()}
        (tmp_path / "dir with space").mkdir()
        linked = tmp_path / "dir with space" / Path(loaded).name
        linked.symlink_to(loaded)
        maps = (f"7f0000000000-7f0000001000 r-xp 00000000 08:01 12345      {linked}\n"
                f"7f0000001000-7f0000002000 r--p 00001000 08:01 12346      {tmp_path}/libopenblas.so (deleted)\n")
        monkeypatch.setattr(_openblas, "open", lambda *args: io.StringIO(maps), raising=False)
        assert [lib._name for lib in _openblas._libraries()] == [str(linked)]
        assert len(_openblas.thread_controls()) == 1
        with single_blas_thread():
            assert _blas_counts(blas_two) == [1] * len(blas_two)
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_eva192_outputs_identical_for_any_pool_size(self, blas_two):
        text = (
            (CONFIGS / "eva_ber.yaml").read_text()
            .replace("trials: 50", "trials: 2")
            .replace("snr_db_grid: [8, 12, 16, 20]", "snr_db_grid: [8]")
        )
        cfg = parse_config(text)
        assert cfg.MN == 192

        def run(threads):
            sink = io.StringIO()
            csv = run_ber_sweep(cfg, threads=threads, llr_sink=sink).to_csv()
            return csv.encode(), sink.getvalue().encode()

        pooled = run(2)
        assert len(pooled[1].splitlines()) > 2
        assert run(3) == pooled
        assert run(1) == pooled  # serial, with two BLAS threads outside the sweep

    @pytest.mark.parametrize("threads", [0, -3])
    def test_sweeps_reject_threads_below_one(self, threads):
        cfg = parse_config(AWGN_QPSK)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_rate_sweep(cfg, threads=threads)
        sink = io.StringIO()
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_ber_sweep(cfg, threads=threads, llr_sink=sink)
        assert sink.getvalue() == ""

    # (config, command, work items): 6 EVA trials at one point; 140 identity-channel trials,
    # 3 frame blocks; 1 EVA trial at each of 3 points
    @pytest.mark.parametrize("text, command, items", [
        (EVA_BER, "rate", 6), (EVA_BER, "ber", 6),
        (AWGN_QPSK.replace("trials: 40", "trials: 140"), "ber", 3),
        (EVA_BER.replace("trials: 6", "trials: 1").replace("snr_db_grid: [8]", "snr_db_grid: [8, 12, 16]"),
         "ber", 3)])
    @pytest.mark.parametrize("cpus", [1, 4, 8])
    def test_cli_threads_default_to_cpus_and_work_items(self, tmp_path, monkeypatch, text, command,
                                                        items, cpus):
        import otfsftn.cli as cli

        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for name in ("run_rate_sweep", "run_ber_sweep"):
            monkeypatch.setattr(cli, name, lambda cfg, threads, **kw: seen.append(threads) or
                                SimpleNamespace(to_csv=lambda: ""))
        out = str(tmp_path / "out.csv")
        assert cli_main([command, "--config", str(cfg), "--out", out]) == 0
        assert harness.work_items(parse_config(text), command) == items
        assert seen == [min(cpus, items)]
        assert cli_main([command, "--config", str(cfg), "--threads", "5", "--out", out]) == 0
        assert seen == [min(cpus, items), 5]

    @pytest.mark.parametrize("command", ["rate", "ber"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_cli_rejects_threads_below_one(self, tmp_path, capsys, command, threads):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err


class TestChannelDump:
    def test_deterministic_and_parseable(self):
        from otfsftn import load_paths

        cfg = parse_config(EVA_BER)
        d1 = channel_dump(cfg)
        d2 = channel_dump(cfg)
        assert d1 == d2
        chan = load_paths(d1)
        assert chan.num_paths == 9


class TestTrialRng:
    def test_streams_differ_across_cells(self):
        a = trial_rng(1, 0, 0).standard_normal(4)
        b = trial_rng(1, 0, 1).standard_normal(4)
        c = trial_rng(1, 1, 0).standard_normal(4)
        d = trial_rng(2, 0, 0).standard_normal(4)
        assert not np.allclose(a, b) and not np.allclose(a, c) and not np.allclose(a, d)

    def test_streams_reproducible(self):
        assert np.array_equal(trial_rng(9, 3, 7).standard_normal(8), trial_rng(9, 3, 7).standard_normal(8))

    @staticmethod
    def seed_sequence_rng(master_seed, point_idx, trial_idx):
        """The oracle: a PCG64 seeded by hand from the SeedSequence spawned at (point_idx, trial_idx)."""
        seq = np.random.SeedSequence(master_seed, spawn_key=(point_idx, trial_idx))
        return np.random.Generator(np.random.PCG64(seq))

    @staticmethod
    def per_frame_scalar_frames(loading, xi, gamma, sigma0_sq, rng, k, *, workspace=None):
        """The oracle of a block's draws: each frame's integers call, then one
        standard_normal call per real or imaginary row, frame by frame; it takes no workspace."""
        bits = np.array([rng.integers(0, 2, loading.total_bits) for _ in range(k)], np.uint8)
        w = np.array([rng.standard_normal(xi.size) for _ in range(2 * k)]) * np.sqrt(0.5 * sigma0_sq * xi)
        bits, w = bits.reshape(k, loading.total_bits).T, w.reshape(2 * k, xi.size)
        return bits, (xi * np.sqrt(gamma))[:, None] * link.map_bits(bits, loading) + (w[::2] + 1j * w[1::2]).T

    @staticmethod
    def per_row_frame_draws(loading, xi, sigma0_sq, rng):
        """The oracle of one frame's draws: its integers call, then one standard_normal call per row."""
        bits = rng.integers(0, 2, loading.total_bits).astype(np.uint8)[:, None]
        return bits, np.array([rng.standard_normal(xi.size) for _ in range(2)]) * np.sqrt(0.5 * sigma0_sq * xi)

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("point_idx", [0, 7, 2**32])
    def test_states_match_seed_sequence(self, master_seed, point_idx):
        # the first trials of an identity sweep's blocks, and trials around 2^32, where the key grows a word
        for trial in (0, 64, 128, 2**32 - 1, 2**32):
            got = trial_rng(master_seed, point_idx, trial).bit_generator.state
            assert got == self.seed_sequence_rng(master_seed, point_idx, trial).bit_generator.state

    def test_empty_block_and_negative_seed(self):
        # a block of no frames draws nothing from its stream
        loading = link.Loading(bits_per_symbol=np.array([2, 4]))
        rng = trial_rng(1, 2, 0)
        tx_bits, y_d = link.scalar_frames(loading, np.ones(2), np.ones(2), 0.3, rng, 0)
        assert tx_bits.shape == (6, 0) and y_d.shape == (2, 0)
        assert rng.bit_generator.state == trial_rng(1, 2, 0).bit_generator.state
        with pytest.raises(ValueError, match="non-negative"):
            trial_rng(-1, 0, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("profile", ["identity", "synthetic"])
    def test_sweep_matches_per_frame_oracle(self, monkeypatch, threads, profile):
        # CSV and LLR dump byte for byte against a hand-seeded stream per block
        # that draws frame by frame and row by row.  Identity: 130 trials in
        # blocks of 64, 64 and 2 frames, each keyed by its first trial, drawn by
        # scalar_frames.  Synthetic: one stream per trial, which first draws its
        # channel, which can leave it holding a buffered 32-bit half word, and
        # then its frame (frame_draws)
        if profile == "identity":
            cfg, starts = parse_config(AWGN_QPSK.replace("trials: 40", "trials: 130")), (0, 64, 128)
        else:
            cfg, starts = parse_config(SYNTH_BER), range(16)
            held = [trial_rng(cfg.master_seed, p, t) for p in range(2) for t in starts]
            for rng in held:
                harness.channel_for_config(cfg.with_alpha(0.9), rng)
            assert any(r.bit_generator.state["has_uint32"] for r in held)

        def run():
            sink = io.StringIO()
            csv = run_ber_sweep(cfg, threads=threads, llr_sink=sink).to_csv()
            return csv.encode(), sink.getvalue().encode()

        fast = run()
        keys, oracle_calls = [], []
        name, oracle = (("scalar_frames", self.per_frame_scalar_frames) if profile == "identity"
                        else ("frame_draws", self.per_row_frame_draws))
        monkeypatch.setattr(harness, "trial_rng", lambda *key: keys.append(key) or self.seed_sequence_rng(*key))
        monkeypatch.setattr(harness, name, lambda *a, **k: oracle_calls.append(1) or oracle(*a, **k))
        assert run() == fast
        assert sorted(keys) == [(cfg.master_seed, p, t) for p in range(2) for t in starts]
        assert len(fast[1].splitlines()) > 2 + 2 * cfg.trials
        assert len(oracle_calls) == 2 * len(starts)  # the sweep drew with the oracle, once per stream

    def test_cli_import_leaves_numpy_random_unloaded(self):
        code = "import sys, otfsftn.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")})
        assert out.stdout.strip() == "False"


class TestValidate:
    def test_default_all_pass(self):
        report = validate()
        assert report.passed, report.format()

    def test_report_has_timings(self):
        report = validate()
        text = report.format()
        assert all(c.seconds >= 0.0 for c in report.checks)
        assert "[PASS]" in text and " s)" in text

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_out_of_range(self, seed, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_CHECKS", (("spy", lambda s: ran.append(s) or (True, "")),))
        with pytest.raises(ValueError, match="seed must lie in"):
            validate(seed=seed)
        assert ran == []

    def test_mismatched_noise_variance_detected(self, monkeypatch):
        # the matrix link draws its noise 10 % stronger than the LLRs assume:
        # only the LLR calibration check can see it
        import otfsftn.link as link

        real = link.colored_noise
        monkeypatch.setattr(
            link, "colored_noise", lambda noise, sigma0_sq, rng, k: real(noise, 1.1 * sigma0_sq, rng, k))
        report = validate()
        failed = [c.name for c in report.checks if not c.ok]
        assert failed == ["link-llr-calibration"]

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_broken_floor_policy_detected(self, monkeypatch, floor):
        monkeypatch.setattr(otfsftn.pulse, "EIG_FLOOR_REL", floor)
        failed = [c.name for c in validate().checks if not c.ok]
        assert failed == ["gram-floor-policy"]

    def test_floor_policy_clamp_is_not_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="otfsftn.pulse"):
            ok, detail = harness._check_floor_policy(0)
        assert ok and "clamped 7 of 7" in detail, detail
        assert not [r for r in caplog.records if "floored" in r.getMessage()]
        assert otfsftn.pulse.log.filters == []

    @pytest.mark.parametrize("seed", [20240901, 7919])
    def test_llr_calibration_passes_at_ci_seeds(self, seed):
        ok, detail = harness._check_llr_calibration(seed)
        assert ok, detail

class TestCli:
    def test_validate_exit_zero(self, capsys):
        assert cli_main(["validate"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_rate_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(AWGN_QPSK)
        out = tmp_path / "rates.csv"
        assert cli_main(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "snr_db,alpha,beta,mode,mi_bits,rate_bps_hz,seeds"

    def test_ber_subcommand_threads_identical(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(EVA_BER)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli_main(["ber", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert cli_main(["ber", "--config", str(cfg), "--out", str(out2), "--threads", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_channel_dump_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(EVA_BER)
        assert cli_main(["channel-dump", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# dd-channel-dump v1" in out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL.replace("alpha: 1.0", "alpha: 0.5"))
        assert cli_main(["rate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate", "ber"])
    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_extreme_snr_exit_two(self, tmp_path, capsys, command, snr):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL + f"snr_db_grid: [{snr}]\n")
        assert cli_main([command, "--config", str(cfg)]) == 2
        assert "config error: snr_db_grid" in capsys.readouterr().err

    def test_infeasible_target_exit_two(self, tmp_path, capsys):
        # 9 bps/Hz at M=8, N=4, alpha 0.8 needs 384 bits of at most 256: rejected
        # while parsing, before the LLR dump is opened
        cfg = tmp_path / "cfg.yaml"
        text = EVA_BER.replace("M: 16", "M: 8").replace("alpha: [0.9]", "alpha: [0.8]")
        cfg.write_text(text + "target_rate_bps_hz: 9.0\n")
        llr_out = tmp_path / "llr.csv"
        assert cli_main(["ber", "--config", str(cfg), "--llr-out", str(llr_out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: target_rate_bps_hz 9.0")
        assert not llr_out.exists()

    def test_target_beyond_powered_subchannels_exit_two(self, tmp_path, capsys):
        # 5.9 bps/Hz needs 252 of the 256 bits 32 subchannels carry, but water-filling
        # at -10 dB leaves fewer than 32 powered
        cfg = tmp_path / "cfg.yaml"
        text = MINIMAL.replace("M: 4", "M: 8").replace("N: 2", "N: 4").replace("alpha: 1.0", "alpha: 0.8")
        cfg.write_text(text + "snr_db_grid: [-10]\ntrials: 3\ntarget_rate_bps_hz: 5.9\n")
        assert cli_main(["ber", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: target rate 5.9 bps/Hz needs 252 bits")

    # the 20 dB point writes records before the -10 dB point is rejected
    FAILS_MID_SWEEP = (
        MINIMAL.replace("M: 4", "M: 8").replace("N: 2", "N: 4").replace("alpha: 1.0", "alpha: 0.8")
        + "snr_db_grid: [20, -10]\ntrials: 3\ntarget_rate_bps_hz: 5.9\n"
    )

    def test_failed_sweep_leaves_no_llr_dump(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(self.FAILS_MID_SWEEP)
        llr_out = tmp_path / "llr.csv"
        assert cli_main(["ber", "--config", str(cfg), "--llr-out", str(llr_out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not llr_out.exists()

    def test_prefix_longer_than_frame_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL + "cp_len: 9\n")
        assert cli_main(["rate", "--config", str(cfg)]) == 2
        assert "config error: cp_len 9 exceeds the frame length MN = 8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--llr-out"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        bad = tmp_path / "missing" / "x.csv"
        command = "rate" if flag == "--out" else "ber"
        assert cli_main([command, "--config", str(cfg), flag, str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot write output:") and str(bad) in err[0]
        assert not bad.parent.exists()

    @pytest.mark.parametrize("command", ["rate", "ber"])
    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, command):
        import otfsftn.cli as cli

        calls = []
        monkeypatch.setattr(cli, f"run_{command}_sweep", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        bad = tmp_path / "missing" / "x.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")
        assert calls == []

    @pytest.mark.parametrize("command,target", [
        ("validate", "validate"), ("channel-dump", "channel_dump"),
    ])
    def test_unwritable_output_fails_before_any_check(
        self, tmp_path, capsys, monkeypatch, command, target,
    ):
        import otfsftn.cli as cli

        calls = []
        monkeypatch.setattr(cli, target, lambda *a, **k: calls.append(a))
        bad = tmp_path / "missing" / "x.txt"
        args = [command, "--out", str(bad)]
        if command == "channel-dump":
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(MINIMAL)
            args += ["--config", str(cfg)]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")
        assert calls == []
        assert not bad.parent.exists()

    def test_failed_sweep_leaves_no_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(self.FAILS_MID_SWEEP)
        out = tmp_path / "ber.csv"
        assert cli_main(["ber", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_failed_sweep_keeps_a_linked_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(self.FAILS_MID_SWEEP)
        link = tmp_path / "out.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert cli_main(["ber", "--config", str(cfg), "--out", str(link)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert link.is_symlink() and link.exists()

    def test_unwritable_csv_keeps_complete_llr_dump(self, tmp_path, capsys):
        # the unwritable CSV stops the run before the earlier dump is reopened
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        llr_out = tmp_path / "llr.csv"
        args = ["ber", "--config", str(cfg), "--llr-out", str(llr_out)]
        assert cli_main(args) == 0
        dump = llr_out.read_text()
        assert cli_main(args + ["--out", str(tmp_path / "missing" / "ber.csv")]) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")
        assert llr_out.read_text() == dump

    @pytest.mark.parametrize("alias", ["absent", "same", "relative", "symlink", "hard-link"])
    def test_out_and_llr_out_on_one_file_exit_two(self, tmp_path, capsys, monkeypatch, alias):
        # the CSV would overwrite the start of the LLR dump; nothing is written
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(MINIMAL)
        target = tmp_path / "out.txt"
        if alias != "absent":
            target.write_text("kept\n")
        other = {"absent": target, "same": target, "relative": Path("out.txt"),
                 "symlink": tmp_path / "sym.txt", "hard-link": tmp_path / "hard.txt"}[alias]
        if alias == "symlink":
            other.symlink_to(target)
        elif alias == "hard-link":
            os.link(target, other)
        monkeypatch.chdir(tmp_path)
        args = ["ber", "--config", str(cfg), "--out", str(target), "--llr-out", str(other)]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")
        if alias == "absent":
            assert not target.exists()
        else:
            assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_validate_rejects_seed_out_of_range(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli_main(["validate", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed: must lie in" in capsys.readouterr().err

    def test_missing_config_exit_two(self, capsys):
        assert cli_main(["rate", "--config", "/nonexistent/x.yaml"]) == 2

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(MINIMAL.encode() + b"# \xff\xfe latin-1 comment\n")
        assert cli_main(["rate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err and "UTF-8" in err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(EVA_BER)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli_main(["ber", "--config", str(cfg), "--out", str(out1), "--seed", "100"])
        cli_main(["ber", "--config", str(cfg), "--out", str(out2), "--seed", "101"])
        assert out1.read_text() != out2.read_text()


def test_bench_tracer_targets_exist():
    # the benchmark tracer rebinds these names by getattr; a deleted one breaks it
    tracer_path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name in (*tracer.TARGETS, *tracer.CALLERS):
        module = importlib.import_module(f"otfsftn.{mod_name}")
        for fn_name in tracer.TARGETS.get(mod_name, ()):
            assert callable(getattr(module, fn_name, None)), f"otfsftn.{mod_name}.{fn_name}"


_TRACED_SWEEPS = """
import io, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer

tracer = Tracer()
tracer.install()
import otfsftn._openblas as _openblas
import otfsftn.harness as harness
from otfsftn import parse_config

harness.run_rate_sweep(parse_config({rate!r}))
harness.run_ber_sweep(parse_config({ber!r}), threads=2, llr_sink=io.StringIO())
harness.validate()  # the matrix link, the BER sweep's oracle
summary = tracer.summary()
print(json.dumps({{
    "failed": sorted({{span[1] for span in tracer.spans if not span[6]}}),
    "calls": {{name: st["calls"] for name, st in summary["stats"].items()}},
    "counts": summary["counts"],
}}))
"""


def test_bench_tracer_runs_both_sweeps():
    # the tracer's counters read the return values of derive_subchannels,
    # waterfill and bit_loading; a traced MN = 32 rate sweep, BER sweep with
    # an LLR sink and validate (which alone runs the matrix link) must
    # complete with every span ok and every count filled
    root = Path(__file__).resolve().parents[1]
    script = _TRACED_SWEEPS.format(
        bench=str(root / "bench"), src=str(root / "src"),
        rate=TestNoiseShapePerInstance.SMALL, ber=EVA_BER.replace("M: 16", "M: 8"),
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == []
    for name in ("precoder.derive_subchannels", "precoder.finalize", "link.transmit",
                 "link.receive", "link.llr"):
        assert out["calls"][name] > 0, name
    counts = out["counts"]
    assert "floored" in counts["precoder.derive_subchannels"]
    assert counts["precoder.waterfill"]["active"] > 0
    assert counts["link.bit_loading"]["loaded"] > 0
