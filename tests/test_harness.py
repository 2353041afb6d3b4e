import importlib.util
import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otfsftn.pulse
from otfsftn import ConfigError, parse_config, run_ber_sweep, run_rate_sweep, validate
from otfsftn.cli import main as cli_main
import otfsftn.harness as harness
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
        cfg = parse_config(big)
        from otfsftn.harness import assert_memory_budget

        with pytest.raises(ConfigError, match="1536"):
            assert_memory_budget(cfg)


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

    def test_threads_change_nothing(self):
        cfg = parse_config(FIG1_STYLE.replace("M: 128", "M: 8").replace("N: 12", "N: 4"))
        a = run_rate_sweep(cfg, threads=1).to_csv()
        b = run_rate_sweep(cfg, threads=4).to_csv()
        assert a == b


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
        # alphas 0.8, 0.9, 1.0 plus the two alpha = 1 Nyquist baselines
        assert len(built) == 5

    def test_rate_sweep_never_forms_receive_weights(self, monkeypatch):
        import otfsftn.precoder as precoder

        calls = []
        real = precoder._receive_weights
        monkeypatch.setattr(precoder, "_receive_weights", lambda sub: calls.append(1) or real(sub))
        run_rate_sweep(parse_config(self.SMALL), threads=2)
        assert calls == []

    def test_floor_warning_once_per_noise_shape(self, monkeypatch, caplog):
        # at MN = 32 the default relative floor never bites, even at the
        # admissibility edge, so a larger floor makes the edge instance clamp
        original = otfsftn.pulse.noise_shape
        monkeypatch.setattr(otfsftn.pulse, "noise_shape", lambda g: original(g, eig_floor_rel=0.05))
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
        real = harness.derive_subchannels
        monkeypatch.setattr(
            harness, "derive_subchannels", lambda *a: calls.append(1) or real(*a)
        )
        cfg = parse_config(AWGN_QPSK.replace("alpha: 1.0", "alpha: [0.9, 1.0]"))
        result = run_ber_sweep(cfg)
        assert len(result.rows) == 4 and len(calls) == 2

    def test_identity_receive_weights_formed_once_per_alpha(self, monkeypatch):
        import otfsftn.precoder as precoder

        calls = []
        real = precoder._receive_weights

        def spy(sub):
            calls.append(1)
            return real(sub)

        # the helper behind Subchannels.D; more workers than cores and a short
        # switch interval, over three frame blocks a point, give a race its chance
        monkeypatch.setattr(precoder, "_receive_weights", spy)
        cfg = parse_config(
            AWGN_QPSK.replace("alpha: 1.0", "alpha: [0.9, 1.0]").replace("trials: 40", "trials: 140")
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_ber_sweep(cfg, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(result.rows) == 4 and len(calls) == 2

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
        controls = harness._openblas_threads()
        if not controls:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = _blas_counts(controls)
        for _, put in controls:
            put(2)
        yield controls
        for (_, put), count in zip(controls, before):
            put(count)

    def _spy_derive(self, monkeypatch, controls, fail=False):
        seen = []
        real = harness.derive_subchannels

        def spy(*args):
            seen.append(_blas_counts(controls))
            if fail:
                raise RuntimeError("derive failed")
            return real(*args)

        monkeypatch.setattr(harness, "derive_subchannels", spy)
        return seen

    def test_pool_pins_blas_and_restores_it(self, blas_two, monkeypatch):
        seen = self._spy_derive(monkeypatch, blas_two)
        run_ber_sweep(parse_config(EVA_BER), threads=2)
        assert len(seen) == 6 and all(c == [1] * len(blas_two) for c in seen)
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_blas_restored_when_sweep_raises(self, blas_two, monkeypatch):
        seen = self._spy_derive(monkeypatch, blas_two, fail=True)
        with pytest.raises(RuntimeError, match="derive failed"):
            run_ber_sweep(parse_config(EVA_BER), threads=2)
        assert seen and seen[0] == [1] * len(blas_two)
        assert _blas_counts(blas_two) == [2] * len(blas_two)

    def test_single_thread_leaves_blas_alone(self, blas_two, monkeypatch):
        seen = self._spy_derive(monkeypatch, blas_two)
        run_ber_sweep(parse_config(EVA_BER), threads=1)
        assert seen and all(c == [2] * len(blas_two) for c in seen)

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

    def test_pin_is_no_op_without_setter(self, blas_two, monkeypatch):
        monkeypatch.setattr(harness, "_OPENBLAS_THREADS", ("no_such_blas_{}_num_threads",))
        assert harness._openblas_threads() == []
        with single_blas_thread():
            assert _blas_counts(blas_two) == [2] * len(blas_two)

        def unreadable(*args):
            raise OSError("process maps unreadable")

        monkeypatch.setattr(harness, "open", unreadable, raising=False)
        assert harness._openblas_threads() == []

    def test_eva192_outputs_identical_for_any_pool_size(self):
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
        with single_blas_thread():
            assert run(1) == pooled

    @pytest.mark.parametrize("threads", [0, -3])
    def test_sweeps_reject_threads_below_one(self, threads):
        cfg = parse_config(AWGN_QPSK)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_rate_sweep(cfg, threads=threads)
        sink = io.StringIO()
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_ber_sweep(cfg, threads=threads, llr_sink=sink)
        assert sink.getvalue() == ""

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

    def test_injected_fault_detected(self, monkeypatch):
        # the floor-policy check must catch a noise shape factored with the floor disabled
        original = otfsftn.pulse.noise_shape
        monkeypatch.setattr(otfsftn.pulse, "noise_shape", lambda g: original(g, eig_floor_rel=0.0))
        report = validate()
        assert not report.passed
        failed = [c.name for c in report.checks if not c.ok]
        assert failed == ["gram-floor-policy"]


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_validate_rejects_seed_out_of_range(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli_main(["validate", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed: must lie in" in capsys.readouterr().err

    def test_missing_config_exit_two(self, capsys):
        assert cli_main(["rate", "--config", "/nonexistent/x.yaml"]) == 2

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
import otfsftn.harness as harness
from otfsftn import parse_config

harness.run_rate_sweep(parse_config({rate!r}))
harness.run_ber_sweep(parse_config({ber!r}), threads=2, llr_sink=io.StringIO())
summary = tracer.summary()
print(json.dumps({{
    "failed": sorted({{span[1] for span in tracer.spans if not span[6]}}),
    "calls": {{name: st["calls"] for name, st in summary["stats"].items()}},
    "counts": summary["counts"],
}}))
"""


def test_bench_tracer_runs_both_sweeps():
    # the tracer's counters read the return values of derive_subchannels,
    # waterfill and bit_loading; a traced MN = 32 rate sweep and BER sweep
    # with an LLR sink must complete with every span ok and every count filled
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
