"""Link-level simulator for precoded faster-than-Nyquist transmission on a
delay-Doppler grid over doubly selective fading channels."""

from ._version import __version__
from .config import ChannelConfig, ConfigError, SystemConfig, parse_config
from .transforms import GridShape, conjugate_by_dd, dd_to_time, dft_matrix, time_to_dd
from .pulse import (
    NoiseShape, PulseSpec, gram_dd, gram_matrix, noise_shape, rc_autocorr, rrc_impulse,
)
from .channel import (
    DdChannel,
    DdPath,
    EffectiveChannel,
    dump_paths,
    effective_channel,
    eva_channel,
    identity_channel,
    load_paths,
    synthetic_channel,
    waveform_oracle,
)
from .precoder import (
    PrecoderSolution,
    Subchannels,
    derive_subchannels,
    finalize,
    hermitian_evd_desc,
    solve_precoder,
    uniform_gamma,
    waterfill,
)
from .link import (
    FrameRecord,
    Loading,
    bit_loading,
    colored_noise,
    constellation,
    hard_detect,
    llr,
    map_bits,
    propagate,
    receive,
    run_frame,
    transmit,
)
from .metrics import (
    BerCounter,
    RatePoint,
    ber_accumulate,
    frame_energy,
    info_rate,
    mi_logdet,
    mi_sum,
    transmission_rate,
)
from .harness import (
    SweepResult,
    ValidationReport,
    channel_dump,
    run_ber_sweep,
    run_rate_sweep,
    trial_rng,
    validate,
)

__all__ = [
    "__version__",
    "ChannelConfig", "ConfigError", "SystemConfig", "parse_config",
    "GridShape", "conjugate_by_dd", "dd_to_time", "dft_matrix", "time_to_dd",
    "NoiseShape", "PulseSpec", "gram_dd", "gram_matrix", "noise_shape",
    "rc_autocorr", "rrc_impulse",
    "DdChannel", "DdPath", "EffectiveChannel", "dump_paths", "effective_channel",
    "eva_channel", "identity_channel", "load_paths", "synthetic_channel", "waveform_oracle",
    "PrecoderSolution", "Subchannels", "derive_subchannels", "finalize",
    "hermitian_evd_desc", "solve_precoder", "uniform_gamma", "waterfill",
    "FrameRecord", "Loading", "bit_loading", "colored_noise", "constellation",
    "hard_detect", "llr", "map_bits", "propagate", "receive", "run_frame", "transmit",
    "BerCounter", "RatePoint", "ber_accumulate", "frame_energy", "info_rate",
    "mi_logdet", "mi_sum", "transmission_rate",
    "SweepResult", "ValidationReport", "channel_dump", "run_ber_sweep",
    "run_rate_sweep", "trial_rng", "validate",
]
