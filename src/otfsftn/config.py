"""Run configuration: schema, strict parsing and validation.

Config files are YAML mappings (``key: value`` plus one nested ``channel``
section).  Unknown keys are rejected rather than ignored, and every numeric
constraint failure names the violated bound.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import yaml


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


_PROFILES = ("eva", "synthetic", "identity")
_CP_MODES = ("literal", "circular")

# The largest supported frame, in symbols.
MAX_FRAME_SYMBOLS = 1536

# The transmission rate counts information bits of a rate-3/4 code.
CODE_RATE = 0.75

# EVA excess-delay profile, 3GPP TS 36.101 Annex B.2.
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)


@dataclass(frozen=True)
class ChannelConfig:
    profile: str = "identity"
    nu_max_hz: float = 0.0
    num_paths: int = 1
    l_max: int = 0
    k_max: int = 0
    frac_doppler: bool = False


@dataclass(frozen=True)
class SystemConfig:
    M: int
    N: int
    alpha_grid: tuple[float, ...]
    beta: float
    delta_f_hz: float = 15e3
    cp_len: int | None = None
    snr_db_grid: tuple[float, ...] = (10.0,)
    master_seed: int = 1
    trials: int = 20
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cp_mode: str = "circular"
    target_rate_bps_hz: float | None = None

    @property
    def alpha(self) -> float:
        """The packing ratio when the grid holds exactly one value."""
        if len(self.alpha_grid) != 1:
            raise ValueError("config holds an alpha sweep; select one with with_alpha()")
        return self.alpha_grid[0]

    @property
    def MN(self) -> int:
        return self.M * self.N

    @property
    def time_bandwidth(self) -> float:
        """Time-bandwidth product (1+beta)*alpha*MN of one frame, the rate normalizer."""
        return ((1.0 + self.beta) * self.alpha) * self.MN

    def with_alpha(self, alpha: float) -> "SystemConfig":
        return replace(self, alpha_grid=(alpha,))

    def max_delay_tap(self) -> int:
        """Largest delay tap the configured channel profile can produce."""
        if self.channel.profile == "eva":
            return int(round(EVA_DELAYS_NS[-1] * 1e-9 * self.M * self.delta_f_hz))
        if self.channel.profile == "synthetic":
            return self.channel.l_max
        return 0

    def effective_cp_len(self) -> int:
        """Configured CP length, defaulting to max delay tap + 1."""
        return self.cp_len if self.cp_len is not None else self.max_delay_tap() + 1


def target_bits(rate_bps_hz: float, cfg: SystemConfig) -> int:
    """Coded bits per frame for a transmission rate, rounded to the nearest even count.

    The inverse of rate = CODE_RATE * bits / cfg.time_bandwidth.
    """
    return 2 * int(round(rate_bps_hz * cfg.time_bandwidth / CODE_RATE / 2.0))


def snr_linear(snr_db: float) -> float:
    """The linear SNR 10^(snr_db/10) of a grid entry."""
    return 10.0 ** (snr_db / 10.0)


def _snr_in_range(snr_db: float) -> bool:
    """Whether the linear SNR and the noise variance 1/SNR are positive finite floats."""
    try:
        snr = snr_linear(snr_db)
    except OverflowError:
        return False
    return 0.0 < snr < math.inf and 1.0 / snr < math.inf


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _strict(value, key: str, *kinds: type):
    # exact type: no float or string is truncated to an int or read as a
    # number, and a bool (an int subclass) is no number
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"malformed config value: '{key}' must be {names}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    return float(_strict(value, key, int, float))


def _as_float_tuple(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        return (_number(value, key),)
    _require(bool(value), f"'{key}' must be a number or non-empty list of numbers")
    return tuple(_number(v, key) for v in value)


_TOP_KEYS = {
    "M", "N", "alpha", "beta", "delta_f_hz", "cp_len", "snr_db_grid",
    "master_seed", "trials", "channel", "cp_mode", "target_rate_bps_hz",
}
_CHANNEL_KEYS = {"profile", "nu_max_hz", "num_paths", "l_max", "k_max", "frac_doppler"}


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every schema invariant; returns the config on success."""
    _require(cfg.M >= 1 and cfg.N >= 1, f"grid must satisfy M >= 1 and N >= 1, got ({cfg.M}, {cfg.N})")
    _require(
        cfg.MN <= MAX_FRAME_SYMBOLS,
        f"frame size MN={cfg.MN} exceeds the supported maximum {MAX_FRAME_SYMBOLS}",
    )
    _require(0.0 <= cfg.beta <= 1.0, f"beta must lie in [0, 1], got {cfg.beta}")
    lo = 1.0 / (1.0 + cfg.beta)
    for a in cfg.alpha_grid:
        _require(
            lo <= a <= 1.0,
            f"alpha {a} outside admissible range [1/(1+beta) = {lo:.6g}, 1]",
        )
    _require(
        len(set(cfg.alpha_grid)) == len(cfg.alpha_grid),
        f"alpha entries must be distinct, got {list(cfg.alpha_grid)}",
    )
    _require(0.0 < cfg.delta_f_hz < math.inf, f"delta_f_hz must be positive and finite, got {cfg.delta_f_hz}")
    _require(cfg.trials >= 1, f"trials must be >= 1, got {cfg.trials}")
    _require(len(cfg.snr_db_grid) >= 1, "snr_db_grid must be non-empty")
    for snr_db in cfg.snr_db_grid:
        _require(
            _snr_in_range(snr_db),
            f"snr_db_grid entries must be finite, with 10^(snr_db/10) and its inverse "
            f"positive finite floats, got {snr_db}",
        )
    _require(0 <= cfg.master_seed < 2**64, f"master_seed must be a 64-bit integer, got {cfg.master_seed}")
    _require(cfg.cp_mode in _CP_MODES, f"cp_mode must be one of {_CP_MODES}, got '{cfg.cp_mode}'")
    if cfg.target_rate_bps_hz is not None:
        _require(
            0.0 < cfg.target_rate_bps_hz < math.inf,
            f"target_rate_bps_hz must be positive and finite, got {cfg.target_rate_bps_hz}",
        )
        for a in cfg.alpha_grid:
            bits = target_bits(cfg.target_rate_bps_hz, cfg.with_alpha(a))
            _require(
                bits <= 8 * cfg.MN,
                f"target_rate_bps_hz {cfg.target_rate_bps_hz} needs {bits} bits per frame at "
                f"alpha {a}, more than the {8 * cfg.MN} that 256-QAM on all MN subchannels carries",
            )

    ch = cfg.channel
    _require(ch.profile in _PROFILES, f"channel profile must be one of {_PROFILES}, got '{ch.profile}'")
    _require(ch.nu_max_hz >= 0.0, f"nu_max_hz must be >= 0, got {ch.nu_max_hz}")
    _require(
        ch.nu_max_hz <= cfg.delta_f_hz / 2.0,
        f"nu_max_hz {ch.nu_max_hz} exceeds delta_f/2 = {cfg.delta_f_hz / 2.0:.6g}",
    )
    if ch.profile == "synthetic":
        _require(ch.num_paths >= 1, f"num_paths must be >= 1, got {ch.num_paths}")
        _require(ch.l_max >= 0, f"l_max must be >= 0, got {ch.l_max}")
        _require(ch.k_max >= 0, f"k_max must be >= 0, got {ch.k_max}")
        pairs = (ch.l_max + 1) * (2 * ch.k_max + 1)
        _require(
            ch.num_paths <= pairs,
            f"num_paths {ch.num_paths} exceeds the {pairs} distinct (delay, Doppler) pairs",
        )
    l_max = cfg.max_delay_tap()
    cp = cfg.effective_cp_len()
    _require(cp > l_max, f"cp_len {cp} must exceed the maximum delay tap {l_max}")
    _require(cp <= cfg.MN, f"cp_len {cp} exceeds the frame length MN = {cfg.MN}")
    return cfg


def parse_config(text: str) -> SystemConfig:
    """Parse and validate YAML configuration text into a SystemConfig."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of key: value pairs")

    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config key(s): {sorted(unknown)}")
    for key in ("M", "N", "alpha", "beta"):
        _require(key in raw, f"required key '{key}' is missing")

    ch_raw = raw.get("channel", {})
    if ch_raw is None:
        ch_raw = {}
    _require(isinstance(ch_raw, dict), "'channel' must be a mapping")
    unknown = set(ch_raw) - _CHANNEL_KEYS
    _require(not unknown, f"unknown channel key(s): {sorted(unknown)}")
    target = raw.get("target_rate_bps_hz")
    try:
        channel = ChannelConfig(
            profile=str(ch_raw.get("profile", "identity")),
            nu_max_hz=_number(ch_raw.get("nu_max_hz", 0.0), "nu_max_hz"),
            num_paths=_strict(ch_raw.get("num_paths", 1), "num_paths", int),
            l_max=_strict(ch_raw.get("l_max", 0), "l_max", int),
            k_max=_strict(ch_raw.get("k_max", 0), "k_max", int),
            frac_doppler=_strict(ch_raw.get("frac_doppler", False), "frac_doppler", bool),
        )
        cfg = SystemConfig(
            M=_strict(raw["M"], "M", int),
            N=_strict(raw["N"], "N", int),
            alpha_grid=_as_float_tuple(raw["alpha"], "alpha"),
            beta=_number(raw["beta"], "beta"),
            delta_f_hz=_number(raw.get("delta_f_hz", 15e3), "delta_f_hz"),
            cp_len=None if raw.get("cp_len") is None else _strict(raw["cp_len"], "cp_len", int),
            snr_db_grid=_as_float_tuple(raw.get("snr_db_grid", 10.0), "snr_db_grid"),
            master_seed=_strict(raw.get("master_seed", 1), "master_seed", int),
            trials=_strict(raw.get("trials", 20), "trials", int),
            channel=channel,
            cp_mode=str(raw.get("cp_mode", "circular")),
            target_rate_bps_hz=None if target is None else _number(target, "target_rate_bps_hz"),
        )
    except OverflowError as exc:  # a YAML integer too large for a float
        raise ConfigError(f"malformed config value: {exc}") from exc
    return validate_config(cfg)


def config_digest(text: str) -> str:
    """Stable content hash used in output provenance."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
