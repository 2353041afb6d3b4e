"""Property tests on generated inputs; derandomized, so every run draws the same examples."""

import dataclasses
import re

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otfsftn import DdChannel, DdPath, dump_paths, load_paths, waterfill
from otfsftn.config import EVA_DELAYS_NS, ConfigError, parse_config, snr_linear
from otfsftn.link import (
    SUPPORTED_BITS, Loading, _decisions, _draw_bits, _scaled_white, constellation, hard_detect, llr, map_bits,
    scalar_frames,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

finite = st.floats(allow_nan=False, allow_infinity=False)
paths = st.builds(
    DdPath,
    gain=st.builds(complex, finite, finite),
    delay_tap=st.integers(0, 2**31),
    doppler_int=st.integers(-(2**31), 2**31),
    doppler_frac=st.floats(-0.5, 0.5, exclude_min=True),
)


@PROPERTY
@given(st.lists(paths, min_size=1, max_size=12))
def test_dump_load_round_trip_is_exact(path_list):
    chan = DdChannel(paths=tuple(path_list))
    text = dump_paths(chan)
    back = load_paths(text)
    assert back.paths == chan.paths
    assert dump_paths(back) == text  # the same bits, signed zeros included


@st.composite
def waterfill_inputs(draw):
    n = draw(st.integers(1, 64))
    xi = draw(st.lists(st.floats(1e-4, 1e4), min_size=n, max_size=n))
    phi = draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n))
    return np.array(xi), np.array(phi), snr_linear(draw(st.floats(-30.0, 40.0)))


@PROPERTY
@given(waterfill_inputs())
def test_waterfill_meets_constraint_and_kkt(inputs):
    xi, phi, snr = inputs
    gamma, mu = waterfill(xi, phi, snr)
    n = xi.size
    assert abs(float(gamma @ phi) - n) <= 1e-10 * n
    # KKT, relative to the water level: phi*(gamma + 1/(xi*snr)) = mu where
    # gamma > 0, and the threshold phi/(xi*snr) is at or above mu elsewhere
    level = phi / (xi * snr)
    act = gamma > 0.0
    assert act.any()
    assert float(np.abs(phi[act] * gamma[act] + level[act] - mu).max()) <= 1e-8 * mu
    assert np.all(level[~act] >= mu * (1.0 - 1e-8))


def _d_min_sq(bits):
    gaps = np.abs(np.subtract.outer(constellation(bits), constellation(bits)))
    return float(gaps[gaps > 0.0].min()) ** 2


@st.composite
def loaded_links(draw):
    """Random loaded subchannels, their noise variance and a bit stream.

    sigma0^2 puts every loaded subchannel's nearest-neighbour distance
    a*d_min at least one noise deviation sqrt(xi*sigma0^2) away; below about
    0.28 in a^2*d_min^2/(xi*sigma0^2) the inner Gray bits of 16-QAM and up
    may vote against even a noiseless observation.
    """
    n = draw(st.integers(1, 12))
    bits = np.array(draw(st.lists(st.sampled_from((0, *SUPPORTED_BITS)), min_size=n, max_size=n)))
    if not bits.any():
        bits[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SUPPORTED_BITS))
    xi = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    gamma = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    d_min_sq = np.array([_d_min_sq(b) if b else np.inf for b in bits])
    margin = draw(st.floats(1.0, 1e6))
    sigma0_sq = float(np.min(xi * gamma * d_min_sq)) / margin
    stream = draw(st.lists(st.integers(0, 1), min_size=int(bits.sum()), max_size=int(bits.sum())))
    return Loading(bits_per_symbol=bits), xi, gamma, sigma0_sq, np.array(stream)


@PROPERTY
@given(loaded_links())
def test_noiseless_llr_sign_is_the_gray_mapped_bit(link):
    loading, xi, gamma, sigma0_sq, tx_bits = link
    y_d = xi * np.sqrt(gamma) * map_bits(tx_bits, loading)  # D H P = diag(xi*sqrt(gamma))
    llrs = llr(y_d, xi, gamma, loading, sigma0_sq)
    assert np.all(np.isfinite(llrs))
    assert np.array_equal(llrs > 0.0, tx_bits == 0)


def _argmin_bits(v, bits):
    """Axis bits of the first-index argmin of |v - level| over the Gray-indexed levels."""
    half = bits // 2
    levels = constellation(bits)[:: 1 << half].real  # in-phase level of each axis label
    label = np.argmin(np.abs(v[..., None] - levels), axis=-1)
    return (label[..., None] >> np.arange(half - 1, -1, -1)) & 1


# every order's decision breakpoints and the doubles one step either side of them
_EDGES = np.concatenate([_decisions(b)[0] for b in SUPPORTED_BITS])
near_edges = st.builds(lambda e, steps: float(np.nextafter(e, np.sign(steps) * np.inf)) if steps else float(e),
                       st.sampled_from(_EDGES.tolist()), st.integers(-1, 1))


@st.composite
def axis_values(draw):
    """A 2 x n x k block of axis values: arbitrary finite doubles (subnormals, both zeros
    and magnitudes up to 1.8e308) and doubles at or beside a decision breakpoint."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    v = draw(st.lists(st.one_of(finite, near_edges), min_size=2 * n * k, max_size=2 * n * k))
    return np.array(v).reshape(2, n, k)


@PROPERTY
@given(st.sampled_from(SUPPORTED_BITS), st.sampled_from("CF"), axis_values())
def test_hard_detect_is_first_index_argmin(bits, order, v):
    # subchannel i of frame f observes v[0, i, f] in phase and v[1, i, f] in quadrature
    n, k = v.shape[1:]
    y = np.empty((n, k), complex, order=order)
    y.real, y.imag = v
    expected = np.concatenate([_argmin_bits(v[0], bits), _argmin_bits(v[1], bits)], axis=-1)
    rx = hard_detect(y, np.ones(n), np.ones(n), Loading(bits_per_symbol=np.full(n, bits)))
    assert np.array_equal(rx, expected.transpose(0, 2, 1).reshape(n * bits, k))


@PROPERTY
@given(st.lists(st.sampled_from((0, *SUPPORTED_BITS)), min_size=1, max_size=24), st.integers(0, 5),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 2.0]), st.booleans())
def test_scalar_frames_is_scaled_symbols_plus_noise(b, k, seed, sigma0_sq, used):
    # the direct build against a x with x from map_bits, plus the noise rows, bit for bit;
    # unloaded subchannels may have no power and carry noise only; a used generator
    # holds a buffered 32-bit half word
    loading = Loading(bits_per_symbol=np.array(b))
    rng = np.random.default_rng(seed)
    xi, gamma = rng.uniform(0.05, 3.0, len(b)), rng.uniform(0.05, 3.0, len(b))
    gamma[(loading.bits_per_symbol == 0) & (rng.random(len(b)) < 0.5)] = 0.0

    def gen():
        g = np.random.default_rng([seed, 1])
        if used:
            g.integers(0, 7, dtype=np.uint32)
        return g

    tx_bits, y_d = scalar_frames(loading, xi, gamma, sigma0_sq, gen(), k)
    oracle_rng = gen()
    bits = _draw_bits(loading, oracle_rng, k)
    w = _scaled_white(xi, sigma0_sq, oracle_rng, k)
    noise = np.empty((len(b), k), complex)
    noise.real, noise.imag = w[0::2].T, w[1::2].T
    assert tx_bits.tobytes() == bits.tobytes()
    assert y_d.tobytes() == ((xi * np.sqrt(gamma))[:, None] * map_bits(bits, loading) + noise).tobytes()


@st.composite
def config_mappings(draw):
    """A valid config mapping; target_rate_bps_hz is sometimes left out."""
    m, n = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    beta = draw(st.floats(0.0, 1.0))
    delta_f = draw(st.floats(1e3, 6e4))
    raw = {
        "M": m, "N": n, "beta": beta, "delta_f_hz": delta_f,
        "alpha": draw(st.lists(st.floats(1.0 / (1.0 + beta), 1.0), min_size=1, max_size=4, unique=True)),
        "snr_db_grid": draw(st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=4)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "trials": draw(st.integers(1, 10**6)),
        "cp_mode": draw(st.sampled_from(["literal", "circular"])),
    }
    profile = draw(st.sampled_from(["identity", "eva", "synthetic"]))
    channel = {"profile": profile}
    l_top = 0
    if profile == "eva":
        channel["nu_max_hz"] = draw(st.floats(0.0, delta_f / 2.0))
        l_top = round(EVA_DELAYS_NS[-1] * 1e-9 * m * delta_f)
    elif profile == "synthetic":
        l_top, k_max = draw(st.integers(0, 6)), draw(st.integers(0, 4))
        channel.update(l_max=l_top, k_max=k_max, frac_doppler=draw(st.booleans()),
                       num_paths=draw(st.integers(1, (l_top + 1) * (2 * k_max + 1))))
    assume(l_top < m * n)
    raw["channel"] = channel
    raw["cp_len"] = draw(st.integers(l_top + 1, m * n))
    if draw(st.booleans()):
        raw["target_rate_bps_hz"] = draw(st.floats(1e-3, 3.0))  # at most 8 bits per symbol
    return raw


def _as_mapping(cfg):
    raw = dataclasses.asdict(cfg)
    raw["alpha"] = list(raw.pop("alpha_grid"))
    raw["snr_db_grid"] = list(raw["snr_db_grid"])
    return raw


@PROPERTY
@given(config_mappings())
def test_config_parses_and_round_trips(raw):
    cfg = parse_config(yaml.safe_dump(raw))
    parsed = _as_mapping(cfg)
    for key, value in raw.items():
        expect = {**parsed[key], **value} if key == "channel" else value
        assert parsed[key] == expect, key
    assert parse_config(yaml.safe_dump(parsed)) == cfg


# an out-of-range value for every config key; the channel section has none
_OUT_OF_RANGE = {
    "M": 0, "N": 0, "alpha": 1.5, "beta": 1.5, "delta_f_hz": -1.0, "cp_len": 0,
    "snr_db_grid": 1e6, "master_seed": -1, "trials": 0, "cp_mode": "helical",
    "target_rate_bps_hz": -1.0, "channel": None,
    "profile": "rayleigh", "nu_max_hz": -1.0, "num_paths": 0, "l_max": -1, "k_max": -1,
    "frac_doppler": 1,
}
_CHANNEL_KEYS = ("profile", "nu_max_hz", "num_paths", "l_max", "k_max", "frac_doppler")


@settings(PROPERTY, max_examples=12)
@given(config_mappings())
def test_config_mutation_names_its_key(raw):
    synthetic = raw["channel"]["profile"] == "synthetic"
    for key, out_of_range in _OUT_OF_RANGE.items():
        values = ["1", float("inf"), float("nan")]
        if key != "frac_doppler":  # any bool is a valid frac_doppler
            values.append(True)
        if out_of_range is not None and (synthetic or key not in ("num_paths", "l_max", "k_max")):
            values.append(out_of_range)  # only the synthetic profile bounds its path counts
        for value in values:
            bad = {**raw, "channel": dict(raw["channel"])}
            (bad["channel"] if key in _CHANNEL_KEYS else bad)[key] = value
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_config(yaml.safe_dump(bad))
