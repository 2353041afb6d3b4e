"""Property tests on generated inputs; derandomized, so every run draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsftn import DdChannel, DdPath, Subchannels, dump_paths, finalize, load_paths, noise_shape, waterfill
from otfsftn.config import snr_linear
from otfsftn.link import SUPPORTED_BITS, Loading, constellation, llr, map_bits

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
    n = xi.size
    eye = np.eye(n)
    sub = Subchannels(noise=noise_shape(eye), U_t=eye, xi=xi, phi=np.ones(n), D=eye)
    sol = finalize(sub, gamma)
    y_d = xi * np.sqrt(gamma) * map_bits(tx_bits, loading)  # D H P = diag(xi*sqrt(gamma))
    llrs = llr(y_d, sol, loading, sigma0_sq)
    assert np.all(np.isfinite(llrs))
    assert np.array_equal(llrs > 0.0, tx_bits == 0)
