"""Property tests on generated inputs; derandomized, so every run draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsftn import DdChannel, DdPath, dump_paths, load_paths, waterfill
from otfsftn.config import snr_linear

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
