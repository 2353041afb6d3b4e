import numpy as np
import pytest

from otfsftn import ChannelConfig, SystemConfig


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def eva_config(
    m: int,
    n: int,
    alpha: float,
    beta: float = 0.25,
    nu_max: float = 400.0,
    seed: int = 1,
    **kw,
) -> SystemConfig:
    return SystemConfig(
        M=m, N=n, alpha_grid=(alpha,), beta=beta, delta_f_hz=30e3,
        master_seed=seed, channel=ChannelConfig(profile="eva", nu_max_hz=nu_max), **kw,
    )


def dense_v(noise) -> np.ndarray:
    """The noise shape's basis V, scattered from its half factors: the even
    columns [u; t; J u] and then the odd ones [u; 0; -J u]."""
    n = noise.n
    if noise.identity:
        return np.eye(n)
    m, r = divmod(n, 2)
    v = np.zeros((n, n))
    v[: m + r, : m + r] = noise.even
    v[m + r:, : m + r] = noise.even[:m][::-1]
    v[:m, m + r:] = noise.odd
    v[m + r:, m + r:] = -noise.odd[::-1]
    return v


def identity_config(m: int, n: int, alpha: float, beta: float = 0.25, **kw) -> SystemConfig:
    return SystemConfig(M=m, N=n, alpha_grid=(alpha,), beta=beta, **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
