import logging

import numpy as np
import pytest

from otfsftn import (
    GridShape, PulseSpec, gram_dd, gram_matrix, noise_shape, rc_autocorr, rrc_impulse,
)


def rrc_self_convolution(beta: float, tau: float, oversample: int = 1000, span: int = 128) -> float:
    """Waveform-level oracle: numerical autocorrelation of the sampled RRC pulse.

    Evaluates integral h(v) h(v - tau) dv at one lag as a shifted dot product;
    tau must be a multiple of 1/oversample so it lands on the grid.
    """
    spec = PulseSpec(beta=beta, span=float(span))
    dt = 1.0 / oversample
    t = np.arange(-span * oversample, span * oversample + 1) * dt
    h = np.asarray(rrc_impulse(t, spec))
    shift = int(round(tau * oversample))
    if shift == 0:
        return float(np.dot(h, h) * dt)
    if shift < 0:
        h = h[::-1]
        shift = -shift
    return float(np.dot(h[shift:], h[:-shift]) * dt)


class TestRcAutocorr:
    def test_unit_peak(self):
        for beta in (0.0, 0.25, 0.5, 1.0):
            assert rc_autocorr(0.0, PulseSpec(beta=beta)) == 1.0

    def test_nyquist_zero_crossings(self):
        spec = PulseSpec(beta=0.25)
        for k in (1, 2, 3, 5, 8):
            assert abs(rc_autocorr(float(k), spec)) <= 1e-15
            assert abs(rc_autocorr(float(-k), spec)) <= 1e-15

    def test_removable_singularity(self):
        # t = T0/(2*beta) = 2*T0 at beta = 0.25; limit value sinc(2)*pi/4 = 0
        spec = PulseSpec(beta=0.25)
        lim = np.sinc(2.0) * np.pi / 4.0
        assert abs(rc_autocorr(2.0, spec) - lim) <= 1e-15
        # approaching values stay continuous
        assert abs(rc_autocorr(2.0 + 1e-9, spec) - lim) <= 1e-6

    def test_against_convolution_oracle(self):
        # frozen from the numerical self-convolution oracle below (agrees to 1.5e-8)
        spec = PulseSpec(beta=0.25)
        assert abs(rc_autocorr(0.9, spec) - 0.104208898552) <= 1e-9
        for tau in (0.5, 0.72, 0.9, 1.8, 2.5):
            oracle = rrc_self_convolution(0.25, tau)
            assert abs(rc_autocorr(tau, spec) - oracle) <= 1e-6

    def test_even_and_bounded(self):
        spec = PulseSpec(beta=0.35)
        t = np.linspace(-10.0, 10.0, 4001)
        g = np.asarray(rc_autocorr(t, spec))
        assert np.abs(g - g[::-1]).max() <= 1e-12
        assert np.all(np.abs(g) <= 1.0)
        assert np.all(np.abs(g[np.abs(t) > 1e-12]) < 1.0)

    def test_beta_zero_is_sinc(self):
        spec = PulseSpec(beta=0.0)
        t = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(rc_autocorr(t, spec), np.sinc(t), atol=1e-15)


class TestRrcImpulse:
    def test_unit_energy(self):
        # quadrature over a long span; the tail beyond 64*T0 is ~1e-10 in power
        spec = PulseSpec(beta=0.25, span=64.0)
        dt = 1e-3
        t = np.arange(-64000, 64001) * dt
        h = np.asarray(rrc_impulse(t, spec))
        energy = float(np.sum(h * h) * dt)
        assert abs(energy - 1.0) <= 1e-6

    def test_beta_zero_limit(self):
        spec = PulseSpec(beta=0.0)
        t = np.linspace(-6.0, 6.0, 241)
        np.testing.assert_allclose(rrc_impulse(t, spec), np.sinc(t), atol=1e-9)

    def test_singular_points_continuous(self):
        spec = PulseSpec(beta=0.25)
        for t0 in (0.0, 1.0, -1.0):  # T0/(4*beta) = 1 at beta = 0.25
            v = rrc_impulse(t0, spec)
            v_eps = rrc_impulse(t0 + 1e-7, spec)
            assert abs(v - v_eps) <= 1e-5

    def test_self_convolution_matches_rc(self):
        # the two closed forms are mutually consistent
        spec = PulseSpec(beta=0.25)
        for tau in (0.0, 0.3, 1.0, 1.5):
            oracle = rrc_self_convolution(0.25, tau)
            assert abs(oracle - rc_autocorr(tau, spec)) <= 1e-6


class TestGramMatrix:
    def test_nyquist_identity_exact(self):
        shape = GridShape(4, 3)
        for beta in (0.0, 0.25, 0.5):
            gram = gram_matrix(shape, 1.0, PulseSpec(beta=beta))
            assert np.array_equal(gram.G, np.eye(shape.MN))

    def test_first_offdiagonal(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(4, 2), 0.9, spec)
        assert gram.G[0, 1] == rc_autocorr(0.9, spec)
        assert gram.G[3, 2] == rc_autocorr(0.9, spec)

    def test_toeplitz_structure(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(8, 8), 0.85, spec)
        mn = 64
        for k in range(mn):
            for m in range(mn):
                assert gram.G[k, m] == gram.G[0, abs(k - m)]

    def test_unit_diagonal(self):
        gram = gram_matrix(GridShape(6, 2), 0.82, PulseSpec(beta=0.25))
        np.testing.assert_array_equal(np.diag(gram.G), np.ones(12))

    def test_psd_at_admissibility_edge(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(4, 2), 0.8, spec)
        assert np.linalg.eigvalsh(gram.G).min() >= -1e-9

    def test_rejects_inadmissible_alpha(self):
        spec = PulseSpec(beta=0.25)
        with pytest.raises(ValueError, match="1/\\(1\\+beta\\)"):
            gram_matrix(GridShape(4, 2), 0.7, spec)
        with pytest.raises(ValueError):
            gram_matrix(GridShape(4, 2), 1.1, spec)


class TestGramDd:
    def test_nyquist_identity(self):
        shape = GridShape(4, 3)
        g_eq = gram_dd(gram_matrix(shape, 1.0, PulseSpec(beta=0.25)), shape)
        assert np.abs(g_eq - np.eye(shape.MN)).max() <= 1e-13

    def test_hermitian(self):
        shape = GridShape(4, 3)
        g_eq = gram_dd(gram_matrix(shape, 0.85, PulseSpec(beta=0.25)), shape)
        assert np.abs(g_eq - g_eq.conj().T).max() <= 1e-12

    def test_trace_preserved(self):
        shape = GridShape(8, 4)
        noise = gram_matrix(shape, 0.85, PulseSpec(beta=0.25))
        tr_g = np.trace(noise.G)
        assert abs(np.trace(gram_dd(noise, shape)) - tr_g) <= 1e-10 * abs(tr_g)

    def test_spectrum_preserved(self):
        shape = GridShape(4, 3)
        noise = gram_matrix(shape, 0.85, PulseSpec(beta=0.25))
        w_g = np.sort(np.linalg.eigvalsh(noise.G))
        w_eq = np.sort(np.linalg.eigvalsh(gram_dd(noise, shape)))
        assert np.abs(w_g - w_eq).max() <= 1e-9


class TestNoiseShape:
    def test_factors_g(self):
        ns = gram_matrix(GridShape(8, 4), 0.85, PulseSpec(beta=0.25))
        assert np.all(np.diff(ns.lam) <= 0.0)
        assert np.abs(ns.V.T @ ns.V - np.eye(32)).max() <= 1e-12
        assert np.abs((ns.V * ns.lam) @ ns.V.T - ns.G).max() <= 1e-12
        assert ns.floored == 0

    def test_identity_at_nyquist(self):
        ns = gram_matrix(GridShape(4, 3), 1.0, PulseSpec(beta=0.25))
        np.testing.assert_array_equal(ns.V, np.eye(12))
        np.testing.assert_array_equal(ns.lam, np.ones(12))

    def test_floor_clamps_and_warns_once(self, caplog):
        g = gram_matrix(GridShape(8, 4), 0.8, PulseSpec(beta=0.25)).G
        raw = np.linalg.eigvalsh(g)
        with caplog.at_level(logging.WARNING, logger="otfsftn.pulse"):
            ns = noise_shape(g, eig_floor_rel=0.05)
        assert abs(ns.floor - 0.05 * raw.max()) <= 1e-12
        assert ns.floored == int(np.count_nonzero(raw < ns.floor)) > 0
        assert ns.lam.min() == ns.floor
        assert len([r for r in caplog.records if "floored" in r.message]) == 1

    def test_disabled_floor_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            noise_shape(np.diag([1.0, 0.0]), eig_floor_rel=0.0)
        assert noise_shape(np.diag([1.0, 0.0])).floored == 1
