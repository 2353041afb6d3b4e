import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import otfsftn.pulse
from otfsftn import (
    GridShape, derive_subchannels, gram_dd, gram_matrix, mi_logdet, noise_shape, rc_autocorr,
    rrc_impulse,
)

from conftest import dense_v


def rrc_self_convolution(beta: float, tau: float, oversample: int = 1000, span: int = 128) -> float:
    """Waveform-level oracle: numerical autocorrelation of the sampled RRC pulse.

    Evaluates integral h(v) h(v - tau) dv at one lag as a shifted dot product;
    tau must be a multiple of 1/oversample so it lands on the grid.
    """
    dt = 1.0 / oversample
    t = np.arange(-span * oversample, span * oversample + 1) * dt
    h = np.asarray(rrc_impulse(t, beta))
    shift = int(round(tau * oversample))
    if shift == 0:
        return float(np.dot(h, h) * dt)
    if shift < 0:
        h = h[::-1]
        shift = -shift
    return float(np.dot(h[shift:], h[:-shift]) * dt)


def eigh_spy(monkeypatch) -> list[int]:
    """Record the order of every np.linalg.eigh / eigvalsh call."""
    orders: list[int] = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, **kw):
            orders.append(np.shape(a)[0])
            return _original(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, spy)
    return orders


class TestRcAutocorr:
    def test_unit_peak(self):
        for beta in (0.0, 0.25, 0.5, 1.0):
            assert rc_autocorr(0.0, beta) == 1.0

    def test_nyquist_zero_crossings(self):
        beta = 0.25
        for k in (1, 2, 3, 5, 8):
            assert abs(rc_autocorr(float(k), beta)) <= 1e-15
            assert abs(rc_autocorr(float(-k), beta)) <= 1e-15

    def test_removable_singularity(self):
        # t = T0/(2*beta) = 2*T0 at beta = 0.25; limit value sinc(2)*pi/4 = 0
        beta = 0.25
        lim = np.sinc(2.0) * np.pi / 4.0
        assert abs(rc_autocorr(2.0, beta) - lim) <= 1e-15
        # approaching values stay continuous
        assert abs(rc_autocorr(2.0 + 1e-9, beta) - lim) <= 1e-6

    def test_against_convolution_oracle(self):
        # frozen from the numerical self-convolution oracle below (agrees to 1.5e-8)
        beta = 0.25
        assert abs(rc_autocorr(0.9, beta) - 0.104208898552) <= 1e-9
        for tau in (0.5, 0.72, 0.9, 1.8, 2.5):
            oracle = rrc_self_convolution(0.25, tau)
            assert abs(rc_autocorr(tau, beta) - oracle) <= 1e-6

    def test_even_and_bounded(self):
        t = np.linspace(-10.0, 10.0, 4001)
        g = np.asarray(rc_autocorr(t, 0.35))
        assert np.abs(g - g[::-1]).max() <= 1e-12
        assert np.all(np.abs(g) <= 1.0)
        assert np.all(np.abs(g[np.abs(t) > 1e-12]) < 1.0)

    def test_beta_zero_is_sinc(self):
        t = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_allclose(rc_autocorr(t, 0.0), np.sinc(t), atol=1e-15)


class TestRrcImpulse:
    def test_unit_energy(self):
        # quadrature over a long span; the tail beyond 64*T0 is ~1e-10 in power
        dt = 1e-3
        t = np.arange(-64000, 64001) * dt
        h = np.asarray(rrc_impulse(t, 0.25))
        energy = float(np.sum(h * h) * dt)
        assert abs(energy - 1.0) <= 1e-6

    def test_beta_zero_limit(self):
        t = np.linspace(-6.0, 6.0, 241)
        np.testing.assert_allclose(rrc_impulse(t, 0.0), np.sinc(t), atol=1e-9)

    def test_singular_points_continuous(self):
        beta = 0.25
        for t0 in (0.0, 1.0, -1.0):  # T0/(4*beta) = 1 at beta = 0.25
            v = rrc_impulse(t0, beta)
            v_eps = rrc_impulse(t0 + 1e-7, beta)
            assert abs(v - v_eps) <= 1e-5

    def test_self_convolution_matches_rc(self):
        # the two closed forms are mutually consistent
        for tau in (0.0, 0.3, 1.0, 1.5):
            oracle = rrc_self_convolution(0.25, tau)
            assert abs(oracle - rc_autocorr(tau, 0.25)) <= 1e-6


class TestGramMatrix:
    def test_nyquist_identity_exact(self):
        shape = GridShape(4, 3)
        for beta in (0.0, 0.25, 0.5):
            gram = gram_matrix(shape, 1.0, beta)
            assert np.array_equal(gram.dense_g(), np.eye(shape.MN))

    def test_first_offdiagonal(self):
        beta = 0.25
        gram = gram_matrix(GridShape(4, 2), 0.9, beta)
        assert gram.dense_g()[0, 1] == rc_autocorr(0.9, beta)
        assert gram.dense_g()[3, 2] == rc_autocorr(0.9, beta)

    def test_toeplitz_structure(self):
        gram = gram_matrix(GridShape(8, 8), 0.85, 0.25)
        g = gram.dense_g()
        for k in range(64):
            for m in range(64):
                assert g[k, m] == g[0, abs(k - m)]

    def test_unit_diagonal(self):
        gram = gram_matrix(GridShape(6, 2), 0.82, 0.25)
        np.testing.assert_array_equal(np.diag(gram.dense_g()), np.ones(12))

    def test_psd_at_admissibility_edge(self):
        gram = gram_matrix(GridShape(4, 2), 0.8, 0.25)
        assert np.linalg.eigvalsh(gram.dense_g()).min() >= -1e-9

    def test_rejects_inadmissible_alpha(self):
        beta = 0.25
        with pytest.raises(ValueError, match="1/\\(1\\+beta\\)"):
            gram_matrix(GridShape(4, 2), 0.7, beta)
        with pytest.raises(ValueError):
            gram_matrix(GridShape(4, 2), 1.1, beta)


class TestGramDd:
    def test_nyquist_identity(self):
        shape = GridShape(4, 3)
        g_eq = gram_dd(gram_matrix(shape, 1.0, 0.25), shape)
        assert np.abs(g_eq - np.eye(shape.MN)).max() <= 1e-13

    def test_hermitian(self):
        shape = GridShape(4, 3)
        g_eq = gram_dd(gram_matrix(shape, 0.85, 0.25), shape)
        assert np.abs(g_eq - g_eq.conj().T).max() <= 1e-12

    def test_trace_preserved(self):
        shape = GridShape(8, 4)
        noise = gram_matrix(shape, 0.85, 0.25)
        tr_g = np.trace(noise.dense_g())
        assert abs(np.trace(gram_dd(noise, shape)) - tr_g) <= 1e-10 * abs(tr_g)

    def test_spectrum_preserved(self):
        shape = GridShape(4, 3)
        noise = gram_matrix(shape, 0.85, 0.25)
        w_g = np.sort(np.linalg.eigvalsh(noise.dense_g()))
        w_eq = np.sort(np.linalg.eigvalsh(gram_dd(noise, shape)))
        assert np.abs(w_g - w_eq).max() <= 1e-9


class TestNoiseShape:
    def test_factors_g(self):
        ns = gram_matrix(GridShape(8, 4), 0.85, 0.25)
        v = dense_v(ns)
        k = ns.even.shape[1]  # block order [even, odd], each ascending
        assert np.all(np.diff(ns.lam[:k]) >= 0.0) and np.all(np.diff(ns.lam[k:]) >= 0.0)
        assert np.abs(v.T @ v - np.eye(32)).max() <= 1e-12
        assert np.abs((v * ns.lam) @ v.T - ns.dense_g()).max() <= 1e-12
        assert ns.floored == 0

    def test_identity_at_nyquist(self, monkeypatch):
        orders = eigh_spy(monkeypatch)
        ns = gram_matrix(GridShape(64, 6), 1.0, 0.25)
        assert orders == []
        assert ns.identity and ns.row is None and ns.odd is None
        assert ns.lam.strides == ns.raw.strides == (0,)  # unit views that own no memory
        np.testing.assert_array_equal(ns.lam, np.ones(384))
        x = np.arange(384.0)
        assert ns.vt(x) is x and ns.v(x) is x

    def test_floor_clamps_and_warns_once(self, caplog):
        # the first row of ones gives the all-ones G: eigenvalues 5 and four zeros
        with caplog.at_level(logging.WARNING, logger="otfsftn.pulse"):
            ns = noise_shape(np.ones(5))
        assert abs(ns.raw.max() - 5.0) <= 1e-14
        assert ns.floored == 4
        assert ns.lam.min() == 1e-10 * ns.raw.max()
        assert len([r for r in caplog.records if "floored" in r.message]) == 1

    def test_singular_row_is_floored(self):
        # the first row [1, 1] gives G = [[1, 1], [1, 1]], with eigenvalues 2 and 0
        ns = noise_shape(np.array([1.0, 1.0]))
        assert ns.floored == 1
        assert ns.lam.min() == 1e-10 * 2
        with pytest.raises(ValueError, match="first row"):
            noise_shape(np.eye(2))


class TestCentrosymmetricSplit:
    GRIDS = ((1, 1), (2, 1), (3, 1), (15, 1), (8, 4), (32, 6))

    @pytest.mark.parametrize("m, n", GRIDS, ids=[f"MN{m * n}" for m, n in GRIDS])
    @pytest.mark.parametrize("beta", (0.25, 0.5))
    def test_agrees_with_eigh(self, m, n, beta, monkeypatch):
        for alpha in (1.0 / (1.0 + beta), 0.85, 0.9):
            ns = gram_matrix(GridShape(m, n), alpha, beta)
            raw = np.linalg.eigvalsh(ns.dense_g())
            mn = m * n
            v = dense_v(ns)
            floor = 1e-10 * ns.raw.max()
            assert np.abs(np.sort(ns.raw) - raw).max() <= 1e-13 * raw[-1]
            assert np.abs(np.sort(ns.lam) - np.maximum(raw, floor)).max() <= 1e-13 * raw[-1]
            assert np.abs(v.T @ v - np.eye(mn)).max() <= 1e-12
            assert np.abs((v * ns.lam) @ v.T - ns.dense_g()).max() <= 1e-12
            assert ns.floored == int(np.count_nonzero(raw < floor))
            if alpha == 1.0 / (1.0 + beta) and not ns.identity:
                # a floor large enough to clamp counts what the dense spectrum puts under it
                with monkeypatch.context() as patch:
                    patch.setattr(otfsftn.pulse, "EIG_FLOOR_REL", 0.05)
                    edge = noise_shape(ns.row)
                assert edge.floored == int(np.count_nonzero(raw < 0.05 * ns.raw.max()))

    @pytest.mark.parametrize("mn", (1, 2, 3, 15, 192, 384))
    def test_half_order_products_match_dense_basis(self, mn, rng):
        beta = 0.25
        for alpha in (1.0 / (1.0 + beta), 0.85, 0.9):
            ns = gram_matrix(GridShape(mn, 1), alpha, beta)
            v = dense_v(ns)
            x = rng.standard_normal((mn, 5)) + 1j * rng.standard_normal((mn, 5))
            for y in (x, x[:, 0], x.real):
                assert np.abs(ns.vt(y) - v.T @ y).max() <= 1e-13
                assert np.abs(ns.v(y) - v @ y).max() <= 1e-13
                assert ns.vt(y).shape == ns.v(y).shape == y.shape

    def test_half_order_solves_only(self, monkeypatch):
        orders = eigh_spy(monkeypatch)
        ns = gram_matrix(GridShape(64, 6), 0.8, 0.25)
        assert orders and max(orders) <= 192
        assert ns.even.shape == ns.odd.shape == (192, 192)

    def test_factors_leave_half_a_matrix_resident(self):
        # the two half bases hold half a real MN x MN matrix; the dense G
        # and V kept beside them left 1.9
        mn = 768
        gram_matrix(GridShape(mn, 1), 0.8, 0.25)  # resolves the LAPACK bindings
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ns = gram_matrix(GridShape(mn, 1), 0.8, 0.25)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ns.even.shape == (mn // 2, mn // 2)
        assert held <= 0.55 * 8 * mn**2

    @pytest.mark.parametrize("mn", (2, 7, 15, 32, 33))
    def test_column_signs_leave_the_derivation(self, mn, rng):
        # a flipped column of V negates one row of the whitened channel exactly,
        # so C^H C, and with it xi, phi, U_t and D_t, keep every bit
        ns = gram_matrix(GridShape(mn, 1), 0.85, 0.25)
        flip = lambda b: b * np.where(np.arange(b.shape[1]) % 2, 1.0, -1.0)  # columns 0, 2, ...
        flipped = replace(ns, even=flip(ns.even), odd=flip(ns.odd))
        assert not np.array_equal(dense_v(flipped), dense_v(ns))
        h = rng.standard_normal((mn, mn)) + 1j * rng.standard_normal((mn, mn))
        ref, sub = derive_subchannels(h, ns), derive_subchannels(h, flipped)
        for name in ("xi", "phi", "U_t", "D"):
            assert getattr(sub, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("kind", ("complex-hermitian", "real-not-centrosymmetric"))
    def test_eigh_fallback(self, kind, rng, monkeypatch):
        # a G_eq the split cannot take is factored by mi_logdet itself, by one
        # eigh and the shared floor rule: its MI is the log-determinant's
        n = 9
        a = rng.standard_normal((n, n))
        if kind == "complex-hermitian":
            a = a + 1j * rng.standard_normal((n, n))
        g = a @ a.conj().T + n * np.eye(n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        orders = eigh_spy(monkeypatch)
        mi = mi_logdet(h, g, np.eye(n), 0.5)
        assert orders == [n, n, n]  # Rxx, G_eq and the whitened kernel
        direct = np.linalg.slogdet(np.eye(n) + h @ h.conj().T @ np.linalg.inv(g) / 0.5)[1]
        assert abs(mi - direct / np.log(2.0)) <= 1e-10 * mi
        # a singular G_eq is floored, not rejected
        assert np.isfinite(mi_logdet(np.eye(2), np.diag([1.0, 0.0]), np.eye(2), 1.0))
