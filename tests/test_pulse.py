import logging
import tracemalloc

import numpy as np
import pytest

from otfsftn import (
    GridShape, PulseSpec, gram_dd, gram_matrix, mi_logdet, noise_shape, rc_autocorr, rrc_impulse,
)

from conftest import dense_v


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
            assert np.array_equal(gram.dense_g(), np.eye(shape.MN))

    def test_first_offdiagonal(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(4, 2), 0.9, spec)
        assert gram.dense_g()[0, 1] == rc_autocorr(0.9, spec)
        assert gram.dense_g()[3, 2] == rc_autocorr(0.9, spec)

    def test_toeplitz_structure(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(8, 8), 0.85, spec)
        g = gram.dense_g()
        for k in range(64):
            for m in range(64):
                assert g[k, m] == g[0, abs(k - m)]

    def test_unit_diagonal(self):
        gram = gram_matrix(GridShape(6, 2), 0.82, PulseSpec(beta=0.25))
        np.testing.assert_array_equal(np.diag(gram.dense_g()), np.ones(12))

    def test_psd_at_admissibility_edge(self):
        spec = PulseSpec(beta=0.25)
        gram = gram_matrix(GridShape(4, 2), 0.8, spec)
        assert np.linalg.eigvalsh(gram.dense_g()).min() >= -1e-9

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
        tr_g = np.trace(noise.dense_g())
        assert abs(np.trace(gram_dd(noise, shape)) - tr_g) <= 1e-10 * abs(tr_g)

    def test_spectrum_preserved(self):
        shape = GridShape(4, 3)
        noise = gram_matrix(shape, 0.85, PulseSpec(beta=0.25))
        w_g = np.sort(np.linalg.eigvalsh(noise.dense_g()))
        w_eq = np.sort(np.linalg.eigvalsh(gram_dd(noise, shape)))
        assert np.abs(w_g - w_eq).max() <= 1e-9


class TestNoiseShape:
    def test_factors_g(self):
        ns = gram_matrix(GridShape(8, 4), 0.85, PulseSpec(beta=0.25))
        v = dense_v(ns)
        k = ns.even.shape[1]  # block order [even, odd], each ascending
        assert np.all(np.diff(ns.lam[:k]) >= 0.0) and np.all(np.diff(ns.lam[k:]) >= 0.0)
        assert np.abs(v.T @ v - np.eye(32)).max() <= 1e-12
        assert np.abs((v * ns.lam) @ v.T - ns.dense_g()).max() <= 1e-12
        assert ns.floored == 0

    def test_identity_at_nyquist(self, monkeypatch):
        orders = eigh_spy(monkeypatch)
        ns = gram_matrix(GridShape(64, 6), 1.0, PulseSpec(beta=0.25))
        assert orders == []
        assert ns.identity and ns.row is None and ns.odd is None
        assert ns.lam.strides == ns.raw.strides == (0,)  # unit views that own no memory
        np.testing.assert_array_equal(ns.lam, np.ones(384))
        x = np.arange(384.0)
        assert ns.vt(x) is x and ns.v(x) is x

    def test_floor_clamps_and_warns_once(self, caplog):
        gram = gram_matrix(GridShape(8, 4), 0.8, PulseSpec(beta=0.25))
        raw = np.linalg.eigvalsh(gram.dense_g())
        with caplog.at_level(logging.WARNING, logger="otfsftn.pulse"):
            ns = noise_shape(gram.row, eig_floor_rel=0.05)
        assert abs(ns.floor - 0.05 * raw.max()) <= 1e-12
        assert ns.floored == int(np.count_nonzero(raw < ns.floor)) > 0
        assert ns.lam.min() == ns.floor
        assert len([r for r in caplog.records if "floored" in r.message]) == 1

    def test_disabled_floor_rejects_singular(self):
        # the first row [1, 1] gives G = [[1, 1], [1, 1]], with eigenvalues 2 and 0
        with pytest.raises(ValueError, match="singular"):
            noise_shape(np.array([1.0, 1.0]), eig_floor_rel=0.0)
        assert noise_shape(np.array([1.0, 1.0])).floored == 1
        with pytest.raises(ValueError, match="first row"):
            noise_shape(np.eye(2))


class TestCentrosymmetricSplit:
    GRIDS = ((1, 1), (2, 1), (3, 1), (15, 1), (8, 4), (32, 6))

    @pytest.mark.parametrize("m, n", GRIDS, ids=[f"MN{m * n}" for m, n in GRIDS])
    @pytest.mark.parametrize("beta", (0.25, 0.5))
    def test_agrees_with_eigh(self, m, n, beta):
        spec = PulseSpec(beta=beta)
        for alpha in (spec.admissible_alpha(), 0.85, 0.9):
            ns = gram_matrix(GridShape(m, n), alpha, spec)
            raw = np.linalg.eigvalsh(ns.dense_g())
            mn = m * n
            v = dense_v(ns)
            assert np.abs(np.sort(ns.raw) - raw).max() <= 1e-13 * raw[-1]
            assert np.abs(np.sort(ns.lam) - np.maximum(raw, ns.floor)).max() <= 1e-13 * raw[-1]
            assert np.abs(v.T @ v - np.eye(mn)).max() <= 1e-12
            assert np.abs((v * ns.lam) @ v.T - ns.dense_g()).max() <= 1e-12
            assert ns.floored == int(np.count_nonzero(raw < ns.floor))
            if alpha == spec.admissible_alpha() and not ns.identity:
                edge = noise_shape(ns.row, eig_floor_rel=0.05)
                assert edge.floored == int(np.count_nonzero(raw < edge.floor))

    @pytest.mark.parametrize("mn", (1, 2, 3, 15, 192, 384))
    def test_half_order_products_match_dense_basis(self, mn, rng):
        spec = PulseSpec(beta=0.25)
        for alpha in (spec.admissible_alpha(), 0.85, 0.9):
            ns = gram_matrix(GridShape(mn, 1), alpha, spec)
            v = dense_v(ns)
            x = rng.standard_normal((mn, 5)) + 1j * rng.standard_normal((mn, 5))
            for y in (x, x[:, 0], x.real):
                assert np.abs(ns.vt(y) - v.T @ y).max() <= 1e-13
                assert np.abs(ns.v(y) - v @ y).max() <= 1e-13
                assert ns.vt(y).shape == ns.v(y).shape == y.shape

    def test_half_order_solves_only(self, monkeypatch):
        orders = eigh_spy(monkeypatch)
        ns = gram_matrix(GridShape(64, 6), 0.8, PulseSpec(beta=0.25))
        assert orders and max(orders) <= 192
        assert ns.even.shape == ns.odd.shape == (192, 192)

    def test_factors_leave_half_a_matrix_resident(self):
        # the two half bases hold half a real MN x MN matrix; the dense G
        # and V kept beside them left 1.9
        mn = 768
        gram_matrix(GridShape(mn, 1), 0.8, PulseSpec(beta=0.25))  # resolves the LAPACK bindings
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ns = gram_matrix(GridShape(mn, 1), 0.8, PulseSpec(beta=0.25))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ns.even.shape == (mn // 2, mn // 2)
        assert held <= 0.55 * 8 * mn**2

    @pytest.mark.parametrize("mn", (2, 7, 15, 32, 33))
    def test_deterministic_column_sign(self, mn):
        v = dense_v(gram_matrix(GridShape(mn, 1), 0.85, PulseSpec(beta=0.25)))
        first = np.argmax(np.abs(v) > 1e-8, axis=0)
        assert np.all(v[first, np.arange(mn)] > 0.0)

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
