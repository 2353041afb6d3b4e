import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from otfsftn import (
    ChannelConfig,
    GridShape,
    conjugate_by_dd,
    derive_subchannels,
    effective_channel,
    eva_channel,
    finalize,
    gram_dd,
    gram_matrix,
    hermitian_evd_desc,
    identity_channel,
    mi_sum,
    noise_shape,
    solve_precoder,
    waterfill,
)
import otfsftn._openblas as _openblas
from otfsftn.channel import channel_for_config, column_strips, synthetic_channel
import otfsftn.precoder as precoder
from otfsftn.config import MAX_FRAME_SYMBOLS
from otfsftn.harness import (
    _VALIDATE_SHAPES, _check_precoder_identities, _eva_instance, run_rate_sweep, trial_rng,
)
from otfsftn.precoder import XI_ACTIVE_REL, subchannel_gains
from otfsftn.pulse import EIG_FLOOR_REL

from conftest import complex_gaussian, dense_v, eva_config, identity_config


def random_hermitian(rng, n):
    a = complex_gaussian(rng, n * n).reshape(n, n)
    return 0.5 * (a + a.conj().T)


def traced_peak(call):
    """Bytes that call() holds at its peak beyond what was allocated before it."""
    call()  # resolves the LAPACK bindings
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def eva_parts(m, n, alpha, seed, nu_max=2000.0, beta=0.25):
    """(shape, cfg, chan, noise) of one EVA instance; eva_instance's H is effective_channel(chan, cfg)."""
    shape = GridShape(m, n)
    cfg = eva_config(m, n, alpha, beta=beta, nu_max=nu_max, seed=seed)
    chan = eva_channel(nu_max, cfg, np.random.default_rng(seed))
    return shape, cfg, chan, gram_matrix(shape, alpha, beta)


def eva_instance(m, n, alpha, seed, nu_max=2000.0, beta=0.25):
    shape, cfg, chan, noise = eva_parts(m, n, alpha, seed, nu_max, beta)
    return shape, noise, effective_channel(chan, cfg)


def validate_instance(shape, alpha):
    """(noise, cfg, chan, H) of validate's _eva_instance(shape, alpha, 20240901, 4)."""
    noise, cfg, h = _eva_instance(shape, alpha, 20240901, 4)
    return noise, cfg, channel_for_config(cfg, trial_rng(20240901, 0, 4)), h


def whiten(h, noise):
    """C from the dense H, on the gains path's column strips."""
    n = noise.n
    strips = ((j, h[:, j]) for j in column_strips(n, (n + 1) ** 2))
    return precoder._whiten(strips, noise, np.empty((n, n), dtype=complex))


def dense_folded_band(h):
    """H^H H's folded lower band read from the nonzeros of a dense H (np.nonzero's
    row-major order): the construction the taps-built band replaced, kept as its
    byte-level reference."""
    n = h.shape[0]
    rows, cols = np.nonzero(h)
    f = np.where(cols < (n + 1) // 2, 2 * cols, 2 * (n - cols) - 1)
    start = np.flatnonzero(np.diff(rows, prepend=-1))
    kd = int((np.maximum.reduceat(f, start) - np.minimum.reduceat(f, start)).max(initial=0))
    v, ab = h[rows, cols], np.zeros((n, kd + 1), dtype=complex)
    for d in range(kd + 1):
        same = rows[d:] == rows[: rows.size - d]
        p, q, z = f[: rows.size - d][same], f[d:][same], (v[: rows.size - d].conj() * v[d:])[same]
        np.add.at(ab.reshape(-1), np.minimum(p, q) * kd + np.maximum(p, q),
                  np.where(p >= q, z, z.conj()))
    return ab


class TestHermitianEvd:
    def test_identity(self):
        w, lam = hermitian_evd_desc(np.eye(4, dtype=complex))
        np.testing.assert_array_equal(lam, np.ones(4))
        recon = w @ np.diag(lam) @ w.conj().T
        assert np.abs(recon - np.eye(4)).max() <= 1e-12

    def test_descending_order(self):
        _, lam = hermitian_evd_desc(np.diag([1.0, 3.0, 2.0]).astype(complex))
        np.testing.assert_allclose(lam, [3.0, 2.0, 1.0], atol=1e-14)

    def test_reconstruction(self, rng):
        a = random_hermitian(rng, 8)
        w, lam = hermitian_evd_desc(a)
        scale = np.abs(a).max()
        assert np.abs(w @ np.diag(lam) @ w.conj().T - a).max() <= 1e-9 * scale
        assert np.abs(w.conj().T @ w - np.eye(8)).max() <= 1e-10

    def test_deterministic_basis(self, rng):
        a = random_hermitian(rng, 6)
        w1, _ = hermitian_evd_desc(a)
        w2, _ = hermitian_evd_desc(a.copy())
        np.testing.assert_array_equal(w1, w2)

    def test_rejects_non_hermitian(self, rng):
        a = complex_gaussian(rng, 16).reshape(4, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_evd_desc(a)


def phase_aligned(v, ref):
    """v with each column turned by the unit phase that best aligns it with ref's."""
    dots = np.einsum("ij,ij->j", ref.conj(), v)
    return v * (dots.conj() / np.abs(dots))


def needs_staged_evd():
    if _openblas.lapacke("dstedc_work") is None:
        pytest.skip("numpy's BLAS exports no LAPACKE_dstedc_work")


class TestDivideAndConquerKernel:
    """hermitian_evd_desc on zhetrd + dstedc + zunmtr against its np.linalg.eigh fallback."""

    @pytest.fixture
    def both_paths(self, monkeypatch):
        needs_staged_evd()

        def no_eigh(*args):
            raise AssertionError("the kernel path called np.linalg.eigh")

        def run(a):
            before = a.copy()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", no_eigh)
                kernel = hermitian_evd_desc(a)
            assert np.array_equal(a, before)
            with monkeypatch.context() as m:
                m.setattr(_openblas, "lapacke", lambda routine: None)
                fallback = hermitian_evd_desc(a)
            assert np.array_equal(a, before)
            (v_k, w_k), (v_f, w_f) = kernel, fallback
            assert np.abs(w_k - w_f).max() <= 1e-12 * np.abs(w_f).max()
            return v_k, v_f, w_f

        return run

    def test_random_hermitian(self, rng, both_paths):
        # an eigenvector is fixed only up to a unit phase, which neither path normalizes
        v_k, v_f, _ = both_paths(random_hermitian(rng, 40))
        assert np.abs(phase_aligned(v_k, v_f) - v_f).max() <= 1e-8

    @staticmethod
    def assert_same_eigenspaces(both_paths, rng, lam):
        n = lam.size
        q, _ = np.linalg.qr(complex_gaussian(rng, n * n).reshape(n, n))
        v_k, v_f, w = both_paths((q * lam) @ q.conj().T)
        # inside a group any basis of the eigenspace is valid: compare projectors
        for value in np.unique(lam):
            g = np.abs(w - value) <= 1e-9
            assert g.sum() == np.count_nonzero(lam == value)
            proj_k, proj_f = v_k[:, g] @ v_k[:, g].conj().T, v_f[:, g] @ v_f[:, g].conj().T
            assert np.abs(proj_k - proj_f).max() <= 1e-8

    def test_degenerate_spectrum(self, rng, both_paths):
        self.assert_same_eigenspaces(both_paths, rng, np.repeat([5.0, 2.0, 0.5], [6, 10, 8]))

    def test_degenerate_diagonal_gives_one_basis(self, both_paths):
        v_k, v_f, _ = both_paths(np.diag([2.0, 1.0, 2.0, 3.0, 1.0, 2.0]).astype(complex))
        assert np.abs(v_k - v_f).max() <= 1e-8

    def test_identity_is_exact_on_both_paths(self, both_paths):
        v_k, v_f, w = both_paths(np.eye(16, dtype=complex))
        assert np.array_equal(w, np.ones(16))
        assert np.array_equal(v_k, np.eye(16)) and np.array_equal(v_f, np.eye(16))

    # sizes around dstedc's small-matrix cutoff, the widening's halving blocks and STRIP
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 384])
    def test_sizes_match_eigh(self, rng, both_paths, n):
        v_k, v_f, _ = both_paths(random_hermitian(rng, n))
        assert np.abs(phase_aligned(v_k, v_f) - v_f).max() <= 1e-8
        # a diagonal input: every column is a unit multiple of a standard basis
        # vector, and both paths pick the same ones for each eigenvalue
        diag = rng.choice([3.0, 1.0, 2.0, -1.0], n)
        v_k, v_f, w = both_paths(np.diag(diag).astype(complex))
        for v in (v_k, v_f):
            assert np.array_equal(np.count_nonzero(v, axis=0), np.ones(n))
            assert np.abs(np.abs(v.sum(axis=0)) - 1.0).max() <= 1e-15
            for value in np.unique(diag):
                assert np.array_equal(np.flatnonzero(v[:, w == value].any(axis=1)),
                                      np.flatnonzero(diag == value))
        self.assert_same_eigenspaces(both_paths, rng, np.resize([4.0, 1.5, 4.0, -2.0], n))

    def test_basis_is_orthonormal(self, rng):
        # zheevr's MRRR basis was orthonormal only to about 5e-13 here
        needs_staged_evd()
        a = random_hermitian(rng, 384)
        evd = _openblas.HermitianEVD(a.copy())
        w, u = evd.w, evd.basis()
        assert np.abs(u.conj().T @ u - np.eye(384)).max() <= 1e-13
        assert np.abs(a @ u - u * w).max() <= 1e-12 * np.abs(w).max()


class TestDeriveSubchannels:
    def test_fully_degenerate_instance(self):
        shape = GridShape(4, 2)
        eye = np.eye(shape.MN, dtype=complex)
        sol = derive_subchannels(eye, noise_shape(np.eye(shape.MN)[0]))
        np.testing.assert_allclose(sol.xi, np.ones(shape.MN), atol=1e-12)
        np.testing.assert_allclose(sol.phi, np.ones(shape.MN), atol=1e-12)
        assert np.abs(sol.D - eye).max() <= 1e-12

    def test_identity_channel_basis_exact(self):
        # at alpha = 1 G and H are exactly I, so the basis is not set by rounding
        shape = GridShape(32, 16)
        h = effective_channel(identity_channel(), identity_config(32, 16, 1.0))
        sol = derive_subchannels(h, gram_matrix(shape, 1.0, 0.25))
        assert np.array_equal(h, np.eye(shape.MN))
        assert np.array_equal(sol.U_t, np.eye(shape.MN))

    def test_eigenvector_phases_do_not_reach_the_outputs(self, monkeypatch):
        # the basis is fixed only up to a unit phase per column, in the staged
        # solve the sign of each real eigenvector of the tridiagonal: turning
        # each one leaves xi bit for bit and phi to rounding, and D_t turns against U_t
        instances = [validate_instance(shape, 0.9) for shape in _VALIDATE_SHAPES]
        refs = [subchannel_gains(chan, cfg, noise) for noise, cfg, chan, _ in instances]
        real, turned = _openblas.HermitianEVD, []

        def random_phases(s, *buf):
            evd = real(s, *buf)
            turned.append(evd.n)
            turn = np.random.default_rng(len(turned)).random(evd.n)
            if evd.zt is None:  # np.linalg.eigh's basis
                evd.q *= np.exp(2j * np.pi * turn)
            else:
                evd.zt *= np.where(turn < 0.5, -1.0, 1.0)[:, None]
            return evd

        monkeypatch.setattr(_openblas, "HermitianEVD", random_phases)
        for (noise, cfg, chan, _), (xi_ref, phi_ref) in zip(instances, refs):
            xi, phi = subchannel_gains(chan, cfg, noise)
            assert np.array_equal(xi, xi_ref)
            assert np.abs(phi - phi_ref).max() <= 1e-13 * phi_ref.max()
        ok, detail = _check_precoder_identities(20240901)
        assert ok, detail
        assert turned == [shape.MN for shape in _VALIDATE_SHAPES] * 2

    def test_unitary_channel_unit_gains(self, rng):
        shape = GridShape(4, 2)
        q, _ = np.linalg.qr(complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN))
        sol = derive_subchannels(q, noise_shape(np.eye(shape.MN)[0]))
        np.testing.assert_allclose(sol.xi, np.ones(shape.MN), atol=1e-10)

    def test_gain_sum_trace_identity(self):
        # sum(xi) must equal trace(H_eq^H G_eq^{-1} H_eq), computed by direct
        # inversion as an independent oracle
        shape, noise, h = eva_instance(4, 3, 0.85, seed=2)
        sol = derive_subchannels(h, noise)
        h_eq = conjugate_by_dd(h, shape)
        oracle = np.trace(h_eq.conj().T @ np.linalg.inv(gram_dd(noise, shape)) @ h_eq).real
        assert abs(sol.xi.sum() - oracle) <= 1e-8 * abs(oracle)

    def test_descending_and_nonnegative(self):
        shape, noise, h = eva_instance(8, 4, 0.9, seed=3)
        sol = derive_subchannels(h, noise)
        assert np.all(np.diff(sol.xi) <= 1e-12)
        assert np.all(sol.xi >= 0.0)
        lam, k = sol.noise.lam, sol.noise.even.shape[1]  # block order [even, odd], each ascending
        assert np.all(np.diff(lam[:k]) >= 0.0) and np.all(np.diff(lam[k:]) >= 0.0)

    def test_bases_unitary(self):
        shape, noise, h = eva_instance(8, 4, 0.9, seed=3)
        sol = derive_subchannels(h, noise)
        eye = np.eye(shape.MN)
        v = dense_v(sol.noise)
        assert np.abs(v.T @ v - eye).max() <= 1e-10
        assert np.abs(sol.U_t.conj().T @ sol.U_t - eye).max() <= 1e-10

    def test_floor_never_activates_away_from_edge(self):
        # clamping is reserved for the admissibility edge; interior packing
        # ratios keep the raw spectrum above the floor
        for alpha in (0.82, 0.85, 0.9, 1.0):
            shape, noise, h = eva_instance(16, 4, alpha, seed=12)
            sol = derive_subchannels(h, noise)
            assert sol.floored == 0

    def test_floor_inactive_at_larger_frame(self):
        # MN = 384 just above the admissibility edge
        shape, noise, h = eva_instance(64, 6, 0.82, seed=13)
        sol = derive_subchannels(h, noise)
        assert sol.floored == 0

    def test_alpha_below_one_at_the_frame_cap(self):
        # MN = 1536, the largest frame a config admits, with the MN <= 384 tests' bounds
        shape, noise, h = eva_instance(256, 6, 0.8, seed=1)
        assert shape.MN == MAX_FRAME_SYMBOLS
        sol = solve_precoder(h, noise, snr=10.0)
        sub, bound = sol.sub, 1e-8 * sol.xi.max()
        assert sub.floored == 0
        assert np.abs(sub.U_t.conj().T @ sub.U_t - np.eye(shape.MN)).max() <= 1e-10
        dhp = sub.D @ h @ sol.P
        assert np.abs(dhp - np.diag(sol.xi * np.sqrt(sol.gamma))).max() <= bound
        del dhp
        dgd = sub.D @ noise.dense_g() @ sub.D.conj().T
        assert np.abs(dgd - np.diag(sol.xi)).max() <= bound
        assert abs(sub.phi.sum() - shape.MN) <= 1e-12 * shape.MN
        # min eig(G) is 8.1e-6 here, the deepest cancellation in phi = c - sum over steep terms
        oracle = np.einsum("in,in->n", sub.U_t.conj(), noise.dense_g() @ sub.U_t).real
        assert np.abs(sub.phi - oracle).max() <= 1e-12 * oracle.max()

    # (M, N, alphas, beta): MN = 15 and 384; MN = 64, where V's steep columns
    # (38 at alpha = 0.8) outnumber the 34 the EVD's spare workspace holds and
    # pass through it one block of V at a time; beta = 1, where no eigenvalue
    # of G is flat (191 of 192 are steep); and M None for the floored all-ones
    # G of order 8 (on the channel of an EVA instance at MN = 8)
    @pytest.mark.parametrize("m, n, alphas, beta", [
        (5, 3, (0.8, 0.9), 0.25), (64, 6, (0.8, 0.9), 0.25), (8, 8, (0.8, 0.9), 0.25),
        (32, 6, (0.5,), 1.0), (None, 8, (None,), None),
    ], ids=["5-3", "64-6", "8-8", "32-6-beta1", "all-ones"])
    def test_phi_is_the_dense_quadratic_form(self, m, n, alphas, beta):
        # phi from G's steep eigenpairs, applied through the reflectors and Z,
        # equals diag(U_t^H G U_t) with the dense G, and the gains path's is the same
        for alpha in alphas:
            if m is None:
                _, cfg, chan, _ = eva_parts(4, 2, 0.8, seed=n)
                noise = noise_shape(np.ones(n))
                assert noise.floored == n - 1
            else:
                _, cfg, chan, noise = eva_parts(m, n, alpha, seed=m, beta=beta)
            h = effective_channel(chan, cfg)
            sol = derive_subchannels(h, noise)
            oracle = np.einsum("in,in->n", sol.U_t.conj(), noise.dense_g() @ sol.U_t).real
            assert np.abs(sol.phi - oracle).max() <= 1e-12 * oracle.max()
            xi, phi = subchannel_gains(chan, cfg, noise)
            assert np.array_equal(xi, sol.xi) and np.array_equal(phi, sol.phi)

    def test_phi_positive(self):
        shape, noise, h = eva_instance(8, 4, 0.85, seed=4)
        sol = derive_subchannels(h, noise)
        assert np.all(sol.phi > 0.0)

    def test_dimension_mismatch(self):
        # H must have the noise shape's dimensions
        with pytest.raises(ValueError, match="noise shape"):
            derive_subchannels(np.eye(8, dtype=complex), noise_shape(np.eye(4)[0]))
        with pytest.raises(ValueError, match="noise shape"):
            derive_subchannels(np.ones((4, 8), dtype=complex), noise_shape(np.eye(4)[0]))


def dd_domain_oracle(h_eq, g_eq):
    """(xi, phi) from the DD-domain chain: a complex EVD of G_eq, the whitened
    channel B = diag(lam)^{-1/2} V^H H_eq and a complex EVD of B^H B."""
    lam, v = np.linalg.eigh(g_eq)
    lam = np.maximum(lam, EIG_FLOOR_REL * lam.max())
    b = (v.conj().T @ h_eq) / np.sqrt(lam)[:, None]
    xi, u = np.linalg.eigh(b.conj().T @ b)
    xi, u = np.maximum(xi[::-1], 0.0), u[:, ::-1]
    phi = np.einsum("in,in->n", u.conj(), g_eq @ u).real
    return xi, phi


class TestTimeDomainDerivation:
    @pytest.mark.parametrize("profile", ["eva", "synthetic"])
    def test_matches_dd_domain_oracle(self, profile):
        worst_xi = worst_mi = 0.0
        for alpha in (0.8, 0.9):
            if profile == "eva":
                cfg = eva_config(16, 4, alpha, nu_max=2000.0)
            else:
                cfg = identity_config(
                    16, 4, alpha, cp_len=4,
                    channel=ChannelConfig(profile="synthetic", num_paths=20, l_max=3, k_max=5),
                )
            shape = GridShape(cfg.M, cfg.N)
            noise = gram_matrix(shape, alpha, 0.25)
            g_eq = gram_dd(noise, shape)
            for seed in range(3):
                h = effective_channel(channel_for_config(cfg, np.random.default_rng(seed)), cfg)
                sol = derive_subchannels(h, noise)
                xi_o, phi_o = dd_domain_oracle(conjugate_by_dd(h, shape), g_eq)
                worst_xi = max(worst_xi, float(np.abs(sol.xi - xi_o).max() / xi_o.max()))
                for snr in (1.0, 10.0, 100.0):
                    mi = mi_sum(sol.xi, waterfill(sol.xi, sol.phi, snr)[0], snr)
                    mi_o = mi_sum(xi_o, waterfill(xi_o, phi_o, snr)[0], snr)
                    worst_mi = max(worst_mi, abs(mi - mi_o) / mi_o)
        assert worst_xi <= 1e-10
        assert worst_mi <= 1e-10

    def test_dd_basis_is_mapped_time_basis(self):
        # U = (F_N kron I_M) U_t is the DD-domain chain's basis: it diagonalizes
        # H_eq^H G_eq^{-1} H_eq with the gains xi, and G_eq gives it the weights phi
        shape, noise, h = eva_instance(8, 4, 0.85, seed=4)
        sol = derive_subchannels(h, noise)
        kron = np.kron(np.fft.fft(np.eye(shape.N), norm="ortho"), np.eye(shape.M))
        u = kron @ sol.U_t
        g_eq = gram_dd(noise, shape)
        h_eq = conjugate_by_dd(h, shape)
        gains = u.conj().T @ h_eq.conj().T @ np.linalg.solve(g_eq, h_eq) @ u
        assert np.abs(gains - np.diag(sol.xi)).max() <= 1e-8 * sol.xi.max()
        phi = np.einsum("in,in->n", u.conj(), g_eq @ u).real
        assert np.abs(phi - sol.phi).max() <= 1e-10 * sol.phi.max()


class TestWaterfill:
    def test_symmetric_case(self):
        gamma, mu = waterfill(np.ones(4), np.ones(4), snr=2.0)
        np.testing.assert_allclose(gamma, np.ones(4), atol=1e-12)
        assert abs(mu - (1.0 + 0.5)) <= 1e-12

    def test_single_subchannel(self):
        gamma, _ = waterfill(np.array([0.7]), np.array([1.3]), snr=5.0)
        assert abs(gamma[0] - 1.0 / 1.3) <= 1e-12

    def test_two_channel_grid_oracle(self):
        # independent scalar search over the water level
        xi = np.array([4.0, 1.0])
        phi = np.array([1.0, 1.0])
        snr, budget = 1.0, 2.0

        def spent(mu):
            return np.sum(np.maximum(mu - phi / (xi * snr), 0.0) )

        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if spent(mid) < budget else (lo, mid)
        mu_oracle = 0.5 * (lo + hi)
        gamma_oracle = np.maximum(mu_oracle / phi - 1.0 / (xi * snr), 0.0)

        gamma, mu = waterfill(xi, phi, snr)
        np.testing.assert_allclose(gamma, gamma_oracle, atol=1e-8)
        assert gamma[0] > gamma[1]

    def test_constraint_residual(self, rng):
        for _ in range(20):
            n = 48
            xi = rng.uniform(0.01, 3.0, n)
            phi = rng.uniform(0.2, 2.0, n)
            gamma, _ = waterfill(xi, phi, snr=4.0)
            assert abs(float(gamma @ phi) - n) <= 1e-10 * n
            assert np.all(gamma >= 0.0)

    def test_kkt_conditions(self, rng):
        n = 48
        xi = rng.uniform(0.001, 2.0, n)
        phi = rng.uniform(0.3, 1.8, n)
        snr = 2.5
        gamma, mu = waterfill(xi, phi, snr)
        act = gamma > 0.0
        lhs = phi[act] * (gamma[act] + 1.0 / (xi[act] * snr))
        assert np.abs(lhs - mu).max() <= 1e-8 * mu
        if (~act).any():
            assert np.all(mu / phi[~act] <= 1.0 / (xi[~act] * snr) + 1e-8)

    def test_low_snr_drops_weak_subchannels(self):
        xi = np.array([2.0, 1e-3])
        phi = np.ones(2)
        gamma, _ = waterfill(xi, phi, snr=0.1)
        assert gamma[1] == 0.0 and gamma[0] > 0.0

    @pytest.mark.parametrize("snr_db", [-200.0, -300.0])
    def test_constraint_holds_at_extreme_low_snr(self, snr_db):
        # thresholds near 1/snr dwarf the budget n; the best subchannel takes all of it
        n = 32
        xi, phi = np.linspace(0.5, 2.0, n), np.ones(n)
        gamma, _ = waterfill(xi, phi, 10.0 ** (snr_db / 10.0))
        assert abs(float(gamma @ phi) - n) <= 1e-10 * n
        assert np.count_nonzero(gamma) == 1

    def test_numerically_dead_subchannels_inactive(self):
        xi = np.array([1.0, 1e-15])
        gamma, _ = waterfill(xi, np.ones(2), snr=1e6)
        assert gamma[1] == 0.0

    def test_optimality_against_perturbations(self, rng):
        # projected random feasible perturbations never beat the water filling
        n = 48
        xi = rng.uniform(0.01, 2.0, n)
        phi = rng.uniform(0.3, 1.5, n)
        snr = 3.0
        budget = float(n)
        gamma, _ = waterfill(xi, phi, snr)
        best = mi_sum(xi, gamma, snr)
        for _ in range(100):
            pert = np.maximum(gamma + rng.normal(0.0, 0.2, n), 0.0)
            pert *= budget / float(pert @ phi)
            assert mi_sum(xi, pert, snr) <= best + 1e-9

    def test_mi_strictly_increasing_in_snr(self, rng):
        n = 24
        xi = rng.uniform(0.05, 2.0, n)
        phi = rng.uniform(0.5, 1.5, n)
        previous = -1.0
        for snr_db in (-5.0, 0.0, 5.0, 10.0, 20.0):
            snr = 10.0 ** (snr_db / 10.0)
            gamma, _ = waterfill(xi, phi, snr)
            mi = mi_sum(xi, gamma, snr)
            assert mi > previous
            previous = mi

    def test_randomized_ties_and_cutoff(self):
        # subchannels drawn from a small pool of (xi, phi) pairs tie their
        # thresholds exactly; some pool gains sit just above the usable cutoff.
        # Checked against the budget and KKT bounds used above.
        rng = np.random.default_rng(20240917)
        for _ in range(300):
            n = int(rng.integers(1, 65))
            pool = int(rng.integers(1, n + 1))
            xi_pool = rng.uniform(0.01, 3.0, pool)
            near = (rng.random(pool) < 0.2) & (xi_pool < xi_pool.max())
            xi_pool[near] = XI_ACTIVE_REL * xi_pool.max() * (1.0 + 1e-9)
            pick = rng.integers(0, pool, n)
            xi, phi = xi_pool[pick], rng.uniform(0.2, 2.0, pool)[pick]
            snr = 10.0 ** rng.uniform(-1.0, 3.0)
            gamma, mu = waterfill(xi, phi, snr)
            assert abs(float(gamma @ phi) - n) <= 1e-10 * n
            assert np.all(gamma >= 0.0)
            act = gamma > 0.0
            lhs = phi[act] * (gamma[act] + 1.0 / (xi[act] * snr))
            assert np.abs(lhs - mu).max() <= 1e-8 * mu
            if (~act).any():
                assert np.all(mu / phi[~act] <= 1.0 / (xi[~act] * snr) + 1e-8)
            for j in np.unique(pick):
                tied = gamma[pick == j]
                assert np.all(tied == tied[0])

    def test_rejects_all_zero_gains(self):
        with pytest.raises(ValueError, match="usable"):
            waterfill(np.zeros(4), np.ones(4), 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0]), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(1), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(1), np.ones(1), 0.0)

    @pytest.mark.parametrize("snr", [np.nan, np.inf])
    def test_rejects_non_finite_snr(self, snr):
        with pytest.raises(ValueError, match="finite"):
            waterfill(np.ones(2), np.ones(2), snr)


class TestSubchannelGains:
    def test_eigenvalues_only_at_nyquist(self):
        shape = GridShape(8, 4)
        noise = gram_matrix(shape, 1.0, 0.25)
        cfg = identity_config(8, 4, 1.0, cp_len=4)
        chan = synthetic_channel(12, 3, 2, True, np.random.default_rng(5))
        h = effective_channel(chan, cfg)
        xi, phi = subchannel_gains(chan, cfg, noise)
        ref = derive_subchannels(h, noise).xi
        assert np.abs(xi - ref).max() <= 1e-12 * ref.max()
        assert np.all(phi == 1.0)

    # (profile, M, N, cp_len, synthetic l_max, whether the folded band is at most
    # MN/16 wide): even and odd MN, prefixes as long as the frame, and at MN = 15
    # a multi-tap channel with a wide band (kd > MN/16), which the band route
    # serves too; EVA's taps reach 5 at M = 63 and 64 and all round to 0 at M = 5
    NYQUIST_CASES = [
        ("identity", 8, 4, 4, 0, True),
        ("identity", 5, 3, 15, 0, True),
        ("eva", 5, 3, 15, 0, True),
        ("synthetic", 5, 3, 15, 3, False),
        ("synthetic", 15, 3, 45, 1, True),
        ("synthetic", 64, 6, 4, 3, True),
        ("eva", 63, 5, 315, 0, True),
        ("eva", 64, 6, 6, 0, True),
    ]

    @pytest.mark.parametrize("mode", ["circular", "literal"])
    @pytest.mark.parametrize("profile, m, n, cp_len, l_max, narrow", NYQUIST_CASES)
    def test_band_gains_match_dense_eigvalsh(self, monkeypatch, profile, m, n, cp_len, l_max,
                                             narrow, mode):
        channel = ChannelConfig(profile=profile, nu_max_hz=2000.0, num_paths=8, l_max=l_max,
                                k_max=2, frac_doppler=True)
        cfg = identity_config(m, n, 1.0, cp_len=cp_len, cp_mode=mode, channel=channel)
        cfg = replace(cfg, delta_f_hz=30e3)
        chan = channel_for_config(cfg, np.random.default_rng(m * n))
        h = effective_channel(chan, cfg)
        noise = gram_matrix(GridShape(m, n), 1.0, 0.25)
        ref = np.maximum(np.linalg.eigvalsh(h.conj().T @ h)[::-1], 0.0)
        band = precoder._folded_band(chan, cfg)
        assert band.tobytes() == dense_folded_band(h).tobytes()
        assert (16 * (band.shape[1] - 1) <= m * n) == narrow
        if _openblas.lapacke("zhbev") is None:
            pytest.skip("numpy's BLAS exports no LAPACKE_zhbev")
        xi, phi = subchannel_gains(chan, cfg, noise)
        assert np.abs(xi - ref).max() <= 1e-12 * ref.max()
        assert np.all(phi == 1.0)
        with monkeypatch.context() as mp:  # a BLAS with no zhbev takes the dense route
            mp.setattr(_openblas, "lapacke", lambda routine: None)
            dense, _ = subchannel_gains(chan, cfg, noise)
        assert np.abs(dense - ref).max() <= 1e-12 * ref.max()

    def test_band_route_serves_wide_and_dense_h(self, monkeypatch):
        # delay taps up to 7 give kd > MN/16 = 4 at MN = 64, and a tap on every
        # delay of the frame a dense H, kd = MN - 1; only a BLAS without zhbev
        # takes the dense route
        instances = []
        for l_max, seed in ((7, 2), (63, 3)):
            cfg = identity_config(8, 8, 1.0, cp_len=l_max + 1, channel=ChannelConfig(
                profile="synthetic", num_paths=16 if l_max == 7 else 64, l_max=l_max,
                k_max=2 if l_max == 7 else 0))
            chan = channel_for_config(cfg, np.random.default_rng(seed))
            instances.append((cfg, chan, effective_channel(chan, cfg)))
        (wide_cfg, wide, _), (dense_cfg, dense, dense_h) = instances
        assert 16 * (precoder._folded_band(wide, wide_cfg).shape[1] - 1) > 64
        assert np.count_nonzero(dense_h) == 64 * 64
        assert precoder._folded_band(dense, dense_cfg).shape == (64, 64)
        noise = gram_matrix(GridShape(8, 8), 1.0, 0.25)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, **kw: calls.append(a.shape) or real(a, **kw))
        for cfg, chan, h in instances:
            ref = np.maximum(real(h.conj().T @ h)[::-1], 0.0)
            if _openblas.lapacke("zhbev") is not None:
                xi, _ = subchannel_gains(chan, cfg, noise)
                assert calls == []
                assert np.abs(xi - ref).max() <= 1e-12 * ref.max()
            with monkeypatch.context() as mp:
                mp.setattr(_openblas, "lapacke", lambda routine: None)
                mp.setattr(_openblas, "band_eigvalsh", lambda ab: pytest.fail("band route ran"))
                xi, _ = subchannel_gains(chan, cfg, noise)
            assert calls == [(64, 64)]
            assert np.abs(xi - ref).max() <= 1e-12 * ref.max()
            calls.clear()

    @pytest.mark.parametrize("mode", ["circular", "literal"])
    @pytest.mark.parametrize("l_max, num_paths, k_max", [(7, 16, 2), (63, 64, 0)])
    def test_taps_band_is_the_dense_band(self, mode, l_max, num_paths, k_max):
        # MN = 64 with kd > MN/16, and with a tap on every delay (a dense H, kd = MN - 1):
        # summed from the taps, the band has the bytes of the one read from H's nonzeros
        cfg = identity_config(8, 8, 1.0, cp_len=l_max + 1, cp_mode=mode, channel=ChannelConfig(
            profile="synthetic", num_paths=num_paths, l_max=l_max, k_max=k_max, frac_doppler=True))
        for seed in range(3):
            chan = channel_for_config(cfg, np.random.default_rng(seed))
            band = precoder._folded_band(chan, cfg)
            assert 16 * (band.shape[1] - 1) > 64
            assert band.tobytes() == dense_folded_band(effective_channel(chan, cfg)).tobytes()

    def test_nyquist_rate_sweep_calls_no_eigvalsh(self, monkeypatch):
        if _openblas.lapacke("zhbev") is None:
            pytest.skip("numpy's BLAS exports no LAPACKE_zhbev")
        cfg = identity_config(64, 6, 1.0, cp_len=4, trials=2, snr_db_grid=(0.0, 20.0),
                              channel=ChannelConfig(profile="synthetic", num_paths=20,
                                                    l_max=3, k_max=5, frac_doppler=True))
        assert cfg.MN == 384
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh called"))
        rows = run_rate_sweep(cfg).rows
        assert len(rows) == 8 and all(r.mi_bits > 0.0 for r in rows)  # pa, no_pa, 2 nyquist

    def test_nyquist_peak_memory_is_a_band(self):
        # the dense route holds H^H H and eigvalsh's working copy, 1.22
        # MN x MN matrices at MN = 384; the band route O(MN * taps), about 0.1
        if _openblas.lapacke("zhbev") is None:
            pytest.skip("numpy's BLAS exports no LAPACKE_zhbev")
        cfg = identity_config(64, 6, 1.0, cp_len=4, channel=ChannelConfig(
            profile="synthetic", num_paths=20, l_max=3, k_max=5, frac_doppler=True))
        chan = channel_for_config(cfg, np.random.default_rng(1))
        noise = gram_matrix(GridShape(64, 6), 1.0, 0.25)
        assert traced_peak(lambda: subchannel_gains(chan, cfg, noise)) <= 0.25 * 16 * cfg.MN**2

    def test_full_derivation_where_g_is_not_identity(self):
        _, cfg, chan, noise = eva_parts(8, 4, 0.9, seed=3)
        xi, phi = subchannel_gains(chan, cfg, noise)
        sub = derive_subchannels(effective_channel(chan, cfg), noise)
        assert np.array_equal(xi, sub.xi) and np.array_equal(phi, sub.phi)


    def test_numpy_peak_memory_is_two_matrices(self):
        # a solve on fresh buffers holds the pair and column strips: H is built
        # strip by strip in the first buffer, C in the second, and the EVD
        # reuses both (3.17 matrices when C^H C was formed whole and then
        # copied for LAPACK, 2.15 beside a dense H when H was passed in)
        shape, cfg, chan, noise = eva_parts(64, 6, 0.8, seed=1)
        assert shape.MN == 384
        assert traced_peak(lambda: subchannel_gains(chan, cfg, noise)) <= 2.5 * 16 * shape.MN**2

    def test_h_passed_as_a_temporary_is_released(self):
        # no H is passed any more: the gains are solved from the path list, so
        # no dense H is held through the EVD beside its buffers (3.33 matrices
        # while the gains kept H); here on the rate sweep's 20-path channel
        cfg = identity_config(64, 6, 0.8, cp_len=4, channel=ChannelConfig(
            profile="synthetic", num_paths=20, l_max=3, k_max=5, frac_doppler=True))
        chan = channel_for_config(cfg, np.random.default_rng(1))
        noise = gram_matrix(GridShape(64, 6), 0.8, 0.25)
        assert traced_peak(lambda: subchannel_gains(chan, cfg, noise)) <= 2.5 * 16 * cfg.MN**2


class TestGainsBuffers:
    """subchannel_gains on a thread's pair of reused buffers, kept on a threading.local."""

    # alpha = 0.8 on the synthetic and the EVA channel and alpha = 1, at MN = 64
    # (strips of 26 columns) and 192 (64 columns); keep = MN - 4 falls inside a strip
    @pytest.mark.parametrize("mode", ["circular", "literal"])
    @pytest.mark.parametrize("profile, m, n, alpha", [
        ("synthetic", 16, 4, 0.8), ("eva", 32, 6, 0.8), ("synthetic", 32, 6, 1.0),
        ("eva", 16, 4, 1.0)])
    def test_a_warm_pair_keeps_no_state(self, profile, m, n, alpha, mode):
        channel = ChannelConfig(profile=profile, num_paths=20, l_max=3, k_max=5,
                                frac_doppler=True, nu_max_hz=2000.0)
        cfg = identity_config(m, n, alpha, cp_len=4, cp_mode=mode, delta_f_hz=30e3, channel=channel)
        other = replace(cfg, cp_mode="literal" if mode == "circular" else "circular")
        noise = gram_matrix(GridShape(m, n), alpha, 0.25)
        chan_a, chan_b = (channel_for_config(cfg, np.random.default_rng(s)) for s in (1, 2))
        fresh = subchannel_gains(chan_b, cfg, noise, threading.local())
        bufs = threading.local()
        subchannel_gains(chan_a, other, noise, bufs)  # instance A leaves its data in the pair
        warm = subchannel_gains(chan_b, cfg, noise, bufs)
        assert all(w.tobytes() == f.tobytes() for w, f in zip(warm, fresh))
        assert hasattr(bufs, "pair") == (alpha < 1.0)  # the band route takes no pair
        if alpha < 1.0:
            for buf in bufs.pair:  # so a read of anything B does not write shows
                buf.fill(np.nan)
            poisoned = subchannel_gains(chan_b, cfg, noise, bufs)
            assert all(w.tobytes() == f.tobytes() for w, f in zip(poisoned, fresh))
        strips = column_strips(cfg.MN, (cfg.MN + 1) ** 2)
        assert any(j.start < cfg.MN - 4 < j.stop for j in strips)

    def test_a_warm_solve_allocates_no_matrix(self):
        # the pair holds H's strips, C, -C^H C, Z and the EVD's workspace; what
        # is left is fold and phi strips, the reflectors' scalars and the windows
        shape, cfg, chan, noise = eva_parts(64, 6, 0.8, seed=1)
        bufs = threading.local()
        assert traced_peak(lambda: subchannel_gains(chan, cfg, noise, bufs)) <= 0.5 * 16 * shape.MN**2

    def test_a_warm_solve_makes_no_workspace_query(self, monkeypatch):
        # zhetrd's and zunmtr's workspace is sized once per n: a query (lwork = -1) made on
        # every solve would hand the interpreter lock over twice more per trial
        needs_staged_evd()
        _, cfg, chan, noise = eva_parts(16, 4, 0.8, seed=1)
        bufs, calls = threading.local(), []
        cold = subchannel_gains(chan, cfg, noise, bufs)
        real = _openblas._call
        monkeypatch.setattr(_openblas, "_call", lambda routine, *args: calls.append(args) or real(routine, *args))
        warm = subchannel_gains(chan, cfg, noise, bufs)
        assert calls and not any(args[-1] == -1 for args in calls)
        assert all(w.tobytes() == c.tobytes() for w, c in zip(warm, cold))
        _openblas._lwork.cache_clear()
        subchannel_gains(chan, cfg, noise, bufs)
        assert sum(args[-1] == -1 for args in calls) == 2  # one query per routine at a new n

    def test_each_thread_has_its_own_pair(self):
        _, cfg, chan, noise = eva_parts(4, 2, 0.8, seed=1)
        bufs, pairs = threading.local(), []

        def solve():
            subchannel_gains(chan, cfg, noise, bufs)
            pairs.append(bufs.pair)

        worker = threading.Thread(target=solve)
        worker.start()
        worker.join()
        solve()
        solve()
        assert pairs[1] is pairs[2]
        assert not any(np.shares_memory(a, b) for a in pairs[0] for b in pairs[1])


class TestGramBuffer:
    """-C^H C built as one triangle in the buffer the eigensolver overwrites."""

    @pytest.mark.parametrize("m, n", [(5, 3), (32, 6), (64, 6)])
    def test_kernel_matches_checked_entry(self, m, n):
        # MN = 15, 192 and 384: odd, and not a multiple of STRIP
        _, noise, h = eva_instance(m, n, 0.8, seed=m)
        c = whiten(h, noise)
        g = c.conj().T @ c
        g = np.triu(g) + np.triu(g, 1).conj().T  # the Hermitian matrix the upper triangle holds
        u_ref, xi_ref = hermitian_evd_desc(g)
        evd = _openblas.HermitianEVD(precoder._neg_gram(c))
        assert np.array_equal(-evd.w, xi_ref) and np.array_equal(evd.basis(), u_ref)

    @pytest.mark.parametrize("n", [1, 15, 64, 125, 193])
    def test_zherk_triangle_matches_numpy_strips(self, monkeypatch, rng, n):
        if _openblas.cblas("zherk") is None:
            pytest.skip("numpy's BLAS exports no cblas_zherk")
        c = complex_gaussian(rng, n * n).reshape(n, n)
        upper = np.triu_indices(n)
        herk = precoder._neg_gram(c)[upper]
        fortran = precoder._neg_gram(np.asfortranarray(c))[upper]  # not C-ordered: the strips
        monkeypatch.setattr(_openblas, "cblas", lambda routine: None)
        strips = precoder._neg_gram(c)[upper]
        assert np.array_equal(fortran, strips)
        # the same sums, which zherk may accumulate in another order
        assert np.abs(herk - strips).max() <= 4 * n * np.finfo(float).eps * np.abs(strips).max()

    @pytest.mark.parametrize("m, n", [(5, 3), (25, 5), (32, 6)])
    def test_whiten_matches_the_contiguous_strip_fold(self, m, n):
        # MN = 15, 125 and 192: folding H's strips straight into C's and dividing
        # once gives the bytes of folding contiguous copies and dividing per strip
        for alpha in (0.8, 1.0):
            _, noise, h = eva_instance(m, n, alpha, seed=m)
            ref = np.empty(h.shape, complex)
            for j in column_strips(noise.n, (noise.n + 1) ** 2):
                np.divide(noise.vt(np.ascontiguousarray(h[:, j])), np.sqrt(noise.lam)[:, None],
                          out=ref[:, j])
            assert whiten(h, noise).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("staged", [True, False])
    def test_only_the_upper_triangle_is_read(self, monkeypatch, staged):
        if staged:
            needs_staged_evd()
        _, cfg, chan, noise = eva_parts(8, 5, 0.8, seed=4)
        h = effective_channel(chan, cfg)
        ref = derive_subchannels(h, noise)
        real = precoder._neg_gram

        def poisoned(c, *out):
            s = real(c, *out)
            s[np.tril_indices(s.shape[0], -1)] = np.nan
            return s

        monkeypatch.setattr(precoder, "_neg_gram", poisoned)
        if not staged:
            monkeypatch.setattr(_openblas, "lapacke", lambda routine: None)
        sub = derive_subchannels(h, noise)
        assert np.abs(sub.xi - ref.xi).max() <= 1e-12 * ref.xi.max()
        assert np.abs(phase_aligned(sub.U_t, ref.U_t) - ref.U_t).max() <= 1e-8
        xi, phi = subchannel_gains(chan, cfg, noise)
        assert np.array_equal(xi, sub.xi) and np.array_equal(phi, sub.phi)

    def test_derivation_peak_memory(self):
        # C, the buffer and the basis during the EVD; C, U_t and W = C U_t
        # after it; then U_t, W and D.  4.17 matrices when C^H C was formed
        # whole and then copied for LAPACK
        shape, noise, h = eva_instance(64, 6, 0.8, seed=1)
        assert traced_peak(lambda: derive_subchannels(h, noise)) <= 3.25 * 16 * shape.MN**2


class TestFinalize:
    def test_unit_gamma_gives_unitary_precoder(self):
        shape, noise, h = eva_instance(4, 3, 0.9, seed=5)
        sub = derive_subchannels(h, noise)
        sol = finalize(sub, np.ones(shape.MN))
        assert np.abs(sol.P - sub.U_t).max() == 0.0
        assert np.abs(sol.P.conj().T @ sol.P - np.eye(shape.MN)).max() <= 1e-10

    def test_degenerate_identity_link(self):
        shape = GridShape(4, 2)
        eye = np.eye(shape.MN, dtype=complex)
        sub = derive_subchannels(eye, noise_shape(np.eye(shape.MN)[0]))
        sol = finalize(sub, np.full(shape.MN, 1.0))
        dhp = sub.D @ eye @ sol.P
        assert np.abs(dhp - np.diag(np.sqrt(sol.gamma))).max() <= 1e-10

    def test_diagonalization_identities(self):
        # the time-domain pair diagonalizes H and whitens the noise shape G
        shape, noise, h = eva_instance(8, 4, 0.9, seed=6)
        sol = solve_precoder(h, noise, snr=10.0)
        bound = 1e-8 * sol.xi.max()
        dhp = sol.sub.D @ h @ sol.P
        assert np.abs(dhp - np.diag(sol.xi * np.sqrt(sol.gamma))).max() <= bound
        dgd = sol.sub.D @ noise.dense_g() @ sol.sub.D.conj().T
        assert np.abs(dgd - np.diag(sol.xi)).max() <= bound

    def test_energy_constraint_satisfied(self):
        shape, noise, h = eva_instance(8, 4, 0.85, seed=7)
        sol = solve_precoder(h, noise, snr=5.0)
        assert abs(float(sol.gamma @ sol.sub.phi) - shape.MN) <= 1e-8 * shape.MN

    @pytest.mark.parametrize("alpha", [0.8, 0.9, None])
    def test_phi_sums_to_mn(self, alpha, rng):
        # sum(phi) = tr(U_t^H G U_t) = tr G = MN at any floor, so unit powers meet
        # sum(gamma*phi) = MN; alpha None is gram-floor-policy's all-ones G, 7 of 8 eigenvalues floored
        if alpha is None:  # the gains on an MN = 8 EVA channel
            _, cfg, chan, _ = eva_parts(4, 2, 0.8, seed=8)
            instances = [(noise_shape(np.ones(8)), cfg, chan, complex_gaussian(rng, 64).reshape(8, 8))]
            assert instances[0][0].floored == 7
        else:
            instances = [validate_instance(shape, alpha) for shape in _VALIDATE_SHAPES]
        for noise, cfg, chan, h in instances:
            for phi in (derive_subchannels(h, noise).phi, subchannel_gains(chan, cfg, noise)[1]):
                assert abs(phi.sum() - noise.n) <= 1e-12 * noise.n

    def test_finalize_requires_gamma(self):
        # one power per subchannel
        shape, noise, h = eva_instance(4, 3, 0.9, seed=9)
        sub = derive_subchannels(h, noise)
        with pytest.raises(ValueError, match="gamma"):
            finalize(sub, np.ones(shape.MN - 1))

    def test_shared_receive_weights_match_fresh(self):
        # every allocation on a derivation shares its receive weights, formed once
        shape, noise, h = eva_instance(8, 4, 0.9, seed=10)
        fresh = solve_precoder(h, noise, snr=10.0)
        sub = derive_subchannels(h, noise)
        sol = finalize(sub, waterfill(sub.xi, sub.phi, 10.0)[0])
        uniform = finalize(sub, np.ones(sub.xi.size))
        assert sol.sub.D is uniform.sub.D
        assert np.array_equal(sub.D, fresh.sub.D) and np.array_equal(sol.P, fresh.P)

    def test_derivation_and_allocation_are_frozen(self):
        shape, noise, h = eva_instance(4, 3, 0.9, seed=11)
        sol = solve_precoder(h, noise, snr=10.0)
        with pytest.raises(FrozenInstanceError):
            sol.sub.xi = np.ones(shape.MN)
        with pytest.raises(FrozenInstanceError):
            sol.gamma = np.ones(shape.MN)
        with pytest.raises(FrozenInstanceError):
            sol.P = np.eye(shape.MN)
