from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from otfsftn import (
    ChannelConfig,
    GridShape,
    PulseSpec,
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
    uniform_gamma,
    waterfill,
)
from otfsftn.channel import channel_for_config
from otfsftn.precoder import XI_ACTIVE_REL
from otfsftn.pulse import EIG_FLOOR_REL

from conftest import complex_gaussian, eva_config, identity_config


def random_hermitian(rng, n):
    a = complex_gaussian(rng, n * n).reshape(n, n)
    return 0.5 * (a + a.conj().T)


def eva_instance(m, n, alpha, seed, nu_max=2000.0, beta=0.25):
    shape = GridShape(m, n)
    spec = PulseSpec(beta=beta)
    cfg = eva_config(m, n, alpha, beta=beta, nu_max=nu_max, seed=seed)
    noise = gram_matrix(shape, alpha, spec)
    chan = eva_channel(nu_max, cfg, np.random.default_rng(seed))
    eff = effective_channel(chan, spec, cfg)
    return shape, noise, eff


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

    def test_phase_normalization(self, rng):
        a = random_hermitian(rng, 5)
        w, _ = hermitian_evd_desc(a)
        for col in w.T:
            lead = col[np.argmax(np.abs(col) > 1e-8)]
            assert abs(lead.imag) <= 1e-12 and lead.real > 0.0

    def test_rejects_non_hermitian(self, rng):
        a = complex_gaussian(rng, 16).reshape(4, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_evd_desc(a)


class TestDeriveSubchannels:
    def test_fully_degenerate_instance(self):
        shape = GridShape(4, 2)
        eye = np.eye(shape.MN, dtype=complex)
        sol = derive_subchannels(eye, noise_shape(np.eye(shape.MN)), shape)
        np.testing.assert_allclose(sol.xi, np.ones(shape.MN), atol=1e-12)
        np.testing.assert_allclose(sol.phi, np.ones(shape.MN), atol=1e-12)
        assert np.abs(sol.C - eye).max() <= 1e-12

    def test_identity_channel_basis_exact(self):
        # at alpha = 1 G and H are exactly I, so the basis is not set by rounding
        shape = GridShape(32, 16)
        spec = PulseSpec(beta=0.25)
        eff = effective_channel(identity_channel(), spec, identity_config(32, 16, 1.0))
        sol = derive_subchannels(eff.H, gram_matrix(shape, 1.0, spec), shape)
        assert np.array_equal(eff.H, np.eye(shape.MN))
        assert np.array_equal(sol.U_t, np.eye(shape.MN))

    def test_unitary_channel_unit_gains(self, rng):
        shape = GridShape(4, 2)
        q, _ = np.linalg.qr(complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN))
        sol = derive_subchannels(q, noise_shape(np.eye(shape.MN)), shape)
        np.testing.assert_allclose(sol.xi, np.ones(shape.MN), atol=1e-10)

    def test_gain_sum_trace_identity(self):
        # sum(xi) must equal trace(H_eq^H G_eq^{-1} H_eq), computed by direct
        # inversion as an independent oracle
        shape, noise, eff = eva_instance(4, 3, 0.85, seed=2)
        sol = derive_subchannels(eff.H, noise, shape)
        oracle = np.trace(eff.H_eq.conj().T @ np.linalg.inv(gram_dd(noise, shape)) @ eff.H_eq).real
        assert abs(sol.xi.sum() - oracle) <= 1e-8 * abs(oracle)

    def test_descending_and_nonnegative(self):
        shape, noise, eff = eva_instance(8, 4, 0.9, seed=3)
        sol = derive_subchannels(eff.H, noise, shape)
        assert np.all(np.diff(sol.xi) <= 1e-12)
        assert np.all(sol.xi >= 0.0)
        assert np.all(np.diff(sol.noise.lam) <= 1e-12)

    def test_bases_unitary(self):
        shape, noise, eff = eva_instance(8, 4, 0.9, seed=3)
        sol = derive_subchannels(eff.H, noise, shape)
        eye = np.eye(shape.MN)
        assert np.abs(sol.noise.V.conj().T @ sol.noise.V - eye).max() <= 1e-10
        assert np.abs(sol.U_t.conj().T @ sol.U_t - eye).max() <= 1e-10

    def test_floor_never_activates_away_from_edge(self):
        # clamping is reserved for the admissibility edge; interior packing
        # ratios keep the raw spectrum above the floor
        for alpha in (0.82, 0.85, 0.9, 1.0):
            shape, noise, eff = eva_instance(16, 4, alpha, seed=12)
            sol = derive_subchannels(eff.H, noise, shape)
            assert sol.floored == 0

    def test_floor_inactive_at_larger_frame(self):
        # MN = 384 just above the admissibility edge
        shape, noise, eff = eva_instance(64, 6, 0.82, seed=13)
        sol = derive_subchannels(eff.H, noise, shape)
        assert sol.floored == 0

    def test_phi_positive(self):
        shape, noise, eff = eva_instance(8, 4, 0.85, seed=4)
        sol = derive_subchannels(eff.H, noise, shape)
        assert np.all(sol.phi > 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            derive_subchannels(np.eye(4, dtype=complex), noise_shape(np.eye(4)), GridShape(4, 2))


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
        spec = PulseSpec(beta=0.25)
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
            noise = gram_matrix(shape, alpha, spec)
            g_eq = gram_dd(noise, shape)
            for seed in range(3):
                eff = effective_channel(channel_for_config(cfg, np.random.default_rng(seed)), spec, cfg)
                sol = derive_subchannels(eff.H, noise, shape)
                xi_o, phi_o = dd_domain_oracle(eff.H_eq, g_eq)
                worst_xi = max(worst_xi, float(np.abs(sol.xi - xi_o).max() / xi_o.max()))
                for snr in (1.0, 10.0, 100.0):
                    mi = mi_sum(sol.xi, waterfill(sol.xi, sol.phi, snr, float(shape.MN))[0], snr)
                    mi_o = mi_sum(xi_o, waterfill(xi_o, phi_o, snr, float(shape.MN))[0], snr)
                    worst_mi = max(worst_mi, abs(mi - mi_o) / mi_o)
        assert worst_xi <= 1e-10
        assert worst_mi <= 1e-10

    def test_dd_basis_is_mapped_time_basis(self):
        # U = (F_N kron I_M) U_t is the DD-domain chain's basis: it diagonalizes
        # H_eq^H G_eq^{-1} H_eq with the gains xi, and G_eq gives it the weights phi
        shape, noise, eff = eva_instance(8, 4, 0.85, seed=4)
        sol = derive_subchannels(eff.H, noise, shape)
        kron = np.kron(np.fft.fft(np.eye(shape.N), norm="ortho"), np.eye(shape.M))
        u = kron @ sol.U_t
        g_eq = gram_dd(noise, shape)
        gains = u.conj().T @ eff.H_eq.conj().T @ np.linalg.solve(g_eq, eff.H_eq) @ u
        assert np.abs(gains - np.diag(sol.xi)).max() <= 1e-8 * sol.xi.max()
        phi = np.einsum("in,in->n", u.conj(), g_eq @ u).real
        assert np.abs(phi - sol.phi).max() <= 1e-10 * sol.phi.max()


class TestWaterfill:
    def test_symmetric_case(self):
        gamma, mu = waterfill(np.ones(4), np.ones(4), snr=2.0, budget=4.0)
        np.testing.assert_allclose(gamma, np.ones(4), atol=1e-12)
        assert abs(mu - (1.0 + 0.5)) <= 1e-12

    def test_single_subchannel(self):
        gamma, _ = waterfill(np.array([0.7]), np.array([1.3]), snr=5.0, budget=1.0)
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

        gamma, mu = waterfill(xi, phi, snr, budget)
        np.testing.assert_allclose(gamma, gamma_oracle, atol=1e-8)
        assert gamma[0] > gamma[1]

    def test_constraint_residual(self, rng):
        for _ in range(20):
            n = 48
            xi = rng.uniform(0.01, 3.0, n)
            phi = rng.uniform(0.2, 2.0, n)
            gamma, _ = waterfill(xi, phi, snr=4.0, budget=float(n))
            assert abs(float(gamma @ phi) - n) <= 1e-10 * n
            assert np.all(gamma >= 0.0)

    def test_kkt_conditions(self, rng):
        n = 48
        xi = rng.uniform(0.001, 2.0, n)
        phi = rng.uniform(0.3, 1.8, n)
        snr = 2.5
        gamma, mu = waterfill(xi, phi, snr, float(n))
        act = gamma > 0.0
        lhs = phi[act] * (gamma[act] + 1.0 / (xi[act] * snr))
        assert np.abs(lhs - mu).max() <= 1e-8 * mu
        if (~act).any():
            assert np.all(mu / phi[~act] <= 1.0 / (xi[~act] * snr) + 1e-8)

    def test_low_snr_drops_weak_subchannels(self):
        xi = np.array([2.0, 1e-3])
        phi = np.ones(2)
        gamma, _ = waterfill(xi, phi, snr=0.1, budget=2.0)
        assert gamma[1] == 0.0 and gamma[0] > 0.0

    def test_numerically_dead_subchannels_inactive(self):
        xi = np.array([1.0, 1e-15])
        gamma, _ = waterfill(xi, np.ones(2), snr=1e6, budget=2.0)
        assert gamma[1] == 0.0

    def test_optimality_against_perturbations(self, rng):
        # projected random feasible perturbations never beat the water filling
        n = 48
        xi = rng.uniform(0.01, 2.0, n)
        phi = rng.uniform(0.3, 1.5, n)
        snr = 3.0
        budget = float(n)
        gamma, _ = waterfill(xi, phi, snr, budget)
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
            gamma, _ = waterfill(xi, phi, snr, float(n))
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
            gamma, mu = waterfill(xi, phi, snr, float(n))
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
            waterfill(np.zeros(4), np.ones(4), 1.0, 4.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0]), np.ones(1), 1.0, 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(1), np.zeros(1), 1.0, 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(1), np.ones(1), 0.0, 1.0)

    @pytest.mark.parametrize("snr", [np.nan, np.inf])
    def test_rejects_non_finite_snr(self, snr):
        with pytest.raises(ValueError, match="finite"):
            waterfill(np.ones(2), np.ones(2), snr, 2.0)


class TestFinalize:
    def test_unit_gamma_gives_unitary_precoder(self):
        shape, noise, eff = eva_instance(4, 3, 0.9, seed=5)
        sub = derive_subchannels(eff.H, noise, shape)
        sol = finalize(sub, np.ones(shape.MN))
        assert np.abs(sol.P - sub.U_t).max() == 0.0
        assert np.abs(sol.P.conj().T @ sol.P - np.eye(shape.MN)).max() <= 1e-10

    def test_degenerate_identity_link(self):
        shape = GridShape(4, 2)
        eye = np.eye(shape.MN, dtype=complex)
        sub = derive_subchannels(eye, noise_shape(np.eye(shape.MN)), shape)
        sol = finalize(sub, np.full(shape.MN, 1.0))
        dhp = sub.D @ eye @ sol.P
        assert np.abs(dhp - np.diag(np.sqrt(sol.gamma))).max() <= 1e-10

    def test_diagonalization_identities(self):
        # the time-domain pair diagonalizes H and whitens the noise shape G
        shape, noise, eff = eva_instance(8, 4, 0.9, seed=6)
        sol = solve_precoder(eff.H, noise, shape, snr=10.0)
        bound = 1e-8 * sol.xi.max()
        dhp = sol.sub.D @ eff.H @ sol.P
        assert np.abs(dhp - np.diag(sol.xi * np.sqrt(sol.gamma))).max() <= bound
        dgd = sol.sub.D @ noise.G @ sol.sub.D.conj().T
        assert np.abs(dgd - np.diag(sol.xi)).max() <= bound

    def test_energy_constraint_satisfied(self):
        shape, noise, eff = eva_instance(8, 4, 0.85, seed=7)
        sol = solve_precoder(eff.H, noise, shape, snr=5.0)
        assert abs(float(sol.gamma @ sol.sub.phi) - shape.MN) <= 1e-8 * shape.MN

    def test_uniform_gamma_meets_constraint(self):
        shape, noise, eff = eva_instance(8, 4, 0.85, seed=8)
        sol = derive_subchannels(eff.H, noise, shape)
        g = uniform_gamma(sol.phi, float(shape.MN))
        assert abs(float(g @ sol.phi) - shape.MN) <= 1e-10 * shape.MN
        # trace(G_eq) = MN makes the unscaled identity already feasible
        assert np.abs(g - 1.0).max() <= 1e-10

    def test_finalize_requires_gamma(self):
        # one power per subchannel
        shape, noise, eff = eva_instance(4, 3, 0.9, seed=9)
        sub = derive_subchannels(eff.H, noise, shape)
        with pytest.raises(ValueError, match="gamma"):
            finalize(sub, np.ones(shape.MN - 1))

    def test_shared_receive_weights_match_fresh(self):
        # every allocation on a derivation shares its receive weights, formed once
        shape, noise, eff = eva_instance(8, 4, 0.9, seed=10)
        fresh = solve_precoder(eff.H, noise, shape, snr=10.0)
        sub = derive_subchannels(eff.H, noise, shape)
        sol = finalize(sub, waterfill(sub.xi, sub.phi, 10.0, float(shape.MN))[0])
        uniform = finalize(sub, uniform_gamma(sub.phi, float(shape.MN)))
        assert sol.sub.D is uniform.sub.D
        assert np.array_equal(sub.D, fresh.sub.D) and np.array_equal(sol.P, fresh.P)

    def test_derivation_and_allocation_are_frozen(self):
        shape, noise, eff = eva_instance(4, 3, 0.9, seed=11)
        sol = solve_precoder(eff.H, noise, shape, snr=10.0)
        with pytest.raises(FrozenInstanceError):
            sol.sub.xi = np.ones(shape.MN)
        with pytest.raises(FrozenInstanceError):
            sol.gamma = np.ones(shape.MN)
        with pytest.raises(FrozenInstanceError):
            sol.P = np.eye(shape.MN)
