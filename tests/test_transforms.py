import numpy as np
import pytest

from otfsftn import GridShape, conjugate_by_dd, dd_to_time, dft_matrix, time_to_dd

from conftest import complex_gaussian


def kron_map(shape: GridShape) -> np.ndarray:
    """Dense (F_N kron I_M) oracle."""
    return np.kron(dft_matrix(shape.N), np.eye(shape.M))


class TestDftMatrix:
    def test_order_one_is_identity(self):
        assert np.array_equal(dft_matrix(1), np.array([[1.0 + 0.0j]]))

    def test_order_two_entries(self):
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        np.testing.assert_allclose(dft_matrix(2), expect, atol=1e-15)

    def test_entry_formula(self):
        n = 8
        f = dft_matrix(n)
        for k in range(n):
            for m in range(n):
                expect = np.exp(-2j * np.pi * k * m / n) / np.sqrt(n)
                assert abs(f[k, m] - expect) < 1e-15

    @pytest.mark.parametrize("n", list(range(1, 17)) + [24, 32, 48, 64])
    def test_unitary(self, n):
        f = dft_matrix(n)
        assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestGridShape:
    def test_product(self):
        assert GridShape(4, 3).MN == 12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridShape(0, 3)


class TestDdTime:
    def test_single_slot_is_identity(self, rng):
        shape = GridShape(5, 1)
        x = complex_gaussian(rng, shape.MN)
        np.testing.assert_allclose(dd_to_time(x, shape), x, atol=1e-15)
        np.testing.assert_allclose(time_to_dd(x, shape), x, atol=1e-15)

    def test_impulse_spreads_flat(self):
        shape = GridShape(1, 4)
        e0 = np.zeros(4, complex)
        e0[0] = 1.0
        np.testing.assert_allclose(dd_to_time(e0, shape), np.full(4, 0.5), atol=1e-15)

    def test_matches_kron_oracle(self, rng):
        shape = GridShape(2, 2)
        k = kron_map(shape)
        x = complex_gaussian(rng, shape.MN)
        np.testing.assert_allclose(dd_to_time(x, shape), k.conj().T @ x, atol=1e-12)
        np.testing.assert_allclose(time_to_dd(x, shape), k @ x, atol=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 3), (8, 4), (16, 4), (3, 5)])
    def test_roundtrip(self, rng, m, n):
        shape = GridShape(m, n)
        x = complex_gaussian(rng, shape.MN)
        assert np.abs(time_to_dd(dd_to_time(x, shape), shape) - x).max() <= 1e-12
        assert np.abs(dd_to_time(time_to_dd(x, shape), shape) - x).max() <= 1e-12

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            dd_to_time(np.zeros(5, complex), GridShape(2, 3))
        with pytest.raises(ValueError):
            time_to_dd(np.zeros(7, complex), GridShape(2, 3))


class TestConjugateByDd:
    def test_identity_fixed_point(self):
        shape = GridShape(3, 4)
        out = conjugate_by_dd(np.eye(shape.MN, dtype=complex), shape)
        assert np.abs(out - np.eye(shape.MN)).max() <= 1e-13

    def test_preserves_hermitian(self, rng):
        shape = GridShape(4, 3)
        a = complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN)
        a = 0.5 * (a + a.conj().T)
        out = conjugate_by_dd(a, shape)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_matches_kron_oracle(self, rng):
        shape = GridShape(2, 3)
        k = kron_map(shape)
        a = complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN)
        expect = k @ a @ k.conj().T
        np.testing.assert_allclose(conjugate_by_dd(a, shape), expect, atol=1e-12)

    def test_preserves_trace_and_fro(self, rng):
        shape = GridShape(8, 4)
        a = complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN)
        out = conjugate_by_dd(a, shape)
        assert abs(np.trace(out) - np.trace(a)) <= 1e-10 * max(1.0, abs(np.trace(a)))
        assert abs(np.linalg.norm(out) - np.linalg.norm(a)) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("m,n", [(4, 4), (8, 8), (16, 4)])
    def test_preserves_hermitian_spectrum(self, rng, m, n):
        shape = GridShape(m, n)
        a = complex_gaussian(rng, shape.MN**2).reshape(shape.MN, shape.MN)
        a = 0.5 * (a + a.conj().T)
        out = conjugate_by_dd(a, shape)
        w_in = np.sort(np.linalg.eigvalsh(a))
        w_out = np.sort(np.linalg.eigvalsh(0.5 * (out + out.conj().T)))
        assert np.abs(w_in - w_out).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_by_dd(np.eye(5, dtype=complex), GridShape(2, 3))
