import warnings

import numpy as np
import pytest

from conftest import measure, synthesize_band_spectra
from wssim.sensing import (draw_sensing_matrix, noise_power_for_snr,
                           select_submatrix)


def dense_product(a, x):
    """Plain triple-loop matrix product, independent of numpy matmul."""
    k, m = a.shape
    _, bins = x.shape
    out = np.zeros((k, bins), dtype=complex)
    for i in range(k):
        for f in range(bins):
            acc = 0.0 + 0.0j
            for j in range(m):
                acc += a[i, j] * x[j, f]
            out[i, f] = acc
    return out


class TestDrawSensingMatrix:
    def test_shape_and_rank(self, rng):
        matrix = draw_sensing_matrix(4, 8, rng)
        assert matrix.shape == (4, 8) and matrix.dtype == np.float64
        assert np.linalg.matrix_rank(matrix) == 4

    def test_single_branch_single_band(self, rng):
        matrix = draw_sensing_matrix(1, 1, rng)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] != 0.0

    def test_deterministic_for_fixed_seed(self):
        a = draw_sensing_matrix(3, 6, np.random.default_rng(77))
        b = draw_sensing_matrix(3, 6, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_sampled_column_subsets_full_rank(self, rng):
        matrix = draw_sensing_matrix(4, 10, rng)
        for _ in range(20):
            cols = rng.choice(10, size=4, replace=False)
            assert np.linalg.matrix_rank(matrix[:, cols]) == 4

    def test_rejects_bad_branch_counts(self, rng):
        with pytest.raises(ValueError):
            draw_sensing_matrix(0, 4, rng)
        with pytest.raises(ValueError):
            draw_sensing_matrix(5, 4, rng)


class TestSelectSubmatrix:
    def test_identity_selection(self, rng):
        matrix = draw_sensing_matrix(3, 5, rng)
        np.testing.assert_array_equal(select_submatrix(matrix, range(5)),
                                      matrix)

    def test_single_column(self, rng):
        matrix = draw_sensing_matrix(3, 5, rng)
        np.testing.assert_array_equal(select_submatrix(matrix, [2]),
                                      matrix[:, [2]])

    def test_order_preserved(self, rng):
        matrix = draw_sensing_matrix(3, 6, rng)
        sub = select_submatrix(matrix, [4, 1])
        np.testing.assert_array_equal(sub[:, 0], matrix[:, 4])
        np.testing.assert_array_equal(sub[:, 1], matrix[:, 1])

    def test_rejects_duplicates_and_out_of_range(self, rng):
        matrix = draw_sensing_matrix(3, 5, rng)
        with pytest.raises(ValueError):
            select_submatrix(matrix, [1, 1])
        with pytest.raises(ValueError):
            select_submatrix(matrix, [5])
        with pytest.raises(ValueError):
            select_submatrix(matrix, [-1])


class TestMeasure:
    def test_identity_mixing_returns_spectrum(self, rng):
        spectra = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
        state = rng.bit_generator.state
        samples = measure(np.array([[1.0]]), spectra, None, rng)
        np.testing.assert_array_equal(samples, spectra)
        # Noiseless: no noise is drawn.
        assert rng.bit_generator.state == state

    def test_vacant_bands_measure_zero(self, rng):
        a_sub = rng.standard_normal((4, 3))
        samples = measure(a_sub, np.zeros((3, 8), dtype=complex), None, rng)
        assert not samples.any()

    def test_matches_dense_product_oracle(self, rng):
        a_sub = rng.standard_normal((4, 6))
        spectra = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        samples = measure(a_sub, spectra, None, rng)
        expected = dense_product(a_sub, spectra)
        np.testing.assert_allclose(samples, expected, rtol=1e-12)

    def test_linearity(self, rng):
        a_sub = rng.standard_normal((3, 5))
        x1 = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        x2 = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        combined = measure(a_sub, x1 + x2, None, rng)
        separate = measure(a_sub, x1, None, rng) + measure(a_sub, x2, None, rng)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_square_system_invertible(self, rng):
        a_sub = rng.standard_normal((4, 4))
        spectra = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        samples = measure(a_sub, spectra, None, rng)
        recovered = np.linalg.solve(a_sub, samples)
        np.testing.assert_allclose(recovered, spectra, rtol=1e-9)

    def test_column_subset_consistency(self, rng):
        matrix = draw_sensing_matrix(4, 8, rng)
        statuses = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=np.int8)
        grid = synthesize_band_spectra(statuses, 16, rng)
        selected = np.array([0, 3, 5, 6])
        masked = grid.copy()
        masked[[i for i in range(8) if i not in selected]] = 0.0
        full = measure(matrix, masked, None, rng)
        sub = measure(select_submatrix(matrix, selected), grid[selected], None,
                      rng)
        np.testing.assert_allclose(full, sub, atol=1e-12)

    def test_noise_power_calibration(self, rng):
        assert noise_power_for_snr(20.0) == pytest.approx(0.01)
        assert noise_power_for_snr(None) == 0.0
        assert noise_power_for_snr(np.inf) == 0.0
        a_sub = np.zeros((2, 1))
        spectra = np.zeros((1, 50_000), dtype=complex)
        assert noise_power_for_snr(10.0) == pytest.approx(0.1)
        samples = measure(a_sub, spectra, 10.0, rng)
        measured = np.mean(np.abs(samples) ** 2)
        assert measured == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("snr_db", [float("-inf"), np.float64("-inf"),
                                        float("nan")])
    def test_negative_infinite_snr_rejected(self, snr_db, rng):
        # np.isinf matched -inf too, so -inf used to read as noiseless.
        with pytest.raises(ValueError, match="snr_db"):
            noise_power_for_snr(snr_db)
        with pytest.raises(ValueError, match="snr_db"):
            measure(np.ones((2, 1)), np.ones((1, 4), dtype=complex), snr_db, rng)

    @pytest.mark.parametrize("snr_db", [-4000.0, np.float64(-4000.0)])
    def test_overflowing_snr_rejected_without_warning(self, snr_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="snr_db = .* overflows"):
                noise_power_for_snr(snr_db)

    def test_numpy_scalar_snr_matches_float(self):
        for snr_db in (-300.0, -20.0, 0.0, 7.5, 20.0, 300.0):
            assert noise_power_for_snr(np.float64(snr_db)) == noise_power_for_snr(snr_db)
        assert noise_power_for_snr(np.float64("inf")) == 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            measure(np.ones((2, 3)), np.zeros((4, 8), dtype=complex), None, rng)

    def test_returns_sample_matrix(self, rng):
        # One row per branch, one column per bin, whatever the band count.
        a_sub = rng.standard_normal((2, 3))
        for snr_db in (None, 10.0):
            samples = measure(a_sub, np.zeros((3, 4), dtype=complex), snr_db, rng)
            assert isinstance(samples, np.ndarray)
            assert samples.shape == (2, 4)
            assert samples.dtype == np.complex128
