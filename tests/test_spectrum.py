import numpy as np
import pytest

from conftest import step_occupancy, synthesize_band_spectra
from wssim.spectrum import (CASE_STATIONARY, BandStatistics, init_occupancy,
                            simulate_occupancy, stationary_vacancy)


def uniform_stats(n, p01, p10):
    return BandStatistics(p01=np.full(n, p01), p10=np.full(n, p10))


class TestBandStatistics:
    def test_rejects_degenerate_chain(self):
        with pytest.raises(ValueError):
            uniform_stats(3, 0.0, 0.0)

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            uniform_stats(2, 1.1, 0.5)
        with pytest.raises(ValueError):
            uniform_stats(2, 0.5, -0.1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BandStatistics(p01=np.array([0.1, 0.2]), p10=np.array([0.3]))

    def test_from_stationary_round_trip(self):
        for case, p0 in CASE_STATIONARY.items():
            for mixing in (0.2, 0.5, 1.0):
                stats = BandStatistics.from_stationary(np.array(p0), mixing)
                np.testing.assert_allclose(stationary_vacancy(stats), p0, atol=1e-12)

    def test_from_stationary_rejects_bad_mixing(self):
        with pytest.raises(ValueError):
            BandStatistics.from_stationary([0.5], mixing=0.0)
        with pytest.raises(ValueError):
            BandStatistics.from_stationary([0.5], mixing=1.5)


class TestStationaryVacancy:
    def test_symmetric_chain(self):
        assert stationary_vacancy(uniform_stats(1, 0.2, 0.2))[0] == pytest.approx(0.5)

    def test_direct_ratio(self):
        assert stationary_vacancy(uniform_stats(1, 0.9, 0.1))[0] == pytest.approx(0.1)

    def test_case1_vector(self):
        stats = BandStatistics.from_stationary(np.array(CASE_STATIONARY["case1"]))
        np.testing.assert_allclose(
            stationary_vacancy(stats),
            [0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95], atol=1e-12)


class TestInitOccupancy:
    def test_absorbing_vacant(self, rng):
        statuses = init_occupancy(uniform_stats(6, 0.0, 1.0), rng)
        assert statuses.dtype == np.int8
        assert not statuses.any()

    def test_absorbing_busy(self, rng):
        assert init_occupancy(uniform_stats(6, 1.0, 0.0), rng).all()

    def test_stationary_fraction(self, rng):
        # 1e5 independent draws via one wide statistics vector.
        statuses = init_occupancy(uniform_stats(100_000, 0.2, 0.2), rng)
        vacancy = 1.0 - statuses.mean()
        assert vacancy == pytest.approx(0.5, abs=0.01)


class TestStepOccupancy:
    def test_vacant_stays_without_arrivals(self, rng):
        stats = uniform_stats(5, 0.0, 0.5)
        nxt = step_occupancy(np.zeros(5, dtype=np.int8), stats, rng)
        assert not nxt.any()

    def test_busy_leaves_when_certain(self, rng):
        stats = uniform_stats(5, 0.3, 1.0)
        assert not step_occupancy(np.ones(5, dtype=np.int8), stats, rng).any()

    def test_transition_frequency(self, rng):
        stats = uniform_stats(100_000, 0.3, 0.5)
        statuses = np.zeros(100_000, dtype=np.int8)
        busy_fraction = step_occupancy(statuses, stats, rng).mean()
        assert busy_fraction == pytest.approx(0.3, abs=0.01)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            step_occupancy(np.zeros(4, dtype=np.int8), uniform_stats(5, 0.1, 0.1),
                           rng)


class TestTrajectory:
    def test_matches_manual_stepping(self):
        chains = [
            BandStatistics.from_stationary(np.array(CASE_STATIONARY["case1"])),
            BandStatistics.from_stationary(np.array(CASE_STATIONARY["case2"]),
                                           mixing=0.05),
            BandStatistics.from_stationary(np.array(CASE_STATIONARY["case2"]),
                                           mixing=1.0),
            # Absorbing chains (p01 = 0: never busy again once vacant;
            # p10 = 0: never vacant again once busy) beside a band that
            # flips every slot.
            BandStatistics(p01=np.array([0.0, 0.0, 0.3, 1.0, 1.0]),
                           p10=np.array([0.4, 1.0, 0.0, 0.0, 1.0])),
        ]
        for stats in chains:
            for horizon, seed in ((1, 3), (2, 4), (300, 5)):
                trajectory = simulate_occupancy(stats, horizon,
                                                np.random.default_rng(seed))
                assert trajectory.shape == (horizon, stats.n_bands)
                assert trajectory.dtype == np.int8
                rng = np.random.default_rng(seed)
                statuses = init_occupancy(stats, rng)
                for t in range(horizon):
                    np.testing.assert_array_equal(trajectory[t], statuses)
                    if t < horizon - 1:
                        statuses = step_occupancy(statuses, stats, rng)
                # Both forms leave the generator at the same point.
                rng_bulk = np.random.default_rng(seed)
                simulate_occupancy(stats, horizon, rng_bulk)
                assert rng_bulk.random() == rng.random()

    def test_same_seed_bit_identical(self):
        stats = uniform_stats(8, 0.3, 0.4)
        a = simulate_occupancy(stats, 200, np.random.default_rng(9))
        b = simulate_occupancy(stats, 200, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_long_run_vacancy_converges(self):
        stats = BandStatistics.from_stationary(np.array([0.3, 0.6, 0.9]), mixing=0.5)
        trajectory = simulate_occupancy(stats, 100_000, np.random.default_rng(11))
        vacancy = 1.0 - trajectory.mean(axis=0)
        np.testing.assert_allclose(vacancy, [0.3, 0.6, 0.9], atol=0.01)

    def test_bands_uncorrelated(self):
        stats = uniform_stats(4, 0.25, 0.25)
        trajectory = simulate_occupancy(stats, 100_000, np.random.default_rng(13))
        corr = np.corrcoef(trajectory.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.02)

    def test_zero_horizon(self, rng):
        assert simulate_occupancy(uniform_stats(3, 0.1, 0.1), 0, rng).shape == (0, 3)


class TestSynthesizeBandSpectra:
    def test_all_vacant_gives_zero_grid(self, rng):
        grid = synthesize_band_spectra(np.zeros(5, dtype=np.int8), 16, rng)
        assert grid.shape == (5, 16) and grid.dtype == np.complex128
        assert not grid.any()
        assert not np.mean(np.abs(grid) ** 2, axis=1).any()

    def test_single_busy_band_single_row(self, rng):
        statuses = np.array([0, 0, 1, 0], dtype=np.int8)
        grid = synthesize_band_spectra(statuses, 32, rng)
        nonzero_rows = np.flatnonzero(np.abs(grid).sum(axis=1))
        np.testing.assert_array_equal(nonzero_rows, [2])

    def test_support_equals_busy_set(self, rng):
        statuses = (rng.random(10) < 0.5).astype(np.int8)
        grid = synthesize_band_spectra(statuses, 8, rng)
        support = (np.abs(grid).sum(axis=1) > 0).astype(np.int8)
        np.testing.assert_array_equal(support, statuses)

    def test_busy_rows_hit_exact_power(self, rng):
        # Signal power is the unit: every busy row has mean power 1 per bin.
        grid = synthesize_band_spectra(np.ones(6, dtype=np.int8), 64, rng)
        row_power = np.mean(np.abs(grid) ** 2, axis=1)
        np.testing.assert_allclose(row_power, 1.0, rtol=1e-9)

    def test_mean_bin_power_across_draws(self, rng):
        statuses = np.ones(1, dtype=np.int8)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            grid = synthesize_band_spectra(statuses, 64, rng)
            total += np.mean(np.abs(grid) ** 2, axis=1)[0]
        assert total / draws == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_arguments(self, rng):
        statuses = np.ones(2, dtype=np.int8)
        with pytest.raises(ValueError):
            synthesize_band_spectra(statuses, 0, rng)
