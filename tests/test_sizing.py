import math

import numpy as np
import pytest

from wssim.sizing import exploration_threshold, optimize_size
from wssim.spectrum import CASE_STATIONARY

from conftest import (brute_force_busy_pmf, brute_force_best_set, mu_correct,
                      poisson_binomial_pmf, success_probability)

CASE2_TOP5_VACANCY = [0.90, 0.80, 0.70, 0.65, 0.60]


class TestPoissonBinomialPmf:
    def test_two_fair_coins(self):
        np.testing.assert_allclose(poisson_binomial_pmf([0.5, 0.5], 2),
                                   [0.25, 0.5, 0.25], atol=1e-15)

    def test_single_band(self):
        np.testing.assert_allclose(poisson_binomial_pmf([0.3], 1),
                                   [0.7, 0.3], atol=1e-15)

    def test_case2_top5_matches_enumeration(self):
        busy = [1.0 - v for v in CASE2_TOP5_VACANCY]
        dp = poisson_binomial_pmf(busy, 5)
        brute = brute_force_busy_pmf(busy)
        np.testing.assert_allclose(dp, brute, atol=1e-12)

    def test_full_pmf_sums_to_one_and_nonnegative(self, rng):
        for _ in range(50):
            m = rng.integers(1, 13)
            probs = rng.random(m)
            pmf = poisson_binomial_pmf(probs, m)
            assert np.all(pmf >= 0.0)
            assert abs(pmf.sum() - 1.0) < 1e-12

    def test_matches_enumeration_random(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 13))
            probs = rng.random(m)
            np.testing.assert_allclose(poisson_binomial_pmf(probs, m),
                                       brute_force_busy_pmf(probs), atol=1e-12)

    def test_truncation_drops_upper_tail(self):
        pmf = poisson_binomial_pmf([0.5, 0.5, 0.5], 1)
        np.testing.assert_allclose(pmf, [0.125, 0.375], atol=1e-15)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([1.2], 1)
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5], -1)

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            poisson_binomial_pmf([float("nan"), 0.2], 2)


class TestSuccessProbability:
    def test_small_sets_always_succeed(self, rng):
        for size in range(1, 5):
            assert success_probability(rng.random(size), 4) == 1.0

    def test_all_vacant_always_succeeds(self):
        assert success_probability(np.ones(7), 4) == pytest.approx(1.0, abs=1e-15)

    def test_case2_top5(self):
        value = success_probability(CASE2_TOP5_VACANCY, 4)
        busy = [1.0 - v for v in CASE2_TOP5_VACANCY]
        brute = brute_force_busy_pmf(busy)[:3].sum()
        assert value == pytest.approx(brute, abs=1e-12)
        assert value == pytest.approx(0.882, abs=5e-4)

    def test_appending_a_band_never_helps(self, rng):
        for _ in range(30):
            size = int(rng.integers(5, 10))
            vacancy = rng.random(size)
            extended = np.append(vacancy, rng.random())
            assert (success_probability(extended, 4)
                    <= success_probability(vacancy, 4) + 1e-12)

    def test_monotone_in_each_vacancy(self, rng):
        for _ in range(30):
            vacancy = rng.random(6)
            i = int(rng.integers(0, 6))
            bumped = vacancy.copy()
            bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
            assert (success_probability(bumped, 4)
                    >= success_probability(vacancy, 4) - 1e-12)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            success_probability([], 4)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_rejects_vacancy_outside_unit_interval(self, bad):
        # Checked before the small-set shortcut, which would return 1.0.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            success_probability([bad], 4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            success_probability([0.5] * 7 + [bad], 4)


class TestOptimizeSize:
    def test_case1_optimum(self):
        decision = optimize_size(np.array(CASE_STATIONARY["case1"]), 4)
        assert decision.size == 7

    def test_case2_optimum(self):
        decision = optimize_size(np.array(CASE_STATIONARY["case2"]), 4)
        assert decision.size == 5

    def test_certain_vacancy_takes_everything(self):
        for k in (1, 3, 6):
            assert optimize_size(np.ones(6), k).size == 6

    def test_equal_probabilities_with_square_bank(self):
        assert optimize_size(np.full(5, 0.7), 5).size == 5

    def test_objective_at_least_top_k_sum(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, n + 1))
            vacancy = rng.random(n)
            decision = optimize_size(vacancy, k)
            top_k = np.sort(vacancy)[::-1][:k].sum()
            assert decision.objective_value >= top_k - 1e-12

    def test_prefix_scan_matches_exhaustive_search(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n))
            vacancy = rng.random(n)
            decision = optimize_size(vacancy, k)
            best_set, best_value = brute_force_best_set(vacancy, k)
            assert decision.size == len(best_set)
            assert decision.objective_value == pytest.approx(best_value, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_rejects_vacancy_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            optimize_size([bad] * 8, 4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            optimize_size([0.9] * 7 + [bad], 4)


class TestExplorationThreshold:
    def test_reference_budget(self):
        budget = exploration_threshold(8, 4, mu=0.05, delta=0.1)
        assert budget == (4061, 16244)

    def test_matches_closed_form(self):
        budget = exploration_threshold(12, 5, mu=0.2, delta=0.05)
        expected_q = math.ceil(2.0 / 0.2 ** 2 * math.log(2 * 12 / 0.05))
        assert budget.observations == expected_q
        assert budget.slots == 2 * math.ceil(12 / 5) * expected_q

    def test_budget_shrinks_with_looser_targets(self):
        base = exploration_threshold(8, 4, mu=0.05, delta=0.1)
        assert exploration_threshold(8, 4, mu=0.2, delta=0.1).observations < base.observations
        assert exploration_threshold(8, 4, mu=0.05, delta=0.5).observations < base.observations

    def test_doubling_bands_more_than_doubles_slots(self):
        small = exploration_threshold(8, 4, mu=0.1, delta=0.1)
        large = exploration_threshold(16, 4, mu=0.1, delta=0.1)
        assert large.slots > 2 * small.slots

    def test_slot_budget_meets_lower_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(1, n + 1))
            mu = float(rng.uniform(0.02, 0.9))
            delta = float(rng.uniform(0.01, 0.9))
            budget = exploration_threshold(n, k, mu, delta)
            bound = 4.0 / mu ** 2 * math.ceil(n / k) * math.log(2 * n / delta)
            assert budget.slots >= bound

    def test_rejects_out_of_range_parameters(self):
        for mu, delta in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)):
            with pytest.raises(ValueError):
                exploration_threshold(8, 4, mu, delta)
        # More branches than bands is a shape validate() rejects too.
        with pytest.raises(ValueError, match="k_branches"):
            exploration_threshold(2, 4, 0.2, 0.1)
        # 2 / mu^2 * ln(2 N / delta) divides by zero or overflows a float.
        for mu, delta in ((1e-200, 0.1), (1e-160, 0.1), (0.1, 5e-324)):
            with pytest.raises(ValueError, match=f"mu = {mu!r} and delta = {delta!r}"):
                exploration_threshold(8, 4, mu, delta)


class TestMuCorrect:
    def test_exact_estimates(self):
        assert mu_correct([0.2, 0.8], [0.2, 0.8], mu=1e-6)

    def test_one_band_off_by_mu(self):
        assert not mu_correct([0.2, 0.8 + 0.1], [0.2, 0.8], mu=0.1)

    def test_all_bands_within_quarter_mu(self):
        truth = np.array([0.2, 0.5, 0.8])
        assert mu_correct(truth + 0.025, truth, mu=0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mu_correct([0.1], [0.1, 0.2], mu=0.1)
