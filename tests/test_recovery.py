import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (all_supports, exhaustive_map_support,
                      reference_greedy_recover, reference_support_score,
                      score_terms)
import wssim
from wssim.recovery import (RecoveryConfig, SenseResult, direct_solve,
                            energy_detect, fbmp_recover, gamma_threshold,
                            oracle_sense, signal_sense)
from wssim.recovery import _chi2_quantile, _support_scores
from wssim.sensing import measure, noise_power_for_snr
from wssim.spectrum import OccupancyState, synthesize_band_spectra


def make_instance(seed, m=6, k=4, busy_count=2, snr_db=20.0, n_bins=64,
                  prior=0.5, fa_rate=0.05):
    """One sensing slot: random mixing matrix, occupancy, measurement."""
    rng = np.random.default_rng(seed)
    a_sub = rng.standard_normal((k, m))
    statuses = np.zeros(m, dtype=np.int8)
    busy = rng.choice(m, size=busy_count, replace=False)
    statuses[busy] = 1
    spectra = synthesize_band_spectra(OccupancyState(statuses), n_bins, 1.0, rng)
    batch = measure(a_sub, spectra.grid, snr_db, rng)
    cfg = RecoveryConfig(prior_activity=prior, signal_variance=1.0,
                         noise_variance=noise_power_for_snr(snr_db),
                         energy_fa_rate=fa_rate,
                         gamma=gamma_threshold(m, k))
    return statuses, spectra, a_sub, batch, cfg


class TestGammaThreshold:
    def test_full_table(self):
        for k in range(1, 17):
            for size in range(1, 17):
                expected = size if size <= k else k // 2
                assert gamma_threshold(size, k) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_threshold(0, 4)
        with pytest.raises(ValueError):
            gamma_threshold(4, 0)


class TestOracleSense:
    def test_two_busy_of_six_succeeds(self):
        statuses = np.array([1, 0, 0, 1, 0, 0], dtype=np.int8)
        result = oracle_sense(statuses, 4)
        assert result.xi == 0
        np.testing.assert_array_equal(result.statuses, statuses)

    def test_three_busy_of_six_fails(self):
        statuses = np.array([1, 0, 1, 1, 0, 0], dtype=np.int8)
        result = oracle_sense(statuses, 4)
        assert result.xi == 1
        np.testing.assert_array_equal(result.statuses, statuses)

    def test_square_set_never_fails(self):
        assert oracle_sense(np.ones(4, dtype=np.int8), 4).xi == 0

    def test_depends_only_on_busy_count(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(1, 10))
            statuses = (rng.random(m) < 0.5).astype(np.int8)
            expected = 0 if statuses.sum() <= gamma_threshold(m, k) else 1
            assert oracle_sense(statuses, k).xi == expected

    def test_does_not_alias_input(self):
        statuses = np.zeros(4, dtype=np.int8)
        result = oracle_sense(statuses, 4)
        result.statuses[0] = 1
        assert statuses[0] == 0

    def test_list_and_array_inputs_agree(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 10))
            statuses = (rng.random(m) < 0.5).astype(np.int8)
            from_array = oracle_sense(statuses, 3)
            from_list = oracle_sense(statuses.tolist(), 3)
            assert from_list.xi == from_array.xi
            assert from_list.statuses.dtype == np.int8
            np.testing.assert_array_equal(from_list.statuses, from_array.statuses)


class TestDirectSolve:
    def test_square_noiseless_exact(self, rng):
        a_sub = rng.standard_normal((4, 4))
        truth = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        recovered = direct_solve(a_sub @ truth, a_sub)
        np.testing.assert_allclose(recovered, truth, rtol=1e-9)

    def test_zero_measurement_zero_spectra(self, rng):
        a_sub = rng.standard_normal((4, 3))
        recovered = direct_solve(np.zeros((4, 8), dtype=complex), a_sub)
        assert not recovered.any()

    def test_overdetermined_noiseless_exact(self, rng):
        a_sub = rng.standard_normal((4, 3))
        truth = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        recovered = direct_solve(a_sub @ truth, a_sub)
        np.testing.assert_allclose(recovered, truth, rtol=1e-9)

    def test_rejects_underdetermined(self, rng):
        with pytest.raises(ValueError):
            direct_solve(np.zeros((4, 8), dtype=complex), rng.standard_normal((4, 5)))


class TestFbmpRecover:
    def test_zero_measurement_empty_support(self, rng):
        a_sub = rng.standard_normal((4, 6))
        cfg = RecoveryConfig(noise_variance=0.0, gamma=2)
        support, x_hat, ratio = fbmp_recover(np.zeros((4, 16), dtype=complex),
                                             a_sub, cfg)
        assert not support.any()
        assert not x_hat.any()
        assert ratio == 0.0

    def test_support_recovery_rate_at_20db(self):
        hits = 0
        trials = 1000
        for seed in range(trials):
            busy_count = seed % 3  # cycle busy counts 0, 1, 2
            statuses, _, a_sub, batch, cfg = make_instance(seed, busy_count=busy_count)
            support, _, _ = fbmp_recover(batch, a_sub, cfg)
            hits += int(np.array_equal(support, statuses))
        assert hits / trials >= 0.95

    def test_overloaded_set_leaves_large_residual(self):
        over = 0
        trials = 200
        for seed in range(trials):
            _, _, a_sub, batch, cfg = make_instance(seed, busy_count=3)
            _, _, ratio = fbmp_recover(batch, a_sub, cfg)
            over += int(ratio > 0.1)
        assert over / trials > 0.5

    def test_requires_gamma(self, rng):
        cfg = RecoveryConfig(gamma=None)
        with pytest.raises(ValueError):
            fbmp_recover(np.zeros((4, 4), dtype=complex),
                         rng.standard_normal((4, 6)), cfg)

    def test_adding_truly_busy_band_improves_score(self):
        # Noiseless instances: any support missing a busy band scores below
        # the same support with that band added.
        for seed in range(10):
            statuses, _, a_sub, batch, cfg = make_instance(
                seed, m=7, k=5, busy_count=2, snr_db=None)
            szz, n_bins, sig_s, sig_n, base_prior, gain = score_terms(
                batch.samples, cfg, 7)
            busy = tuple(np.flatnonzero(statuses))
            for size in range(cfg.gamma):
                pairs = []
                for active in map(tuple, all_supports(7, size)):
                    missing = [b for b in busy if b not in active]
                    if missing:
                        pairs.append((active, tuple(sorted(active + (missing[0],)))))
                base, grown = (np.array(side, dtype=np.intp).reshape(len(pairs), -1)
                               for side in zip(*pairs))
                better = _support_scores(szz, n_bins, a_sub, grown, sig_s,
                                         sig_n, base_prior, gain)
                worse = _support_scores(szz, n_bins, a_sub, base, sig_s,
                                        sig_n, base_prior, gain)
                assert np.all(better > worse)

    def test_greedy_matches_exhaustive_on_noiseless_instances(self):
        trials = 200
        exhaustive_correct = 0
        agree = 0
        for seed in range(trials):
            m = 5 + seed % 4          # sizes 5..8
            busy_count = seed % 3     # within the recoverable budget
            statuses, _, a_sub, batch, cfg = make_instance(
                seed, m=m, busy_count=busy_count, snr_db=None)
            exhaustive = exhaustive_map_support(batch.samples, a_sub, cfg)
            greedy, _, _ = fbmp_recover(batch, a_sub, cfg)
            exhaustive_correct += int(np.array_equal(exhaustive, statuses))
            agree += int(np.array_equal(exhaustive, greedy))
        assert exhaustive_correct == trials
        assert agree / trials >= 0.99

    @pytest.mark.parametrize("k, m, gamma", [(4, 7, 2), (8, 16, 4)])
    def test_stacked_scores_equal_one_at_a_time(self, k, m, gamma):
        # Every support up to size gamma, empty support included, on
        # seeded noisy instances with uneven priors: exact equality.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _, _, a_sub, batch, cfg = make_instance(
                seed, m=m, k=k, busy_count=gamma, snr_db=10.0 + 5 * seed,
                prior=rng.uniform(0.05, 0.95, m))
            szz, n_bins, sig_s, sig_n, base_prior, gain = score_terms(
                batch.samples, cfg, m)
            for size in range(gamma + 1):
                supports = all_supports(m, size)
                stacked = _support_scores(szz, n_bins, a_sub, supports, sig_s,
                                          sig_n, base_prior, gain)
                scalar = [reference_support_score(szz, n_bins, a_sub,
                                                  tuple(s), sig_s, sig_n,
                                                  base_prior, gain)
                          for s in supports]
                assert stacked.tolist() == scalar

    def test_identical_to_one_support_at_a_time_search(self):
        # 500 seeded draws across set sizes, noise levels and busy counts,
        # some beyond the recoverable limit: support, spectra and residual
        # must be exactly those of the scalar reference search.
        shapes = [(4, 6), (4, 7), (8, 13), (8, 16)]
        for seed in range(500):
            k, m = shapes[seed % 4]
            _, _, a_sub, batch, cfg = make_instance(
                seed, m=m, k=k, busy_count=seed % (k // 2 + 2),
                snr_db=(20.0, 10.0, None)[seed % 3], n_bins=16)
            support, x_hat, ratio = fbmp_recover(batch, a_sub, cfg)
            ref_support, ref_x_hat, ref_ratio = reference_greedy_recover(
                batch.samples, a_sub, cfg)
            np.testing.assert_array_equal(support, ref_support)
            np.testing.assert_array_equal(x_hat, ref_x_hat)
            assert ratio == ref_ratio


class TestEnergyDetect:
    def test_zero_spectra_all_vacant(self):
        statuses = energy_detect(np.zeros((5, 16), dtype=complex), 0.01, 0.05)
        assert not statuses.any()

    def test_noiseless_busy_band_detected(self, rng):
        spectra = synthesize_band_spectra(
            OccupancyState(np.ones(1, dtype=np.int8)), 64, 1.0, rng)
        statuses = energy_detect(spectra.grid, 0.01, 0.05)
        assert statuses[0] == 1

    def test_false_alarm_rate_calibrated(self, rng):
        noise_var = noise_power_for_snr(20.0)
        trials = 10_000
        noise = (rng.standard_normal((trials, 64))
                 + 1j * rng.standard_normal((trials, 64))) * np.sqrt(noise_var / 2)
        statuses = energy_detect(noise, noise_var, 0.05)
        assert statuses.mean() == pytest.approx(0.05, abs=0.01)

    def test_per_band_noise_vector(self, rng):
        spectra = np.zeros((2, 32), dtype=complex)
        spectra[1] = 10.0
        statuses = energy_detect(spectra, np.array([1e-4, 1e-4]), 0.05)
        np.testing.assert_array_equal(statuses, [0, 1])

    def test_rejects_bad_fa_rate(self):
        with pytest.raises(ValueError):
            energy_detect(np.zeros((1, 4), dtype=complex), 0.01, 0.0)

    def test_quantile_equals_scipy_stats(self):
        from scipy.stats import chi2
        fa_rates = np.concatenate([np.geomspace(1e-9, 0.5, 40),
                                   np.linspace(0.5, 0.999, 20)])
        for fa_rate in fa_rates.tolist():
            for bins in (1, 2, 3, 7, 16, 63, 64, 65, 256, 1024):
                prob, dof = 1.0 - fa_rate, 2 * bins
                assert _chi2_quantile(prob, dof) == chi2.ppf(prob, df=dof)

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about a second to import; wssim needs only
        # scipy.special.
        code = ("import sys, wssim; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        src = str(Path(wssim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"


class TestSignalSense:
    def test_square_set_noiseless_always_succeeds(self):
        for seed in range(20):
            busy_count = seed % 5
            statuses, _, a_sub, batch, cfg = make_instance(
                seed, m=4, busy_count=busy_count, snr_db=None)
            result = signal_sense(batch, a_sub, cfg, 4)
            assert result.xi == 0
            np.testing.assert_array_equal(result.statuses, statuses)

    def test_overloaded_noiseless_fails(self):
        _, _, a_sub, batch, cfg = make_instance(123, busy_count=3, snr_db=None)
        result = signal_sense(batch, a_sub, cfg, 4)
        assert result.xi == 1

    def test_small_noisy_set_statuses(self):
        # A tight false-alarm target makes detection exact at 20 dB, where
        # busy-band energy sits far above any plausible threshold.
        for seed in range(20):
            statuses, _, a_sub, batch, cfg = make_instance(
                seed, m=3, busy_count=seed % 4, snr_db=20.0, fa_rate=1e-4)
            result = signal_sense(batch, a_sub, cfg, 4)
            assert result.xi == 0
            np.testing.assert_array_equal(result.statuses, statuses)

    def test_reports_residual_ratio(self):
        _, _, a_sub, batch, cfg = make_instance(7, busy_count=1)
        result = signal_sense(batch, a_sub, cfg, 4)
        assert isinstance(result, SenseResult)
        assert result.residual_ratio is not None
        assert result.residual_ratio >= 0.0
