import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (all_supports, conditional_mean, direct_solve,
                      exhaustive_map_support, measure, real_view,
                      reference_greedy_support, reference_map_recover,
                      reference_signal_sense, reference_support_score,
                      residual_ratio, sample_gram, score_terms,
                      solve_support_scores, synthesize_band_spectra,
                      table_posterior_mean)
import wssim
from wssim import recovery
from wssim.recovery import (RecoveryConfig, SenseResult, SensingPlan,
                            SupportTable, fbmp_recover, gamma_threshold,
                            oracle_sense, signal_sense, support_count)
from wssim.recovery import (_posterior_gains, _prior_log_odds,
                            _support_covariances)
from wssim.sensing import noise_power_for_snr


def make_instance(seed, m=6, k=4, busy_count=2, snr_db=20.0, n_bins=64,
                  prior=0.5):
    """One sensing slot: random mixing matrix, occupancy, measurement.

    Returns the true statuses, the spectra, the sub-matrix's SensingPlan,
    the samples and the search's keyword arguments (gamma, the recoverable
    limit, and prior_activity).
    """
    rng = np.random.default_rng(seed)
    a_sub = rng.standard_normal((k, m))
    statuses = np.zeros(m, dtype=np.int8)
    busy = rng.choice(m, size=busy_count, replace=False)
    statuses[busy] = 1
    spectra = synthesize_band_spectra(statuses, n_bins, rng)
    samples = measure(a_sub, spectra, snr_db, rng)
    cfg = RecoveryConfig(noise_variance=noise_power_for_snr(snr_db),
                         bins_per_band=n_bins)
    search = {"gamma": gamma_threshold(m, k), "prior_activity": prior}
    plan = SensingPlan(SupportTable(a_sub, cfg), range(m))
    return statuses, spectra, plan, samples, search


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

    def test_returns_given_statuses(self):
        statuses = np.zeros(4, dtype=np.int8)
        assert oracle_sense(statuses, 4).statuses is statuses
        as_list = [0, 1, 0, 0]
        assert oracle_sense(as_list, 4).statuses is as_list

    def test_busy_count_exact_for_long_int8_input(self):
        # 200 busy bands: a sum of int8 values would wrap to -56 and pass
        # the limit of 50.
        assert oracle_sense(np.ones(200, np.int8), 100).xi == 1

    def test_list_and_array_inputs_agree(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 10))
            statuses = (rng.random(m) < 0.5).astype(np.int8)
            from_array = oracle_sense(statuses, 3)
            from_list = oracle_sense(statuses.tolist(), 3)
            assert from_list.xi == from_array.xi
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

    def test_equal_columns_raise_linalg_error(self, rng):
        # lstsq's rank rule: two equal columns have no least-squares
        # operator.
        matrix = rng.standard_normal((4, 3))
        matrix[:, 2] = matrix[:, 0]
        samples = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        with pytest.raises(np.linalg.LinAlgError):
            direct_solve(samples, matrix)


class TestFbmpRecover:
    def test_zero_measurement_empty_support(self, rng):
        plan = SensingPlan(SupportTable(rng.standard_normal((4, 6)), RecoveryConfig(
            noise_variance=0.0, bins_per_band=16)), range(6))
        support, ratio = fbmp_recover(
            sample_gram(np.zeros((4, 16), dtype=complex)), plan, 2)
        assert not support.any()
        assert ratio == 0.0

    def test_support_recovery_rate_at_20db(self):
        hits = 0
        trials = 1000
        for seed in range(trials):
            busy_count = seed % 3  # cycle busy counts 0, 1, 2
            statuses, _, plan, samples, search = make_instance(seed, busy_count=busy_count)
            support, _ = fbmp_recover(sample_gram(samples), plan, **search)
            hits += int(np.array_equal(support, statuses))
        assert hits / trials >= 0.95

    def test_overloaded_set_leaves_large_residual(self):
        over = 0
        trials = 200
        for seed in range(trials):
            _, _, plan, samples, search = make_instance(seed, busy_count=3)
            _, ratio = fbmp_recover(sample_gram(samples), plan, **search)
            over += int(ratio > 0.1)
        assert over / trials > 0.5

    def test_adding_truly_busy_band_improves_score(self):
        # Noiseless instances: any support missing a busy band scores below
        # the same support with that band added.
        for seed in range(10):
            statuses, _, plan, samples, search = make_instance(
                seed, m=7, k=5, busy_count=2, snr_db=None)
            a_sub = plan.a_sub
            szz, n_bins, sig_n, base_prior, gain = score_terms(
                samples, plan.table.cfg, 7, search["prior_activity"])
            busy = tuple(np.flatnonzero(statuses))
            for size in range(search["gamma"]):
                pairs = []
                for active in map(tuple, all_supports(7, size)):
                    missing = [b for b in busy if b not in active]
                    if missing:
                        pairs.append((active, tuple(sorted(active + (missing[0],)))))
                base, grown = (np.array(side, dtype=np.intp).reshape(len(pairs), -1)
                               for side in zip(*pairs))
                better = solve_support_scores(szz, n_bins, a_sub, grown, sig_n,
                                              base_prior, gain)
                worse = solve_support_scores(szz, n_bins, a_sub, base, sig_n,
                                             base_prior, gain)
                assert np.all(better > worse)

    def test_greedy_matches_exhaustive_on_noiseless_instances(self):
        # The exact search equals the exhaustive reference on every
        # instance, and FBMP's greedy search, which it replaced, agreed
        # with both on all but at most 1 % of them.
        trials = 200
        agree = 0
        for seed in range(trials):
            m = 5 + seed % 4          # sizes 5..8
            busy_count = seed % 3     # within the recoverable budget
            statuses, _, plan, samples, search = make_instance(
                seed, m=m, busy_count=busy_count, snr_db=None)
            exhaustive = exhaustive_map_support(samples, plan.a_sub, plan.table.cfg,
                                                **search)
            found, _ = fbmp_recover(sample_gram(samples), plan, **search)
            greedy = reference_greedy_support(samples, plan.a_sub, plan.table.cfg,
                                              **search)
            assert np.array_equal(exhaustive, statuses)
            assert np.array_equal(found, exhaustive)
            agree += int(np.array_equal(greedy, exhaustive))
        assert agree / trials >= 0.99

    @pytest.mark.parametrize("k, m, gamma", [(4, 7, 2), (8, 10, 4)])
    def test_support_equals_exhaustive_map_support(self, k, m, gamma):
        # Seeded noisy draws with uneven priors, busy counts from none to
        # beyond the limit, through a plan over a wider matrix whose bands
        # are selected out of order.
        rng = np.random.default_rng(k * m)
        for trial in range(60):
            table = SupportTable(rng.standard_normal((k, m + 3)), RecoveryConfig(
                noise_variance=noise_power_for_snr((20.0, 10.0, 5.0)[trial % 3]),
                bins_per_band=16))
            plan = SensingPlan(table, rng.permutation(m + 3)[:m])
            statuses = np.zeros(m, dtype=np.int8)
            statuses[rng.choice(m, size=trial % (gamma + 2), replace=False)] = 1
            samples = measure(plan.a_sub, synthesize_band_spectra(statuses, 16, rng),
                              (20.0, 10.0, 5.0)[trial % 3], rng)
            prior = rng.uniform(0.05, 0.95, m)
            support, _ = fbmp_recover(sample_gram(samples), plan, gamma, prior)
            want = exhaustive_map_support(samples, plan.a_sub, table.cfg, gamma, prior)
            assert support.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, m, gamma", [(4, 7, 2), (8, 10, 4)])
    def test_exact_tie_goes_to_first_selection_position(self, k, m, gamma):
        # Bands 2 and 5 have the same column, so every support with one of
        # them scores exactly as the same support with the other. Band 5
        # is selected first: the tie must go to its position, not to the
        # lower band number.
        rng = np.random.default_rng(m)
        matrix = rng.standard_normal((k, m))
        matrix[:, 2] = matrix[:, 5]
        table = SupportTable(matrix, RecoveryConfig(noise_variance=0.01,
                                                     bins_per_band=16))
        bands = [5] + [b for b in rng.permutation(m).tolist() if b != 5]
        plan = SensingPlan(table, bands)
        first, second = 0, bands.index(2)
        for trial in range(10):
            statuses = np.zeros(m, dtype=np.int8)
            statuses[first] = 1
            samples = measure(plan.a_sub, synthesize_band_spectra(statuses, 16, rng),
                              20.0, rng)
            support, _ = fbmp_recover(sample_gram(samples), plan, gamma)
            want = exhaustive_map_support(samples, plan.a_sub, table.cfg, gamma)
            assert support.tobytes() == want.tobytes()
            assert support[first] == 1 and support[second] == 0

    def test_rejects_gamma_beyond_table(self, rng):
        plan = SensingPlan(SupportTable(rng.standard_normal((4, 8)), RecoveryConfig()),
                           range(6))
        s_yy = np.zeros((4, 4))
        fbmp_recover(s_yy, plan, 2)
        for gamma in (-1, 3):
            with pytest.raises(ValueError, match="gamma"):
                fbmp_recover(s_yy, plan, gamma)

    @pytest.mark.parametrize("k, m, gamma", [(4, 7, 2), (8, 16, 4)])
    def test_stacked_scores_equal_one_at_a_time(self, k, m, gamma):
        # Every support up to size gamma, empty support included, on
        # seeded noisy instances with uneven priors: exact equality.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=gamma, snr_db=10.0 + 5 * seed,
                prior=rng.uniform(0.05, 0.95, m))
            a_sub = plan.a_sub
            szz, n_bins, sig_n, base_prior, gain = score_terms(
                samples, plan.table.cfg, m, search["prior_activity"])
            for size in range(gamma + 1):
                supports = all_supports(m, size)
                stacked = solve_support_scores(szz, n_bins, a_sub, supports,
                                               sig_n, base_prior, gain)
                scalar = [reference_support_score(szz, n_bins, a_sub,
                                                  tuple(s), sig_n,
                                                  base_prior, gain)
                          for s in supports]
                assert stacked.tolist() == scalar

    def test_identical_to_one_support_at_a_time_search(self):
        # 500 seeded draws across set sizes, noise levels and busy counts,
        # some beyond the recoverable limit: the support and the table
        # row's spectra must be exactly those of the solve-based exhaustive
        # reference, and the Gram-domain residual ratio close to its
        # sample-domain one.
        shapes = [(4, 6), (4, 7), (8, 13), (8, 16)]
        for seed in range(500):
            k, m = shapes[seed % 4]
            _, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=seed % (k // 2 + 2),
                snr_db=(20.0, 10.0, None)[seed % 3], n_bins=16)
            support, ratio = fbmp_recover(sample_gram(samples), plan, **search)
            ref_support, ref_x_hat, ref_ratio = reference_map_recover(
                samples, plan.a_sub, plan.table.cfg, **search)
            np.testing.assert_array_equal(support, ref_support)
            x_hat = table_posterior_mean(plan, support, samples)
            np.testing.assert_array_equal(x_hat, ref_x_hat)
            assert_ratio_close(ratio, ref_ratio)


class TestSampleGram:
    def test_gram_of_the_real_view(self, rng):
        samples = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        s_yy = sample_gram(samples)
        y = real_view(samples)
        assert s_yy.shape == (4, 4) and s_yy.dtype == np.float64
        assert s_yy.flags.c_contiguous
        np.testing.assert_allclose(s_yy, y @ y.T, rtol=1e-12)

    def test_energies_are_those_of_the_posterior_mean(self):
        # The bands of the support the search chooses are exactly those to
        # which the table row's posterior mean gives energy, at 20 dB and
        # without noise.
        for seed in range(40):
            k, m = [(4, 7), (8, 12)][seed % 2]
            _, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=seed % (k // 2 + 1),
                snr_db=(20.0, None)[seed // 2 % 2], n_bins=16)
            support, _ = fbmp_recover(sample_gram(samples), plan, **search)
            x_hat = table_posterior_mean(plan, support, samples)
            energies = (np.abs(x_hat) ** 2).sum(axis=1)
            assert not energies[support == 0].any()
            assert np.all(energies[support == 1] > 0.0)


def scipy_modules_after(lines):
    """The SciPy modules loaded after running lines of code in a fresh
    interpreter that imports wssim from this checkout."""
    code = "\n".join(["import sys, wssim", "from wssim.cli import main"] + lines + [
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"])
    src = str(Path(wssim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


class TestEnergyDetect:
    """Which selected bands carry energy: signal_sense reads it from the
    MAP support on both paths, with no energy detector and no SciPy."""

    def test_zero_spectra_all_vacant(self):
        # Five vacant bands measured without noise, through a direct plan
        # (4 x 4) and a search plan (4 x 5).
        for m in (4, 5):
            _, _, plan, samples, search = make_instance(5, m=m, busy_count=0,
                                                        snr_db=None, n_bins=16)
            result = signal_sense(sample_gram(samples), plan, search["prior_activity"])
            assert result.statuses.tolist() == [0] * m
            assert result.xi == 0

    def test_noiseless_busy_band_detected(self, rng):
        plan = SensingPlan(SupportTable(rng.standard_normal((4, 1)), RecoveryConfig()),
                           range(1))
        spectra = synthesize_band_spectra(np.ones(1, dtype=np.int8), 64, rng)
        result = signal_sense(sample_gram(plan.a_sub @ spectra), plan)
        assert result.statuses.tolist() == [1]

    def test_false_alarm_rate_calibrated(self, rng):
        # Vacant bands alone at 20 dB, on the direct path: no target rate
        # is set any more, so the MAP support's false-alarm rate is held to
        # the 0.01 that the detection test against truth also bounds.
        m, trials, flagged = 4, 2000, 0
        noise_var = noise_power_for_snr(20.0)
        cfg = RecoveryConfig(noise_variance=noise_var, bins_per_band=64)
        for i in range(trials):
            if i % 100 == 0:
                a_sub = rng.standard_normal((4, m))
                plan = SensingPlan(SupportTable(a_sub, cfg), range(m))
            samples = measure(a_sub, np.zeros((m, 64), dtype=complex), 20.0, rng)
            flagged += int(signal_sense(sample_gram(samples), plan).statuses.sum())
        assert flagged / (m * trials) <= 0.01

    def test_per_band_noise_vector(self, rng):
        # Columns of very different norms leave the two bands with
        # post-inversion noise 10^4 apart; either band, busy, reads busy
        # and the other vacant.
        noise_var = noise_power_for_snr(40.0)
        for scale in ([10.0, 0.1], [0.1, 10.0]):
            a_sub = rng.standard_normal((4, 2)) * scale
            plan = SensingPlan(SupportTable(a_sub, RecoveryConfig(
                noise_variance=noise_var, bins_per_band=32)), range(2))
            for busy in (0, 1):
                spectra = np.zeros((2, 32), dtype=complex)
                spectra[busy] = 10.0
                samples = measure(a_sub, spectra, 40.0, rng)
                result = signal_sense(sample_gram(samples), plan)
                assert result.statuses.tolist() == [int(j == busy) for j in range(2)]

    def test_import_leaves_scipy_stats_unloaded(self):
        # No scipy module at all, scipy.stats included.
        code = ("import sys, wssim; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(Path(wssim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_oracle_mode_leaves_scipy_unloaded(self):
        # An oracle run, the CLI's validate and theorem1.
        cfg = Path(__file__).resolve().parents[1] / "configs" / "case1.cfg"
        assert scipy_modules_after([
            f"cfg = wssim.load_config({str(cfg)!r})",
            "cfg.replications, cfg.horizon = 1, 200",
            "cfg.validate()",
            "wssim.run_experiment(cfg)",
            f"assert main(['validate', {str(cfg)!r}]) == 0",
            "assert main(['theorem1', '--N', '8', '--K', '4', "
            "'--mu', '0.05', '--delta', '0.1']) == 0"]) == "[]"

    def test_signal_mode_leaves_scipy_unloaded(self):
        # A signal-mode validate() and a 200-slot signal run, on both
        # recovery paths, and the CLI's signal-mode validate.
        cfg = Path(__file__).resolve().parents[1] / "configs" / "case1.cfg"
        assert scipy_modules_after([
            f"cfg = wssim.load_config({str(cfg)!r})",
            "cfg.rs_mode, cfg.snr_db = 'signal', 20.0",
            "cfg.replications, cfg.horizon = 1, 200",
            "cfg.validate()",
            "wssim.run_experiment(cfg)",
            f"assert main(['validate', {str(cfg)!r}, '--set', 'rs_mode=signal']) == 0"]) \
            == "[]"


class TestSignalSense:
    def test_square_set_noiseless_always_succeeds(self):
        for seed in range(20):
            busy_count = seed % 5
            statuses, _, plan, samples, search = make_instance(
                seed, m=4, busy_count=busy_count, snr_db=None)
            result = signal_sense(sample_gram(samples), plan,
                                  search["prior_activity"])
            assert result.xi == 0
            np.testing.assert_array_equal(result.statuses, statuses)

    def test_overloaded_noiseless_fails(self):
        _, _, plan, samples, search = make_instance(123, busy_count=3, snr_db=None)
        result = signal_sense(sample_gram(samples), plan, search["prior_activity"])
        assert result.xi == 1

    def test_small_noisy_set_statuses(self):
        # At 20 dB the MAP support of a small set is the truth.
        for seed in range(20):
            statuses, _, plan, samples, search = make_instance(
                seed, m=3, busy_count=seed % 4, snr_db=20.0)
            result = signal_sense(sample_gram(samples), plan,
                                  search["prior_activity"])
            assert result.xi == 0
            np.testing.assert_array_equal(result.statuses, statuses)

    def test_direct_path_tie_goes_to_first_selection_position(self, rng):
        # Bands 0 and 2 have the same column, so every support with one of
        # them scores exactly as the same support with the other: the
        # busy band reads at the first of the two positions, whichever of
        # them is busy.
        matrix = rng.standard_normal((4, 3))
        matrix[:, 2] = matrix[:, 0]
        plan = SensingPlan(SupportTable(matrix, RecoveryConfig(
            noise_variance=0.01, bins_per_band=16)), range(3))
        for busy in (0, 2):
            statuses = np.zeros(3, dtype=np.int8)
            statuses[busy] = 1
            samples = measure(matrix, synthesize_band_spectra(statuses, 16, rng),
                              20.0, rng)
            result = signal_sense(sample_gram(samples), plan)
            assert result.statuses.tolist() == [1, 0, 0]
            assert result.xi == 0

    def test_reports_residual_ratio(self):
        # On the search path (6 bands, 4 branches) fbmp_recover reports
        # the residual ratio, and xi is its test after the table's noise
        # guard is taken off; the direct path (4 bands) runs no search.
        _, _, plan, samples, search = make_instance(7, busy_count=1)
        s_yy = sample_gram(samples)
        _, ratio = fbmp_recover(s_yy, plan, **search)
        assert ratio >= 0.0
        excess = max(0.0, ratio ** 2 * s_yy.trace() - plan.table.noise_guard)
        result = signal_sense(s_yy, plan, search["prior_activity"])
        assert isinstance(result, SenseResult)
        assert result.xi == int(np.sqrt(excess / s_yy.trace())
                                > plan.table.cfg.residual_threshold)
        _, _, plan, samples, search = make_instance(7, m=4, busy_count=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recovery, "fbmp_recover", None)
            result = signal_sense(sample_gram(samples), plan, search["prior_activity"])
        assert result.xi == 0

    @pytest.mark.parametrize("m", [3, 6])
    def test_zero_gram_reads_vacant_without_warnings(self, m):
        # Both paths, with and without noise: a slot whose samples are all
        # zero reads every band vacant, succeeds, and divides by nothing.
        for snr_db in (None, 20.0):
            _, _, plan, _, search = make_instance(0, m=m, snr_db=snr_db)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = signal_sense(np.zeros((4, 4)), plan, search["prior_activity"])
            assert result.statuses.tolist() == [0] * m
            assert result.xi == 0


def plan_draws(seed, k, m, count):
    """One sub-matrix and its plan, then count slots measured through it.

    Busy counts run from 0 to beyond the recoverable limit, noise from
    none to 10 dB, priors vary per slot.
    """
    rng = np.random.default_rng(seed)
    a_sub = rng.standard_normal((k, m))
    gamma = gamma_threshold(m, k)
    for snr_db in (None, 20.0, 10.0):
        plan = SensingPlan(SupportTable(a_sub, RecoveryConfig(
            noise_variance=noise_power_for_snr(snr_db), bins_per_band=16)), range(m))
        for i in range(count):
            statuses = np.zeros(m, dtype=np.int8)
            busy_count = min(i % (gamma + 2), m)
            statuses[rng.choice(m, size=busy_count, replace=False)] = 1
            spectra = synthesize_band_spectra(statuses, 16, rng)
            samples = measure(a_sub, spectra, snr_db, rng)
            yield plan, samples, rng.uniform(0.05, 0.95, m)


PLAN_SHAPES = [(4, 7), (4, 6), (8, 12), (8, 16)]

# Table scores against solve-based ones: |difference| <= SCORE_RTOL *
# max(1, |score|). The inverse and the solve each err by about cond(Phi)
# times the unit roundoff, and noiseless draws floor sig_n at 1e-10 (of
# the unit signal power), so cond(Phi) reaches about 1e10 for supports
# smaller than K.
# Largest relative difference seen: 1.3e-5 noiseless, 9e-13 noisy.
SCORE_RTOL = 1e-4
NOISY_SCORE_RTOL = 1e-10

# Gram-domain residual ratios against sample-domain ones. A fit exact up to
# rounding leaves a residual that is the difference of terms of size
# ||Y||^2, so its Gram-domain ratio is about sqrt(eps) rather than 0.
RATIO_RTOL, RATIO_ATOL = 1e-9, 1e-7


def assert_ratio_close(got, want):
    assert abs(got - want) <= RATIO_ATOL + RATIO_RTOL * abs(want)


def assert_scores_close(got, want, rtol=SCORE_RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))


def table_scores(plan, supports, szz, n_bins, log_prior):
    """fbmp_recover's scores of a (C, s) array of selection-position
    supports, from the rows of plan's table."""
    table = plan.table
    rows = table.rows(np.sort(np.array(plan.bands)[supports], axis=1))
    return -n_bins * table.logdet[rows] - table.inv[rows] @ szz.real.ravel() + log_prior


class TestSensingPlan:
    """A reused plan gives the outcomes of computing everything per call.

    Searches and sensing are compared bit for bit; the table's scores, to
    SCORE_RTOL.
    """

    @pytest.mark.parametrize("k, m", PLAN_SHAPES)
    def test_first_level_table_scores_match_one_at_a_time(self, k, m):
        # The empty support, then every singleton in band order.
        for plan, samples, prior in plan_draws(k * m, k, m, 10):
            szz, n_bins, sig_n, base_prior, gain = score_terms(
                samples, plan.table.cfg, m, prior)
            first = [()] + [(j,) for j in range(m)]
            got = np.concatenate([
                table_scores(plan, all_supports(m, 0), szz, n_bins, base_prior),
                table_scores(plan, all_supports(m, 1), szz, n_bins, base_prior + gain)])
            want = [reference_support_score(szz, n_bins, plan.a_sub, active,
                                            sig_n, base_prior, gain)
                    for active in first]
            assert_scores_close(got, want)

    @pytest.mark.parametrize("k, m", PLAN_SHAPES)
    def test_reused_plan_search_identical_to_reference(self, k, m):
        # 252 draws per shape, through three plans (one per noise level).
        gamma = gamma_threshold(m, k)
        for plan, samples, prior in plan_draws(k + m, k, m, 84):
            support, ratio = fbmp_recover(sample_gram(samples), plan, gamma, prior)
            ref_support, ref_x_hat, ref_ratio = reference_map_recover(
                samples, plan.a_sub, plan.table.cfg, gamma, prior)
            assert support.tobytes() == ref_support.tobytes()
            x_hat = table_posterior_mean(plan, support, samples)
            assert x_hat.tobytes() == ref_x_hat.tobytes()
            assert_ratio_close(ratio, ref_ratio)

    @pytest.mark.parametrize("k, m", [(4, 2), (4, 4), (8, 5), (8, 8)]
                             + PLAN_SHAPES)
    def test_reused_plan_sensing_identical_to_reference(self, k, m):
        # Both paths: m <= k scores every support from the plan's
        # operators, m > k searches.
        for plan, samples, prior in plan_draws(7 * m + k, k, m, 12):
            got = signal_sense(sample_gram(samples), plan, prior)
            want = reference_signal_sense(samples, plan.a_sub, plan.table.cfg, k,
                                          prior)
            assert got.statuses.dtype == want.statuses.dtype == np.int8
            assert got.statuses.tobytes() == want.statuses.tobytes()
            assert got.xi == want.xi

    @pytest.mark.parametrize("k, n", [(4, 8), (8, 16), (1, 3)])
    def test_direct_operators_are_table_rows_and_own_inverses(self, k, n):
        # Every support of a direct set in (size, lexicographic) order over
        # selection positions: those of at most K // 2 bands carry their
        # table rows' bits, larger ones the bits of their own covariance's
        # inverse over their ascending bands, and every log-determinant is
        # weighted by -bins.
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((k, n))
        table = SupportTable(matrix, RecoveryConfig(noise_variance=0.01,
                                                    bins_per_band=16))
        for m in range(1, k + 1):
            plan = SensingPlan(table, rng.permutation(n)[:m])
            assert plan.direct
            inv, weighted_logdet = plan.operators
            assert inv.shape == (2 ** m, k * k)
            supports = [np.sort(np.array(plan.bands)[list(positions)])
                        for size in range(m + 1)
                        for positions in itertools.combinations(range(m), size)]
            for i, bands in enumerate(supports):
                if len(bands) <= table.max_size:
                    row = table.rows(bands[None, :])[0]
                    want_inv, want_logdet = table.inv[row], table.logdet[row]
                else:
                    phi, logdet = _support_covariances(matrix, bands[None, :],
                                                       table.sig_n)
                    want_inv, want_logdet = np.linalg.inv(phi).ravel(), logdet[0]
                assert inv[i].tobytes() == want_inv.tobytes()
                assert weighted_logdet[i] == -16 * want_logdet

    def test_mixing_scatters_the_sub_matrix(self, rng):
        table = SupportTable(rng.standard_normal((4, 8)), RecoveryConfig())
        plan = SensingPlan(table, (6, 1, 3))
        want = np.zeros((4, 12))
        want[:, [6, 1, 3]] = plan.a_sub
        want[:, 8:] = np.eye(4)
        assert plan.mixing.tobytes() == want.tobytes()


class TestSupportTable:
    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("k, m", [(4, 7), (8, 16)])
    def test_scores_match_solve_reference(self, k, m, snr_db):
        # Every support up to gamma, the empty support included.
        gamma = gamma_threshold(m, k)
        rtol = SCORE_RTOL if snr_db is None else NOISY_SCORE_RTOL
        for seed in range(6):
            rng = np.random.default_rng(seed)
            _, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=seed % (gamma + 2), snr_db=snr_db,
                prior=rng.uniform(0.05, 0.95, m))
            szz, n_bins, sig_n, base_prior, gain = score_terms(
                samples, plan.table.cfg, m, search["prior_activity"])
            for size in range(gamma + 1):
                supports = all_supports(m, size)
                want = solve_support_scores(szz, n_bins, plan.a_sub, supports,
                                            sig_n, base_prior, gain)
                log_prior = base_prior + gain[supports].sum(axis=1) \
                    if size else np.full(len(supports), base_prior)
                got = table_scores(plan, supports, szz, n_bins, log_prior)
                assert_scores_close(got, want, rtol)

    def test_rows_independent_of_history(self, rng):
        # Every eager row has the bits of its own support's covariance and
        # inverse computed alone, at the row its colex rank names: the
        # smaller sizes' rows, then sum_i C(c_i, i + 1).
        for k, n in [(4, 8), (8, 16), (8, 3)]:
            matrix = rng.standard_normal((k, n))
            table = SupportTable(matrix, RecoveryConfig(noise_variance=0.1))
            assert len(table.inv) == len(table.logdet) == support_count(n, k)
            seen = []
            for size in range(table.max_size + 1):
                supports = all_supports(n, size)
                rows = table.rows(supports)
                for support, row in zip(supports.tolist(), rows.tolist()):
                    rank = sum(math.comb(c, i + 1) for i, c in enumerate(support))
                    assert row == sum(math.comb(n, s) for s in range(size)) + rank
                    phi, logdet = _support_covariances(
                        matrix, np.array([support], dtype=np.intp).reshape(1, size),
                        table.sig_n)
                    assert table.inv[row].tobytes() == np.linalg.inv(phi).tobytes()
                    assert table.logdet[row] == logdet[0]
                seen += rows.tolist()
            assert sorted(seen) == list(range(len(table.logdet)))

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("k, n", [(4, 8), (8, 16)])
    def test_fit_rows_equal_own_solve(self, k, n, snr_db):
        # Each row's fit operator has the bits of F_S^T F_S, F_S = I - A_S G_S
        # with G_S from its support's own s x s solve, flattened; the empty
        # support's is the identity.
        matrix = np.random.default_rng(k * n).standard_normal((k, n))
        table = SupportTable(matrix, RecoveryConfig(
            noise_variance=noise_power_for_snr(snr_db)))
        assert table.fit.shape == (support_count(n, k), k * k)
        assert table.fit[0].tobytes() == np.eye(k).tobytes()
        for size in range(1, table.max_size + 1):
            supports = all_supports(n, size)
            for support, row in zip(supports.tolist(), table.rows(supports).tolist()):
                a_s = matrix[:, support]
                gain = np.linalg.solve(table.sig_n * np.eye(size) + a_s.T @ a_s, a_s.T)
                fit = np.eye(k) - a_s @ gain
                assert table.fit[row].tobytes() == (fit.T @ fit).tobytes()

    @pytest.mark.parametrize("n, k, rows", [(8, 4, 37), (16, 4, 137),
                                            (16, 8, 2517), (90, 4, 4096)])
    def test_row_counts(self, n, k, rows):
        assert support_count(n, k) == rows

    @pytest.mark.parametrize("n, k", [(32, 8), (91, 4), (16, 12)])
    def test_rejects_more_rows_than_the_cap(self, n, k):
        with pytest.raises(ValueError, match=f"n_bands = {n} with k_branches = {k}"):
            support_count(n, k)
        with pytest.raises(ValueError, match="k_branches"):
            SupportTable(np.ones((k, n)), RecoveryConfig())

    def test_own_table_over_sub_matrix_columns(self, rng):
        # A plan over every column of a table of its own sub-matrix, and
        # plans viewing a table's columns in any order.
        a_sub = rng.standard_normal((4, 6))
        table = SupportTable(a_sub, RecoveryConfig())
        plan = SensingPlan(table, range(6))
        assert plan.bands == tuple(range(6))
        assert plan.a_sub.tolist() == a_sub.tolist()
        assert np.array_equal(SensingPlan(table, (5, 0, 2)).a_sub, a_sub[:, [5, 0, 2]])
        with pytest.raises(ValueError, match="out of range"):
            SensingPlan(table, range(7))
        with pytest.raises(ValueError, match="distinct"):
            SensingPlan(table, (1, 1))

    @pytest.mark.parametrize("k, n", [(4, 8), (8, 16)])
    def test_plan_rows_of_unsorted_sets(self, k, n):
        # A plan ranks its supports from the indicator in band order; the
        # rows are those of each support's bands sorted one support at a
        # time, for sets of every size in random order.
        rng = np.random.default_rng(n)
        table = SupportTable(rng.standard_normal((k, n)), RecoveryConfig())
        for m in range(1, n + 1):
            for _ in range(3):
                bands = rng.permutation(n)[:m]
                plan = SensingPlan(table, bands)
                want = [table.rows(np.sort(bands[all_supports(m, size)], axis=1))
                        for size in range(plan.gamma + 1)]
                assert plan.rows.dtype == np.intp
                assert plan.rows.tolist() == np.concatenate(want).tolist()

    def test_plans_of_different_sets_share_rows(self, rng):
        matrix = rng.standard_normal((4, 8))
        cfg = RecoveryConfig(noise_variance=0.01, bins_per_band=16)
        table = SupportTable(matrix, cfg)
        sets = [(0, 1, 2, 3, 4, 5), (7, 3, 5, 4, 6)]
        plans = [SensingPlan(table, bands) for bands in sets]
        # A plan's rows are the table rows of its supports' sorted bands,
        # in (size, lexicographic) order over selection positions; the two
        # sets share exactly the rows of the supports of bands 3, 4 and 5.
        for plan in plans:
            bands = np.array(plan.bands)
            want = [table.rows(np.sort(bands[all_supports(len(bands), size)], axis=1))
                    for size in range(3)]
            assert plan.rows.tolist() == np.concatenate(want).tolist()
        common = [table.rows(np.array([3, 4, 5])[all_supports(3, size)])
                  for size in range(3)]
        assert set(plans[0].rows.tolist()) & set(plans[1].rows.tolist()) == \
            set(np.concatenate(common).tolist())
        # The unsorted set's search finds the same support as the
        # reference on its own sub-matrix.
        for plan in plans:
            z = measure(plan.a_sub, synthesize_band_spectra(
                np.eye(len(plan.bands), dtype=np.int8)[1], 16, rng), 20.0, rng)
            for gamma in (1, 2):
                support, ratio = fbmp_recover(sample_gram(z), plan, gamma)
                want = reference_map_recover(z, plan.a_sub, cfg, gamma,
                                             bands=plan.bands)
                assert support.tobytes() == want[0].tobytes()
                x_hat = table_posterior_mean(plan, support, z)
                assert x_hat.tobytes() == want[1].tobytes()
                assert_ratio_close(ratio, want[2])


class TestFitResidual:
    """fbmp_recover's residual ratio, Q_S . vec(S_yy) from the table's fit
    operator and the slot's Gram, against the sample-domain ratio of the
    same support's posterior-mean fit (conftest.residual_ratio)."""

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0, 0.0])
    @pytest.mark.parametrize("k, m", [(4, 7), (8, 12)])
    def test_ratio_matches_sample_domain(self, k, m, snr_db):
        # Busy counts from 0 to beyond gamma, priors varying per slot.
        gamma = gamma_threshold(m, k)
        for seed in range(12):
            _, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=seed % (gamma + 2), snr_db=snr_db,
                n_bins=16, prior=np.random.default_rng(seed).uniform(0.05, 0.95, m))
            support, ratio = fbmp_recover(sample_gram(samples), plan, **search)
            x_hat = real_view(table_posterior_mean(plan, support, samples))
            assert_ratio_close(ratio, residual_ratio(real_view(samples),
                                                     plan.a_sub @ x_hat))

    @pytest.mark.parametrize("k, m", [(4, 7), (8, 16)])
    def test_noiseless_exact_fit_ratio_is_rounding(self, k, m):
        # Without noise a found support fits the samples exactly, so its
        # ratio is rounding (about sqrt(eps) in the Gram domain); the bound,
        # set before measuring: below 1e-6.
        found = 0
        for seed in range(20):
            statuses, _, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=1 + seed % (k // 2), snr_db=None,
                n_bins=16)
            support, ratio = fbmp_recover(sample_gram(samples), plan, **search)
            if support.tolist() == statuses.tolist():
                found += 1
                assert ratio < 1e-6
        assert found >= 18

    def test_statuses_are_cached_read_only_rows(self):
        # Both paths return a row of one cached int8 array, which no caller
        # can write to.
        for m in (4, 6):
            _, _, plan, samples, search = make_instance(3, m=m, busy_count=1)
            s_yy = sample_gram(samples)
            first = signal_sense(s_yy, plan, search["prior_activity"]).statuses
            again = signal_sense(s_yy, plan, search["prior_activity"]).statuses
            assert first.dtype == np.int8 and not first.flags.writeable
            assert np.shares_memory(first, again)


class TestPosteriorMean:
    """The s x s operators G_S that the table's fit operators are built
    from (_posterior_gains) against the K x K form A_S^T Phi_S^-1 Y
    (conftest.conditional_mean)."""

    @pytest.mark.parametrize("snr_db", [20.0, 10.0])
    @pytest.mark.parametrize("k, m", [(4, 7), (8, 16)])
    def test_every_support_matches_k_by_k_form(self, k, m, snr_db):
        for seed in range(4):
            _, _, plan, samples, _ = make_instance(
                seed, m=m, k=k, busy_count=seed % (k // 2 + 1), snr_db=snr_db,
                n_bins=16)
            table = plan.table
            y = samples.view(np.float64)
            for size in range(1, table.max_size + 1):
                supports = all_supports(m, size)
                gains = _posterior_gains(table.matrix, supports, table.sig_n)
                for support, gain in zip(supports.tolist(), gains):
                    got = (gain @ y).view(np.complex128)
                    want = conditional_mean(samples, plan.a_sub, tuple(support),
                                            table.sig_n)[support]
                    np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("k, m", [(4, 7), (8, 16)])
    def test_noiseless_found_support_gives_true_spectra(self, k, m):
        # Without noise the search's sig_n is 1e-10, which biases G_S @ Y
        # by about 1e-10 times diag((A_S^T A_S)^-1); the bound, set before
        # measuring: relative error at most 1e-6.
        found = 0
        for seed in range(40):
            statuses, spectra, plan, samples, search = make_instance(
                seed, m=m, k=k, busy_count=seed % (k // 2 + 1), snr_db=None,
                n_bins=16)
            support, _ = fbmp_recover(sample_gram(samples), plan, **search)
            if support.tolist() != statuses.tolist():
                continue
            x_hat = table_posterior_mean(plan, support, samples)
            found += 1
            assert np.linalg.norm(x_hat - spectra) <= 1e-6 * np.linalg.norm(spectra)
        assert found >= 36

    def test_unsorted_set_solves_in_band_order(self, rng):
        # A table row orders a support's bands ascending; for a set in
        # another order the spectra are that row's, within rounding of the
        # selection-order solve.
        table = SupportTable(rng.standard_normal((4, 8)),
                             RecoveryConfig(noise_variance=0.01, bins_per_band=16))
        plan = SensingPlan(table, (7, 3, 5, 4, 6))
        cfg = table.cfg
        for _ in range(10):
            statuses = np.zeros(5, dtype=np.int8)
            statuses[rng.choice(5, size=2, replace=False)] = 1
            z = measure(plan.a_sub, synthesize_band_spectra(statuses, 16, rng),
                        20.0, rng)
            support, ratio = fbmp_recover(sample_gram(z), plan, 2)
            want = reference_map_recover(z, plan.a_sub, cfg, 2, bands=plan.bands)
            assert support.tobytes() == want[0].tobytes()
            x_hat = table_posterior_mean(plan, support, z)
            assert x_hat.tobytes() == want[1].tobytes()
            assert_ratio_close(ratio, want[2])
            in_selection_order = reference_map_recover(z, plan.a_sub, cfg, 2)
            np.testing.assert_allclose(x_hat, in_selection_order[1], rtol=1e-9)


class TestRecoveryConfig:
    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf")])
    def test_rejects_bad_noise_variance(self, value):
        # A NaN noise variance must not reach the support scores.
        with pytest.raises(ValueError, match="noise_variance"):
            RecoveryConfig(noise_variance=value)

    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan")])
    def test_rejects_nonpositive_residual_threshold(self, value):
        with pytest.raises(ValueError, match="residual_threshold"):
            RecoveryConfig(residual_threshold=value)

    def test_fa_rate_check_leaves_scipy_unloaded(self):
        # The field checks import no SciPy, nor does the refusal of the
        # energy_fa_rate field that the energy detector once took.
        code = "\n".join([
            "import sys",
            "from wssim.recovery import RecoveryConfig",
            "RecoveryConfig(noise_variance=0.01, residual_threshold=0.2)",
            "for kwargs in ({'energy_fa_rate': 0.05}, {'noise_variance': -1.0}):",
            "    try:",
            "        RecoveryConfig(**kwargs)",
            "    except (TypeError, ValueError):",
            "        pass",
            "    else:",
            "        raise AssertionError(kwargs)",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
        src = str(Path(wssim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_bins_per_band_below_one(self, value):
        with pytest.raises(ValueError, match="bins_per_band"):
            RecoveryConfig(bins_per_band=value)

    def test_frozen(self):
        cfg = RecoveryConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.noise_variance = 1.0


def broadcast_clip_log_odds(prior_activity, m):
    """The np.broadcast_to and np.clip form that _prior_log_odds replaced."""
    q = np.broadcast_to(np.asarray(prior_activity, dtype=float), (m,))
    q = np.clip(q, 1e-9, 1.0 - 1e-9)
    return np.log(q) - np.log1p(-q)


class TestPriorLogOdds:
    # Both ends, the clip bounds, and values within 1e-9 of either end on
    # both sides of the bounds.
    EDGES = [0.0, 1e-300, 1e-12, 5e-10, np.nextafter(1e-9, 0.0), 1e-9,
             np.nextafter(1e-9, 1.0), 1.5e-9, 0.5, 1.0 - 1.5e-9,
             np.nextafter(1.0 - 1e-9, 0.0), 1.0 - 1e-9,
             np.nextafter(1.0 - 1e-9, 1.0), 1.0 - 5e-10, 1.0 - 1e-12, 1.0]

    @staticmethod
    def assert_same_bits(prior, m):
        gain = _prior_log_odds(prior, m)
        want_gain = broadcast_clip_log_odds(prior, m)
        assert gain.shape == (m,) and gain.dtype == np.float64
        assert gain.tobytes() == want_gain.tobytes()

    @pytest.mark.parametrize("m", [1, 4, 7, 16])
    def test_scalar_prior_equals_broadcast_clip(self, m):
        for q in self.EDGES + [0, 1, 0.25, 0.9]:
            self.assert_same_bits(q, m)
            self.assert_same_bits(np.float64(q), m)
            self.assert_same_bits([q], m)

    @pytest.mark.parametrize("m", [1, 4, 7, 16])
    def test_per_band_prior_equals_broadcast_clip(self, m):
        draws = np.random.default_rng(m)
        for _ in range(200):
            prior = np.where(draws.random(m) < 0.5,
                             draws.choice(self.EDGES, size=m), draws.random(m))
            self.assert_same_bits(prior, m)
            self.assert_same_bits(prior.tolist(), m)
            self.assert_same_bits(1.0 - prior, m)

    def test_rejects_prior_of_other_length(self):
        for prior in ([0.2, 0.3], np.full((2, 4), 0.5)):
            with pytest.raises(ValueError):
                _prior_log_odds(prior, 4)
            with pytest.raises(ValueError):
                broadcast_clip_log_odds(prior, 4)
