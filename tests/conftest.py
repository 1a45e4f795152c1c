"""Shared independent oracles for the test suite."""

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from wssim import experiments
from wssim.config import ExperimentConfig
from wssim.learning import (EXPLOIT, EXPLORE, BeliefState, epsilon,
                            explore_schedule)
from wssim.recovery import (_MODEL_FLOOR, RecoveryConfig, SenseResult,
                            _posterior_gains, _support_covariances,
                            gamma_threshold, oracle_sense)
from wssim.sensing import noise_power_for_snr, select_submatrix
from wssim.sizing import exploration_threshold, optimize_size
from wssim.spectrum import (BandStatistics, check_bins_per_band,
                            stationary_vacancy)


# Sizing references: wssim.sizing.optimize_size grows the same
# Poisson-binomial tail incrementally.
def poisson_binomial_pmf(busy_probs, max_count: int) -> np.ndarray:
    """P(exactly i bands busy) for i = 0..max_count by iterative convolution.

    One linear pass per band; counts above max_count are truncated away, so
    the returned vector sums to 1 only when max_count covers all bands.
    """
    probs = np.atleast_1d(np.asarray(busy_probs, dtype=float))
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if max_count < 0:
        raise ValueError("max_count must be nonnegative")
    pmf = np.zeros(max_count + 1)
    pmf[0] = 1.0
    for p in probs:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


def success_probability(vacancy_probs, k_branches: int) -> float:
    """Probability that the busy count of the set stays recoverable.

    Sets no larger than the branch count always reconstruct; larger sets
    succeed when at most floor(K/2) bands are busy (the all-vacant outcome
    counts as success).
    """
    vacancy = np.atleast_1d(np.asarray(vacancy_probs, dtype=float))
    if vacancy.size == 0:
        raise ValueError("candidate set must be nonempty")
    if not np.all((vacancy >= 0.0) & (vacancy <= 1.0)):
        raise ValueError("vacancy probabilities must lie in [0, 1]")
    if k_branches < 1:
        raise ValueError("k_branches must be at least 1")
    if vacancy.size <= k_branches:
        return 1.0
    pmf = poisson_binomial_pmf(1.0 - vacancy, k_branches // 2)
    return float(pmf.sum())


def mu_correct(estimates, truth, mu: float) -> bool:
    """True when every band's estimate is strictly within mu/2 of truth."""
    est = np.atleast_1d(np.asarray(estimates, dtype=float))
    tru = np.atleast_1d(np.asarray(truth, dtype=float))
    if est.shape != tru.shape:
        raise ValueError("estimates and truth must have equal length")
    return bool(np.all(np.abs(est - tru) < mu / 2.0))


def brute_force_busy_pmf(busy_probs):
    """P(exactly i busy) by enumerating all 2^M outcomes."""
    probs = np.asarray(busy_probs, dtype=float)
    m = probs.size
    pmf = np.zeros(m + 1)
    for outcome in itertools.product((0, 1), repeat=m):
        p = 1.0
        for q, bit in zip(probs, outcome):
            p *= q if bit else 1.0 - q
        pmf[sum(outcome)] += p
    return pmf


def brute_force_best_set(vacancy_probs, k_branches):
    """Exhaustive search of the throughput objective over all band subsets.

    Returns (best subset as a sorted tuple, best objective value); among
    equal-objective subsets the first in (size, lexicographic) order wins.
    """
    vacancy = np.asarray(vacancy_probs, dtype=float)
    n = vacancy.size
    best_set, best_value = None, -1.0
    for size in range(k_branches, n + 1):
        for subset in itertools.combinations(range(n), size):
            probs = vacancy[list(subset)]
            value = success_probability(probs, k_branches) * probs.sum()
            if value > best_value:
                best_set, best_value = subset, value
    return best_set, best_value


# The sample-domain signal chain, slot by slot: band spectra, mixed samples
# and noise, and their Gram. wssim forms none of these: its SignalEnvironment
# draws each slot's Gram from its Bartlett factor, and recovery reads only
# that Gram. The block-Gram law tests and the recovery tests compare against
# this chain, and criterion 8 draws its slots from it.
def synthesize_band_spectra(statuses: np.ndarray, bins_per_band: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Fill busy bands with flat-spectrum circular complex Gaussian content.

    Returns one slot's (bands, bins) complex grid. statuses is a 0/1
    vector used as is: a caller passing trajectory rows checks them once,
    with check_trajectory, not per slot. Each busy row is rescaled so its
    mean per-bin power is exactly 1; vacant rows stay zero,
    so the support of the grid equals the busy set.
    """
    grid = np.zeros((len(statuses), check_bins_per_band(bins_per_band)),
                    dtype=np.complex128)
    busy = np.flatnonzero(statuses)
    if busy.size:
        grid[busy] = unit_power_rows(rng.standard_normal((busy.size, bins_per_band)),
                                     rng.standard_normal((busy.size, bins_per_band)))
    return grid


def unit_power_rows(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """The (rows, bins) complex rows real + 1j * imag, each rescaled so its
    mean per-bin power is exactly 1. Each row's result depends only on its
    own values, so rows drawn for many slots at once come out as they
    would one slot at a time."""
    raw = real + 1j * imag
    mean_power = np.mean(np.abs(raw) ** 2, axis=1)
    return raw * unit_power_scale(mean_power)[:, None]


def unit_power_scale(mean_power: np.ndarray) -> np.ndarray:
    """The factor that brings rows of the given mean per-bin power to
    power 1; unit_power_rows scales by it, and SignalEnvironment's block
    Grams by the same formula."""
    return np.sqrt(1.0 / mean_power)


def measure(a_sub: np.ndarray, band_rows: np.ndarray, snr_db: float | None,
            rng: np.random.Generator) -> np.ndarray:
    """Mix the selected band spectra through the branch coefficients.

    Returns the (k_branches, bins) sub-Nyquist samples of one slot, one
    column per frequency bin. Per bin f the measurement is
    a_sub @ band_rows[:, f] plus complex AWGN whose per-bin power makes the
    busy-band SNR equal snr_db at unit signal power. Passing snr_db=None
    (or +inf) produces a noiseless measurement.
    """
    a_sub = np.asarray(a_sub, dtype=float)
    band_rows = np.asarray(band_rows)
    if a_sub.ndim != 2 or band_rows.ndim != 2:
        raise ValueError("a_sub and band_rows must be two-dimensional")
    if a_sub.shape[1] != band_rows.shape[0]:
        raise ValueError("a_sub column count must equal the number of selected bands")
    samples = a_sub @ band_rows
    noise_power = noise_power_for_snr(snr_db)
    if noise_power > 0.0:
        k, bins = samples.shape
        samples = samples + complex_noise(rng.standard_normal((k, bins)),
                                          rng.standard_normal((k, bins)),
                                          noise_power)
    return samples


def complex_noise(real: np.ndarray, imag: np.ndarray,
                  noise_power: float) -> np.ndarray:
    """Circular complex AWGN of the given per-bin power from standard
    normal real and imaginary parts, elementwise and of any shape."""
    return (real + 1j * imag) * noise_scale(noise_power)


def noise_scale(noise_power: float) -> float:
    """The factor that turns standard normal draws into the real or the
    imaginary part of circular complex noise of the given per-bin power;
    complex_noise scales by it, and SignalEnvironment's block Grams by the
    same formula."""
    return np.sqrt(noise_power / 2.0)


def sample_gram(z) -> np.ndarray:
    """S_yy = Re(Z Z^H) of (K, bins) complex samples Z: the K x K Gram of
    their real view, which is all signal_sense and fbmp_recover read of a
    slot."""
    samples = np.asarray(z)
    return np.ascontiguousarray((samples @ samples.conj().T).real)


def real_view(spectra) -> np.ndarray:
    """A (rows, bins) complex array as (rows, 2 * bins) float64, each
    value's real part next to its imaginary part; no copy when spectra is
    already C-contiguous complex128."""
    return np.ascontiguousarray(spectra, dtype=np.complex128).view(np.float64)


def solve_support_scores(szz, n_bins, a_sub, supports, sig_n, base_prior,
                         prior_gain):
    """Log posterior (up to a support-independent constant) of busy sets.

    The solve-based reference scorer of wssim.recovery.SupportTable's
    inverse-based scores. supports is a (C, s) index array of C supports
    of equal size s (s = 0 scores the empty support). All C matrices Phi
    are built with one batched matmul (_support_covariances), factorised
    with one stacked Cholesky and solved against szz with one stacked
    solve. Stacked LAPACK calls run the same routine once per matrix, so
    each score is bit-identical to reference_support_score's.
    """
    phi, logdet = _support_covariances(a_sub, supports, sig_n)
    log_prior = base_prior + prior_gain[supports].sum(axis=1) \
        if supports.shape[1] else base_prior
    quad = np.trace(np.linalg.solve(phi, szz), axis1=1, axis2=2).real
    return -n_bins * logdet - quad + log_prior


def reference_support_score(szz, n_bins, a_sub, active, sig_n, base_prior,
                            prior_gain):
    """Log posterior of one busy set, one Cholesky and one solve at a time.

    The scalar form of solve_support_scores, which must match it bit for
    bit.
    """
    k = a_sub.shape[0]
    phi = sig_n * np.eye(k)
    if active:
        a_s = a_sub[:, list(active)]
        phi = phi + (a_s @ a_s.T)
    chol = np.linalg.cholesky(phi)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    quad = np.trace(np.linalg.solve(phi, szz)).real
    log_prior = base_prior + prior_gain[list(active)].sum() if active else base_prior
    return -n_bins * logdet - quad + log_prior


def score_terms(samples, cfg, m, prior_activity=0.5):
    """(szz, n_bins, sig_n, base_prior, prior_gain) as fbmp_recover derives
    them, and base_prior = sum(log(1 - q)) of the clipped busy priors q,
    the log prior of the empty support, which fbmp_recover leaves out of
    every score."""
    sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR)
    q = np.clip(np.broadcast_to(np.asarray(prior_activity, dtype=float), (m,)),
                1e-9, 1.0 - 1e-9)
    return (samples @ samples.conj().T, samples.shape[1], sig_n,
            np.log1p(-q).sum(), np.log(q) - np.log1p(-q))


def all_supports(m, size):
    """Every support of the given size as a (C, size) index array."""
    combos = list(itertools.combinations(range(m), size))
    return np.array(combos, dtype=np.intp).reshape(len(combos), size)


def exhaustive_map_support(samples, a_sub, cfg, gamma, prior_activity=0.5):
    """Score every support of size up to gamma; reference for fbmp_recover.

    One stacked solve-based scoring call per support size; the first
    support in (size, lexicographic) order wins ties.
    """
    m = a_sub.shape[1]
    szz, n_bins, sig_n, base_prior, prior_gain = score_terms(
        samples, cfg, m, prior_activity)
    best_active, best_score = (), -np.inf
    for size in range(gamma + 1):
        supports = all_supports(m, size)
        scores = solve_support_scores(szz, n_bins, a_sub, supports, sig_n,
                                      base_prior, prior_gain)
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_active, best_score = tuple(supports[top]), scores[top]
    support = np.zeros(m, dtype=np.int8)
    support[list(best_active)] = 1
    return support


def conditional_mean(samples, a_sub, active, sig_n):
    """Posterior-mean spectra given the support, in the K x K form
    A_S^T Phi_S^-1 Y with its own solve; inactive rows are zero.

    Reference for the s x s form (A_S^T A_S + sig_n I)^-1 A_S^T Y that
    wssim.recovery.SupportTable caches: the two are equal in exact
    arithmetic, but Phi_S's condition number reaches about 1 / sig_n.
    """
    m = a_sub.shape[1]
    x_hat = np.zeros((m, samples.shape[1]), dtype=np.complex128)
    if active:
        a_s = a_sub[:, list(active)]
        phi = sig_n * np.eye(a_sub.shape[0]) + (a_s @ a_s.T)
        x_hat[list(active)] = a_s.T @ np.linalg.solve(phi, samples)
    return x_hat


def sq_norm(x):
    """Sum of squares of a real array."""
    flat = x.reshape(-1)
    return float(flat @ flat)


def residual_ratio(y, fitted):
    """||y - fitted|| / ||y|| of real views, 0 when y is zero.

    The sample-domain residual ratio; wssim.recovery reads it from the
    samples' Gram instead.
    """
    y_sq = sq_norm(y)
    return math.sqrt(sq_norm(y - fitted) / y_sq) if y_sq else 0.0


def table_posterior_mean(plan, support, samples):
    """The posterior-mean spectra of a support found through plan: the
    operator G_S that a SupportTable builds its fit operator Q_S from
    (recovery._posterior_gains over the support's bands, ascending as the
    plan's are), applied to the samples' real view; zero off the support.

    fbmp_recover reads only the residual of this estimate, from the
    samples' Gram and the table's Q_S.
    """
    table = plan.table
    y = real_view(samples)
    active = np.flatnonzero(support).tolist()
    x = np.zeros((len(plan.bands), y.shape[1]))
    if active:
        bands = np.array([[plan.bands[j] for j in active]], dtype=np.intp)
        x[active] = _posterior_gains(table.matrix, bands, table.sig_n)[0] @ y
    return x.view(np.complex128)


def reference_map_recover(samples, a_sub, cfg, gamma, prior_activity=0.5):
    """exhaustive_map_support's support, its posterior-mean spectra and the
    relative residual: what fbmp_recover returns.

    The posterior mean solves the support's s x s system
    (A_S^T A_S + sig_n I) G = A_S^T on every call and applies G to the
    samples' real view.
    """
    support = exhaustive_map_support(samples, a_sub, cfg, gamma, prior_activity)
    active = np.flatnonzero(support).tolist()
    sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR)
    y = real_view(samples)
    x = np.zeros((a_sub.shape[1], y.shape[1]))
    if active:
        a_s = a_sub[:, active]
        gain = np.linalg.solve(sig_n * np.eye(len(active)) + a_s.T @ a_s, a_s.T)
        x[active] = gain @ y
    return support, x.view(np.complex128), residual_ratio(y, a_sub @ x)


class ReferenceOracleEnvironment:
    """Oracle sensing by numpy fancy indexing of the trajectory.

    Reference for wssim.learning.OracleEnvironment, which reads list rows.
    """

    def __init__(self, trajectory, k_branches):
        self.trajectory = np.asarray(trajectory, dtype=np.int8)
        self.k_branches = k_branches

    def sense(self, selected, slot, prior_vacancy):
        return oracle_sense(self.trajectory[slot, selected], self.k_branches)


def reference_signal_sense(samples, a_sub, cfg, k_branches, prior_activity=0.5):
    """Signal-mode sensing computing everything from a_sub on every call.

    Reference for wssim.recovery.signal_sense with a reused SensingPlan,
    in the sample domain: the statuses are exhaustive_map_support's
    support, which scores every support with its own solve; of all 2^m
    supports when m <= K (the slot then always succeeds), of at most the
    recoverable limit otherwise. On the search path the slot fails when
    reference_map_recover's residual, less the expected noise energy,
    exceeds the residual threshold.
    """
    a_sub = np.asarray(a_sub, dtype=float)
    k, m = a_sub.shape
    if k != k_branches:
        raise ValueError("a_sub row count must equal k_branches")
    if m <= k_branches:
        return SenseResult(exhaustive_map_support(samples, a_sub, cfg, m,
                                                  prior_activity), 0)
    statuses, _, ratio = reference_map_recover(
        samples, a_sub, cfg, gamma_threshold(m, k_branches), prior_activity)
    z_energy = sq_norm(real_view(samples))
    n_terms = samples.size
    noise_guard = (n_terms + 4.0 * np.sqrt(n_terms)) * cfg.noise_variance
    excess = max(0.0, ratio ** 2 * z_energy - noise_guard)
    excess_ratio = np.sqrt(excess / z_energy) if z_energy > 0.0 else 0.0
    return SenseResult(statuses, int(excess_ratio > cfg.residual_threshold))


class ReferenceSignalEnvironment:
    """The signal chain in the sample domain, rebuilding every per-set value
    on every slot.

    Reference for wssim.experiments.SignalEnvironment, which keeps one
    sensing plan per selected set and reads each slot through the Gram its
    block draw makes. Here each block makes the same two generator calls
    (block_slots from experiments._BLOCK_GRAM_VALUES as the environment
    reads it when built), and a plain loop builds every slot's Bartlett
    factor from them, row by row, scales its rows and pads them with zeros
    to 2 * bins columns: explicit complex spectra and noise rows whose Gram
    is the factor's. Each slot then mixes the selected bands' rows through
    the sub-matrix, adds the noise rows, builds a RecoveryConfig and senses
    the samples through reference_signal_sense.
    """

    def __init__(self, trajectory, matrix, config, rng):
        self.trajectory = np.asarray(trajectory, dtype=np.int8)
        self.matrix = matrix
        self.config = config
        self.rng = rng
        rows = self.trajectory.shape[1] + config.k_branches
        self.block_slots = max(1, experiments._BLOCK_GRAM_VALUES // rows ** 2)
        self._block = {}

    def _draw_block(self, start):
        """Each slot's (spectra grid, noise rows or None) for the block from
        start, keyed by slot."""
        cfg = self.config
        bins = cfg.bins_per_band
        nu = 2 * bins
        noise_power = noise_power_for_snr(cfg.snr_db)
        noise_rows = cfg.k_branches if noise_power > 0.0 else 0
        statuses = self.trajectory[start:start + self.block_slots]
        counts = [int(row.sum()) + noise_rows for row in statuses]
        below = self.rng.standard_normal(
            sum(min(i, nu) for r in counts for i in range(r))).tolist()
        diagonal = self.rng.chisquare(
            [nu - i for r in counts for i in range(min(r, nu))]).tolist()
        below.reverse()
        diagonal.reverse()
        self._block = {}
        for slot, (row_statuses, r) in enumerate(zip(statuses, counts), start):
            factor = np.zeros((r, nu))
            for i in range(r):
                for c in range(min(i, nu)):
                    factor[i, c] = below.pop()
                if i < nu:
                    factor[i, i] = math.sqrt(diagonal.pop())
            busy = r - noise_rows
            for i in range(busy):
                factor[i] *= unit_power_scale(sq_norm(factor[i]) / bins)
            factor[busy:] *= noise_scale(noise_power)
            rows = factor.view(np.complex128)
            grid = np.zeros((len(row_statuses), bins), dtype=np.complex128)
            grid[np.flatnonzero(row_statuses)] = rows[:busy]
            self._block[slot] = grid, rows[busy:] if noise_rows else None

    def sense(self, selected, slot, prior_vacancy):
        cfg = self.config
        selected = np.asarray(selected)
        if slot not in self._block:
            self._draw_block(slot)
        grid, noise = self._block[slot]
        a_sub = select_submatrix(self.matrix, selected)
        samples = a_sub @ grid[selected]
        if noise is not None:
            samples = samples + noise
        recovery_cfg = RecoveryConfig(noise_variance=noise_power_for_snr(cfg.snr_db),
                                      residual_threshold=cfg.residual_threshold)
        return reference_signal_sense(samples, a_sub, recovery_cfg, cfg.k_branches,
                                      1.0 - np.asarray(prior_vacancy)[selected])


def step_occupancy(statuses, stats, rng):
    """Advance every band's 0/1 status by one Markov transition.

    Reference for wssim.spectrum.simulate_occupancy, which must equal
    init_occupancy followed by repeated calls of this step.
    """
    if len(statuses) != stats.n_bands:
        raise ValueError("status vector length does not match band statistics")
    u = rng.random(stats.n_bands)
    return np.where(statuses == 0, u < stats.p01, u >= stats.p10).astype(np.int8)


def estimate_transition(counts):
    """Row-normalised transition estimates from one band's 2x2 counts.

    Reference for the p01_hat and p10_hat that wssim.learning.update_counts
    caches: the off-diagonal estimate is C_uv / (C_uv + C_uu) and each row
    sums to one. With the Laplace initialisation every denominator is >= 2.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (2, 2):
        raise ValueError("counts must be a 2x2 matrix")
    (c00, c01), (c10, c11) = counts.tolist()
    p01 = c01 / (c01 + c00)
    p10 = c10 / (c10 + c11)
    return np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])


# The policy loop on numpy state, one kernel per step, kept as the reference
# for the list-backed loop in wssim.learning.


def reference_update_counts(belief: BeliefState, selected: np.ndarray,
                            statuses_prev: np.ndarray,
                            statuses_now: np.ndarray) -> BeliefState:
    """Credit one observed transition per selected band.

    Both status vectors must come from successful senses of the same band
    set in consecutive slots.
    """
    selected = np.asarray(selected)
    prev = np.asarray(statuses_prev)
    now = np.asarray(statuses_now)
    if not (selected.size == prev.size == now.size):
        raise ValueError("selected and status vectors must have equal length")
    counts = belief.counts
    for band, u, v in zip(selected.tolist(), prev.tolist(), now.tolist()):
        counts[band, u, v] += 1
    belief.obs_count[selected] += 1
    return belief


def reference_refresh_estimates(belief: BeliefState, bands: np.ndarray) -> None:
    """Recompute the cached transition estimates of the given bands."""
    c = belief.counts[bands]
    belief.p01_hat[bands] = c[:, 0, 1] / (c[:, 0, 1] + c[:, 0, 0])
    belief.p10_hat[bands] = c[:, 1, 0] / (c[:, 1, 0] + c[:, 1, 1])


class ReferenceSlot(NamedTuple):
    """reference_run_policy's record of one sensing slot."""

    selected: np.ndarray        # sensed bands, ascending
    statuses: np.ndarray        # 0/1 per selected band, in band order
    xi: int                     # 1 when reconstruction failed
    throughput: int             # vacant bands reported, 0 on failure
    phase: str                  # EXPLORE or EXPLOIT


class RecordingEnvironment:
    """A sensing backend that keeps, in call order, each sense call's
    selected bands and the SenseResult the wrapped backend returned.

    wssim.learning.run_policy records only each slot's xi, throughput and
    phase; tests read the sensed sets and statuses from here.
    """

    def __init__(self, env):
        self.env = env
        self.selected = []
        self.results = []

    def sense(self, selected, slot, prior_vacancy):
        result = self.env.sense(selected, slot, prior_vacancy)
        self.selected.append(selected)
        self.results.append(result)
        return result


def reference_propagate_belief(belief: BeliefState,
                               outcome: ReferenceSlot) -> np.ndarray:
    """Advance the vacancy beliefs by one slot.

    Bands sensed in a successful slot jump to the estimated transition
    probability out of their observed state; every other band (and every
    band of a failed slot) follows the one-step prediction
    (1 - omega) * p10 + omega * p00.
    """
    p10 = belief.p10_hat
    p01 = belief.p01_hat
    omega = belief.omega
    # (1 - omega) * p10 + omega * (1 - p01), rearranged to save temporaries.
    new_omega = omega + p10 - omega * (p10 + p01)
    if outcome.xi == 0:
        sel = outcome.selected
        busy = outcome.statuses == 1
        new_omega[sel] = np.where(busy, p10[sel], 1.0 - p01[sel])
    belief.omega = new_omega
    return new_omega


def reference_exploit_select(belief: BeliefState, set_size: int,
                             k_branches: int) -> np.ndarray:
    """The set_size bands with the largest vacancy belief, ties to the
    lowest band index; returned in ascending band order."""
    if not k_branches <= set_size <= belief.n_bands:
        raise ValueError("set_size must satisfy k_branches <= set_size <= n_bands")
    order = (-belief.omega).argsort(kind="stable")
    top = order[:set_size]
    top.sort()
    return top


def reference_run_policy(cfg: ExperimentConfig, mode: str, env,
                         rng: np.random.Generator,
                         true_stats: BandStatistics | None = None,
                         belief: BeliefState | None = None) -> list[ReferenceSlot]:
    """Run one policy, mode, over the configured horizon, on numpy state.

    Reference for wssim.learning.run_policy, which must match it bit for
    bit: one loop body per phase, with the belief held in length-N numpy
    arrays and the per-slot kernels above.

    The environment supplies per-slot sensing of whichever band set the
    policy requests. IMP needs true_stats for its exact beliefs and fixed
    optimal set size; LDM and OLDM learn from scratch. A caller-supplied
    belief is updated in place, which also exposes the final learner state.
    """
    cfg.validate()
    n, k = cfg.n_bands, cfg.k_branches
    n_groups = -(-n // k)
    block_len = 2 * n_groups
    n_blocks = -(-cfg.horizon // block_len) if cfg.horizon else 0
    is_imp = mode == "IMP"

    if belief is None:
        belief = BeliefState.fresh(n)
    elif belief.n_bands != n:
        raise ValueError("belief length must equal n_bands")
    if is_imp:
        if true_stats is None:
            raise ValueError("IMP requires true band statistics")
        if true_stats.n_bands != n:
            raise ValueError("true_stats length must equal n_bands")
        belief.p01_hat = true_stats.p01.copy()
        belief.p10_hat = true_stats.p10.copy()
        belief.omega = stationary_vacancy(true_stats)
        fixed_size = optimize_size(belief.omega, k).size
    else:
        fixed_size = k
    unlock_obs = (exploration_threshold(n, k, cfg.mu, cfg.delta).observations
                  if mode == "OLDM" else None)

    group_sets = [explore_schedule(g, n, k) for g in range(n_groups)]
    outcomes: list[ReferenceSlot] = []
    t = 0
    # Last exploitation outcome, kept across consecutive exploitation blocks
    # and cleared by exploration so no pair straddles a phase change.
    prev: ReferenceSlot | None = None

    def sense_and_record(selected, phase):
        nonlocal t
        result = env.sense(selected, t, belief.omega)
        vacant = selected.size - int(result.statuses.sum())
        throughput = vacant if result.xi == 0 else 0
        outcome = ReferenceSlot(selected=selected, statuses=result.statuses,
                                xi=result.xi, throughput=throughput, phase=phase)
        outcomes.append(outcome)
        t += 1
        return outcome

    for b in range(1, n_blocks + 1):
        if t >= cfg.horizon:
            break
        explore = (not is_imp) and rng.random() < epsilon(b, cfg.exploration_coefficient)
        if explore:
            prev = None
            for sel in group_sets:
                if t >= cfg.horizon:
                    break
                first = sense_and_record(sel, EXPLORE)
                reference_propagate_belief(belief, first)
                if t >= cfg.horizon:
                    break
                second = sense_and_record(sel, EXPLORE)
                if first.xi == 0 and second.xi == 0:
                    reference_update_counts(belief, sel, first.statuses, second.statuses)
                    reference_refresh_estimates(belief, sel)
                reference_propagate_belief(belief, second)
        else:
            if is_imp:
                set_size = fixed_size
            elif mode == "OLDM" and int(belief.obs_count.min()) >= unlock_obs:
                set_size = optimize_size(belief.vacancy_estimates(), k).size
            else:
                set_size = k
            for _ in range(block_len):
                if t >= cfg.horizon:
                    break
                sel = reference_exploit_select(belief, set_size, k)
                outcome = sense_and_record(sel, EXPLOIT)
                # Transition evidence is credited only from same-set pairs of
                # sets no larger than the branch count: success is then
                # unconditional, whereas for larger sets conditioning on a
                # successful reconstruction censors high busy counts and
                # biases the vacancy estimates upward.
                if (not is_imp and prev is not None
                        and sel.size <= k
                        and prev.xi == 0 and outcome.xi == 0
                        and prev.selected.size == sel.size
                        and bool((prev.selected == sel).all())):
                    reference_update_counts(belief, sel, prev.statuses, outcome.statuses)
                    reference_refresh_estimates(belief, sel)
                reference_propagate_belief(belief, outcome)
                prev = outcome
    return outcomes


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
