"""Reconstruction and sensing of the selected bands.

Two modes are provided. Oracle sensing applies the busy-count feasibility
rule directly to ground-truth statuses. Signal sensing recovers the band
spectra from sub-Nyquist samples (least squares when the system is square
or overdetermined, greedy Bayesian support search otherwise), runs an
energy detector, and declares reconstruction failure from the detected
busy count and the relative fit residual. Both return a SenseResult.

A SensingPlan is the one way set-level inputs reach signal_sense and
fbmp_recover: the selected set's K x m sensing sub-matrix, the
RecoveryConfig, and what follows from those two alone, not from the
slot's samples or priors. Besides the plan, those calls take only the
slot's samples and busy priors (and fbmp_recover its search depth), so a
caller sensing the same set again passes the same plan back in. A plan
computes its values with the same expressions, operands and memory
layouts as the per-slot code, and the per-slot solve is kept rather than
replaced by a product with a cached inverse, so every score, status and
residual is bit-identical to computing all of it on every slot.

SciPy is imported only by the energy detector's chi-square quantile, on
its first evaluation, so oracle runs never load it. A signal-mode
ExperimentConfig.validate() evaluates that quantile, which keeps the
import (about 0.3 s) in set-up and out of the slot loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Relative noise-variance floors keeping the Gaussian model and the energy
# threshold well defined when the configured noise power is exactly zero.
_MODEL_FLOOR = 1e-10
_DETECT_FLOOR = 1e-12


class SenseResult(NamedTuple):
    """Outcome of sensing one selected band set, in either mode."""

    statuses: Sequence[int]   # 0/1 per selected band, selection order
    xi: int                   # 1 when reconstruction failed
    residual_ratio: float | None = None   # signal mode only


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the signal-mode recovery chain, checked once when built."""

    signal_variance: float = 1.0
    noise_variance: float = 0.0
    search_breadth: int = 5
    energy_fa_rate: float = 0.05
    residual_threshold: float = 0.1

    def __post_init__(self):
        if not self.signal_variance > 0.0:
            raise ValueError("signal_variance must be positive")
        if self.search_breadth < 1:
            raise ValueError("search_breadth must be at least 1")


def gamma_threshold(set_size: int, k_branches: int) -> int:
    """Largest busy count still recoverable for a given selected-set size."""
    if set_size < 1 or k_branches < 1:
        raise ValueError("set_size and k_branches must be at least 1")
    return set_size if set_size <= k_branches else k_branches // 2


def oracle_sense(true_statuses, k_branches: int) -> SenseResult:
    """Apply the busy-count feasibility rule to ground-truth statuses.

    true_statuses is a 0/1 list of ints or int8 array, reported as given:
    when xi = 1 they are flagged unusable and the caller must not learn
    from them. The busy count is a sum of Python ints, exact at any
    length, where a sum of int8 values would wrap past 127.
    """
    if isinstance(true_statuses, np.ndarray):
        busy = sum(true_statuses.tolist())
    else:
        busy = sum(true_statuses)
    xi = 0 if busy <= gamma_threshold(len(true_statuses), k_branches) else 1
    return SenseResult(true_statuses, xi)


def direct_solve(z, a_sub: np.ndarray) -> np.ndarray:
    """Per-bin least-squares recovery for set sizes up to the branch count."""
    samples = np.asarray(z)
    a_sub = np.asarray(a_sub, dtype=float)
    k, m = a_sub.shape
    if m > k:
        raise ValueError("direct solve requires at most k_branches selected bands")
    solution, _, rank, _ = np.linalg.lstsq(a_sub, samples, rcond=None)
    if rank < m:
        raise np.linalg.LinAlgError("sensing sub-matrix is numerically singular")
    return solution


def _prior_log_odds(prior_activity, m: int):
    """sum(log(1 - q)) and per-band log(q / (1 - q)) of the busy priors q.

    q is prior_activity broadcast to m bands and clipped to [1e-9, 1 - 1e-9]
    by two ufuncs writing one fresh array: the bits of np.broadcast_to and
    np.clip, without their Python-level wrappers.
    """
    q = np.empty(m)
    np.maximum(np.asarray(prior_activity, dtype=float), 1e-9, out=q)
    np.minimum(q, 1.0 - 1e-9, out=q)
    log_q = np.log(q)
    log_1q = np.log1p(-q)
    return np.add.reduce(log_1q), log_q - log_1q


def _support_covariances(a_sub: np.ndarray, supports: np.ndarray,
                         sig_s: float, sig_n: float):
    """Measurement covariances of busy sets and their log-determinants.

    supports is a (C, s) index array of C supports of equal size s (s = 0
    is the empty support). The active bands are modelled as zero-mean
    complex Gaussian with per-bin variance sig_s, so the measurement
    covariance per bin is Phi = sig_n * I + sig_s * A_S A_S^T. Returns the
    (C, k, k) stack of Phi, built with one batched matmul, and log det Phi
    from one stacked Cholesky factorisation.
    """
    k = a_sub.shape[0]
    # (C, k, s) with every k x s block C-contiguous, the layout of
    # a_sub[:, support] for a single support.
    a_s = np.ascontiguousarray(a_sub[:, supports].transpose(1, 0, 2))
    phi = sig_n * np.eye(k) + sig_s * (a_s @ a_s.transpose(0, 2, 1))
    chol = np.linalg.cholesky(phi)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return phi, logdet


def _scores_from(phi: np.ndarray, logdet: np.ndarray, szz: np.ndarray,
                 n_bins: int, log_prior) -> np.ndarray:
    """Log posterior of each support from its covariance and log-determinant.

    The likelihood factorises over bins; the quadratic form of all C
    matrices comes from one stacked solve against szz.
    """
    quad = np.trace(np.linalg.solve(phi, szz), axis1=1, axis2=2).real
    return -n_bins * logdet - quad + log_prior


def _support_scores(szz: np.ndarray, n_bins: int, a_sub: np.ndarray,
                    supports: np.ndarray, sig_s: float, sig_n: float,
                    base_prior: float, prior_gain: np.ndarray) -> np.ndarray:
    """Log posterior (up to a support-independent constant) of busy sets.

    supports is a (C, s) index array of C supports of equal size s (s = 0
    scores the empty support); the result holds one score per row. All C
    matrices Phi are built with one batched matmul, factorised with one
    stacked Cholesky and solved against szz with one stacked solve.
    Stacked LAPACK calls run the same routine once per matrix, on the same
    per-matrix memory layout as a single call, so each score is
    bit-identical to scoring its support on its own, in any stack.
    """
    phi, logdet = _support_covariances(a_sub, supports, sig_s, sig_n)
    log_prior = base_prior + prior_gain[supports].sum(axis=1) \
        if supports.shape[1] else base_prior
    return _scores_from(phi, logdet, szz, n_bins, log_prior)


def _conditional_mean(samples: np.ndarray, a_sub: np.ndarray,
                      active: tuple[int, ...], sig_s: float,
                      sig_n: float) -> np.ndarray:
    """Posterior-mean spectra given the support; inactive rows are zero."""
    m = a_sub.shape[1]
    x_hat = np.zeros((m, samples.shape[1]), dtype=np.complex128)
    if active:
        a_s = a_sub[:, list(active)]
        phi = sig_n * np.eye(a_sub.shape[0]) + sig_s * (a_s @ a_s.T)
        x_hat[list(active)] = sig_s * (a_s.T @ np.linalg.solve(phi, samples))
    return x_hat


def _residual_ratio(samples: np.ndarray, fitted: np.ndarray) -> float:
    z_norm = np.linalg.norm(samples)
    if z_norm == 0.0:
        return 0.0
    return float(np.linalg.norm(samples - fitted) / z_norm)


class _FirstLevels(NamedTuple):
    """The greedy search's first two levels, as a SensingPlan keeps them."""

    supports: list[tuple[int, ...]]   # level 1: (0,), (1,), ..., (m - 1,)
    index: np.ndarray                 # level 1 as an (m, 1) support array
    phi: np.ndarray                   # (m + 1, k, k): empty support, then level 1
    logdet: np.ndarray                # (m + 1,) log det of each phi


class SensingPlan:
    """Everything signal sensing of one band set takes besides the slot.

    a_sub is the set's K x m sensing sub-matrix, kept as given, in
    select_submatrix's memory layout, so that products with it match the
    per-slot code bit for bit; K is its row count. cfg is the recovery
    config. sig_s and sig_n are the search's model variances. The two
    recovery paths' parts are built on first use and read on every later
    slot:

    - band_noise (direct path, m <= K): the energy detector's per-band
      noise max(noise_variance * diag((A_S^T A_S)^-1), floor). Least
      squares colours the noise, so each band is thresholded at its
      post-inversion noise level.
    - first_levels (search path): the covariances Phi and log det Phi of
      the empty support followed by the m singletons in band order, built
      by _support_covariances exactly as a level is built per slot and
      stacked, so _first_level_scores scores both levels with one stacked
      solve.
    """

    def __init__(self, a_sub: np.ndarray, cfg: RecoveryConfig):
        a_sub = np.asarray(a_sub, dtype=float)
        if a_sub.ndim != 2:
            raise ValueError("a_sub must be two-dimensional")
        self.a_sub = a_sub
        self.cfg = cfg
        self.sig_s = float(cfg.signal_variance)
        self.sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR * self.sig_s)
        self.detect_floor = _DETECT_FLOOR * self.sig_s

    @functools.cached_property
    def band_noise(self) -> np.ndarray:
        gram_inv_diag = np.diag(np.linalg.inv(self.a_sub.T @ self.a_sub))
        return np.maximum(self.cfg.noise_variance * gram_inv_diag, self.detect_floor)

    @functools.cached_property
    def first_levels(self) -> _FirstLevels:
        m = self.a_sub.shape[1]
        index = np.arange(m, dtype=np.intp).reshape(m, 1)
        levels = [_support_covariances(self.a_sub, supports, self.sig_s, self.sig_n)
                  for supports in (np.empty((1, 0), dtype=np.intp), index)]
        phi, logdet = (np.concatenate(parts) for parts in zip(*levels))
        return _FirstLevels([(j,) for j in range(m)], index, phi, logdet)


def _first_level_scores(first: _FirstLevels, szz: np.ndarray, n_bins: int,
                        base_prior: float, prior_gain: np.ndarray) -> np.ndarray:
    """Scores of the empty support and of every singleton, in that order.

    One stacked solve against szz; each score is bit-identical to the
    _support_scores call of its own level.
    """
    log_prior = np.concatenate(
        ([base_prior], base_prior + prior_gain[first.index].sum(axis=1)))
    return _scores_from(first.phi, first.logdet, szz, n_bins, log_prior)


def fbmp_recover(z, plan: SensingPlan, gamma: int, prior_activity=0.5):
    """Greedy maximum-a-posteriori search over busy-band supports.

    Supports grow one band at a time; the best plan.cfg.search_breadth
    candidates per size survive, up to size gamma. prior_activity is the
    per-band prior probability of being busy (a scalar or one entry per
    selected band). The empty support and the singletons are scored
    together from the plan's stacked covariances with one stacked solve;
    each deeper level's distinct candidates are scored together in one
    stacked factorisation (_support_scores). A stable sort ranks each
    level, so score ties go to the candidate generated first. The scores
    are bit-identical to scoring one support at a time, so the search
    picks the same support. Returns the binary support estimate, the
    posterior-mean spectra of the best support, and the relative residual
    of the fit.
    """
    samples = np.asarray(z)
    a_sub = plan.a_sub
    _, m = a_sub.shape
    n_bins = samples.shape[1]
    if not 0 <= gamma <= m:
        raise ValueError("gamma must lie in [0, set size]")
    sig_s, sig_n = plan.sig_s, plan.sig_n
    breadth = plan.cfg.search_breadth
    base_prior, prior_gain = _prior_log_odds(prior_activity, m)
    szz = samples @ samples.conj().T

    def scores(level):
        supports = np.array(level, dtype=np.intp).reshape(len(level), -1)
        return _support_scores(szz, n_bins, a_sub, supports, sig_s, sig_n,
                               base_prior, prior_gain).tolist()

    first = plan.first_levels
    first_scores = _first_level_scores(first, szz, n_bins, base_prior,
                                       prior_gain).tolist()
    best_active: tuple[int, ...] = ()
    best_score = first_scores[0]
    frontier = [()]
    level, level_scores = first.supports, first_scores[1:]
    for depth in range(gamma):
        if depth:
            # Distinct candidates in first-seen order; the stable sort
            # below then breaks score ties by that order.
            level = list(dict.fromkeys(tuple(sorted(active + (j,)))
                                       for active in frontier
                                       for j in range(m) if j not in active))
            if not level:
                break
            level_scores = scores(level)
        ranked = sorted(zip(level, level_scores), key=lambda item: -item[1])
        frontier = [active for active, _ in ranked[:breadth]]
        if ranked[0][1] > best_score:
            best_active, best_score = ranked[0]

    x_hat = _conditional_mean(samples, a_sub, best_active, sig_s, sig_n)
    ratio = _residual_ratio(samples, a_sub @ x_hat)
    support = np.zeros(m, dtype=np.int8)
    support[list(best_active)] = 1
    return support, x_hat, ratio


@functools.lru_cache(maxsize=64)
def _chi2_quantile(prob: float, dof: int) -> float:
    """The prob quantile of a chi-square law with dof degrees of freedom.

    A chi-square variable is twice a Gamma(dof / 2) variable, so this is
    the expression scipy.stats.chi2.ppf evaluates, without importing
    scipy.stats. scipy.special is imported here rather than with the
    module, so only runs that detect energy pay for it; behind the cache,
    the import statement runs once per distinct (prob, dof).
    """
    from scipy.special import gammaincinv
    return 2.0 * gammaincinv(dof / 2.0, prob)


def detection_quantile(energy_fa_rate: float, n_bins: int) -> float:
    """The energy detector's chi-square quantile for bands of n_bins bins.

    energy_detect scales this by noise_variance / 2 to get its threshold;
    ExperimentConfig.validate() calls it with the same arguments, so a
    signal run loads SciPy and fills the cache during set-up.
    """
    return _chi2_quantile(1.0 - energy_fa_rate, 2 * n_bins)


def energy_detect(spectra: np.ndarray, noise_variance, energy_fa_rate: float) -> np.ndarray:
    """Declare bands busy whose energy exceeds the noise-only quantile.

    Under noise alone a band's energy is (noise_variance / 2) times a
    chi-square variable with 2 * bins degrees of freedom; the threshold is
    its (1 - energy_fa_rate) quantile, per band when noise_variance is a
    vector. The quantile is computed once per (1 - energy_fa_rate,
    2 * bins) and cached, so repeated calls return the same threshold bits
    without re-running the inverse distribution function. The first
    computation imports scipy.special; in a run, the config's validate()
    has already made it.
    """
    if not 0.0 < energy_fa_rate < 1.0:
        raise ValueError("energy_fa_rate must lie in (0, 1)")
    spectra = np.asarray(spectra)
    if spectra.ndim != 2:
        raise ValueError("spectra must be a bands x bins matrix")
    n_bins = spectra.shape[1]
    energies = np.sum(np.abs(spectra) ** 2, axis=1)
    threshold = 0.5 * np.asarray(noise_variance, dtype=float) \
        * detection_quantile(energy_fa_rate, n_bins)
    return (energies > threshold).astype(np.int8)


def signal_sense(z, plan: SensingPlan, prior_activity=0.5) -> SenseResult:
    """Full signal-mode sensing: recover, detect, and flag failure.

    Set sizes up to the branch count K (the plan's row count) are solved
    exactly and always succeed; larger sets go through the greedy support
    search with prior_activity as the busy prior, and fail when the
    detected busy count exceeds the recoverable limit or the relative
    residual exceeds plan.cfg.residual_threshold.
    """
    samples = np.asarray(z)
    a_sub, cfg = plan.a_sub, plan.cfg
    k, m = a_sub.shape
    limit = gamma_threshold(m, k)
    if m <= k:
        x_hat = direct_solve(samples, a_sub)
        statuses = energy_detect(x_hat, plan.band_noise, cfg.energy_fa_rate)
        ratio = _residual_ratio(samples, a_sub @ x_hat)
        xi = 0
    else:
        _, x_hat, ratio = fbmp_recover(samples, plan, limit, prior_activity)
        statuses = energy_detect(x_hat, max(cfg.noise_variance, plan.detect_floor),
                                 cfg.energy_fa_rate)
        # The raw residual of a correct fit still contains the measurement
        # noise, so the failure statistic discounts the expected noise
        # energy (plus a four-sigma guard band) before thresholding; with
        # zero noise it reduces to the raw residual ratio.
        z_energy = float(np.sum(np.abs(samples) ** 2))
        n_terms = samples.size
        noise_guard = (n_terms + 4.0 * np.sqrt(n_terms)) * cfg.noise_variance
        excess = max(0.0, ratio ** 2 * z_energy - noise_guard)
        excess_ratio = np.sqrt(excess / z_energy) if z_energy > 0.0 else 0.0
        xi = 1 if (int(statuses.sum()) > limit
                   or excess_ratio > cfg.residual_threshold) else 0
    return SenseResult(statuses=statuses, xi=xi, residual_ratio=ratio)
