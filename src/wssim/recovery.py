"""Reconstruction and sensing of the selected bands.

Two modes are provided. Oracle sensing applies the busy-count feasibility
rule directly to ground-truth statuses. Signal sensing recovers the band
spectra from sub-Nyquist samples (least squares when the system is square
or overdetermined, greedy Bayesian support search otherwise), runs an
energy detector, and declares reconstruction failure from the detected
busy count and the relative fit residual. Both return a SenseResult.

Signal power is the unit: a busy band's mean per-bin power is 1, and the
per-bin noise power of an SNR is 10^(-SNR/10) (sensing.noise_power_for_snr).
The model floors _MODEL_FLOOR (the search's noise variance) and
_DETECT_FLOOR (the detector's noise level) are therefore absolute.

A SensingPlan is the one way set-level inputs reach signal_sense and
fbmp_recover. It is a view of a SupportTable: the table holds the K x N
sensing matrix and the RecoveryConfig, and the plan adds the selected
bands, their K x m sub-matrix and what follows from those alone, not from
the slot's samples or priors. Besides the plan, those calls take only the
slot's samples and busy priors (and fbmp_recover its search depth), so a
caller sensing the same set again passes the same plan back in.

The search scores each support S from Phi_S^-1 and log det Phi_S, which
a SupportTable keeps keyed by the sorted tuple of S's absolute bands, at
most _MAX_SUPPORTS rows (emptied when full); a SignalEnvironment shares
one table among all its sets. Scores are products with the cached
inverse, not solves, so they can differ from per-slot factorisation in
the last bits, and only supports whose scores are that close could rank
differently. Still exact: given the chosen support, the posterior mean
(its own solve), the statuses and the residual match the
one-support-at-a-time search bit for bit, and the direct path (least
squares) and the detector are unchanged.

SciPy is imported only by the energy detector's chi-square quantile, on
its first evaluation, so oracle runs never load it. A signal-mode
ExperimentConfig.validate() evaluates that quantile, which keeps the
import (about 0.3 s) in set-up and out of the slot loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .sensing import select_submatrix

# Absolute noise-variance floors keeping the Gaussian model and the energy
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
    """Knobs of the signal-mode recovery chain, checked once when built
    (NaN fails every check, and none imports SciPy). noise_variance is per
    bin, in units of the signal power."""

    noise_variance: float = 0.0
    search_breadth: int = 5
    energy_fa_rate: float = 0.05
    residual_threshold: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and nonnegative")
        if self.search_breadth < 1:
            raise ValueError("search_breadth must be at least 1")
        if not 0.0 < self.energy_fa_rate < 1.0:
            raise ValueError("energy_fa_rate must lie in (0, 1)")
        if not self.residual_threshold > 0.0:
            raise ValueError("residual_threshold must be positive")


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


def _support_covariances(a_sub: np.ndarray, supports: np.ndarray, sig_n: float):
    """Measurement covariances of busy sets and their log-determinants.

    supports is a (C, s) index array of C supports of equal size s (s = 0
    is the empty support). The active bands are modelled as zero-mean
    complex Gaussian with unit per-bin variance, so the measurement
    covariance per bin is Phi = sig_n * I + A_S A_S^T. Returns the
    (C, k, k) stack of Phi, built with one batched matmul, and log det Phi
    from one stacked Cholesky factorisation.
    """
    k = a_sub.shape[0]
    # (C, k, s) with every k x s block C-contiguous, the layout of
    # a_sub[:, support] for a single support.
    a_s = np.ascontiguousarray(a_sub[:, supports].transpose(1, 0, 2))
    phi = sig_n * np.eye(k) + (a_s @ a_s.transpose(0, 2, 1))
    chol = np.linalg.cholesky(phi)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return phi, logdet


def _conditional_mean(samples: np.ndarray, a_sub: np.ndarray,
                      active: tuple[int, ...], sig_n: float) -> np.ndarray:
    """Posterior-mean spectra given the support; inactive rows are zero."""
    m = a_sub.shape[1]
    x_hat = np.zeros((m, samples.shape[1]), dtype=np.complex128)
    if active:
        a_s = a_sub[:, list(active)]
        phi = sig_n * np.eye(a_sub.shape[0]) + (a_s @ a_s.T)
        x_hat[list(active)] = a_s.T @ np.linalg.solve(phi, samples)
    return x_hat


def _residual_ratio(samples: np.ndarray, fitted: np.ndarray) -> float:
    z_norm = np.linalg.norm(samples)
    if z_norm == 0.0:
        return 0.0
    return float(np.linalg.norm(samples - fitted) / z_norm)


# Rows a SupportTable keeps before it starts over: every support of at most
# 4 of 16 bands (2,517 rows, about 1.3 MiB at 8 branches) fits.
_MAX_SUPPORTS = 4096


class SupportTable:
    """Phi_S^-1 and log det Phi_S of busy sets S, keyed by absolute bands.

    matrix is the K x N sensing matrix and cfg the recovery config; sig_n
    is the search's model noise variance, cfg.noise_variance floored at
    _MODEL_FLOOR. A key is the sorted tuple of a support's columns of
    matrix (its bands), () being the empty support. Phi_S = sig_n * I +
    A_S A_S^T depends on those bands alone, not on the set they were
    sensed in, so all plans over one table share its rows. A lookup
    computes its missing rows with one _support_covariances call per
    support size and one stacked inverse, and keeps them. Each row is a
    function of its key alone (stacked LAPACK calls treat every matrix as
    a single call would), so a lookup returns the same bits whatever the
    table held before. A lookup that would take the table past
    _MAX_SUPPORTS rows empties it first.
    """

    def __init__(self, matrix: np.ndarray, cfg: RecoveryConfig):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        self.matrix = matrix
        self.cfg = cfg
        self.sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR)
        k = matrix.shape[0]
        self._rows: dict[tuple[int, ...], int] = {}
        self._inv = np.empty((0, k, k))
        self._logdet = np.empty(0)

    def __len__(self) -> int:
        return len(self._rows)

    def lookup(self, keys: Sequence[tuple[int, ...]]):
        """The (C, K, K) stack of Phi^-1 and the (C,) log det Phi of C keys."""
        rows = self._rows
        missing = [key for key in keys if key not in rows]
        if missing:
            if len(rows) + len(missing) > _MAX_SUPPORTS:
                rows.clear()
                missing = keys
            self._add(list(dict.fromkeys(missing)))
        index = [rows[key] for key in keys]
        return self._inv[index], self._logdet[index]

    def _add(self, keys: list[tuple[int, ...]]) -> None:
        """Compute and keep the rows of distinct keys not in the table."""
        start = len(self._rows)
        stop = start + len(keys)
        if stop > len(self._logdet):
            # Storage doubles up to the cap; only a lookup larger than the
            # cap takes it beyond.
            size = max(stop, min(2 * len(self._logdet) or 64, _MAX_SUPPORTS))
            inv, logdet = np.empty((size,) + self._inv.shape[1:]), np.empty(size)
            inv[:start], logdet[:start] = self._inv[:start], self._logdet[:start]
            self._inv, self._logdet = inv, logdet
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for key in keys:
            by_size.setdefault(len(key), []).append(key)
        stacks = [_support_covariances(
                      self.matrix, np.array(group, dtype=np.intp).reshape(len(group), size),
                      self.sig_n)
                  for size, group in by_size.items()]
        phi, logdet = (np.concatenate(parts) for parts in zip(*stacks))
        self._inv[start:stop] = np.linalg.inv(phi)
        self._logdet[start:stop] = logdet
        ordered = [key for group in by_size.values() for key in group]
        self._rows.update(zip(ordered, range(start, stop)))


class SensingPlan:
    """Everything signal sensing of one band set takes besides the slot.

    A plan is a view of table, the SupportTable the search scores from:
    the recovery config and the sensing matrix are the table's, and a
    SignalEnvironment's plans all share its one table. bands are the set's
    bands in selection order. a_sub is the set's K x m sensing sub-matrix,
    select_submatrix(table.matrix, bands), in the memory layout per-slot
    code gets, so that products with it match that code bit for bit;
    column j is column bands[j] of the matrix, and K is its row count.

    band_noise (direct path, m <= K) is built on first use and read on
    every later slot: the energy detector's per-band noise
    max(noise_variance * diag((A_S^T A_S)^-1), _DETECT_FLOOR). Least
    squares colours the noise, so each band is thresholded at its
    post-inversion noise level.
    """

    def __init__(self, table: SupportTable, bands: Sequence[int]):
        self.table = table
        self.bands = tuple(map(int, bands))
        self.a_sub = select_submatrix(table.matrix, self.bands)
        self.band_index = np.array(self.bands, dtype=np.intp)
        self.position = {band: j for j, band in enumerate(self.bands)}

    @functools.cached_property
    def band_noise(self) -> np.ndarray:
        gram_inv_diag = np.diag(np.linalg.inv(self.a_sub.T @ self.a_sub))
        return np.maximum(self.table.cfg.noise_variance * gram_inv_diag, _DETECT_FLOOR)


def _table_scores(table: SupportTable, keys, szz: np.ndarray, n_bins: int,
                  log_prior) -> np.ndarray:
    """Log posterior (up to a support-independent constant) of busy sets.

    keys are table keys and log_prior their log prior probabilities; szz
    is Re(S_zz) flattened. Phi^-1 is real symmetric and S_zz Hermitian, so
    each quadratic form trace(Phi^-1 S_zz) is the dot product of Phi^-1
    with Re(S_zz), and all C of them are one (C, K*K) matrix-vector
    product.
    """
    inv, logdet = table.lookup(keys)
    quad = inv.reshape(len(keys), -1) @ szz
    return -n_bins * logdet - quad + log_prior


def fbmp_recover(z, plan: SensingPlan, gamma: int, prior_activity=0.5):
    """Greedy maximum-a-posteriori search over busy-band supports.

    Supports grow one band at a time; the best plan.table.cfg.search_breadth
    candidates per size survive, up to size gamma. prior_activity is the
    per-band prior probability of being busy (a scalar or one entry per
    selected band). Candidates are sorted tuples of the plan's bands.
    Every level, the empty support and the singletons being the first,
    is scored from one plan.table lookup (_table_scores). These scores can
    differ in the last bits from scoring each support with its own solve,
    so supports whose scores tie to those bits could rank differently. A
    stable sort ranks each level, so score ties go to the candidate
    generated first. Returns the binary support estimate, the
    posterior-mean spectra of the best support (from a solve, exactly as
    the one-support-at-a-time search computes them) and the relative
    residual of the fit.
    """
    samples = np.asarray(z)
    bands, table = plan.bands, plan.table
    m = len(bands)
    n_bins = samples.shape[1]
    if not 0 <= gamma <= m:
        raise ValueError("gamma must lie in [0, set size]")
    breadth = table.cfg.search_breadth
    base_prior, prior_gain = _prior_log_odds(prior_activity, m)
    szz = (samples @ samples.conj().T).real.ravel()
    # The prior log-odds indexed by band rather than by selection position.
    band_gain = np.zeros(table.matrix.shape[1])
    band_gain[plan.band_index] = prior_gain

    first = [()] + [(band,) for band in bands]
    first_scores = _table_scores(table, first, szz, n_bins, np.concatenate(
        ([base_prior], base_prior + prior_gain))).tolist()
    best_active: tuple[int, ...] = ()
    best_score = first_scores[0]
    frontier = [()]
    level, level_scores = first[1:], first_scores[1:]
    for depth in range(gamma):
        if depth:
            # Distinct candidates in first-seen order; the stable sort
            # below then breaks score ties by that order.
            level = list(dict.fromkeys(tuple(sorted(active + (band,)))
                                       for active in frontier
                                       for band in bands if band not in active))
            if not level:
                break
            supports = np.array(level, dtype=np.intp)
            level_scores = _table_scores(
                table, level, szz, n_bins,
                base_prior + band_gain[supports].sum(axis=1)).tolist()
        ranked = sorted(zip(level, level_scores), key=lambda item: -item[1])
        frontier = [active for active, _ in ranked[:breadth]]
        if ranked[0][1] > best_score:
            best_active, best_score = ranked[0]

    active = tuple(sorted(plan.position[band] for band in best_active))
    x_hat = _conditional_mean(samples, plan.a_sub, active, table.sig_n)
    ratio = _residual_ratio(samples, plan.a_sub @ x_hat)
    support = np.zeros(m, dtype=np.int8)
    support[list(active)] = 1
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
    signal run loads SciPy and fills the cache during set-up. Both get
    their energy_fa_rate checks here: it must lie in (0, 1), and it is
    rejected when 1 - energy_fa_rate rounds to 1 (energy_fa_rate = 1e-17),
    which makes the quantile, and with it the threshold, infinite.
    """
    if not 0.0 < energy_fa_rate < 1.0:
        raise ValueError("energy_fa_rate must lie in (0, 1)")
    quantile = _chi2_quantile(1.0 - energy_fa_rate, 2 * n_bins)
    if not math.isfinite(quantile):
        raise ValueError(
            f"energy_fa_rate = {energy_fa_rate!r} is too small: "
            "1 - energy_fa_rate rounds to 1, so the detection threshold "
            "is not finite")
    return quantile


def energy_detect(spectra: np.ndarray, noise_variance, energy_fa_rate: float) -> np.ndarray:
    """Declare bands busy whose energy exceeds the noise-only quantile.

    Under noise alone a band's energy is (noise_variance / 2) times a
    chi-square variable with 2 * bins degrees of freedom; the threshold is
    its (1 - energy_fa_rate) quantile, per band when noise_variance is a
    vector. The quantile is computed once per (1 - energy_fa_rate,
    2 * bins) and cached, so repeated calls return the same threshold bits
    without re-running the inverse distribution function. The first
    computation imports scipy.special; in a run, the config's validate()
    has already made it. detection_quantile rejects an energy_fa_rate
    outside (0, 1) or too small for a finite threshold.
    """
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
    residual exceeds the config's residual_threshold.
    """
    samples = np.asarray(z)
    a_sub, cfg = plan.a_sub, plan.table.cfg
    k, m = a_sub.shape
    limit = gamma_threshold(m, k)
    if m <= k:
        x_hat = direct_solve(samples, a_sub)
        statuses = energy_detect(x_hat, plan.band_noise, cfg.energy_fa_rate)
        ratio = _residual_ratio(samples, a_sub @ x_hat)
        xi = 0
    else:
        _, x_hat, ratio = fbmp_recover(samples, plan, limit, prior_activity)
        statuses = energy_detect(x_hat, max(cfg.noise_variance, _DETECT_FLOOR),
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
