"""Reconstruction and sensing of the selected bands.

Two modes are provided. Oracle sensing applies the busy-count feasibility
rule directly to ground-truth statuses. Signal sensing recovers the band
energies of a slot (least squares when the system is square or
overdetermined, exact Bayesian MAP support search otherwise), runs an
energy detector on them and, on the search path, declares reconstruction
failure from the detected busy count and the relative fit residual. Both
return a SenseResult.

Signal power is the unit: a busy band's mean per-bin power is 1, and the
per-bin noise power of an SNR is 10^(-SNR/10) (sensing.noise_power_for_snr).
The model floors _MODEL_FLOOR (the search's noise variance) and
_DETECT_FLOOR (the detector's noise level) are therefore absolute.

Signal recovery reads a slot only through its sample Gram
S_yy = Re(Z Z^H), the K x K Gram of the real view Y (K x 2 * bins) of the
slot's complex samples Z: the support scores take trace(Phi_S^-1 S_yy),
an estimate x = G Y has band energies diag(G S_yy G^T), the residual
||Y - A_S x||^2 is tr(F S_yy F^T) with F = I - A_S G, and ||Y||^2 is
tr(S_yy). So signal_sense and fbmp_recover take S_yy, never samples.
Callers holding samples form it with sample_gram; a SignalEnvironment
builds it from its random draws (see experiments). The bin count is
RecoveryConfig.bins_per_band. Gram-domain values differ from
sample-domain ones in the last bits, and where the true value is 0 they
are rounding of about eps times the Gram's size rather than eps^2. So the
residual ratio of an exact fit is about sqrt(eps) (1e-8), not 0; near the
residual threshold the two agree to about eps / ratio. And the direct
path's energy of a band absent from the samples is such rounding, which
without noise exceeds the detector's absolute threshold, so it is also
compared with a floor relative to tr(S_yy) (_GRAM_FLOOR).

A SensingPlan is the one way set-level inputs reach signal_sense and
fbmp_recover. It is a view of a SupportTable: the table holds the K x N
sensing matrix and the RecoveryConfig, and the plan adds the selected
bands, their K x m sub-matrix and what follows from those alone, not from
the slot's Gram or priors. Besides the plan, those calls take only the
slot's S_yy and busy priors (and fbmp_recover its search depth), so a
caller sensing the same set again passes the same plan back in.

The search is exact: it scores every support of at most gamma of the
set's bands and keeps the first maximum a posteriori one in (size,
lexicographic) order over selection positions. A SupportTable holds
Phi_S^-1, log det Phi_S and the posterior-mean operator
G_S = (A_S^T A_S + sig_n I)^-1 A_S^T of every support of at most K // 2
of the N bands, indexed by colex rank and built eagerly, once per
replication, for every policy; support_count caps it at _MAX_SUPPORTS
rows. Scores are products with the cached inverses, not solves, so they
can differ from per-slot factorisation in the last bits, and only
supports whose scores are that close could rank differently.

No slot factorises anything. The direct path's band energies are
diag(L S_yy L^T), with L the plan's cached least-squares operator (the
pseudo-inverse direct_solve also builds), and the search's are
diag(G_S S_yy G_S^T) for the chosen support. Each plan caches its detector
threshold. The direct path always succeeds and computes no residual.

SciPy is imported only by the energy detector's chi-square quantile, on
its first evaluation, so oracle runs never load it. A signal-mode
ExperimentConfig.validate() evaluates that quantile, which keeps the
import (about 0.3 s) in set-up and out of the slot loop; a plan reads it
from the cache when it first computes its threshold.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .sensing import select_submatrix
from .spectrum import check_bins_per_band

# Absolute noise-variance floors keeping the Gaussian model and the energy
# threshold well defined when the configured noise power is exactly zero.
_MODEL_FLOOR = 1e-10
_DETECT_FLOOR = 1e-12
# The direct path's energy l_j S_yy l_j^T of a band absent from the samples
# is rounding of about eps * tr(S_yy) * ||l_j||^2 (at most 0.36 times that
# in noiseless 8/4 and 16/8 runs; busy bands at least 1e9 times it), so
# energies up to _GRAM_FLOOR times that read vacant. The floor binds only
# when the noise power is below about 1e-12 of the signal power.
_GRAM_FLOOR = 1e-12


class SenseResult(NamedTuple):
    """Outcome of sensing one selected band set, in either mode."""

    statuses: Sequence[int]   # 0/1 per selected band, selection order
    xi: int                   # 1 when reconstruction failed
    residual_ratio: float | None = None   # signal mode only


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the signal-mode recovery chain, checked once when built
    (NaN fails every check, and none imports SciPy). noise_variance is per
    bin, in units of the signal power; bins_per_band is the bin count of
    the samples whose Gram signal_sense reads."""

    noise_variance: float = 0.0
    energy_fa_rate: float = 0.05
    residual_threshold: float = 0.1
    bins_per_band: int = 64

    def __post_init__(self):
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and nonnegative")
        if not 0.0 < self.energy_fa_rate < 1.0:
            raise ValueError("energy_fa_rate must lie in (0, 1)")
        if not self.residual_threshold > 0.0:
            raise ValueError("residual_threshold must be positive")
        check_bins_per_band(self.bins_per_band)


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


def sample_gram(z) -> np.ndarray:
    """S_yy = Re(Z Z^H) of (K, bins) complex samples Z: the K x K Gram of
    their real view, which is all signal_sense and fbmp_recover read of a
    slot."""
    samples = np.asarray(z)
    return np.ascontiguousarray((samples @ samples.conj().T).real)


def _real_view(spectra) -> np.ndarray:
    """A (rows, bins) complex array as (rows, 2 * bins) float64, each
    value's real part next to its imaginary part; no copy when spectra is
    already C-contiguous complex128."""
    return np.ascontiguousarray(spectra, dtype=np.complex128).view(np.float64)


def _least_squares_operator(a_sub: np.ndarray) -> np.ndarray:
    """The m x K least-squares operator (pseudo-inverse) of a K x m
    sub-matrix with m <= K, from its SVD.

    np.linalg.lstsq's rank rule: singular values at most
    eps * max(K, m) * s_max count as zero, and any such one raises a
    LinAlgError, as a rank below m did.
    """
    u, sv, vt = np.linalg.svd(a_sub, full_matrices=False)
    if not sv[-1] > np.finfo(float).eps * max(a_sub.shape) * sv[0]:
        raise np.linalg.LinAlgError("sensing sub-matrix is numerically singular")
    return (vt.T / sv) @ u.T


def direct_solve(z, a_sub: np.ndarray) -> np.ndarray:
    """Per-bin least-squares recovery for set sizes up to the branch count.

    Builds a_sub's least-squares operator and applies it to the samples'
    real view with one real product. signal_sense reads the same operator,
    cached per plan, but applies it to the slot's Gram.
    """
    a_sub = np.asarray(a_sub, dtype=float)
    k, m = a_sub.shape
    if m > k:
        raise ValueError("direct solve requires at most k_branches selected bands")
    return (_least_squares_operator(a_sub) @ _real_view(z)).view(np.complex128)


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


def _posterior_gains(a_sub: np.ndarray, supports: np.ndarray, sig_n: float):
    """Posterior-mean operators G_S = (A_S^T A_S + sig_n * I)^-1 A_S^T.

    supports is a (C, s) index array of C supports of equal size s >= 1.
    Returns the (C, s, k) stack, from one batched Gram product and one
    stacked solve; G_S @ Y is the posterior mean of S's spectra. It equals
    A_S^T Phi_S^-1 Y, but the s x s Gram matrix stays well conditioned
    when Phi_S (condition number about 1 / sig_n without noise) does not.
    """
    a_s = np.ascontiguousarray(a_sub[:, supports].transpose(1, 0, 2))
    a_t = a_s.transpose(0, 2, 1)
    return np.linalg.solve(sig_n * np.eye(supports.shape[1]) + a_t @ a_s, a_t)


# Rows a SupportTable may hold: every support of at most 4 of 16 bands
# (2,517 rows, about 1.3 MiB at 8 branches) fits; 32 bands at 8 branches
# (41,449 rows) do not.
_MAX_SUPPORTS = 4096


def support_count(n_bands: int, k_branches: int) -> int:
    """Rows of the SupportTable of a k_branches x n_bands sensing matrix.

    One row per support of at most k_branches // 2 of the n_bands bands.
    Raises a ValueError naming both fields when that is more than
    _MAX_SUPPORTS; ExperimentConfig.validate() calls this in signal mode.
    """
    count = sum(math.comb(n_bands, size) for size in range(k_branches // 2 + 1))
    if count > _MAX_SUPPORTS:
        raise ValueError(
            f"n_bands = {n_bands} with k_branches = {k_branches} needs "
            f"{count:,} support-table rows (every set of at most "
            f"k_branches // 2 bands); signal mode allows {_MAX_SUPPORTS:,}")
    return count


def _combinations(m: int, size: int) -> np.ndarray:
    """Every size-subset of range(m), ascending, in lexicographic order."""
    return np.array(list(itertools.combinations(range(m), size)),
                    dtype=np.intp).reshape(math.comb(m, size), size)


class SupportTable:
    """Phi_S^-1, log det Phi_S and G_S of every busy set S of at most K // 2
    bands.

    matrix is the K x N sensing matrix and cfg the recovery config; sig_n
    is the search's model noise variance, cfg.noise_variance floored at
    _MODEL_FLOOR. Phi_S = sig_n * I + A_S A_S^T and the posterior-mean
    operator G_S = (A_S^T A_S + sig_n * I)^-1 A_S^T depend on S's bands
    alone, so all plans over one table share its rows. The table is built
    here, eagerly, size by size, with one _support_covariances call, one
    stacked inverse and one _posterior_gains call each, into one
    preallocated (rows, K*K) array of inverses, one (rows,) array of
    log-determinants and one (rows, (K // 2) * K) array of operators; it
    never grows or clears. A size-s row of gain holds G_S's s x K values
    (rows in ascending band order), then zeros. Each row is a function of
    its support alone (stacked LAPACK calls treat every matrix as a single
    call would). Support S of size s with bands c_0 < c_1 < ... sits at
    row offset[s] + sum_i C(c_i, i + 1), its colex rank after the smaller
    sizes' rows. noise_guard is the expected noise energy of a fit's
    residual plus a four-sigma guard band, (n + 4 sqrt(n)) * noise_variance
    for the n = K * bins_per_band complex samples of a slot.
    """

    def __init__(self, matrix: np.ndarray, cfg: RecoveryConfig):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        k, n = matrix.shape
        self.matrix = matrix
        self.cfg = cfg
        self.sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR)
        self.max_size = min(k // 2, n)
        sizes = range(self.max_size + 1)
        self.offset = np.cumsum([0] + [math.comb(n, size) for size in sizes])
        self._binom = np.array([[math.comb(c, i) for i in sizes] for c in range(n)],
                               dtype=np.intp)
        n_terms = k * cfg.bins_per_band
        self.noise_guard = (n_terms + 4.0 * np.sqrt(n_terms)) * cfg.noise_variance
        self.inv = np.empty((support_count(n, k), k * k))
        self.logdet = np.empty(len(self.inv))
        self.gain = np.zeros((len(self.inv), self.max_size * k))
        for size in sizes:
            supports = _combinations(n, size)
            rows = self.rows(supports)
            phi, self.logdet[rows] = _support_covariances(matrix, supports, self.sig_n)
            self.inv[rows] = np.linalg.inv(phi).reshape(len(rows), k * k)
            if size:
                self.gain[rows, :size * k] = _posterior_gains(
                    matrix, supports, self.sig_n).reshape(len(rows), size * k)

    def rows(self, supports: np.ndarray) -> np.ndarray:
        """Rows of a (C, s) array of supports, each row's bands ascending."""
        size = supports.shape[1]
        return self.offset[size] + self._binom[supports, np.arange(1, size + 1)].sum(axis=1)


@functools.lru_cache(maxsize=64)
def _position_supports(m: int, gamma: int):
    """Every support of at most gamma of m selection positions.

    Supports come in (size, lexicographic) order. Returns their (C, m)
    0/1 indicator and ends, where ends[s] counts the supports of size at
    most s (so a smaller gamma's supports are a prefix).
    """
    by_size = [_combinations(m, size) for size in range(gamma + 1)]
    ends = np.cumsum([len(positions) for positions in by_size])
    indicator = np.concatenate([(positions[:, :, None] == np.arange(m)).any(axis=1)
                                for positions in by_size]).astype(float)
    for array in (indicator, ends):
        array.flags.writeable = False   # shared by every caller of the cache
    return indicator, ends


class SensingPlan:
    """Everything signal sensing of one band set takes besides the slot.

    A plan is a view of table, the SupportTable the search scores from:
    the recovery config and the sensing matrix are the table's, and a
    replication's plans all share its one table. bands are the set's
    bands in selection order. a_sub is the set's K x m sensing sub-matrix,
    select_submatrix(table.matrix, bands); column j is column bands[j] of
    the matrix, and K is its row count. direct is whether the set takes
    the direct path (m <= K) rather than the search.

    What follows is built on first use and read on every later slot:

    - rows (search path, m > K): the table row of every support of at
      most gamma = min(m, table.max_size) selection positions, in the
      order of _position_supports(m, gamma). Each is read from the
      support's indicator with its columns in ascending band order, not
      by sorting the support's bands: with b_j the j-th band in that
      order, a support of size s sits at offset[s] plus the sum of
      C(b_j, c_j) over its bands, c_j counting its bands up to b_j.
    - lsq (direct path): a_sub's m x K least-squares operator
      (_least_squares_operator, which direct_solve also builds).
    - band_noise (direct path): the energy detector's per-band noise
      max(noise_variance * diag((A_S^T A_S)^-1), _DETECT_FLOOR). Least
      squares colours the noise, so each band is thresholded at its
      post-inversion noise level.
    - threshold: the detector's energy threshold, per band on the direct
      path (from band_noise) and one level on the search path (the
      floored noise variance), for bands of bins_per_band bins.
    - gram_floor (direct path): _GRAM_FLOOR * ||l_j||^2 per band, for the
      rows l_j of lsq; times tr(S_yy), the energy below which a band's
      Gram-domain energy is rounding.
    - mixing: the K x (N + K) front end of the set, a_sub in the columns
      of the selected bands, zeros in the other bands' columns, then the
      K x K identity for the noise branches. Samples are mixing times the
      stacked band spectra and noise, so their Gram is
      mixing @ (the stack's Gram) @ mixing^T.
    """

    def __init__(self, table: SupportTable, bands: Sequence[int]):
        self.table = table
        self.bands = tuple(map(int, bands))
        self.a_sub = select_submatrix(table.matrix, self.bands)
        self.gamma = min(len(self.bands), table.max_size)
        self.direct = len(self.bands) <= len(self.a_sub)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        indicator, _ = _position_supports(len(self.bands), self.gamma)
        order = np.argsort(self.bands)
        chosen = indicator[:, order].astype(np.intp)
        nth = np.cumsum(chosen, axis=1)
        binom = self.table._binom[np.sort(self.bands), nth]
        return self.table.offset[nth[:, -1]] + (chosen * binom).sum(axis=1)

    @functools.cached_property
    def lsq(self) -> np.ndarray:
        return _least_squares_operator(self.a_sub)

    @functools.cached_property
    def band_noise(self) -> np.ndarray:
        gram_inv_diag = np.diag(np.linalg.inv(self.a_sub.T @ self.a_sub))
        return np.maximum(self.table.cfg.noise_variance * gram_inv_diag, _DETECT_FLOOR)

    @functools.cached_property
    def threshold(self):
        cfg = self.table.cfg
        noise = (self.band_noise if self.direct
                 else max(cfg.noise_variance, _DETECT_FLOOR))
        return _energy_threshold(noise, cfg.energy_fa_rate, cfg.bins_per_band)

    @functools.cached_property
    def gram_floor(self) -> np.ndarray:
        return _GRAM_FLOOR * np.einsum("ij,ij->i", self.lsq, self.lsq)

    @functools.cached_property
    def mixing(self) -> np.ndarray:
        k, n = self.table.matrix.shape
        mixing = np.zeros((k, n + k))
        mixing[:, list(self.bands)] = self.a_sub
        mixing[:, n:] = np.eye(k)
        return mixing


def fbmp_recover(s_yy, plan: SensingPlan, gamma: int, prior_activity=0.5):
    """Exact maximum-a-posteriori search over busy-band supports.

    s_yy is the slot's K x K sample Gram (sample_gram). Scores every
    support of at most gamma <= min(m, K // 2) of the plan's bands at
    once; prior_activity is the per-band prior probability of being busy
    (a scalar or one entry per selected band). The score is the log
    posterior up to a support-independent constant,
    -bins * log det Phi_S - trace(Phi_S^-1 S_yy) + log prior(S). Phi^-1
    and S_yy are symmetric, so the traces are one (C, K*K) product of the
    plan's table rows with S_yy, and the log priors one (C, m) indicator
    product with the prior log-odds. np.argmax keeps the first maximum in
    (size, lexicographic) order over selection positions. The cached
    inverses can move scores in the last bits against factorising each
    Phi_S, so only supports that close could rank differently. Returns
    the binary support estimate, the band energies of the best support's
    posterior mean G_S Y, diag(G_S S_yy G_S^T) (zero off the support),
    and the relative residual ||Y - A_S G_S Y|| / ||Y|| of the fit:
    the square root of tr(F S_yy F^T) / tr(S_yy) with F = I - A_S G_S,
    the residual clamped at 0, and 0 when S_yy is zero.
    """
    s_yy = np.asarray(s_yy)
    table = plan.table
    m = len(plan.bands)
    if not 0 <= gamma <= plan.gamma:
        raise ValueError("gamma must lie in [0, min(set size, K // 2)]")
    indicator, ends = _position_supports(m, plan.gamma)
    count = ends[gamma]
    rows = plan.rows[:count]
    base_prior, prior_gain = _prior_log_odds(prior_activity, m)
    flat = s_yy.ravel()
    log_prior = base_prior + indicator[:count] @ prior_gain
    scores = (-table.cfg.bins_per_band * table.logdet[rows]
              - table.inv[rows] @ flat + log_prior)
    best = int(np.argmax(scores))
    row = rows[best]
    support = indicator[best].astype(np.int8)
    # The row's operator lists the support's bands in ascending order.
    active = sorted(np.flatnonzero(support).tolist(), key=plan.bands.__getitem__)
    energies = np.zeros(m)
    y_sq = s_yy.trace()
    residual = y_sq
    if active:
        k = len(s_yy)
        gain = table.gain[row, :len(active) * k].reshape(-1, k)
        energies[active] = ((gain @ s_yy) * gain).sum(axis=1)
        fit = np.eye(k) - plan.a_sub[:, active] @ gain
        residual = ((fit @ s_yy) * fit).sum()
    ratio = math.sqrt(max(residual, 0.0) / y_sq) if y_sq else 0.0
    return support, energies, ratio


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

    energy_detect scales this by noise_variance / 2 to get its threshold,
    as a SensingPlan does once for its threshold; ExperimentConfig.validate()
    calls it with the same arguments, so a signal run loads SciPy and fills
    the cache during set-up. All get their energy_fa_rate checks here: it
    must lie in (0, 1), and it is rejected when 1 - energy_fa_rate rounds
    to 1 (energy_fa_rate = 1e-17), which makes the quantile, and with it
    the threshold, infinite.
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


def _energy_threshold(noise_variance, energy_fa_rate: float, n_bins: int):
    """The energy of a band of n_bins bins that noise alone exceeds with
    probability energy_fa_rate (per band when noise_variance is a
    vector)."""
    return 0.5 * np.asarray(noise_variance, dtype=float) \
        * detection_quantile(energy_fa_rate, n_bins)


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
    x = _real_view(spectra)
    energies = np.einsum("ij,ij->i", x, x)
    threshold = _energy_threshold(noise_variance, energy_fa_rate, spectra.shape[1])
    return (energies > threshold).astype(np.int8)


def signal_sense(s_yy, plan: SensingPlan, prior_activity=0.5) -> SenseResult:
    """Full signal-mode sensing of one slot from its K x K sample Gram
    (sample_gram): recover band energies, detect, and flag failure.

    Set sizes up to the branch count K (the plan's row count) are solved
    exactly, with the plan's least-squares operator L (band energies
    diag(L S_yy L^T), each compared with the larger of its threshold and
    tr(S_yy) times its gram_floor); they always succeed, and no residual
    is computed (residual_ratio is None). Larger sets go through the exact support
    search with prior_activity as the busy prior, and fail when the
    detected busy count exceeds the recoverable limit or the relative
    residual, less the expected noise energy, exceeds the config's
    residual_threshold. Both paths threshold the energies at the plan's
    cached threshold.
    """
    s_yy = np.asarray(s_yy)
    if plan.direct:
        lsq = plan.lsq
        energies = ((lsq @ s_yy) * lsq).sum(axis=1)
        threshold = np.maximum(plan.threshold, s_yy.trace() * plan.gram_floor)
        return SenseResult((energies > threshold).astype(np.int8), 0)
    k, m = plan.a_sub.shape
    limit = gamma_threshold(m, k)
    _, energies, ratio = fbmp_recover(s_yy, plan, limit, prior_activity)
    statuses = (energies > plan.threshold).astype(np.int8)
    # The raw residual of a correct fit still contains the measurement
    # noise, so the failure statistic discounts the table's noise guard
    # (the expected noise energy plus a four-sigma guard band) before
    # thresholding; with zero noise it reduces to the raw residual ratio.
    # z_energy is the ||Y||^2 of the residual ratio's denominator.
    z_energy = s_yy.trace()
    excess = max(0.0, ratio ** 2 * z_energy - plan.table.noise_guard)
    excess_ratio = np.sqrt(excess / z_energy) if z_energy > 0.0 else 0.0
    xi = 1 if (int(statuses.sum()) > limit
               or excess_ratio > plan.table.cfg.residual_threshold) else 0
    return SenseResult(statuses=statuses, xi=xi, residual_ratio=ratio)
