"""Reconstruction and sensing of the selected bands.

Two modes are provided. Oracle sensing applies the busy-count feasibility
rule directly to ground-truth statuses. Signal sensing finds the maximum a
posteriori busy support of a slot's selected bands under the policy's busy
priors and reports it as the statuses; on the search path it also declares
reconstruction failure from the fit's residual energy. Both return a
SenseResult.

Signal power is the unit: a busy band's mean per-bin power is 1, and the
per-bin noise power of an SNR is 10^(-SNR/10) (sensing.noise_power_for_snr),
so the model floor _MODEL_FLOOR is absolute.

Signal recovery reads a slot only through its sample Gram
S_yy = Re(Z Z^H), the K x K Gram of the real view Y (K x 2 * bins) of the
slot's complex samples Z: the support scores take trace(Phi_S^-1 S_yy),
the residual ||Y - A_S x||^2 of an estimate x = G Y is
tr(F S_yy F^T) = tr(F^T F S_yy) with F = I - A_S G, and ||Y||^2 is
tr(S_yy). Gram-domain values differ from those of the sample-domain
reference chain in tests/conftest.py in the last bits, and where the true
value is 0 they are rounding of about eps times the Gram's size rather
than eps^2. So the residual energy of an exact fit is rounding at the eps
scale of the Gram (about eps * tr(S_yy)), not 0; at the residual
threshold the two agree to about eps / residual_threshold^2 relative.

Both paths score supports alike: the log posterior
-bins * log det Phi_S - trace(Phi_S^-1 S_yy) + log prior(S), with
Phi_S = sig_n I + A_S A_S^T and the selected bands' busy priors, and keep
the first maximum in (size, lexicographic) order. A band set's indices
ascend strictly, as run_policy sends them, so a tie goes to the lower
bands. Scores and residuals are products with cached operators (the
table's, and a direct plan's inverses of its supports beyond the table),
not solves, so they can differ from per-slot factorisation in the last
bits, and only supports whose scores (or residuals at the threshold) are
that close could read differently. No slot factorises anything, and no
signal run imports SciPy.
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

# Absolute noise-variance floor keeping the Gaussian model well defined
# when the configured noise power is exactly zero.
_MODEL_FLOOR = 1e-10


class SenseResult(NamedTuple):
    """Outcome of sensing one selected band set, in either mode."""

    statuses: Sequence[int]   # 0/1 per selected band, in band order
    xi: int                   # 1 when reconstruction failed


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the signal-mode recovery chain, checked once when built
    (NaN fails every check). noise_variance is per bin, in units of the
    signal power; bins_per_band is the bin count of the samples whose Gram
    signal_sense reads."""

    noise_variance: float = 0.0
    residual_threshold: float = 0.1
    bins_per_band: int = 64

    def __post_init__(self):
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and nonnegative")
        if not self.residual_threshold > 0.0:
            raise ValueError("residual_threshold must be positive")
        check_bins_per_band(self.bins_per_band)


def gamma_threshold(set_size: int, k_branches: int) -> int:
    """Largest busy count still recoverable for a given selected-set size:
    the set size when it is at most K (the direct path), else K // 2 (the
    search). oracle_sense applies it to the truth, and every SensingPlan
    takes it as its gamma."""
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
    # SenseResult._make's constructor, one call per oracle slot.
    return tuple.__new__(SenseResult, (true_statuses, xi))


def _prior_log_odds(prior_activity) -> np.ndarray:
    """Per-band log(q / (1 - q)) of the busy priors q.

    A support's log prior is sum(log(1 - q)), the same for every support,
    plus its bands' log-odds, so the odds alone rank supports. q is
    prior_activity, one entry per selected band, clipped to
    [1e-9, 1 - 1e-9] by two ufuncs writing one fresh array: the bits of
    np.clip, without its Python-level wrapper.
    """
    q = np.maximum(prior_activity, 1e-9)
    np.minimum(q, 1.0 - 1e-9, out=q)
    return np.log(q) - np.log1p(-q)


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

    supports is a (C, s) index array of C supports of equal size s (s = 0
    is the empty support). Returns the (C, s, k) stack, from one batched
    Gram product and one stacked solve; G_S @ Y is the posterior mean of
    S's spectra. It equals
    A_S^T Phi_S^-1 Y, but the s x s Gram matrix stays well conditioned
    when Phi_S (condition number about 1 / sig_n without noise) does not.
    """
    a_s = np.ascontiguousarray(a_sub[:, supports].transpose(1, 0, 2))
    a_t = a_s.transpose(0, 2, 1)
    return np.linalg.solve(sig_n * np.eye(supports.shape[1]) + a_t @ a_s, a_t)


# Sensing plans a SupportTable keeps for all the policies it serves. A
# direct plan at 8 branches holds 2^8 inverses (128 KiB), so this bounds
# the cache near 16 MiB; a case1 replication of 10,000 slots senses about
# 70 sets.
_MAX_PLANS = 128
# Rows a SupportTable may hold: every support of at most 4 of 16 bands
# (2,517 rows, about 2.6 MiB at 8 branches) fits; 32 bands at 8 branches
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
    """Phi_S^-1, log det Phi_S and the fit operator Q_S of every busy set S
    of at most K // 2 bands, and the sensing plans over them.

    matrix is the K x N sensing matrix and cfg the recovery config; sig_n
    is the score's model noise variance, cfg.noise_variance floored at
    _MODEL_FLOOR. Phi_S = sig_n * I + A_S A_S^T and Q_S = F_S^T F_S, with
    F_S = I - A_S G_S and the posterior-mean operator
    G_S = (A_S^T A_S + sig_n * I)^-1 A_S^T (_posterior_gains, A_S's
    columns in ascending band order), depend on S's bands alone, so all
    plans over one table share its rows. A slot's fit residual
    tr(F_S S_yy F_S^T) is Q_S . vec(S_yy), and the empty support's Q_S is
    the identity. The table is built here, eagerly, size by size, with one
    _support_covariances call, one stacked inverse and one
    _posterior_gains call each, into one preallocated (rows, K*K) array of
    inverses, one (rows,) array of log-determinants and one (rows, K*K)
    array of fit operators; it never grows or clears. Each row is a
    function of its support alone (stacked LAPACK calls treat every matrix
    as a single call would). Support S of size s with bands c_0 < c_1 < ...
    sits at row sum_{j < s} C(N, j) + sum_i C(c_i, i + 1), its colex rank
    after the smaller sizes' rows. noise_guard is the expected noise
    energy of a fit's residual plus a four-sigma guard band,
    (n + 4 sqrt(n)) * noise_variance for the n = K * bins_per_band complex
    samples of a slot.

    A search plan reads the rows of all its supports (at most K // 2
    bands); a direct plan reads those of its supports of at most max_size
    bands and builds the larger ones' inverses itself (SensingPlan).
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
        # _rank_terms[c, i] = C(c, i + 1) + C(N, i): the i-th smallest band
        # c of a support adds its colex term and the row count of size i.
        # Band N pads a support and adds nothing.
        self._rank_terms = np.array(
            [[math.comb(c, i + 1) + math.comb(n, i) for i in range(self.max_size)]
             for c in range(n)] + [[0] * self.max_size], dtype=np.intp)
        n_terms = k * cfg.bins_per_band
        self.noise_guard = (n_terms + 4.0 * np.sqrt(n_terms)) * cfg.noise_variance
        self.inv = np.empty((support_count(n, k), k * k))
        self.logdet = np.empty(len(self.inv))
        self.fit = np.empty_like(self.inv)
        self._plans: dict[tuple, SensingPlan] = {}
        for size in range(self.max_size + 1):
            supports = _combinations(n, size)
            rows = self.rows(supports)
            phi, self.logdet[rows] = _support_covariances(matrix, supports, self.sig_n)
            self.inv[rows] = np.linalg.inv(phi).reshape(len(rows), k * k)
            del phi   # before the fit operators' temporaries
            a_s = matrix[:, supports].transpose(1, 0, 2)
            fit = np.eye(k) - a_s @ _posterior_gains(matrix, supports, self.sig_n)
            self.fit[rows] = (fit.transpose(0, 2, 1) @ fit).reshape(len(rows), k * k)

    def rows(self, supports: np.ndarray) -> np.ndarray:
        """Rows of a (C, w) array of supports of at most w <= max_size
        bands, each row's bands ascending, then padded with N: one gather
        and a sum."""
        return self._rank_terms[supports, np.arange(supports.shape[1])].sum(axis=1)

    def plan(self, bands) -> SensingPlan:
        """The SensingPlan of a band set, strictly ascending, built on its
        first use. Plans are functions of their bands alone, so every
        caller of the table shares them; the table keeps at most
        _MAX_PLANS (the oldest goes first), whatever the horizon. A plan is
        keyed by its bands and their types: 0.0 == 0 and True == 1, so by
        value alone a set that SensingPlan rejects would find a plan."""
        bands = tuple(bands)
        key = (bands, *map(type, bands))
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                del self._plans[next(iter(self._plans))]
            plan = self._plans[key] = SensingPlan(self, bands)
        return plan


@functools.lru_cache(maxsize=64)
def _position_supports(m: int, gamma: int):
    """Every support of at most gamma of the m positions of a band set.

    Supports come in (size, lexicographic) order, so a smaller gamma's
    supports are a prefix. Returns their (C, m) 0/1 indicator (float64,
    for score products), the same as int8 status rows, and their
    (C, gamma) position lists (ascending, padded with m).
    """
    lists = np.concatenate([np.pad(_combinations(m, size), ((0, 0), (0, gamma - size)),
                                   constant_values=m) for size in range(gamma + 1)])
    indicator = (lists[:, :, None] == np.arange(m)).any(axis=1).astype(float)
    statuses = indicator.astype(np.int8)
    for array in (indicator, statuses, lists):
        array.flags.writeable = False   # shared by every caller of the cache
    return indicator, statuses, lists


def _first_map(s_yy, inv, weighted_logdet, indicator, prior_activity) -> int:
    """Index of the first maximum of the supports' log posteriors.

    The score of the support in row i of indicator (C, m) is
    weighted_logdet[i] - inv[i] . vec(S_yy) + its log prior, up to a
    constant, with inv the (C, K*K) flattened Phi_S^-1 and weighted_logdet
    -bins * log det Phi_S. Phi^-1 and S_yy are symmetric, so the traces
    are one product. The log priors are one indicator product with the
    prior log-odds of prior_activity, the busy probability of each of the
    m bands. argmax keeps the first maximum.
    """
    log_prior = indicator @ _prior_log_odds(prior_activity)
    return int((weighted_logdet - inv @ s_yy.ravel() + log_prior).argmax())


class SensingPlan:
    """Everything signal sensing of one band set takes besides the slot,
    built whole when the plan is made.

    A plan is a view of table, the SupportTable the scores come from: the
    recovery config and the sensing matrix are the table's, and a
    replication's plans all share its one table. bands are the set's
    bands, strictly ascending. a_sub is the set's K x m sensing sub-matrix,
    select_submatrix(table.matrix, bands); column j is column bands[j] of
    the matrix, and K is its row count. direct is whether the set takes
    the direct path (m <= K) rather than the search, and gamma is
    gamma_threshold(m, K), the busy count oracle sensing allows too: m on
    the direct path, K // 2 on the search.

    - indicator, statuses: _position_supports(m, gamma), every support of
      at most gamma of the set's positions in (size, lexicographic) order.
    - rows: the table row of each of those supports of at most
      min(gamma, table.max_size) bands, a prefix of that order (all of it
      on the search). Each support's bands ascend as the set's do, the
      position lists' padding mapping to band N, and one table.rows call
      ranks them.
    - weighted_logdet: -bins * log det Phi_S of every support that is
      scored: the rows on the search, all 2^m supports on the direct path.
    - inv (direct path only): the (2^m, K*K) flattened Phi_S^-1 of every
      support. The table rows come first; the larger supports follow from
      one _support_covariances call and one stacked inverse over their
      ascending bands, padded with band N and read against the matrix
      with a zero column appended, which adds nothing to A_S A_S^T. Each
      row is thus a function of its support alone, as in the table.
    - mixing: the K x (N + K) front end of the set, a_sub in the columns
      of the selected bands, zeros in the other bands' columns, then the
      K x K identity for the noise branches. Samples are mixing times the
      stacked band spectra and noise, so their Gram is
      mixing @ (the stack's Gram) @ mixing^T.
    """

    def __init__(self, table: SupportTable, bands: Sequence[int]):
        self.table = table
        self.a_sub = select_submatrix(table.matrix, bands)
        self.bands = tuple(map(int, bands))
        k, n = table.matrix.shape
        m = len(self.bands)
        self.gamma = gamma_threshold(m, k)
        self.direct = m <= k
        self.mixing = np.zeros((k, n + k))
        self.mixing[:, list(self.bands)] = self.a_sub
        self.mixing[:, n:] = np.eye(k)
        self.indicator, self.statuses, lists = _position_supports(m, self.gamma)
        supports = np.append(self.bands, n)[lists]
        size = min(self.gamma, table.max_size)
        count = sum(math.comb(m, s) for s in range(size + 1))
        self.rows = table.rows(supports[:count, :size])
        bins = table.cfg.bins_per_band
        self.weighted_logdet = -bins * table.logdet[self.rows]
        if self.direct:
            padded = np.zeros((k, n + 1))
            padded[:, :n] = table.matrix
            phi, logdet = _support_covariances(padded, supports[count:], table.sig_n)
            self.inv = np.concatenate([table.inv[self.rows],
                                       np.linalg.inv(phi).reshape(len(phi), k * k)])
            self.weighted_logdet = np.concatenate([self.weighted_logdet, -bins * logdet])


def fbmp_recover(s_yy, plan: SensingPlan, prior_activity):
    """Exact maximum-a-posteriori search over busy-band supports.

    s_yy is the slot's K x K sample Gram Re(Z Z^H), an array. Scores every
    support of at most plan.gamma = K // 2 of a search plan's bands at
    once from their table rows, plan.rows (_first_map); prior_activity
    holds the prior probability of being busy of each selected band.
    Returns the binary support estimate (a read-only int8 row) and the
    residual energy ||Y - A_S G_S Y||^2 of its posterior-mean fit,
    Q_S . vec(S_yy) with Q_S the support's table row of fit operators.
    """
    table = plan.table
    rows = plan.rows
    best = _first_map(s_yy, table.inv[rows], plan.weighted_logdet, plan.indicator,
                      prior_activity)
    return plan.statuses[best], table.fit[rows[best]] @ s_yy.ravel()


def signal_sense(s_yy, plan: SensingPlan, prior_activity) -> SenseResult:
    """Full signal-mode sensing of one slot from its K x K sample Gram
    Re(Z Z^H): the statuses are the MAP support of the selected bands
    under the busy priors prior_activity, one entry per selected band.

    Direct plans (set sizes up to the branch count K) score all 2^m
    supports from the plan's inv and weighted_logdet and always succeed.
    Search plans go through fbmp_recover, and fail when its residual
    energy, less the table's noise guard, exceeds residual_threshold^2
    times ||Y||^2 = tr(S_yy).
    """
    if plan.direct:
        best = _first_map(s_yy, plan.inv, plan.weighted_logdet, plan.indicator,
                          prior_activity)
        return SenseResult(plan.statuses[best], 0)
    support, residual = fbmp_recover(s_yy, plan, prior_activity)
    # The residual of a correct fit still holds the measurement noise, so
    # the test discounts the noise guard (the expected noise energy plus a
    # four-sigma guard band); without noise it is the raw residual energy.
    # An all-zero Gram reads 0 - guard > 0, which is false.
    threshold = plan.table.cfg.residual_threshold ** 2 * s_yy.trace()
    return SenseResult(support, int(residual - plan.table.noise_guard > threshold))
