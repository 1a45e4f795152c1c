"""Shared independent oracles for the test suite."""

import itertools

import numpy as np
import pytest

from wssim.recovery import (_MODEL_FLOOR, _conditional_mean, _prior_log_odds,
                            _residual_ratio, _support_scores)
from wssim.sizing import success_probability


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


def reference_support_score(szz, n_bins, a_sub, active, sig_s, sig_n,
                            base_prior, prior_gain):
    """Log posterior of one busy set, one Cholesky and one solve at a time.

    The scalar form of wssim.recovery._support_scores, which must match it
    bit for bit.
    """
    k = a_sub.shape[0]
    phi = sig_n * np.eye(k)
    if active:
        a_s = a_sub[:, list(active)]
        phi = phi + sig_s * (a_s @ a_s.T)
    chol = np.linalg.cholesky(phi)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    quad = np.trace(np.linalg.solve(phi, szz)).real
    log_prior = base_prior + prior_gain[list(active)].sum() if active else base_prior
    return -n_bins * logdet - quad + log_prior


def score_terms(samples, cfg, m):
    """(szz, n_bins, sig_s, sig_n, base_prior, prior_gain) as fbmp_recover derives them."""
    sig_s = float(cfg.signal_variance)
    sig_n = max(float(cfg.noise_variance), _MODEL_FLOOR * sig_s)
    base_prior, prior_gain = _prior_log_odds(cfg.prior_activity, m)
    return (samples @ samples.conj().T, samples.shape[1], sig_s, sig_n,
            base_prior, prior_gain)


def reference_greedy_recover(samples, a_sub, cfg):
    """The greedy support search scoring one candidate support at a time.

    Reference for wssim.recovery.fbmp_recover: same candidate order, same
    stable ranking, scalar scores.
    """
    m = a_sub.shape[1]
    szz, n_bins, sig_s, sig_n, base_prior, prior_gain = score_terms(samples, cfg, m)

    def score(active):
        return reference_support_score(szz, n_bins, a_sub, active, sig_s,
                                       sig_n, base_prior, prior_gain)

    best_active, best_score = (), score(())
    frontier = [()]
    for _ in range(cfg.gamma):
        scored = {}
        for active in frontier:
            for j in range(m):
                if j in active:
                    continue
                cand = tuple(sorted(active + (j,)))
                if cand not in scored:
                    scored[cand] = score(cand)
        if not scored:
            break
        ranked = sorted(scored.items(), key=lambda item: -item[1])
        frontier = [active for active, _ in ranked[:cfg.search_breadth]]
        if ranked[0][1] > best_score:
            best_active, best_score = ranked[0]
    x_hat = _conditional_mean(samples, a_sub, best_active, sig_s, sig_n)
    ratio = _residual_ratio(samples, a_sub @ x_hat)
    support = np.zeros(m, dtype=np.int8)
    support[list(best_active)] = 1
    return support, x_hat, ratio


def all_supports(m, size):
    """Every support of the given size as a (C, size) index array."""
    combos = list(itertools.combinations(range(m), size))
    return np.array(combos, dtype=np.intp).reshape(len(combos), size)


def exhaustive_map_support(samples, a_sub, cfg):
    """Score every support of size up to cfg.gamma; reference for the greedy search.

    One stacked scoring call per support size; the first support in
    (size, lexicographic) order wins ties.
    """
    m = a_sub.shape[1]
    szz, n_bins, sig_s, sig_n, base_prior, prior_gain = score_terms(samples, cfg, m)
    best_active, best_score = (), -np.inf
    for size in range(cfg.gamma + 1):
        supports = all_supports(m, size)
        scores = _support_scores(szz, n_bins, a_sub, supports, sig_s, sig_n,
                                 base_prior, prior_gain)
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_active, best_score = tuple(supports[top]), scores[top]
    support = np.zeros(m, dtype=np.int8)
    support[list(best_active)] = 1
    return support


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
