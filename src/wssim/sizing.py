"""Band-set sizing.

The busy count of a set of independently occupied bands follows a
Poisson-binomial law; its lower tail gives the probability that
reconstruction succeeds, and scanning prefix sets of the vacancy-sorted
bands, growing that tail one band at a time, yields the throughput-optimal
set size. Also provides the observation budget that guarantees accurate
vacancy estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SizeDecision:
    """Chosen set size with its expected throughput and success probability."""

    size: int
    objective_value: float
    success_probability: float


class ExplorationBudget(NamedTuple):
    observations: int   # per-band transition observations required
    slots: int          # time slots needed to collect them for every band


def optimize_size(vacancy_probs, k_branches: int) -> SizeDecision:
    """Throughput-optimal set size over vacancy-sorted prefix sets.

    For each size M from K to N the objective is the success probability of
    the top-M bands times their summed vacancy probability. Prefix sets
    dominate all other sets of the same size, so the scan is exact; ties
    resolve to the smaller size.
    """
    vacancy = np.atleast_1d(np.asarray(vacancy_probs, dtype=float))
    n = vacancy.size
    if not 1 <= k_branches <= n:
        raise ValueError("need 1 <= k_branches <= number of bands")
    if not np.all((vacancy >= 0.0) & (vacancy <= 1.0)):
        raise ValueError("vacancy probabilities must lie in [0, 1]")
    sorted_vacancy = np.sort(vacancy)[::-1]
    # Grow the busy-count distribution one band at a time so the whole scan
    # costs O(N * K) instead of one fresh convolution per candidate size.
    tail = [1.0] + [0.0] * (k_branches // 2)
    prefix_sum = 0.0
    best_size, best_objective, best_success = 0, -1.0, 0.0
    for size, vac in enumerate(sorted_vacancy, start=1):
        busy = 1.0 - vac
        for i in range(len(tail) - 1, 0, -1):
            tail[i] = tail[i] * vac + tail[i - 1] * busy
        tail[0] *= vac
        prefix_sum += vac
        if size < k_branches:
            continue
        p_ok = 1.0 if size <= k_branches else sum(tail)
        objective = p_ok * prefix_sum
        if objective > best_objective:
            best_size, best_objective, best_success = size, objective, p_ok
    return SizeDecision(size=best_size, objective_value=best_objective,
                        success_probability=best_success)


def exploration_threshold(n_bands: int, k_branches: int, mu: float,
                          delta: float) -> ExplorationBudget:
    """Observation and slot budgets for mu-correct vacancy estimation.

    Q = ceil((2 / mu^2) * ln(2 N / delta)) observations per band suffice for
    every band's estimated stationary vacancy to fall within mu/2 of truth
    with probability at least 1 - delta; one observation per band costs
    2 * ceil(N / K) slots, hence W = 2 * ceil(N / K) * Q.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_bands < 1:
        raise ValueError("n_bands must be at least 1")
    if not 1 <= k_branches <= n_bands:
        raise ValueError(f"k_branches must satisfy 1 <= k_branches <= n_bands "
                         f"(got {k_branches} with n_bands={n_bands})")
    try:
        observations = math.ceil(2.0 / mu ** 2 * math.log(2.0 * n_bands / delta))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"mu = {mu!r} and delta = {delta!r} need more observations "
                         "than a float can count") from None
    slots = 2 * math.ceil(n_bands / k_branches) * observations
    return ExplorationBudget(observations=observations, slots=slots)
