"""Online band-selection policies.

Time is organised in blocks of 2 * ceil(N / K) slots. A block either
explores (a fixed schedule senses every band group for two consecutive
slots, yielding one transition observation per band) or exploits (the
currently most promising bands are sensed each slot). Both phases take
one slot step and learn only from same-set pairs of consecutive slots.
run_policy reads its settings from a config.ExperimentConfig, which
checks them. Three policies share the loop:

* LDM  - learns transition statistics, always senses K bands.
* OLDM - like LDM, but once every band has enough observations the set
         size is re-optimised from the estimated vacancy probabilities.
         The estimates change only in update_counts, so the size is
         recomputed at the first exploitation block after an update and
         reused until the next one (84-100 instead of 1,505-1,778
         optimize_size calls per 10,000-slot case1.cfg replication).
* IMP  - ideal myopic baseline with the true statistics and the known
         optimal set size from the first slot.

The policy loop hands Environment.sense the selected bands as a tuple of
ints, the slot index and the current vacancy beliefs, and both backends
return a recovery.SenseResult. The oracle backend (OracleEnvironment)
returns recovery.oracle_sense of the selected statuses, a list of ints,
so the busy-count rule has one home; the signal backend
(experiments.SignalEnvironment) returns signal_sense's result, whose
int8 statuses the loop turns into a list. Each slot is recorded as a
SlotOutcome named tuple, not a dataclass.

While run_policy runs, the per-band learner state is held in plain Python
lists, and one slot step inside run_policy selects, senses, credits and
advances the beliefs element by element; update_counts, the only step
that changes the estimates, is its one helper, and of a u -> v credit it
recomputes only row u's estimate. Each band's p10 + p01 and 1 - p01 are
kept beside the estimates and recomputed only when update_counts changes
them, and a successful slot predicts only its unsensed bands (a failed
slot, every band). Nothing whose result cannot change is redone: a
learning policy's block coins come from one rng.random call (the numbers
and final generator state of one call per block; IMP draws none), OLDM's
unlock is latched because the counts only grow, and slot records are
built by tuple.__new__, as SlotOutcome._make does. On oracle case1.cfg
the benchmark's median rate rose from 69,730 to 81,646 policy-slots/s
with the slot step and from 80,655 to 90,038 with these savings (ten
alternating pairs each, 2 CPUs).
With few bands a numpy call costs more in overhead than in arithmetic;
against the same loop on numpy arrays (K = N / 2, 4,000 oracle slots,
before the step absorbed selection and prediction), OLDM ran 2.7-2.8x as
fast at N = 8 and 0.46x at N = 256. Every shipped config has N <= 16.
Python floats are IEEE doubles and each prediction keeps the operand
order o + p10 - o * (p10 + p01), so every belief, estimate and selected
set is bit-identical to the array form. A caller's BeliefState holds
numpy arrays again once run_policy returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .config import POLICY_MODES, ExperimentConfig
from .recovery import SenseResult, oracle_sense
from .sizing import exploration_threshold, optimize_size
from .spectrum import BandStatistics, check_trajectory, stationary_vacancy

EXPLORE = "explore"
EXPLOIT = "exploit"


# Fields of the per-band learner state and their numpy dtypes.
_STATE_DTYPES = (("omega", np.float64), ("counts", np.int64),
                 ("p01_hat", np.float64), ("p10_hat", np.float64),
                 ("obs_count", np.int64))


@dataclass
class BeliefState:
    """Learner state: immediate vacancy beliefs and transition statistics.

    counts[n, u, v] is the number of observed u -> v transitions of band n,
    Laplace-initialised to 1 so the first estimates are 0.5. p01_hat and
    p10_hat cache the row-normalised off-diagonal estimates; update_counts
    is the only step that changes them. The fields are numpy arrays, or
    nested Python lists of the same values while run_policy is running.
    """

    omega: np.ndarray        # P(band vacant now), length n_bands
    counts: np.ndarray       # (n_bands, 2, 2) int
    p01_hat: np.ndarray
    p10_hat: np.ndarray
    obs_count: np.ndarray    # transition observations per band

    @classmethod
    def fresh(cls, n_bands: int) -> "BeliefState":
        return cls(omega=np.full(n_bands, 0.5),
                   counts=np.ones((n_bands, 2, 2), dtype=np.int64),
                   p01_hat=np.full(n_bands, 0.5),
                   p10_hat=np.full(n_bands, 0.5),
                   obs_count=np.zeros(n_bands, dtype=np.int64))

    @property
    def n_bands(self) -> int:
        return len(self.omega)

    def vacancy_estimates(self) -> np.ndarray:
        """Estimated stationary vacancy per band from the cached estimates."""
        p10 = np.asarray(self.p10_hat, dtype=float)
        return p10 / (p10 + np.asarray(self.p01_hat, dtype=float))

    def _to_lists(self) -> None:
        for name, _ in _STATE_DTYPES:
            setattr(self, name, np.asarray(getattr(self, name)).tolist())

    def _to_arrays(self) -> None:
        for name, dtype in _STATE_DTYPES:
            setattr(self, name, np.array(getattr(self, name), dtype=dtype))


class SlotOutcome(NamedTuple):
    """Record of one sensing slot."""

    selected: tuple[int, ...]   # sensed bands, ascending
    statuses: list[int]         # 0/1 per selected band, selection order
    xi: int                     # 1 when reconstruction failed
    throughput: int             # vacant bands reported, 0 on failure
    phase: str                  # EXPLORE or EXPLOIT


class Environment(Protocol):
    def sense(self, selected: tuple[int, ...], slot: int,
              prior_vacancy=None) -> SenseResult: ...


class OracleEnvironment:
    """Sensing backend that reads statuses straight off a precomputed trajectory.

    The trajectory, checked by spectrum.check_trajectory, is held as one
    list of ints per slot. sense returns recovery.oracle_sense of the
    selected bands' statuses, a fresh list, and a slot outside the
    trajectory raises a ValueError. The environment keeps no per-run
    state, so one instance serves every policy that senses the same
    trajectory.
    """

    def __init__(self, trajectory: np.ndarray, k_branches: int):
        self.rows = check_trajectory(trajectory).tolist()
        self.slots = len(self.rows)
        self.k_branches = k_branches

    def sense(self, selected, slot, prior_vacancy=None) -> SenseResult:
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} is outside the trajectory's "
                             f"{self.slots} slots")
        row = self.rows[slot]
        return oracle_sense([row[band] for band in selected], self.k_branches)


def epsilon(block_index: int, exploration_coefficient: float) -> float:
    """Exploration probability of a block: min(1, L / b)."""
    if block_index < 1:
        raise ValueError("block_index must be at least 1")
    return min(1.0, exploration_coefficient / block_index)


def explore_schedule(group: int, n_bands: int, k_branches: int) -> np.ndarray:
    """Bands of the given exploration group: the contiguous slice of size K
    starting at group * K, truncated at the last band."""
    n_groups = -(-n_bands // k_branches)
    if not 0 <= group < n_groups:
        raise ValueError(f"group must lie in [0, {n_groups})")
    return np.arange(group * k_branches,
                     min((group + 1) * k_branches, n_bands))


def update_counts(belief: BeliefState, selected, statuses_prev,
                  statuses_now) -> BeliefState:
    """Credit one observed transition per selected band and refresh that
    band's estimate out of the transition's start state.

    Both status sequences must come from successful senses of the same
    band set in consecutive slots. A u -> v transition changes only row u
    of the band's counts, so only row u's estimate is recomputed, as
    C_uv / (C_uv + C_uu): p01_hat when u = 0, p10_hat when u = 1. The
    other estimate keeps its bits.
    """
    if not (len(selected) == len(statuses_prev) == len(statuses_now)):
        raise ValueError("selected and status vectors must have equal length")
    counts, obs_count = belief.counts, belief.obs_count
    p01_hat, p10_hat = belief.p01_hat, belief.p10_hat
    for band, u, v in zip(selected, statuses_prev, statuses_now):
        row = counts[band][u]
        row[v] += 1
        obs_count[band] += 1
        if u:
            p10_hat[band] = row[0] / (row[0] + row[1])
        else:
            p01_hat[band] = row[1] / (row[1] + row[0])
    return belief


def run_policy(config: ExperimentConfig, mode: str, env: Environment,
               rng: np.random.Generator,
               true_stats: BandStatistics | None = None,
               belief: BeliefState | None = None) -> list[SlotOutcome]:
    """Run one policy, mode (one of POLICY_MODES), over the horizon.

    The settings (n_bands, k_branches, horizon, exploration_coefficient,
    mu and delta) are the config's, checked by config.validate(). The
    environment supplies per-slot sensing of whichever band set the
    policy requests, given as a tuple of band indices. IMP needs
    true_stats for its exact beliefs and fixed optimal set size; LDM and
    OLDM learn from scratch. A caller-supplied belief is updated in place,
    which also exposes the final learner state as numpy arrays.

    Each block has one policy coin, all drawn up front by one
    rng.random call (IMP never explores and draws none). An exploration
    block senses a fixed schedule, every group's bands twice in a row; an
    exploitation block senses the set_size bands of largest belief each
    slot. Both phases then take the same slot step: sense, record, credit
    the pair, and advance the beliefs into a new list.
    """
    if mode not in POLICY_MODES:
        raise ValueError(f"mode must be one of {POLICY_MODES} (got {mode!r})")
    config.validate()
    n, k, horizon = config.n_bands, config.k_branches, config.horizon
    n_groups = -(-n // k)
    block_len = 2 * n_groups
    is_imp = mode == "IMP"
    is_oldm = mode == "OLDM"

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
    unlock_obs = (exploration_threshold(n, k, config.mu, config.delta).observations
                  if is_oldm else None)

    # Each exploration slot's group and the bands it leaves unsensed.
    groups = [explore_schedule(g, n, k).tolist() for g in range(n_groups)
              for _ in range(2)]
    explore_sets = [tuple(group) for group in groups]
    explore_rest = [[band for band in range(n) if band not in group]
                    for group in groups]
    bands = list(range(n))
    # One coin per block from one call: the numbers and the final generator
    # state of one rng.random() per block. IMP draws none.
    n_blocks = -(-horizon // block_len)
    coins = [] if is_imp else rng.random(n_blocks).tolist()
    outcomes: list[SlotOutcome] = []
    record = outcomes.append
    # What SlotOutcome._make calls, without the keyword-taking __new__.
    new_tuple = tuple.__new__
    sense = env.sense
    t = 0
    # A learning policy's previous slot's set and statuses, if that slot
    # succeeded. Exploration blocks clear them when they start and end, so
    # no pair straddles a phase change, while consecutive exploitation
    # blocks still pair.
    prev_sel = prev_statuses = None
    # OLDM's set size, kept until update_counts, the only step that
    # changes the estimates, runs again. The counts only grow, so the
    # unlock, once reached, holds for the rest of the run.
    oldm_size: int | None = None
    unlocked = False

    belief._to_lists()
    try:
        omega, p01, p10 = belief.omega, belief.p01_hat, belief.p10_hat
        obs_count = belief.obs_count
        # Per band p10 + p01 and 1 - p01 (the vacant jump), recomputed
        # only when update_counts changes them.
        p_sum = [q10 + q01 for q01, q10 in zip(p01, p10)]
        stay = [1.0 - q01 for q01 in p01]
        for b in range(1, n_blocks + 1):
            explore = (not is_imp) and coins[b - 1] < epsilon(b, config.exploration_coefficient)
            if explore:
                phase = EXPLORE
                prev_sel = None
            else:
                phase = EXPLOIT
                if is_imp:
                    set_size = fixed_size
                elif is_oldm and (unlocked or min(obs_count) >= unlock_obs):
                    unlocked = True
                    if oldm_size is None:
                        oldm_size = optimize_size(belief.vacancy_estimates(), k).size
                    set_size = oldm_size
                else:
                    set_size = k
            for i in range(min(block_len, horizon - t)):
                if explore:
                    sel, rest = explore_sets[i], explore_rest[i]
                else:
                    # A stable reverse sort: ties go to the lower band.
                    order = sorted(bands, key=omega.__getitem__, reverse=True)
                    rest = order[set_size:]
                    del order[set_size:]
                    order.sort()
                    sel = tuple(order)
                statuses, xi = sense(sel, t, omega)
                if type(statuses) is not list:
                    statuses = statuses.tolist()
                record(new_tuple(SlotOutcome, (sel, statuses, xi,
                                               0 if xi else len(sel) - sum(statuses),
                                               phase)))
                t += 1
                # A new list: the prediction (1 - o) * p10 + o * (1 - p01), in
                # the operand order that fixes its bits, except that a
                # successful slot's sensed bands jump out of their state.
                if xi:
                    prev_sel = None
                    omega = [o + q10 - o * s for o, q10, s in zip(omega, p10, p_sum)]
                else:
                    # Transition evidence is credited only from same-set
                    # pairs of sets no larger than the branch count (every
                    # group set is): success is then unconditional, whereas
                    # for larger sets conditioning on a successful
                    # reconstruction censors high busy counts and biases the
                    # vacancy estimates upward. A credit out of the busy
                    # state changes p10 alone.
                    if prev_sel == sel and len(sel) <= k:
                        update_counts(belief, sel, prev_statuses, statuses)
                        oldm_size = None
                        for band, u in zip(sel, prev_statuses):
                            p_sum[band] = p10[band] + p01[band]
                            if not u:
                                stay[band] = 1.0 - p01[band]
                    omega = omega[:]
                    for band in rest:
                        o = omega[band]
                        omega[band] = o + p10[band] - o * p_sum[band]
                    for band, busy in zip(sel, statuses):
                        omega[band] = p10[band] if busy else stay[band]
                    if not is_imp:
                        prev_sel, prev_statuses = sel, statuses
                belief.omega = omega
            if explore:
                prev_sel = None
    finally:
        belief._to_arrays()
    return outcomes
