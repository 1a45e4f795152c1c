"""Online band-selection policies.

Time is organised in blocks of 2 * ceil(N / K) slots. A block either
explores (a fixed schedule senses every band group for two consecutive
slots, yielding one transition observation per band) or exploits (the
currently most promising bands are sensed each slot). Both phases take
one slot step and learn only from same-set pairs of consecutive slots.
Three policies share the loop:

* LDM  - learns transition statistics, always senses K bands.
* OLDM - like LDM, but once every band has enough observations the set
         size is re-optimised from the estimated vacancy probabilities.
         The estimates change only in update_counts, so the size is
         recomputed at the first exploitation block after an update and
         reused until the next one.
* IMP  - ideal myopic baseline: OLDM with its estimates frozen at the
         config's true statistics and unlocked from the first slot, so
         it senses the optimal set size throughout and never explores.

Each slot hands Environment.sense the selected bands, the slot index and
the current vacancy beliefs. OracleEnvironment reports the truth through
recovery.oracle_sense, so the busy-count rule has one home, and
experiments.SignalEnvironment the MAP support of recovery.signal_sense.
A run is recorded as ints and the two phase strings, which the cyclic
garbage collector does not track, and a slot's selected set and statuses
are dropped after the next slot's credit, so a long run keeps no per-slot
container for the collector to rescan.

While run_policy runs, the per-band learner state is held in plain Python
lists and updated element by element: with few bands a numpy call costs
more in overhead than in arithmetic, and every shipped config has
N <= 16. Python floats are IEEE doubles and each prediction keeps the
operand order o + p10 - o * (p10 + p01), so every belief, estimate and
selected set is bit-identical to the same loop on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .config import POLICY_MODES, ExperimentConfig
from .recovery import SenseResult, oracle_sense
from .sizing import exploration_threshold, optimize_size
from .spectrum import check_trajectory

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

    xi: int                     # 1 when reconstruction failed
    throughput: int             # vacant bands reported, 0 on failure
    phase: str                  # EXPLORE or EXPLOIT


class SlotLog:
    """The slots of one policy run as three equal-length columns.

    A log is read by len, by iteration as SlotOutcome items built on
    demand, and by its columns (log.phase[t], log.throughput[-200:]);
    it is not indexed.
    """

    __slots__ = ("xi", "throughput", "phase")

    def __init__(self, xi: list[int], throughput: list[int], phase: list[str]):
        self.xi, self.throughput, self.phase = xi, throughput, phase

    def __len__(self) -> int:
        return len(self.xi)

    def __iter__(self):
        return map(SlotOutcome._make, zip(self.xi, self.throughput, self.phase))


class Environment(Protocol):
    """A sensing backend. sense takes the selected bands, the slot and
    the policy's vacancy beliefs (one per band, indexed by band); the
    beliefs are required, and a backend may ignore them. The request is
    run_policy's: a strictly ascending tuple of band indices, at slots 0,
    1, 2, ... in order. A signal backend rejects any other request."""

    def sense(self, selected: tuple[int, ...], slot: int,
              prior_vacancy: Sequence[float]) -> SenseResult: ...


class OracleEnvironment:
    """Sensing backend that reads statuses straight off a precomputed trajectory.

    The trajectory, checked by spectrum.check_trajectory, is held as one
    list of ints per slot. sense returns recovery.oracle_sense of the
    selected bands' statuses, a fresh list, whatever the beliefs, and a
    slot outside the trajectory raises a ValueError. The environment keeps
    no per-run state, so one instance serves every policy that senses the
    same trajectory.
    """

    def __init__(self, trajectory: np.ndarray, k_branches: int):
        self.rows = check_trajectory(trajectory).tolist()
        self.slots = len(self.rows)
        self.k_branches = k_branches

    def sense(self, selected, slot, prior_vacancy) -> SenseResult:
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
               belief: BeliefState | None = None) -> SlotLog:
    """Run one policy, mode (one of POLICY_MODES), over the horizon.

    The settings (n_bands, k_branches, horizon, exploration_coefficient,
    mu and delta) are the config's. The branch count, mu and delta are
    checked here, by the exploration budget every mode computes; the
    caller validates the remaining fields with config.validate(), as
    run_experiment does. The environment supplies per-slot sensing of
    whichever band set the policy requests, given as an ascending tuple of
    band indices. LDM and OLDM learn from scratch. IMP's estimates are the
    config's band_statistics(), frozen, and it is unlocked from slot 0, so
    OLDM's sizing gives it the optimal set size once. A caller-supplied
    belief is updated in place, which also exposes the final learner state
    as numpy arrays.

    Each block has one policy coin, all drawn up front by one
    rng.random call (IMP never explores and draws none). An exploration
    block senses a fixed schedule, every group's bands twice in a row; an
    exploitation block senses the set_size bands of largest belief each
    slot. Both phases then take the same slot step: sense, record, credit
    the pair, and advance the beliefs into a new list. A slot is recorded
    by appending its xi, throughput and phase to the returned SlotLog's
    columns; the selected bands and their statuses are not kept.
    """
    if mode not in POLICY_MODES:
        raise ValueError(f"mode must be one of {POLICY_MODES} (got {mode!r})")
    n, k, horizon = config.n_bands, config.k_branches, config.horizon
    # OLDM's unlock budget; it also rejects a branch count outside
    # [1, n_bands] before anything divides by it.
    unlock_obs = exploration_threshold(n, k, config.mu, config.delta).observations
    n_groups = -(-n // k)
    block_len = 2 * n_groups
    is_imp = mode == "IMP"
    is_oldm = mode == "OLDM"

    if belief is None:
        belief = BeliefState.fresh(n)
    elif belief.n_bands != n:
        raise ValueError("belief length must equal n_bands")
    if is_imp:
        stats = config.band_statistics()
        belief.p01_hat, belief.p10_hat = stats.p01, stats.p10
        belief.omega = belief.vacancy_estimates()

    # Each exploration slot's group and the bands it leaves unsensed.
    explore_sets = [tuple(explore_schedule(g, n, k).tolist())
                    for g in range(n_groups) for _ in range(2)]
    explore_rest = [[band for band in range(n) if band not in group]
                    for group in explore_sets]
    bands = list(range(n))
    # One coin per block from one call: the numbers and the final generator
    # state of one rng.random() per block. IMP draws none.
    n_blocks = -(-horizon // block_len)
    coins = [] if is_imp else rng.random(n_blocks).tolist()
    log = SlotLog([], [], [])
    t = 0
    # A learning policy's previous slot's set and statuses, if that slot
    # succeeded. Exploration blocks clear them when they start and end, so
    # no pair straddles a phase change, while consecutive exploitation
    # blocks still pair.
    prev_sel = prev_statuses = None
    # An unlocked policy's set size, kept until update_counts, the only step
    # that changes the estimates, runs again. The counts only grow, so
    # OLDM's unlock, once reached, holds; IMP starts unlocked and never
    # updates its estimates, so it sizes once.
    adaptive_size: int | None = None
    unlocked = is_imp

    belief._to_lists()
    try:
        omega, p01, p10 = belief.omega, belief.p01_hat, belief.p10_hat
        obs_count = belief.obs_count
        for b in range(1, n_blocks + 1):
            explore = (not is_imp) and coins[b - 1] < epsilon(b, config.exploration_coefficient)
            if explore:
                phase = EXPLORE
                prev_sel = None
            else:
                phase = EXPLOIT
                if unlocked or (is_oldm and min(obs_count) >= unlock_obs):
                    unlocked = True
                    if adaptive_size is None:
                        adaptive_size = optimize_size(belief.vacancy_estimates(), k).size
                    set_size = adaptive_size
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
                statuses, xi = env.sense(sel, t, omega)
                if type(statuses) is not list:
                    statuses = statuses.tolist()
                log.xi.append(xi)
                log.throughput.append(0 if xi else len(sel) - sum(statuses))
                log.phase.append(phase)
                t += 1
                # A new list: the prediction (1 - o) * p10 + o * (1 - p01), in
                # the operand order that fixes its bits, except that a
                # successful slot's sensed bands jump out of their state.
                if xi:
                    prev_sel = None
                    omega = [o + q10 - o * (q10 + q01)
                             for o, q10, q01 in zip(omega, p10, p01)]
                else:
                    # Transition evidence is credited only from same-set
                    # pairs of sets no larger than the branch count (every
                    # group set is): success is then unconditional, whereas
                    # for larger sets conditioning on a successful
                    # reconstruction censors high busy counts and biases the
                    # vacancy estimates upward.
                    if prev_sel == sel and len(sel) <= k:
                        update_counts(belief, sel, prev_statuses, statuses)
                        adaptive_size = None
                    omega = omega[:]
                    for band in rest:
                        o = omega[band]
                        omega[band] = o + p10[band] - o * (p10[band] + p01[band])
                    for band, busy in zip(sel, statuses):
                        omega[band] = p10[band] if busy else 1.0 - p01[band]
                    if not is_imp:
                        prev_sel, prev_statuses = sel, statuses
                belief.omega = omega
            if explore:
                prev_sel = None
    finally:
        belief._to_arrays()
    return log
