"""Online band-selection policies.

Time is organised in blocks of 2 * ceil(N / K) slots. A block either
explores (every band group is sensed for two consecutive slots, yielding
one transition observation per band) or exploits (the currently most
promising bands are sensed each slot). Three policies share the loop:

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

While run_policy runs, the per-band learner state (beliefs, estimates,
transition counts and observation counts) is held in plain Python lists,
and the per-slot steps (propagate_belief, exploit_select, update_counts)
work element by element. With few bands, a numpy call on a length-N vector
costs more in call overhead than in arithmetic. The list-backed loop
therefore pays off only while N is small. Measured with oracle sensing,
K = N / 2 and 4,000 slots against the same loop on numpy arrays (which
also re-sizes OLDM every block; best of 9 interleaved CPU times, two
runs), OLDM runs 2.7-2.8x as fast at N = 8, 1.9-2.2x at N = 16 and
1.0x at N = 64, but only 0.46x at N = 256; IMP, which senses larger
sets, 1.7-2.1x, 1.5x, 0.7-0.8x and 0.3x. Every shipped config has
N <= 16. Python float and int arithmetic is the same IEEE double
arithmetic as numpy's elementwise operations, so every belief, estimate
and selected set is bit-identical to the array form. A caller's BeliefState holds numpy arrays again once
run_policy returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .recovery import SenseResult, oracle_sense
from .sizing import exploration_threshold, optimize_size
from .spectrum import BandStatistics, check_trajectory, stationary_vacancy

POLICY_MODES = ("LDM", "OLDM", "IMP")

EXPLORE = "explore"
EXPLOIT = "exploit"


@dataclass
class PolicyConfig:
    """Run-time parameters of one policy run."""

    n_bands: int
    k_branches: int
    horizon: int
    exploration_coefficient: float = 10.0
    mu: float = 0.5
    delta: float = 0.1
    mode: str = "OLDM"

    def validate(self):
        if self.n_bands < 1:
            raise ValueError("n_bands must be at least 1")
        if not 1 <= self.k_branches <= self.n_bands:
            raise ValueError(
                f"k_branches must satisfy 1 <= k_branches <= n_bands "
                f"(got {self.k_branches} with n_bands={self.n_bands})")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if not self.exploration_coefficient > 0.0:
            raise ValueError("exploration_coefficient must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}")


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


def _off_diagonal(c) -> tuple[float, float]:
    """(p01, p10) estimates from one band's 2x2 counts: C_uv / (C_uv + C_uu)."""
    (c00, c01), (c10, c11) = c
    return c01 / (c01 + c00), c10 / (c10 + c11)


def update_counts(belief: BeliefState, selected, statuses_prev,
                  statuses_now) -> BeliefState:
    """Credit one observed transition per selected band and refresh that
    band's transition estimates.

    Both status sequences must come from successful senses of the same
    band set in consecutive slots.
    """
    if not (len(selected) == len(statuses_prev) == len(statuses_now)):
        raise ValueError("selected and status vectors must have equal length")
    counts, obs_count = belief.counts, belief.obs_count
    p01_hat, p10_hat = belief.p01_hat, belief.p10_hat
    for band, u, v in zip(selected, statuses_prev, statuses_now):
        c = counts[band]
        c[u][v] += 1
        obs_count[band] += 1
        p01_hat[band], p10_hat[band] = _off_diagonal(c)
    return belief


def propagate_belief(belief: BeliefState, outcome: SlotOutcome) -> list[float]:
    """Advance the vacancy beliefs by one slot.

    Bands sensed in a successful slot jump to the estimated transition
    probability out of their observed state; every other band (and every
    band of a failed slot) follows the one-step prediction
    (1 - omega) * p10 + omega * p00. The beliefs are replaced by a new
    list, never changed in place.
    """
    p01, p10 = belief.p01_hat, belief.p10_hat
    # (1 - omega) * p10 + omega * (1 - p01), in the operand order that fixes
    # every belief's bits.
    new_omega = [o + b - o * (b + a) for o, a, b in zip(belief.omega, p01, p10)]
    if outcome.xi == 0:
        for band, busy in zip(outcome.selected, outcome.statuses):
            new_omega[band] = p10[band] if busy == 1 else 1.0 - p01[band]
    belief.omega = new_omega
    return new_omega


def exploit_select(belief: BeliefState, set_size: int,
                   k_branches: int) -> tuple[int, ...]:
    """The set_size bands with the largest vacancy belief, ties to the
    lowest band index; returned in ascending band order."""
    omega = belief.omega
    n = len(omega)
    if not k_branches <= set_size <= n:
        raise ValueError("set_size must satisfy k_branches <= set_size <= n_bands")
    # A reverse sort is stable, so equal beliefs keep ascending band order.
    top = sorted(range(n), key=omega.__getitem__, reverse=True)[:set_size]
    top.sort()
    return tuple(top)


def run_policy(cfg: PolicyConfig, env: Environment, rng: np.random.Generator,
               true_stats: BandStatistics | None = None,
               belief: BeliefState | None = None) -> list[SlotOutcome]:
    """Run one policy over the configured horizon.

    The environment supplies per-slot sensing of whichever band set the
    policy requests, given as a tuple of band indices. IMP needs
    true_stats for its exact beliefs and fixed optimal set size; LDM and
    OLDM learn from scratch. A caller-supplied belief is updated in place,
    which also exposes the final learner state as numpy arrays.
    """
    cfg.validate()
    n, k = cfg.n_bands, cfg.k_branches
    n_groups = -(-n // k)
    block_len = 2 * n_groups
    n_blocks = -(-cfg.horizon // block_len) if cfg.horizon else 0
    is_imp = cfg.mode == "IMP"
    is_oldm = cfg.mode == "OLDM"

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
                  if is_oldm else None)

    group_sets = [tuple(explore_schedule(g, n, k).tolist())
                  for g in range(n_groups)]
    outcomes: list[SlotOutcome] = []
    record = outcomes.append
    sense = env.sense
    t = 0
    # Last exploitation outcome, kept across consecutive exploitation blocks
    # and cleared by exploration so no pair straddles a phase change.
    prev: SlotOutcome | None = None
    # OLDM's set size, computed from the estimates and kept until
    # update_counts, the only step that changes them, runs again.
    oldm_size: int | None = None

    def sense_and_record(selected, phase):
        nonlocal t
        statuses, xi = sense(selected, t, belief.omega)
        if type(statuses) is not list:
            statuses = statuses.tolist()
        outcome = SlotOutcome(selected, statuses, xi,
                              0 if xi else len(selected) - sum(statuses), phase)
        record(outcome)
        t += 1
        return outcome

    belief._to_lists()
    try:
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
                    propagate_belief(belief, first)
                    if t >= cfg.horizon:
                        break
                    second = sense_and_record(sel, EXPLORE)
                    if first.xi == 0 and second.xi == 0:
                        update_counts(belief, sel, first.statuses, second.statuses)
                        oldm_size = None
                    propagate_belief(belief, second)
            else:
                if is_imp:
                    set_size = fixed_size
                elif is_oldm and min(belief.obs_count) >= unlock_obs:
                    if oldm_size is None:
                        oldm_size = optimize_size(belief.vacancy_estimates(), k).size
                    set_size = oldm_size
                else:
                    set_size = k
                for _ in range(block_len):
                    if t >= cfg.horizon:
                        break
                    sel = exploit_select(belief, set_size, k)
                    outcome = sense_and_record(sel, EXPLOIT)
                    # Transition evidence is credited only from same-set pairs
                    # of sets no larger than the branch count: success is then
                    # unconditional, whereas for larger sets conditioning on a
                    # successful reconstruction censors high busy counts and
                    # biases the vacancy estimates upward.
                    if (not is_imp and prev is not None
                            and len(sel) <= k and prev.selected == sel
                            and prev.xi == 0 and outcome.xi == 0):
                        update_counts(belief, sel, prev.statuses, outcome.statuses)
                        oldm_size = None
                    propagate_belief(belief, outcome)
                    prev = outcome
    finally:
        belief._to_arrays()
    return outcomes
