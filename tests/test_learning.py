import gc

import numpy as np
import pytest

from conftest import (RecordingEnvironment, ReferenceOracleEnvironment,
                      ReferenceSlot, estimate_transition,
                      reference_exploit_select, reference_propagate_belief,
                      reference_run_policy, success_probability)
from wssim import experiments, learning
from wssim.config import ExperimentConfig
from wssim.experiments import SignalEnvironment, run_replication
from wssim.learning import (EXPLOIT, EXPLORE, BeliefState, OracleEnvironment,
                            SlotLog, SlotOutcome, epsilon, explore_schedule,
                            run_policy, update_counts)
from wssim.recovery import SupportTable
from wssim.sensing import draw_sensing_matrix
from wssim.sizing import exploration_threshold, optimize_size
from wssim.spectrum import (CASE_STATIONARY, BandStatistics,
                            simulate_occupancy, stationary_vacancy)


def case1_stats(mixing=0.5):
    return BandStatistics.from_stationary(np.array(CASE_STATIONARY["case1"]),
                                          mixing=mixing)


def oracle_run(mode, horizon, seed=0, n=8, k=4, **cfg_kwargs):
    """An oracle run's SlotLog, final belief and trajectory, and the
    RecordingEnvironment that kept its sensed sets and statuses."""
    cfg = ExperimentConfig(n_bands=n, k_branches=k, horizon=horizon,
                           **cfg_kwargs)
    rng = np.random.default_rng(seed)
    trajectory = simulate_occupancy(cfg.band_statistics(), horizon, rng)
    sensed = RecordingEnvironment(OracleEnvironment(trajectory, k))
    belief = BeliefState.fresh(n)
    log = run_policy(cfg, mode, sensed, rng, belief=belief)
    return log, belief, trajectory, sensed


class TestEpsilon:
    def test_capped_at_one(self):
        assert epsilon(5, 10.0) == 1.0

    def test_decays_with_blocks(self):
        assert epsilon(20, 10.0) == pytest.approx(0.5)

    def test_boundary(self):
        assert epsilon(1, 1.0) == 1.0

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            epsilon(0, 10.0)


class TestExploreSchedule:
    def test_first_group(self):
        np.testing.assert_array_equal(explore_schedule(0, 8, 4), [0, 1, 2, 3])

    def test_second_group(self):
        np.testing.assert_array_equal(explore_schedule(1, 8, 4), [4, 5, 6, 7])

    def test_truncated_last_group(self):
        np.testing.assert_array_equal(explore_schedule(1, 7, 4), [4, 5, 6])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            explore_schedule(2, 8, 4)
        with pytest.raises(ValueError):
            explore_schedule(-1, 8, 4)


class TestEstimateTransition:
    def test_direct_ratio(self):
        p = estimate_transition(np.array([[1, 3], [1, 1]]))
        np.testing.assert_allclose(p, [[0.25, 0.75], [0.5, 0.5]])

    def test_fresh_counts_give_half(self):
        p = estimate_transition(np.ones((2, 2)))
        np.testing.assert_allclose(p, 0.5)

    def test_busy_row(self):
        p = estimate_transition(np.array([[1, 1], [9, 1]]))
        assert p[1, 0] == pytest.approx(0.9)
        assert p[1, 1] == pytest.approx(0.1)

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            counts = rng.integers(1, 50, size=(2, 2))
            p = estimate_transition(counts)
            np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            estimate_transition(np.ones(4))


class TestUpdateCounts:
    def test_vacant_to_busy(self):
        belief = BeliefState.fresh(3)
        update_counts(belief, np.array([1]), np.array([0]), np.array([1]))
        assert belief.counts[1, 0, 1] == 2
        assert belief.obs_count[1] == 1

    def test_busy_to_busy(self):
        belief = BeliefState.fresh(3)
        update_counts(belief, np.array([2]), np.array([1]), np.array([1]))
        assert belief.counts[2, 1, 1] == 2

    def test_refreshes_estimates_of_credited_bands_only(self):
        belief = BeliefState.fresh(3)
        update_counts(belief, np.array([0, 2]), np.array([0, 1]),
                      np.array([1, 0]))
        update_counts(belief, np.array([0]), np.array([0]), np.array([1]))
        # Band 0: counts [[1, 3], [1, 1]]; band 2: [[1, 1], [2, 1]].
        for band, counts in ((0, belief.counts[0]), (1, belief.counts[1]),
                             (2, belief.counts[2])):
            expected = estimate_transition(counts)
            assert belief.p01_hat[band] == expected[0, 1]
            assert belief.p10_hat[band] == expected[1, 0]
        assert belief.p01_hat[0] == 0.75 and belief.p10_hat[2] == 2.0 / 3.0
        assert belief.p01_hat[1] == belief.p10_hat[1] == 0.5

    def test_fresh_belief_after_one_observation(self):
        belief = BeliefState.fresh(1)
        update_counts(belief, np.array([0]), np.array([0]), np.array([0]))
        expected = np.ones((1, 2, 2))
        expected[0, 0, 0] = 2
        np.testing.assert_array_equal(belief.counts, expected)

    def test_rejects_length_mismatch(self):
        belief = BeliefState.fresh(3)
        with pytest.raises(ValueError):
            update_counts(belief, np.array([0, 1]), np.array([0]), np.array([1]))


class TestPropagateBelief:
    """The numpy belief step of reference_run_policy, which run_policy matches."""

    def test_observed_vacant_jumps_to_stay_probability(self):
        belief = BeliefState.fresh(2)
        belief.p01_hat = np.array([0.2, 0.2])   # p00 = 0.8
        belief.p10_hat = np.array([0.4, 0.4])
        outcome = ReferenceSlot(selected=np.array([0]), statuses=np.array([0]),
                                xi=0, throughput=1, phase="exploit")
        omega = reference_propagate_belief(belief, outcome)
        assert omega[0] == pytest.approx(0.8)

    def test_observed_busy_jumps_to_leave_probability(self):
        belief = BeliefState.fresh(1)
        belief.p10_hat = np.array([0.3])
        outcome = ReferenceSlot(selected=np.array([0]), statuses=np.array([1]),
                                xi=0, throughput=0, phase="exploit")
        assert reference_propagate_belief(belief, outcome)[0] == pytest.approx(0.3)

    def test_unobserved_band_one_step_prediction(self):
        belief = BeliefState.fresh(2)
        belief.omega = np.array([0.0, 0.5])
        belief.p10_hat = np.array([0.3, 0.2])
        belief.p01_hat = np.array([0.5, 0.2])   # p00 = 0.5, 0.8
        outcome = ReferenceSlot(selected=np.array([], dtype=int),
                                statuses=np.array([], dtype=int),
                                xi=0, throughput=0, phase="exploit")
        omega = reference_propagate_belief(belief, outcome)
        assert omega[0] == pytest.approx(0.3)
        assert omega[1] == pytest.approx(0.5)

    def test_failed_slot_uses_prediction_everywhere(self):
        belief = BeliefState.fresh(2)
        belief.omega = np.array([0.5, 0.5])
        belief.p10_hat = np.array([0.2, 0.2])
        belief.p01_hat = np.array([0.2, 0.2])
        outcome = ReferenceSlot(selected=np.array([0, 1]), statuses=np.array([1, 1]),
                                xi=1, throughput=0, phase="exploit")
        omega = reference_propagate_belief(belief, outcome)
        np.testing.assert_allclose(omega, 0.5)


class TestExploitSelect:
    """The numpy selection of reference_run_policy, which run_policy matches."""

    def test_top_k(self):
        belief = BeliefState.fresh(4)
        belief.omega = np.array([0.9, 0.1, 0.8, 0.7])
        np.testing.assert_array_equal(reference_exploit_select(belief, 3, 3), [0, 2, 3])

    def test_ties_prefer_low_index(self):
        belief = BeliefState.fresh(5)
        np.testing.assert_array_equal(reference_exploit_select(belief, 3, 2), [0, 1, 2])

    def test_scale_invariance(self, rng):
        belief = BeliefState.fresh(6)
        belief.omega = rng.random(6)
        base = reference_exploit_select(belief, 4, 2)
        belief.omega = belief.omega * 0.37
        np.testing.assert_array_equal(reference_exploit_select(belief, 4, 2), base)

    def test_rejects_bad_sizes(self):
        belief = BeliefState.fresh(4)
        with pytest.raises(ValueError):
            reference_exploit_select(belief, 1, 2)
        with pytest.raises(ValueError):
            reference_exploit_select(belief, 5, 2)


class TestRunPolicy:
    def test_pure_exploration_observation_accounting(self):
        # With an exploration coefficient that forces every block to explore,
        # each band collects exactly one observation per block.
        horizon = 400  # 100 blocks of 4 slots at N=8, K=4
        _, belief, _, _ = oracle_run("LDM", horizon, exploration_coefficient=1e9)
        np.testing.assert_array_equal(belief.obs_count, np.full(8, 100))

    def test_block_structure_explore_pattern(self):
        log, _, _, sensed = oracle_run("LDM", 400, exploration_coefficient=1e9)
        assert len(log) == len(sensed.selected) == 400
        for t, (outcome, selected) in enumerate(zip(log, sensed.selected)):
            group = (t % 4) // 2
            assert selected == tuple(explore_schedule(group, 8, 4).tolist())
            assert outcome.phase == "explore"
            assert outcome.xi == 0

    def test_imp_uses_optimal_size_from_first_slot(self):
        log, _, _, sensed = oracle_run("IMP", 40)
        assert all(len(selected) == 7 for selected in sensed.selected)
        assert all(o.phase == "exploit" for o in log)

    def test_imp_takes_the_configs_statistics(self):
        # Explicit vectors that are not the case profile: case1's vacancies
        # reversed, so the top bands sit at the low indices.
        stats = BandStatistics.from_stationary(
            np.array(CASE_STATIONARY["case1"][::-1]), mixing=0.5)
        cfg = ExperimentConfig(n_bands=8, k_branches=4, horizon=40,
                               p01=tuple(stats.p01.tolist()),
                               p10=tuple(stats.p10.tolist()))
        trajectory = simulate_occupancy(stats, 40, np.random.default_rng(0))
        belief = BeliefState.fresh(8)
        sensed = RecordingEnvironment(OracleEnvironment(trajectory, 4))
        run_policy(cfg, "IMP", sensed, np.random.default_rng(0), belief=belief)
        want = cfg.band_statistics()
        assert belief.p01_hat.tobytes() == want.p01.tobytes()
        assert belief.p10_hat.tobytes() == want.p10.tobytes()
        vacancy = stationary_vacancy(want)
        size = optimize_size(vacancy, 4).size
        top = np.argsort(-vacancy, kind="stable")[:size]
        assert sensed.selected[0] == tuple(sorted(top.tolist()))
        # case1's own profile, which the config's case names, puts its top
        # bands at the high indices instead.
        assert sensed.selected[0] != tuple(range(8 - size, 8))

    def test_rejects_unknown_mode(self):
        trajectory = simulate_occupancy(case1_stats(), 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mode") as raised:
            run_policy(ExperimentConfig(horizon=8), "XYZ",
                       OracleEnvironment(trajectory, 4), np.random.default_rng(0))
        assert "'XYZ'" in str(raised.value)

    @pytest.mark.parametrize("mode", ["LDM", "IMP"])
    @pytest.mark.parametrize("k", [0, 9])
    def test_rejects_branch_count_outside_bands(self, k, mode):
        # An unvalidated config with K outside [1, N = 8]: the exploration
        # budget every mode computes rejects it by name, before any slot
        # runs or anything divides by K.
        trajectory = simulate_occupancy(case1_stats(), 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="k_branches"):
            run_policy(ExperimentConfig(k_branches=k, horizon=8), mode,
                       OracleEnvironment(trajectory, 4), np.random.default_rng(0))

    def test_throughput_counts_vacant_bands_on_success(self):
        log, _, trajectory, sensed = oracle_run("OLDM", 2000, seed=3)
        for t, (outcome, selected) in enumerate(zip(log, sensed.selected)):
            truth = trajectory[t, selected]
            if outcome.xi == 0:
                assert outcome.throughput == len(selected) - truth.sum()
            else:
                assert outcome.throughput == 0
            assert outcome.throughput <= len(selected)

    def test_ldm_always_senses_k_bands(self):
        _, _, _, sensed = oracle_run("LDM", 1000, seed=5)
        assert len(sensed.selected) == 1000
        assert all(len(selected) == 4 for selected in sensed.selected)

    def test_oldm_grows_sets_after_unlock(self):
        log, _, _, sensed = oracle_run("OLDM", 6000, seed=7,
                                       exploration_coefficient=50.0, mu=0.4)
        sizes = {len(selected)
                 for selected, phase in zip(sensed.selected[-200:], log.phase[-200:])
                 if phase == "exploit"}
        assert sizes and sizes.issubset({5, 6, 7, 8})

    def test_omega_stays_in_unit_interval(self):
        stats = case1_stats()
        rng = np.random.default_rng(11)
        trajectory = simulate_occupancy(stats, 1500, rng)
        env = OracleEnvironment(trajectory, 4)
        cfg = ExperimentConfig(n_bands=8, k_branches=4, horizon=1500,
                               mu=0.4, exploration_coefficient=30.0)
        belief = BeliefState.fresh(8)
        seen = []

        class Spy:
            def sense(self, selected, slot, prior_vacancy):
                seen.append(prior_vacancy.copy())
                return env.sense(selected, slot, prior_vacancy)

        run_policy(cfg, "OLDM", Spy(), rng, belief=belief)
        priors = np.array(seen)
        assert np.all(priors >= 0.0) and np.all(priors <= 1.0)

    @pytest.mark.parametrize("mode", ["IMP", "LDM"])
    def test_beliefs_handed_to_sense_never_change(self, mode):
        # Each slot's beliefs are a new list, so a list passed to sense()
        # keeps its values after the call, whatever later slots do.
        stats = case1_stats()
        rng = np.random.default_rng(17)
        trajectory = simulate_occupancy(stats, 600, rng)
        env = OracleEnvironment(trajectory, 4)
        kept = []

        class Spy:
            def sense(self, selected, slot, prior_vacancy):
                kept.append((prior_vacancy, list(prior_vacancy)))
                return env.sense(selected, slot, prior_vacancy)

        cfg = ExperimentConfig(n_bands=8, k_branches=4, horizon=600)
        run_policy(cfg, mode, Spy(), rng)
        assert len(kept) == 600
        assert all(prior == copy for prior, copy in kept)

    def test_observation_accounting_matches_pairing_rule(self):
        # Recompute expected per-band observation counts from the outcome
        # stream: one per exploration pair, plus one per consecutive
        # same-set successful exploitation pair of size at most K. Oversized
        # exploitation sets must contribute nothing.
        stats = case1_stats()
        rng = np.random.default_rng(13)
        trajectory = simulate_occupancy(stats, 4000, rng)
        cfg = ExperimentConfig(n_bands=8, k_branches=4, horizon=4000,
                               mu=0.9, delta=0.9, exploration_coefficient=2.0)
        belief = BeliefState.fresh(8)
        sensed = RecordingEnvironment(OracleEnvironment(trajectory, 4))
        log = run_policy(cfg, "OLDM", sensed, rng, belief=belief)
        slots = list(zip(sensed.selected, log))
        expected = np.zeros(8, dtype=int)
        oversized_pairs = 0
        for (prev_sel, prev), (cur_sel, cur) in zip(slots, slots[1:]):
            same_set = prev_sel == cur_sel
            both_ok = prev.xi == 0 and cur.xi == 0
            if not (same_set and both_ok):
                continue
            if prev.phase == "explore" and cur.phase == "explore":
                expected[list(cur_sel)] += 1
            elif prev.phase == "exploit" and cur.phase == "exploit":
                if len(cur_sel) <= 4:
                    expected[list(cur_sel)] += 1
                else:
                    oversized_pairs += 1
        assert oversized_pairs > 0  # the scenario exercises oversized sets
        np.testing.assert_array_equal(belief.obs_count, expected)

    def test_determinism(self):
        a, _, _, sensed_a = oracle_run("OLDM", 1200, seed=21)
        b, _, _, sensed_b = oracle_run("OLDM", 1200, seed=21)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == y
        assert sensed_a.selected == sensed_b.selected
        assert sensed_a.results == sensed_b.results

    def test_zero_horizon(self):
        log, _, _, sensed = oracle_run("LDM", 0)
        assert len(log) == 0 and sensed.selected == []

    def test_estimates_converge_with_forced_observations(self):
        # One band observed every consecutive slot pair; the stationary
        # estimate settles near truth in nearly all replications.
        p01, p10 = 0.5, 0.5
        reps, steps = 200, 10_000
        rng = np.random.default_rng(31)
        states = (rng.random(reps) < 0.5).astype(np.int8)
        counts = np.ones((reps, 2, 2), dtype=np.int64)
        for _ in range(steps):
            u = rng.random(reps)
            nxt = np.where(states == 0, u < p01, u >= p10).astype(np.int8)
            np.add.at(counts, (np.arange(reps), states, nxt), 1)
            states = nxt
        p01_hat = counts[:, 0, 1] / (counts[:, 0, 1] + counts[:, 0, 0])
        p10_hat = counts[:, 1, 0] / (counts[:, 1, 0] + counts[:, 1, 1])
        p0_hat = p10_hat / (p10_hat + p01_hat)
        hits = np.abs(p0_hat - 0.5) < 0.02
        assert hits.mean() >= 0.95


class TestSlotLog:
    def test_reads_as_a_sequence_of_slot_outcomes(self):
        # A log is read by length, iteration and columns; it is not indexed.
        log = SlotLog([0, 1, 0], [4, 0, 3], [EXPLORE, EXPLORE, EXPLOIT])
        assert len(log) == 3
        items = list(log)
        assert all(type(o) is SlotOutcome for o in items)
        assert items == [SlotOutcome(xi=0, throughput=4, phase="explore"),
                         SlotOutcome(xi=1, throughput=0, phase="explore"),
                         SlotOutcome(xi=0, throughput=3, phase="exploit")]
        assert (log.xi, log.throughput, log.phase) == \
            ([0, 1, 0], [4, 0, 3], ["explore", "explore", "exploit"])
        assert list(log) == items   # a log can be iterated again
        assert len(SlotLog([], [], [])) == 0 and list(SlotLog([], [], [])) == []

    def test_item_sum_equals_column_sum(self):
        # The benchmark's tracer reads len(log) and every item's xi.
        log = oracle_run("IMP", 2000, seed=3)[0]
        assert len(log) == 2000
        assert sum(o.xi for o in log) == sum(log.xi) > 0

    @pytest.mark.parametrize("rs_mode", ["oracle", "signal"])
    def test_replication_series_are_the_logs_throughputs(self, rs_mode, monkeypatch):
        logs = {}

        def keep(config, mode, *args):
            logs[mode] = run_policy(config, mode, *args)
            return logs[mode]

        monkeypatch.setattr(experiments, "run_policy", keep)
        cfg = ExperimentConfig(horizon=300, replications=2, seed=9,
                               rs_mode=rs_mode, snr_db=20.0)
        cfg.validate()
        series = run_replication(cfg, 1)
        assert list(series) == list(logs) == list(cfg.policies)
        for policy, values in series.items():
            assert values.dtype == np.float64
            assert values.tolist() == logs[policy].throughput

    def test_columns_hold_no_collector_tracked_values(self):
        # A run keeps only ints and the two phase strings, none of which
        # the cyclic garbage collector tracks, so however long the run,
        # its log adds nothing to the collector's scans.
        log = oracle_run("OLDM", 5000, seed=7)[0]
        columns = (log.xi, log.throughput, log.phase)
        assert [len(column) for column in columns] == [5000] * 3
        assert set(log.phase) == {EXPLORE, EXPLOIT}
        assert not any(gc.is_tracked(v) for column in columns for v in column)


class TestOracleEnvironment:
    @pytest.mark.parametrize("bad", [-1, 2, 0.5, 257])
    def test_rejects_non_binary_trajectory(self, bad):
        trajectory = np.zeros((6, 8))
        trajectory[3, 5] = bad
        with pytest.raises(ValueError, match="0/1"):
            OracleEnvironment(trajectory, 4)

    def test_rejects_one_dimensional_trajectory(self):
        with pytest.raises(ValueError, match="slots x bands"):
            OracleEnvironment(np.zeros(8, dtype=np.int8), 4)


class TestImpThroughputLevel:
    def test_imp_matches_truncated_mean_not_product_objective(self):
        # For the ideal policy the expected slot throughput is the truncated
        # mean sum_{i<=G}(M-i)P(busy=i), which strictly exceeds the product
        # objective P(success)*sum(p0); belief-driven selection adds more.
        stats = case1_stats()
        p0 = stationary_vacancy(stats)
        top7 = np.sort(p0)[::-1][:7]
        objective = success_probability(top7, 4) * top7.sum()
        totals = []
        for seed in range(40):
            log = oracle_run("IMP", 1000, seed=seed)[0]
            totals.append(np.mean([o.throughput for o in log]))
        realized = np.mean(totals)
        se = np.std(totals) / np.sqrt(len(totals))
        assert realized >= objective - 3 * se
        assert realized <= 7.0


def assert_same_run(cfg, mode, make_env, make_reference_env, seed,
                    belief=None):
    """run_policy and the numpy reference loop give identical runs and
    leave their policy generators in the same state. The reference's IMP
    takes the config's statistics as its true_stats. The sensed sets and
    statuses are compared as a RecordingEnvironment saw them; returns
    run_policy's SlotLog and that recorder."""
    if belief is None:
        belief = BeliefState.fresh(cfg.n_bands)
    ref_belief = BeliefState.fresh(cfg.n_bands)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sensed = RecordingEnvironment(make_env())
    log = run_policy(cfg, mode, sensed, rng, belief=belief)
    expected = reference_run_policy(cfg, mode, make_reference_env(), ref_rng,
                                    true_stats=cfg.band_statistics(),
                                    belief=ref_belief)
    # The reference draws one coin per block; run_policy draws them all at
    # once. The next draw tells whether both consumed the same numbers.
    assert rng.random() == ref_rng.random()
    assert len(log) == len(sensed.selected) == len(expected) == cfg.horizon
    for got, selected, result, want in zip(log, sensed.selected, sensed.results,
                                           expected):
        statuses = result.statuses
        if isinstance(statuses, np.ndarray):
            # The signal backend's int8 statuses, which run_policy reads
            # through tolist().
            assert statuses.dtype == np.int8
            statuses = statuses.tolist()
        assert type(selected) is tuple and type(statuses) is list
        assert all(type(x) is int for x in selected + tuple(statuses))
        assert selected == tuple(want.selected.tolist())
        assert statuses == want.statuses.tolist()
        assert (got.xi, got.throughput, got.phase) == \
            (want.xi, want.throughput, want.phase)
    for name in ("omega", "counts", "p01_hat", "p10_hat", "obs_count"):
        got, want = getattr(belief, name), getattr(ref_belief, name)
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    return log, sensed


class TestMatchesNumpyReference:
    """The list-backed loop is bit-identical to the numpy loop it replaced."""

    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("mode", ["IMP", "LDM", "OLDM"])
    def test_oracle_runs_identical(self, mode, case):
        for n, k in ((8, 4), (7, 3), (16, 8), (16, 4), (5, 5)):
            cfg = ExperimentConfig(n_bands=n, k_branches=k, horizon=1500,
                                   case=case)
            stats = cfg.band_statistics()
            for seed in (1, 2, 3):
                trajectory = simulate_occupancy(stats, cfg.horizon,
                                                np.random.default_rng(seed))
                assert_same_run(cfg, mode,
                                lambda: OracleEnvironment(trajectory, k),
                                lambda: ReferenceOracleEnvironment(trajectory, k),
                                seed + 100)

    @pytest.mark.parametrize("coefficient", [1e9, 1.0], ids=["explore", "mixed"])
    @pytest.mark.parametrize("mode", ["LDM", "OLDM"])
    @pytest.mark.parametrize("n, k", [(8, 4), (7, 3)])
    def test_horizons_ending_inside_a_block(self, n, k, mode, coefficient):
        # Every horizon up to two blocks and a slot, so runs end between
        # the two slots of an exploration pair, between pairs and inside an
        # exploitation block. A coefficient of 1e9 makes every block
        # explore; at 1.0 the first block explores and later ones mix.
        # assert_same_run also checks, after each run, that the policy
        # generator's next draw equals the per-block reference's, so a run
        # ending inside a block has drawn that block's coin and no more.
        block_len = 2 * -(-n // k)
        block_phases = set()
        for horizon in range(1, 2 * block_len + 2):
            cfg = ExperimentConfig(n_bands=n, k_branches=k, horizon=horizon,
                                   exploration_coefficient=coefficient)
            stats = cfg.band_statistics()
            for seed in range(1, 7):
                trajectory = simulate_occupancy(stats, horizon,
                                                np.random.default_rng(seed))
                log, _ = assert_same_run(
                    cfg, mode, lambda: OracleEnvironment(trajectory, k),
                    lambda: ReferenceOracleEnvironment(trajectory, k), seed + 100)
                block_phases.add(tuple(log.phase[::block_len]))
        blocks = {phase for phases in block_phases for phase in phases}
        if coefficient > 1.0:
            assert blocks == {"explore"}
        else:
            # An exploration block follows an exploitation block in some run.
            assert any("exploit" in phases[:-1] and phases[-1] == "explore"
                       for phases in block_phases)

    @pytest.mark.parametrize("n, k", [(8, 4), (7, 3)])
    def test_imp_draws_no_coins(self, n, k):
        # IMP never explores, so its generator leaves the run untouched,
        # whether the horizon ends on a block boundary or inside a block.
        block_len = 2 * -(-n // k)
        for horizon in (1, block_len, 3 * block_len + 1):
            cfg = ExperimentConfig(n_bands=n, k_branches=k, horizon=horizon)
            stats = cfg.band_statistics()
            trajectory = simulate_occupancy(stats, horizon,
                                            np.random.default_rng(1))
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            run_policy(cfg, "IMP", OracleEnvironment(trajectory, k), rng)
            assert rng.bit_generator.state == state

    def test_oldm_after_unlock_identical(self):
        stats = case1_stats()
        cfg = ExperimentConfig(n_bands=8, k_branches=4, horizon=6000,
                               exploration_coefficient=50.0, mu=0.4)
        trajectory = simulate_occupancy(stats, cfg.horizon,
                                        np.random.default_rng(7))
        _, sensed = assert_same_run(cfg, "OLDM",
                                    lambda: OracleEnvironment(trajectory, 4),
                                    lambda: ReferenceOracleEnvironment(trajectory, 4),
                                    8)
        # Adaptive sizing unlocked and grew some exploitation sets.
        assert max(len(selected) for selected in sensed.selected) > 4

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_oldm_reused_size_equals_fresh_decision(self, case, monkeypatch):
        # OLDM sizes a block again only after update_counts has changed its
        # estimates. At the start of every unlocked exploitation block a
        # spy recomputes optimize_size from the live belief; every set of
        # the block must have that size, and the whole run must match the
        # reference loop, which re-sizes every block.
        n, k, seed = 8, 4, 7
        cfg = ExperimentConfig(case=case, n_bands=n, k_branches=k, horizon=6000,
                               exploration_coefficient=50.0, mu=0.4)
        stats = cfg.band_statistics()
        block_len = 2 * -(-n // k)
        unlock = exploration_threshold(n, k, cfg.mu, cfg.delta).observations
        trajectory = simulate_occupancy(stats, cfg.horizon,
                                        np.random.default_rng(seed))
        env = OracleEnvironment(trajectory, k)
        belief = BeliefState.fresh(n)
        fresh = {}

        class Spy:
            def sense(self, selected, slot, prior_vacancy):
                if slot % block_len == 0 and min(belief.obs_count) >= unlock:
                    fresh[slot] = optimize_size(belief.vacancy_estimates(), k).size
                return env.sense(selected, slot, prior_vacancy)

        calls = []
        sized = learning.optimize_size
        monkeypatch.setattr(learning, "optimize_size",
                            lambda *args: calls.append(args) or sized(*args))
        log, sensed = assert_same_run(
            cfg, "OLDM", Spy, lambda: ReferenceOracleEnvironment(trajectory, k),
            seed + 1, belief=belief)
        blocks = [t for t in fresh if log.phase[t] == EXPLOIT]
        for t in blocks:
            assert {len(s) for s in sensed.selected[t:t + block_len]} == {fresh[t]}
        assert max(fresh[t] for t in blocks) > k
        # Decisions were reused: far fewer calls than unlocked blocks.
        assert 0 < len(calls) < len(blocks) / 2

    @pytest.mark.parametrize("mode", ["IMP", "LDM"])
    def test_signal_runs_identical(self, mode):
        config = ExperimentConfig(n_bands=8, k_branches=4, horizon=200,
                                  rs_mode="signal", snr_db=20.0, seed=5)
        stats = config.band_statistics()
        trajectory = simulate_occupancy(stats, config.horizon,
                                        np.random.default_rng(1))
        table = SupportTable(draw_sensing_matrix(4, 8, np.random.default_rng(2)),
                             config.recovery_config())

        def make_env():
            return SignalEnvironment(trajectory, table, np.random.default_rng(3))

        assert_same_run(config, mode, make_env, make_env, 4)
