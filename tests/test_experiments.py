import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (ReferenceSignalEnvironment, complex_noise,
                      synthesize_band_spectra)
from wssim import experiments, recovery
from wssim.config import ExperimentConfig, dump_config, load_config
from wssim.experiments import (SignalEnvironment, compute_regret,
                               emit_results, run_experiment, run_replication)
from wssim.learning import BeliefState, OracleEnvironment, run_policy
from wssim.recovery import RecoveryConfig, SenseResult, SupportTable
from wssim.sensing import draw_sensing_matrix, noise_power_for_snr
from wssim.spectrum import simulate_occupancy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INTEGER_FIELDS = ["replications", "horizon", "bins_per_band", "n_bands",
                  "k_branches", "seed"]


def small_config(**overrides):
    base = dict(horizon=200, replications=3, seed=9, policies=("IMP", "LDM", "OLDM"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestComputeRegret:
    def test_identical_series_zero(self):
        series = np.arange(10.0)
        np.testing.assert_array_equal(compute_regret(series, series), np.zeros(10))

    def test_constant_gap_unit_slope(self):
        imp = np.full(50, 5.0)
        np.testing.assert_allclose(compute_regret(imp - 1.0, imp),
                                   np.arange(1, 51, dtype=float))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_regret(np.zeros(3), np.zeros(4))


class TestRunExperiment:
    def test_imp_only_zero_regret(self):
        series = run_experiment(small_config(policies=("IMP",)))
        np.testing.assert_array_equal(series.mean_regret["IMP"], np.zeros(200))

    def test_series_shapes_and_finiteness(self):
        series = run_experiment(small_config())
        for policy in ("IMP", "LDM", "OLDM"):
            assert series.mean_throughput[policy].shape == (200,)
            assert series.mean_regret[policy].shape == (200,)
            assert np.all(np.isfinite(series.mean_throughput[policy]))
            assert np.all(np.isfinite(series.mean_regret[policy]))
            assert series.rep_totals[policy].shape == (3,)

    def test_common_random_numbers_across_policy_lists(self):
        # The IMP series must not depend on which other policies run.
        alone = run_experiment(small_config(policies=("IMP",)))
        together = run_experiment(small_config())
        np.testing.assert_array_equal(alone.mean_throughput["IMP"],
                                      together.mean_throughput["IMP"])

    def test_merge_is_order_independent(self):
        cfg = small_config()
        series = run_experiment(cfg)
        stacked = {p: np.empty((3, 200)) for p in cfg.policies}
        for r in (2, 0, 1):
            rep = run_replication(cfg, r)
            for p in cfg.policies:
                stacked[p][r] = rep[p]
        for p in cfg.policies:
            np.testing.assert_array_equal(stacked[p].mean(axis=0),
                                          series.mean_throughput[p])

    def test_signal_mode_runs(self):
        cfg = small_config(horizon=48, replications=2, rs_mode="signal",
                           snr_db=20.0, bins_per_band=16,
                           policies=("IMP", "OLDM"))
        series = run_experiment(cfg)
        for policy in cfg.policies:
            assert np.all(np.isfinite(series.mean_throughput[policy]))
            assert series.mean_throughput[policy].max() <= 8.0

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ValueError, match="k_branches"):
            run_experiment(small_config(k_branches=9))

    def test_rep_index_range_checked(self):
        with pytest.raises(ValueError):
            run_replication(small_config(), 3)

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    def test_replication_seed_is_the_spawned_child(self, seed):
        # run_replication builds child rep_index of SeedSequence(seed)
        # directly; it must equal spawning every replication's child.
        for rep_index in (0, 1, 9):
            spawned = np.random.SeedSequence(seed).spawn(10)[rep_index]
            direct = np.random.SeedSequence(seed, spawn_key=(rep_index,))
            assert (direct.entropy, direct.spawn_key, direct.pool_size) == \
                (spawned.entropy, spawned.spawn_key, spawned.pool_size)
            assert direct.generate_state(8).tobytes() == \
                spawned.generate_state(8).tobytes()
            for a, b in zip(direct.spawn(4), spawned.spawn(4)):
                assert a.generate_state(8).tobytes() == b.generate_state(8).tobytes()

    @pytest.mark.parametrize("rs_mode", ["oracle", "signal"])
    def test_replication_independent_of_replication_count(self, rs_mode):
        cfg = dict(horizon=60, rs_mode=rs_mode, snr_db=20.0, bins_per_band=16)
        few = run_replication(small_config(replications=2, **cfg), 1)
        many = run_replication(small_config(replications=50, **cfg), 1)
        for policy in few:
            assert few[policy].tobytes() == many[policy].tobytes()


def signal_setup(n, k, snr_db, horizon, seed=1, bins_per_band=32):
    """A signal-mode config with its trajectory and sensing matrix."""
    config = ExperimentConfig(n_bands=n, k_branches=k, horizon=horizon,
                              case="case2", rs_mode="signal", snr_db=snr_db,
                              bins_per_band=bins_per_band)
    trajectory = simulate_occupancy(config.band_statistics(), horizon,
                                    np.random.default_rng(seed))
    matrix = draw_sensing_matrix(k, n, np.random.default_rng(seed + 1))
    return config, trajectory, matrix


def signal_environment(config, trajectory, matrix, seed):
    """A SignalEnvironment over its own support table of matrix."""
    return SignalEnvironment(trajectory, SupportTable(matrix, config.recovery_config()),
                             np.random.default_rng(seed))


def environments(config, trajectory, matrix, seed=3):
    """A SignalEnvironment and its reference, on equal generators."""
    return (signal_environment(config, trajectory, matrix, seed),
            ReferenceSignalEnvironment(trajectory, matrix, config,
                                       np.random.default_rng(seed)))


def assert_same_sense(env, ref, selected, slot, prior_vacancy, first_slot=0):
    """Sense one slot with both environments and compare the results:
    statuses and xi bit for bit. env draws a block of slots ahead when it
    senses the block's first slot, so the generators are compared after
    the last slot of each block, counted from first_slot, and of the
    trajectory."""
    got = env.sense(selected, slot, prior_vacancy)
    want = ref.sense(selected, slot, prior_vacancy)
    assert got.statuses.dtype == want.statuses.dtype == np.int8
    assert got.statuses.tobytes() == want.statuses.tobytes()
    assert got.xi == want.xi
    if ((slot + 1 - first_slot) % env.block_slots == 0
            or slot + 1 == len(env.trajectory)):
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    return got


def sense_every_slot(env, ref, n, k, slots, seed=4):
    """Sense slots in order with both environments, cycling through sets
    of every size on both recovery paths, one of them unsorted; returns
    the paths taken (True for the direct path)."""
    draws = np.random.default_rng(seed)
    sizes = [1, k // 2, k, k + 1, k + 3, n]
    pool = [draws.choice(n, size=size, replace=False) for size in sizes
            for _ in range(2)]
    pool = [np.sort(sel) for sel in pool[1:]] + [pool[0]]
    paths = set()
    for slot in slots:
        selected = pool[slot % len(pool)]
        prior = None if slot % 7 == 0 else draws.random(n).tolist()
        assert_same_sense(env, ref, selected, slot, prior, first_slot=slots[0])
        paths.add(selected.size <= k)
    return paths


class TestSignalEnvironmentMatchesReference:
    """Per-set sensing plans over a shared support table leave signal
    sensing bit-identical to the reference, which factorises and solves
    every support's covariance on every slot."""

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_slot_by_slot(self, n, k, snr_db):
        # Blocks are 227 slots at 8/4 and 56 at 16/8: one whole block and
        # part of the next.
        horizon = 240 if n == 8 else 90
        config, trajectory, matrix = signal_setup(n, k, snr_db, horizon)
        env, ref = environments(config, trajectory, matrix)
        # Two sets of every size on both paths (so plans of equal size
        # differ); each is sensed several times.
        assert sense_every_slot(env, ref, n, k, range(horizon)) == {True, False}
        assert 1 < env.block_slots < horizon

    def test_plan_cache_is_bounded(self, monkeypatch):
        # The cap is per table: two environments sharing one table keep at
        # most _MAX_PLANS plans between them, and evictions change nothing.
        monkeypatch.setattr(recovery, "_MAX_PLANS", 3)
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 60)
        env, ref = environments(config, trajectory, matrix)
        table = env.support_table
        other = SignalEnvironment(trajectory, table, np.random.default_rng(8))
        draws = np.random.default_rng(5)
        pool = [np.sort(draws.choice(8, size=size, replace=False))
                for size in (3, 4, 4, 5, 6, 7)]
        for slot in range(60):
            selected = pool[draws.integers(len(pool))]
            assert_same_sense(env, ref, selected, slot,
                              draws.random(8).tolist())
            other.sense(pool[draws.integers(len(pool))], slot)
            assert len(table._plans) <= 3

    @pytest.mark.parametrize("mode", ["IMP", "LDM", "OLDM"])
    @pytest.mark.parametrize("n, k, snr_db", [(8, 4, 20.0), (16, 8, 10.0)])
    def test_policy_runs_identical(self, mode, n, k, snr_db):
        config, trajectory, matrix = signal_setup(n, k, snr_db, 300, seed=11)
        stats = config.band_statistics()
        cfg = config.policy_config(mode)
        runs = []
        for env in environments(config, trajectory, matrix):
            belief = BeliefState.fresh(n)
            outcomes = run_policy(cfg, env, np.random.default_rng(13),
                                  true_stats=stats, belief=belief)
            runs.append((outcomes, belief, env.rng.bit_generator.state))
        (got, belief, state), (want, ref_belief, ref_state) = runs
        assert len(got) == len(want) == 300
        for a, b in zip(got, want):
            assert a.selected == b.selected
            assert a.statuses == b.statuses
            assert (a.xi, a.throughput) == (b.xi, b.throughput)
        for name in ("omega", "counts", "p01_hat", "p10_hat", "obs_count"):
            assert getattr(belief, name).tobytes() == \
                getattr(ref_belief, name).tobytes(), name
        assert state == ref_state
        if mode == "IMP":
            # IMP's fixed sets exceed the branch count: the search path ran.
            assert max(len(o.selected) for o in got) > k

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_blocks_and_a_partial_block(self, n, k, snr_db):
        # Two whole blocks and three slots of a third, cut by the
        # trajectory's end.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 1)
        horizon = 2 * signal_environment(config, trajectory, matrix, 0).block_slots + 3
        config, trajectory, matrix = signal_setup(n, k, snr_db, horizon, seed=2)
        env, ref = environments(config, trajectory, matrix)
        assert sense_every_slot(env, ref, n, k, range(horizon)) == {True, False}
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_vacant_and_busy_slots(self, n, k, snr_db):
        # Runs of all-vacant and all-busy slots inside and across blocks,
        # starting mid-trajectory.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 100, seed=3)
        trajectory = trajectory.copy()
        trajectory[10:40] = 0
        trajectory[55:70] = 1
        trajectory[80::3] = 0
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, n, k, range(5, 100))
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    @pytest.mark.parametrize("trajectory_of", [np.zeros, np.ones])
    def test_all_vacant_and_all_busy_trajectories(self, trajectory_of, snr_db):
        config, _, matrix = signal_setup(8, 4, snr_db, 50)
        trajectory = trajectory_of((50, 8), dtype=np.int8)
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, 8, 4, range(50))
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_one_slot_blocks(self, monkeypatch, snr_db):
        # A budget of one slot's Gram values: every block is a single slot.
        monkeypatch.setattr(experiments, "_BLOCK_GRAM_VALUES", (8 + 4) ** 2)
        config, trajectory, matrix = signal_setup(8, 4, snr_db, 12)
        env, ref = environments(config, trajectory, matrix)
        assert env.block_slots == ref.block_slots == 1
        sense_every_slot(env, ref, 8, 4, range(12))

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_one_bin_per_band(self, n, k, snr_db):
        # With 2 * bins = 2 values a row, a slot of more than 2 rows has a
        # trapezoidal factor: its rows from index 2 on are all normals.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 60, seed=5,
                                                  bins_per_band=1)
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, n, k, range(60))
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("slots, expected", [((0, 1, 1), 2), ((4, 5, 7), 6),
                                                 ((3, 2), 4)])
    def test_slots_are_sensed_in_order(self, slots, expected):
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 20)
        env = signal_environment(config, trajectory, matrix, 0)
        for slot in slots[:-1]:
            env.sense((0, 2, 5), slot)
        with pytest.raises(ValueError, match=f"expected slot {expected}, got {slots[-1]}"):
            env.sense((0, 2, 5), slots[-1])

    def test_rejects_zero_bins_per_band(self):
        # Checked when the environment's table is built, before any draw.
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 10, bins_per_band=0)
        with pytest.raises(ValueError, match="bins_per_band"):
            signal_environment(config, trajectory, matrix, 0)

    def test_rejects_non_binary_trajectory(self):
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
        trajectory = trajectory.copy()
        trajectory[4, 2] = 2
        with pytest.raises(ValueError, match="0/1"):
            signal_environment(config, trajectory, matrix, 0)

    @pytest.mark.parametrize("bad", [-1, 0.5, 257])
    def test_rejects_non_binary_values_before_cast(self, bad):
        # Checked before the int8 cast, which would turn 0.5 into 0 and 257
        # into 1.
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
        trajectory = trajectory.astype(float)
        trajectory[4, 2] = bad
        with pytest.raises(ValueError, match="0/1"):
            signal_environment(config, trajectory, matrix, 0)

    def test_rejects_one_dimensional_trajectory(self):
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
        with pytest.raises(ValueError, match="slots x bands"):
            signal_environment(config, trajectory[0], matrix, 0)

    def test_rejects_table_of_another_band_count(self):
        # Bands past the trajectory's would read another row of the Gram.
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
        wider = np.hstack([matrix, matrix])
        with pytest.raises(ValueError, match="senses 16 bands, the trajectory has 8"):
            signal_environment(config, trajectory, wider, 0)


def per_slot_grams(config, trajectory, rng):
    """Each slot's Gram of its band spectra and noise, drawn slot by slot
    with synthesize_band_spectra and complex_noise as measure draws it:
    the (N + K, 2 * bins) real view of the spectra stacked over the noise
    (no noise rows when noiseless) times its transpose."""
    k, bins = config.k_branches, config.bins_per_band
    noise_power = noise_power_for_snr(config.snr_db)
    for statuses in trajectory:
        rows = synthesize_band_spectra(statuses, bins, rng)
        if noise_power > 0.0:
            noise = complex_noise(rng.standard_normal((k, bins)),
                                  rng.standard_normal((k, bins)), noise_power)
            rows = np.concatenate([rows, noise])
        y = rows.view(np.float64)
        yield y @ y.T


def block_grams(config, trajectory, rng):
    """Every slot's Gram as a SignalEnvironment draws it, block by block."""
    table = SupportTable(draw_sensing_matrix(config.k_branches, config.n_bands, rng),
                         config.recovery_config())
    env = SignalEnvironment(trajectory, table, rng)
    for start in range(0, len(trajectory), env.block_slots):
        env._draw_block(start)
        yield from env._grams


def assert_gram_law(grams, trajectory, config):
    """Check (slots, N + K', N + K') Grams against the exact law of the
    Gram of unit-power band spectra and noise: vacant bands' rows and
    columns are exactly zero and busy diagonals exactly bins; every other
    entry's sample mean and variance, over the slots where both its rows
    are present, lie within 5 standard errors of the exact values (the
    variance's standard error from the sample fourth moment)."""
    n, bins = trajectory.shape[1], config.bins_per_band
    noise_power = noise_power_for_snr(config.snr_db)
    rows = grams.shape[1]
    assert rows == n + (config.k_branches if noise_power > 0.0 else 0)
    present = np.ones((len(grams), rows), dtype=bool)
    present[:, :n] = trajectory != 0
    assert not grams[~present].any()
    assert not grams.transpose(0, 2, 1)[~present].any()
    diagonal = np.diagonal(grams, axis1=1, axis2=2)
    np.testing.assert_allclose(diagonal[:, :n][present[:, :n]], bins, rtol=1e-12)
    for i in range(rows):
        for j in range(i, rows):
            if i == j < n:
                continue
            if i == j:
                mean, var = noise_power * bins, noise_power ** 2 * bins
            elif i >= n:
                mean, var = 0.0, bins * noise_power ** 2 / 2
            elif j >= n:
                mean, var = 0.0, bins * noise_power / 2
            else:
                mean, var = 0.0, bins / 2
            values = grams[present[:, i] & present[:, j], i, j]
            count = len(values)
            assert count >= 2000, (i, j)
            centred = values - values.mean()
            sample_var = centred @ centred / count
            fourth = (centred ** 4).mean()
            assert abs(values.mean() - mean) <= 5 * np.sqrt(var / count), (i, j)
            assert abs(sample_var - var) <= \
                5 * np.sqrt((fourth - sample_var ** 2) / count), (i, j)


class TestBlockGram:
    """A SignalEnvironment's block Grams: their layout, and their law
    against the exact moments and the Grams of per-slot draws."""

    @pytest.mark.parametrize("bins", [64, 1])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    @pytest.mark.parametrize("draw", [block_grams, per_slot_grams],
                             ids=["block", "per_slot"])
    def test_law_of_every_entry(self, draw, n, k, snr_db, bins):
        # At one bin per band a slot of more than 2 rows has a trapezoidal
        # Bartlett factor.
        config = ExperimentConfig(n_bands=n, k_branches=k, rs_mode="signal",
                                  snr_db=snr_db, bins_per_band=bins)
        rng = np.random.default_rng([n, bins, snr_db is None])
        trajectory = (rng.random((20_000, n)) < 0.6).astype(np.int8)
        trajectory[::50] = 0
        trajectory[1::50] = 1
        grams = np.array(list(draw(config, trajectory, rng)))
        assert_gram_law(grams, trajectory, config)

    @staticmethod
    def assert_layout(config, trajectory, matrix, first_slot=0):
        """Sense every slot from first_slot; each slot's block Gram has its
        vacant bands' rows and columns exactly zero, busy diagonals of
        exactly bins and positive noise diagonals. Returns the environment
        and the number of blocks it drew."""
        env = signal_environment(config, trajectory, matrix, 3)
        n, bins = trajectory.shape[1], config.bins_per_band
        blocks = 0
        for slot in range(first_slot, len(trajectory)):
            env.sense((0, 2, 5), slot)
            gram = env._grams[slot - env._block_start]
            vacant = np.flatnonzero(trajectory[slot] == 0)
            assert not gram[vacant].any() and not gram[:, vacant].any()
            diagonal = np.diag(gram)
            busy = np.flatnonzero(trajectory[slot])
            np.testing.assert_allclose(diagonal[busy], bins, rtol=1e-12)
            assert (diagonal[n:] > 0).all()
            if slot + 1 == env._block_end:
                blocks += 1
        return env, blocks

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_full_and_partial_blocks(self, n, k, snr_db):
        config, trajectory, matrix = signal_setup(n, k, snr_db, 1)
        horizon = 2 * signal_environment(config, trajectory, matrix, 0).block_slots + 3
        config, trajectory, matrix = signal_setup(n, k, snr_db, horizon, seed=2)
        env, blocks = self.assert_layout(config, trajectory, matrix)
        assert blocks == 3
        rows = n + (0 if snr_db is None else k)
        assert env._grams.shape == (3, rows, rows)

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_all_vacant_and_all_busy_rows(self, n, k, snr_db):
        # Runs of all-vacant and all-busy slots inside and across blocks,
        # starting mid-trajectory.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 80, seed=3)
        trajectory = trajectory.copy()
        trajectory[10:30] = 0
        trajectory[40:55] = 1
        trajectory[60::3] = 0
        self.assert_layout(config, trajectory, matrix, first_slot=5)

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    @pytest.mark.parametrize("sets", [[(0, 2, 5), (1, 3, 4, 6, 7)],
                                      [tuple(range(8))]])
    def test_all_vacant_slots_raise_no_warning(self, snr_db, sets):
        # An all-vacant slot's Gram has zero band diagonals; the unit-power
        # scaling must not divide by them, on either recovery path.
        config, _, matrix = signal_setup(8, 4, snr_db, 30)
        trajectory = np.zeros((30, 8), dtype=np.int8)
        trajectory[::7, 3] = 1
        env = signal_environment(config, trajectory, matrix, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for slot in range(30):
                result = env.sense(sets[slot % len(sets)], slot,
                                   np.full(8, 0.5))
                if snr_db is None and not trajectory[slot].any():
                    assert not result.statuses.any() and result.xi == 0


@pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
def test_noiseless_direct_path_reads_truth(n, k):
    # Without noise the direct path's MAP support is the truth, so every
    # band reads as the trajectory says, also through ill-conditioned
    # sub-matrices, where the Gram-domain energy of an absent band is
    # rounding rather than zero.
    for seed in range(6):
        config, trajectory, matrix = signal_setup(n, k, None, 200, seed=seed)
        env = signal_environment(config, trajectory, matrix, seed)
        draws = np.random.default_rng(seed)
        for slot in range(200):
            selected = np.sort(draws.choice(n, size=k, replace=False))
            result = env.sense(selected, slot)
            assert result.statuses.tolist() == trajectory[slot, selected].tolist()


class RecordingEnvironment(SignalEnvironment):
    """A SignalEnvironment keeping every slot's SenseResult.

    With fresh_table, each slot senses through a new support table and so
    through a new plan from the new table's cache, so no row or plan
    outlives the slot that built it.
    """

    def __init__(self, *args, fresh_table=False):
        super().__init__(*args)
        self.fresh_table = fresh_table
        self.results = []

    def sense(self, selected, slot, prior_vacancy=None):
        if self.fresh_table:
            self.support_table = SupportTable(self.support_table.matrix,
                                              self.support_table.cfg)
        result = super().sense(selected, slot, prior_vacancy)
        if self.fresh_table:
            assert list(self.support_table._plans) == [tuple(selected)]
        self.results.append(result)
        return result


class TestSupportTableHistory:
    """Sensing does not depend on what the support table or plans served
    before."""

    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_shared_and_fresh_tables_agree(self, n, k, monkeypatch):
        config, trajectory, matrix = signal_setup(n, k, 10.0, 300, seed=11)
        stats = config.band_statistics()
        supports = []
        search = recovery.fbmp_recover

        def recording_search(*args):
            found = search(*args)
            supports.append(found[0].tolist())
            return found

        monkeypatch.setattr(recovery, "fbmp_recover", recording_search)
        # One table, shared by two policies' environments as in a
        # replication: IMP runs second, after LDM has used the table.
        table = SupportTable(matrix, config.recovery_config())
        run_policy(config.policy_config("LDM"),
                   SignalEnvironment(trajectory, table, np.random.default_rng(5)),
                   np.random.default_rng(6), true_stats=stats)

        def run(fresh_table=False):
            supports.clear()
            env = RecordingEnvironment(trajectory, table, np.random.default_rng(3),
                                       fresh_table=fresh_table)
            run_policy(config.policy_config("IMP"), env,
                       np.random.default_rng(13), true_stats=stats)
            return list(supports), [(r.statuses.tolist(), r.xi)
                                    for r in env.results]

        shared = run()
        fresh = run(fresh_table=True)
        # IMP's sets exceed the branch count, so every slot searched.
        assert len(shared[0]) == len(shared[1]) == 300
        assert fresh == shared


def test_policies_of_a_replication_share_plans(monkeypatch):
    # Every policy's environment senses through the replication's one
    # table and its plan cache: LDM and OLDM sense sets in common through
    # the same SensingPlan objects, and no band set gets a second plan.
    config = load_config(CONFIGS / "case1.cfg")
    config.rs_mode, config.snr_db = "signal", 20.0
    config.replications, config.horizon = 1, 400
    plans = []   # per policy: {bands: plans sensed through}
    sense, init = experiments.signal_sense, SignalEnvironment.__init__

    def recording_init(env, *args):
        init(env, *args)
        plans.append({})

    def recording_sense(s_yy, plan, prior_activity):
        plans[-1].setdefault(plan.bands, []).append(plan)
        return sense(s_yy, plan, prior_activity)

    monkeypatch.setattr(SignalEnvironment, "__init__", recording_init)
    monkeypatch.setattr(experiments, "signal_sense", recording_sense)
    run_replication(config, 0)
    assert len(plans) == len(config.policies)
    first = {}
    for policy_plans in plans:
        for bands, used in policy_plans.items():
            first.setdefault(bands, used[0])
            assert all(plan is first[bands] for plan in used)
    ldm, oldm = (plans[config.policies.index(p)] for p in ("LDM", "OLDM"))
    assert len(ldm.keys() & oldm.keys()) >= 3


def test_both_backends_return_sense_result():
    config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
    oracle = OracleEnvironment(trajectory, 4).sense((0, 2, 5), 3)
    signal = signal_environment(config, trajectory, matrix, 0).sense((0, 2, 5), 3)
    for result in (oracle, signal):
        assert type(result) is SenseResult
        statuses, xi = result
        assert xi in (0, 1) and len(statuses) == 3
    assert oracle.statuses == trajectory[3, [0, 2, 5]].tolist()
    # The signal backend's statuses stay an int8 array.
    assert signal.statuses.dtype == np.int8


@pytest.mark.parametrize("slot", [-1, 10])
def test_both_backends_reject_slots_outside_the_trajectory(slot):
    # A negative slot must not wrap round to the trajectory's end.
    config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
    message = f"slot {slot} is outside the trajectory's 10 slots"
    with pytest.raises(ValueError, match=message):
        OracleEnvironment(trajectory, 4).sense((0, 2, 5), slot)
    # A rejected first call draws nothing, and the next slot is sensed as
    # by an environment that never saw it.
    env = signal_environment(config, trajectory, matrix, 0)
    state = env.rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        env.sense((0, 2, 5), slot)
    assert env.rng.bit_generator.state == state
    want = signal_environment(config, trajectory, matrix, 0).sense((0, 2, 5), 0)
    got = env.sense((0, 2, 5), 0)
    assert got.statuses.tobytes() == want.statuses.tobytes() and got.xi == want.xi
    # Past the last slot, the next call in order is rejected too.
    for t in range(1, 10):
        env.sense((0, 2, 5), t)
    state = env.rng.bit_generator.state
    with pytest.raises(ValueError, match="slot 10 is outside the trajectory's 10 slots"):
        env.sense((0, 2, 5), 10)
    assert env.rng.bit_generator.state == state


class TestDetectionAgainstTruth:
    """Signal-mode statuses against the true trajectory: configs/case1.cfg
    at 20 dB and seed 7, three replications of 2,000 slots of each of its
    three policies. The bounds were fixed before measuring; the energy
    detector that the direct path's MAP support replaced missed 2,146 of
    the 7,935 busy bands (0.270) and flagged 0.052 of the vacant ones
    here."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        """(true statuses, SenseResult, the search's support or None) of
        every sensed slot."""
        cfg = load_config(CONFIGS / "case1.cfg")
        cfg.rs_mode, cfg.snr_db, cfg.seed = "signal", 20.0, 7
        cfg.replications, cfg.horizon = 3, 2000
        found, outcomes = [], []
        search, sense = recovery.fbmp_recover, SignalEnvironment.sense

        def recording_search(*args):
            support, ratio = search(*args)
            found.append(support.copy())
            return support, ratio

        def recording_sense(env, selected, slot, prior_vacancy=None):
            found.clear()
            result = sense(env, selected, slot, prior_vacancy)
            truth = env.trajectory[slot, list(selected)]
            outcomes.append((truth, result, found[0] if found else None))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recovery, "fbmp_recover", recording_search)
            patch.setattr(SignalEnvironment, "sense", recording_sense)
            run_experiment(cfg)
        assert len(outcomes) == 3 * 3 * 2000
        return outcomes

    def test_direct_path_misses_and_false_alarms(self, outcomes):
        direct = [(truth, result) for truth, result, support in outcomes
                  if len(truth) <= 4]
        assert all(result.xi == 0 for _, result in direct)
        truth = np.concatenate([truth for truth, _ in direct])
        statuses = np.concatenate([result.statuses for _, result in direct])
        busy = truth == 1
        assert busy.sum() >= 1000 and (~busy).sum() >= 1000
        miss_rate = np.mean(statuses[busy] == 0)
        false_alarm_rate = np.mean(statuses[~busy] == 1)
        assert miss_rate <= 0.02, miss_rate
        assert false_alarm_rate <= 0.01, false_alarm_rate

    def test_search_statuses_are_the_chosen_support(self, outcomes):
        searched = 0
        for truth, result, support in outcomes:
            assert (support is None) == (len(truth) <= 4)
            if support is not None:
                assert result.statuses.dtype == np.int8
                assert result.statuses.tobytes() == support.tobytes()
                searched += 1
        assert searched >= 1000


class TestPinnedOracleOutput:
    """Oracle-mode CSV bytes of the shipped configs, pinned.

    One replication of 4,000 slots: long enough for OLDM to unlock its
    adaptive set sizing in both cases. Oracle mode draws only from
    Generator streams and computes with elementwise IEEE double arithmetic,
    so the bytes do not depend on the machine. Signal mode is not pinned:
    its bits depend on the LAPACK build, and the same-process equality
    tests above cover it.
    """

    DIGESTS = {
        "case1": "717f1b7bda6ebe0085cbb2b404978bbf5e09ee3f4bc4d753506231d5ac6db5d6",
        "case2": "0dcb8c8367b8d29b04d4fa146c1e44f3d81fe95fbf7aaae96dd2520dcf8e693e",
    }

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_csv_digest(self, case, tmp_path):
        cfg = load_config(CONFIGS / f"{case}.cfg")
        assert cfg.rs_mode == "oracle"
        cfg.replications = 1
        cfg.horizon = 4000
        csv_path, _ = emit_results(run_experiment(cfg), tmp_path / f"{case}.csv")
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            self.DIGESTS[case]


class TestEmitResults:
    def test_csv_shape(self, tmp_path):
        series = run_experiment(small_config(horizon=100))
        csv_path, manifest = emit_results(series, tmp_path / "out.csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("slot,imp_mean_throughput,imp_mean_regret,"
                            "ldm_mean_throughput,ldm_mean_regret,"
                            "oldm_mean_throughput,oldm_mean_regret")
        assert len(lines) == 1 + 100
        assert all(len(line.split(",")) == 7 for line in lines)
        assert manifest.exists()

    def test_zero_horizon_header_only(self, tmp_path):
        series = run_experiment(small_config(horizon=0))
        csv_path, _ = emit_results(series, tmp_path / "empty.csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1

    def test_full_precision_round_trip(self, tmp_path):
        series = run_experiment(small_config(horizon=50))
        csv_path, _ = emit_results(series, tmp_path / "out.csv")
        rows = [line.split(",") for line
                in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
        parsed = np.array([[float(x) for x in row[1:]] for row in rows])
        np.testing.assert_array_equal(parsed[:, 0],
                                      series.mean_throughput["IMP"][:50])

    def test_manifest_round_trip(self, tmp_path):
        cfg = small_config(horizon=120)
        first_csv, manifest = emit_results(run_experiment(cfg), tmp_path / "a.csv")
        reloaded = load_config(manifest)
        second_csv, _ = emit_results(run_experiment(reloaded), tmp_path / "b.csv")
        assert first_csv.read_bytes() == second_csv.read_bytes()

    def test_failed_manifest_leaves_no_partial_files(self, tmp_path, monkeypatch):
        series = run_experiment(small_config(horizon=50))
        csv_path = tmp_path / "out.csv"

        def broken_dump(cfg, path):
            Path(path).write_text("n_bands = ", encoding="utf-8")
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "dump_config", broken_dump)
            with pytest.raises(OSError, match="disk full"):
                emit_results(series, csv_path)
        assert list(tmp_path.iterdir()) == []
        # A failed re-run leaves the previous complete outputs in place.
        _, manifest = emit_results(series, csv_path)
        before = csv_path.read_bytes(), manifest.read_bytes()
        monkeypatch.setattr(experiments, "dump_config", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            emit_results(run_experiment(small_config(horizon=20)), csv_path)
        assert (csv_path.read_bytes(), manifest.read_bytes()) == before
        assert sorted(tmp_path.iterdir()) == sorted([csv_path, manifest])

    def test_determinism_bit_identical(self, tmp_path):
        cfg = small_config()
        a, _ = emit_results(run_experiment(cfg), tmp_path / "a.csv")
        b, _ = emit_results(run_experiment(cfg), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_load_round_trip(self, tmp_path):
        cfg = small_config(snr_db=12.5, p01=(0.1,) * 8, p10=(0.2,) * 8)
        path = tmp_path / "exp.cfg"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    def test_noiseless_keyword(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("snr_db = noiseless\n", encoding="utf-8")
        assert load_config(path).snr_db is None

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# a comment\n\nseed = 5  # trailing\n", encoding="utf-8")
        assert load_config(path).seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    @pytest.mark.parametrize("line, key", [("seed = abc", "seed"),
                                           ("mu = high", "mu"),
                                           ("snr_db = loud", "snr_db"),
                                           ("p01 = 0.1, x", "p01")])
    def test_unparsable_value_names_key_and_line(self, tmp_path, line, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"n_bands = 8\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"exp.cfg:2: cannot parse {key} = "):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n_bands = 8\nseed = 1\n\nn_bands = 16\n", encoding="utf-8")
        with pytest.raises(ValueError, match="exp.cfg:4: n_bands repeats line 1"):
            load_config(path)

    def test_recovery_config_takes_the_recovery_fields(self):
        cfg = small_config(snr_db=20.0, residual_threshold=0.2)
        assert cfg.recovery_config() == RecoveryConfig(
            noise_variance=10.0 ** -2.0, residual_threshold=0.2)
        assert small_config().recovery_config().noise_variance == 0.0

    def test_validation_rejects_overflowing_noise_power(self):
        # 10^(4000/10) overflows a float; the error names snr_db.
        with pytest.raises(ValueError, match="snr_db"):
            small_config(snr_db=-4000.0).validate()

    def test_validation_names_offending_field(self):
        cfg = small_config(mu=1.5)
        with pytest.raises(ValueError, match="mu"):
            cfg.validate()
        cfg = small_config(policies=("IMP", "XYZ"))
        with pytest.raises(ValueError, match="policies"):
            cfg.validate()

    @pytest.mark.parametrize("field, value", [
        ("snr_db", float("nan")), ("snr_db", float("-inf")),
        ("exploration_coefficient", float("nan")),
        ("residual_threshold", float("nan"))])
    def test_validation_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 4.0, "4", None])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_validation_rejects_non_integer(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_validation_accepts_numpy_integer(self, field):
        cfg = small_config()
        setattr(cfg, field, np.int64(getattr(cfg, field)))
        cfg.validate()

    @pytest.mark.parametrize("field", ["p01", "p10"])
    def test_validation_rejects_nan_transition_probability(self, field):
        vectors = {"p01": (0.1,) * 8, "p10": (0.2,) * 8}
        vectors[field] = (0.1,) * 7 + (float("nan"),)
        with pytest.raises(ValueError, match=field):
            small_config(**vectors).validate()

    def test_positive_infinite_snr_is_noiseless(self):
        cfg = small_config(snr_db=float("inf"), rs_mode="signal")
        cfg.validate()
        assert cfg.recovery_config().noise_variance == 0.0

    def test_numpy_snr_overflow_names_snr_db(self):
        # np.float64(-4000) used to overflow to an infinite noise power with
        # a RuntimeWarning, and the error named noise_variance instead.
        cfg = small_config(rs_mode="signal")
        cfg.snr_db = np.float64(-4000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="snr_db = .* overflows"):
                cfg.validate()

    def test_signal_validation_caps_the_support_table(self):
        # 32 bands at 8 branches need 41,449 support-table rows; oracle
        # mode builds no table.
        with pytest.raises(ValueError, match="n_bands = 32 with k_branches = 8"):
            small_config(rs_mode="signal", n_bands=32, k_branches=8).validate()
        small_config(n_bands=32, k_branches=8).validate()
        small_config(rs_mode="signal", n_bands=16, k_branches=8).validate()

    def test_search_breadth_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("n_bands = 8\nsearch_breadth = 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key: search_breadth"):
            load_config(path)

    def test_signal_validation_rejects_infinite_detection_threshold(self, tmp_path):
        # 1e-17 once gave the energy detector an infinite threshold. The
        # detector went, and its key with it: an old manifest fails to load.
        path = tmp_path / "old.cfg"
        path.write_text("n_bands = 8\nrs_mode = signal\nenergy_fa_rate = 1e-17\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key: energy_fa_rate"):
            load_config(path)

    def test_case_statistics_tile_for_larger_bands(self):
        cfg = small_config(n_bands=12)
        stats = cfg.band_statistics()
        assert stats.n_bands == 12
        np.testing.assert_allclose(stats.p10[8:], stats.p10[:4])

    def test_explicit_vectors_override_case(self):
        cfg = small_config(n_bands=2, k_branches=1,
                           p01=(0.3, 0.3), p10=(0.1, 0.2))
        stats = cfg.band_statistics()
        np.testing.assert_allclose(stats.p01, [0.3, 0.3])
        np.testing.assert_allclose(stats.p10, [0.1, 0.2])
