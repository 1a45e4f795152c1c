import hashlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (RecordingEnvironment, ReferenceSignalEnvironment,
                      complex_noise, synthesize_band_spectra)
from wssim import config, experiments, recovery
from wssim.config import ExperimentConfig, dump_config, load_config
from wssim.experiments import (SignalEnvironment, emit_results,
                               run_experiment, run_replication)
from wssim.learning import BeliefState, OracleEnvironment, run_policy
from wssim.recovery import RecoveryConfig, SenseResult, SupportTable
from wssim.sensing import draw_sensing_matrix, noise_power_for_snr
from wssim.spectrum import simulate_occupancy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INTEGER_FIELDS = ["replications", "horizon", "bins_per_band", "n_bands",
                  "k_branches", "seed"]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def small_config(**overrides):
    base = dict(horizon=200, replications=3, seed=9, policies=("IMP", "LDM", "OLDM"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMeanRegret:
    """mean_regret is the cumulative gap of each policy's mean throughput
    to IMP's, here on replication series fixed by a stand-in."""

    def run_with_series(self, monkeypatch, series):
        monkeypatch.setattr(experiments, "run_replication",
                            lambda config, rep_index: dict(series))
        return run_experiment(small_config(horizon=50)).mean_regret

    def test_identical_series_zero(self, monkeypatch):
        regret = self.run_with_series(monkeypatch, {p: np.arange(50.0) for p in
                                                    ("IMP", "LDM", "OLDM")})
        for policy in ("IMP", "LDM", "OLDM"):
            np.testing.assert_array_equal(regret[policy], np.zeros(50))

    def test_constant_gap_unit_slope(self, monkeypatch):
        imp = np.full(50, 5.0)
        regret = self.run_with_series(monkeypatch, {"IMP": imp, "LDM": imp - 1.0,
                                                    "OLDM": imp})
        np.testing.assert_allclose(regret["LDM"], np.arange(1, 51, dtype=float))
        np.testing.assert_array_equal(regret["OLDM"], np.zeros(50))


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

    def test_validates_once_per_experiment(self, monkeypatch):
        # 3 replications x 3 policies, one check: neither run_replication
        # nor run_policy validates again.
        calls = []
        validate = ExperimentConfig.validate
        monkeypatch.setattr(ExperimentConfig, "validate",
                            lambda self: calls.append(self) or validate(self))
        run_experiment(small_config())
        assert len(calls) == 1

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


def assert_same_sense(env, ref, selected, slot, prior_vacancy):
    """Sense one slot with both environments and compare the results:
    statuses and xi bit for bit. env draws a block of slots ahead when it
    senses the block's first slot, so the generators are compared after
    the last slot of each block and of the trajectory."""
    got = env.sense(selected, slot, prior_vacancy)
    want = ref.sense(selected, slot, prior_vacancy)
    assert got.statuses.dtype == want.statuses.dtype == np.int8
    assert got.statuses.tobytes() == want.statuses.tobytes()
    assert got.xi == want.xi
    if (slot + 1) % env.block_slots == 0 or slot + 1 == len(env.trajectory):
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    return got


def sense_every_slot(env, ref, n, k, horizon, seed=4):
    """Sense slots 0 to horizon - 1 in order with both environments,
    cycling through sets of every size on both recovery paths; returns the
    paths taken (True for the direct path)."""
    draws = np.random.default_rng(seed)
    sizes = [1, k // 2, k, k + 1, k + 3, n]
    pool = [np.sort(draws.choice(n, size=size, replace=False)) for size in sizes
            for _ in range(2)]
    paths = set()
    for slot in range(horizon):
        selected = pool[slot % len(pool)]
        prior = [0.5] * n if slot % 7 == 0 else draws.random(n).tolist()
        assert_same_sense(env, ref, selected, slot, prior)
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
        assert sense_every_slot(env, ref, n, k, horizon) == {True, False}
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
            other.sense(pool[draws.integers(len(pool))], slot, [0.5] * 8)
            assert len(table._plans) <= 3

    @pytest.mark.parametrize("mode", ["IMP", "LDM", "OLDM"])
    @pytest.mark.parametrize("n, k, snr_db", [(8, 4, 20.0), (16, 8, 10.0)])
    def test_policy_runs_identical(self, mode, n, k, snr_db):
        config, trajectory, matrix = signal_setup(n, k, snr_db, 300, seed=11)
        runs = []
        for env in environments(config, trajectory, matrix):
            belief = BeliefState.fresh(n)
            sensed = RecordingEnvironment(env)
            log = run_policy(config, mode, sensed, np.random.default_rng(13),
                             belief=belief)
            runs.append((log, sensed, belief, env.rng.bit_generator.state))
        (got, sensed, belief, state), (want, ref_sensed, ref_belief, ref_state) = runs
        assert len(got) == len(want) == len(sensed.results) == \
            len(ref_sensed.results) == 300
        assert sensed.selected == ref_sensed.selected
        for a, b, r, ref in zip(got, want, sensed.results, ref_sensed.results):
            assert r.statuses.tolist() == ref.statuses.tolist()
            assert (a.xi, a.throughput) == (b.xi, b.throughput)
        for name in ("omega", "counts", "p01_hat", "p10_hat", "obs_count"):
            assert getattr(belief, name).tobytes() == \
                getattr(ref_belief, name).tobytes(), name
        assert state == ref_state
        if mode == "IMP":
            # IMP's fixed sets exceed the branch count: the search path ran.
            assert max(len(selected) for selected in sensed.selected) > k

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_blocks_and_a_partial_block(self, n, k, snr_db):
        # Two whole blocks and three slots of a third, cut by the
        # trajectory's end.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 1)
        horizon = 2 * signal_environment(config, trajectory, matrix, 0).block_slots + 3
        config, trajectory, matrix = signal_setup(n, k, snr_db, horizon, seed=2)
        env, ref = environments(config, trajectory, matrix)
        assert sense_every_slot(env, ref, n, k, horizon) == {True, False}
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 20.0, 10.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_vacant_and_busy_slots(self, n, k, snr_db):
        # Runs of all-vacant and all-busy slots inside and across blocks.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 100, seed=3)
        trajectory = trajectory.copy()
        trajectory[10:40] = 0
        trajectory[55:70] = 1
        trajectory[80::3] = 0
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, n, k, 100)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    @pytest.mark.parametrize("trajectory_of", [np.zeros, np.ones])
    def test_all_vacant_and_all_busy_trajectories(self, trajectory_of, snr_db):
        config, _, matrix = signal_setup(8, 4, snr_db, 50)
        trajectory = trajectory_of((50, 8), dtype=np.int8)
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, 8, 4, 50)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_one_slot_blocks(self, monkeypatch, snr_db):
        # A budget of one slot's Gram values: every block is a single slot.
        monkeypatch.setattr(experiments, "_BLOCK_GRAM_VALUES", (8 + 4) ** 2)
        config, trajectory, matrix = signal_setup(8, 4, snr_db, 12)
        env, ref = environments(config, trajectory, matrix)
        assert env.block_slots == ref.block_slots == 1
        sense_every_slot(env, ref, 8, 4, 12)

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_one_bin_per_band(self, n, k, snr_db):
        # With 2 * bins = 2 values a row, a slot of more than 2 rows has a
        # trapezoidal factor: its rows from index 2 on are all normals.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 60, seed=5,
                                                  bins_per_band=1)
        env, ref = environments(config, trajectory, matrix)
        sense_every_slot(env, ref, n, k, 60)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("slots, expected", [((0, 1, 1), 2), ((*range(6), 7), 6),
                                                 ((0, 1, 2, 3, 2), 4), ((4,), 0)])
    def test_slots_are_sensed_in_order(self, slots, expected):
        # From slot 0, as run_policy senses them; a rejected call draws
        # nothing.
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 20)
        env = signal_environment(config, trajectory, matrix, 0)
        for slot in slots[:-1]:
            env.sense((0, 2, 5), slot, [0.5] * 8)
        state = env.rng.bit_generator.state
        with pytest.raises(ValueError, match="slots are sensed in order from 0: "
                           f"expected slot {expected}, got {slots[-1]}"):
            env.sense((0, 2, 5), slots[-1], [0.5] * 8)
        assert env.rng.bit_generator.state == state

    @pytest.mark.parametrize("selected, message", [
        pytest.param((5, 0, 2), r"integers, got \[5, 0, 2\]", id="unsorted"),
        pytest.param((2, 2, 5), r"integers, got \[2, 2, 5\]", id="repeated"),
        pytest.param((0, 2.5), r"integers, got \[0.0, 2.5\]", id="fractional")])
    def test_rejects_bands_not_ascending_integers(self, selected, message):
        # Only the tuple of strictly ascending band indices that run_policy
        # sends; the rejected call draws nothing and slot 0 stays next.
        config, trajectory, matrix = signal_setup(8, 4, 20.0, 20)
        env = signal_environment(config, trajectory, matrix, 0)
        state = env.rng.bit_generator.state
        with pytest.raises(ValueError, match="strictly ascending " + message):
            env.sense(selected, 0, [0.5] * 8)
        assert env.rng.bit_generator.state == state
        env.sense((0, 2, 5), 0, [0.5] * 8)

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
    def assert_layout(config, trajectory, matrix):
        """Sense every slot; each slot's block Gram has its vacant bands'
        rows and columns exactly zero, busy diagonals of exactly bins and
        positive noise diagonals. Returns the environment and the number of
        blocks it drew."""
        env = signal_environment(config, trajectory, matrix, 3)
        n, bins = trajectory.shape[1], config.bins_per_band
        grams, blocks = None, 0
        for slot in range(len(trajectory)):
            env.sense((0, 2, 5), slot, [0.5] * n)
            if env._grams is not grams:
                grams, blocks = env._grams, blocks + 1
            gram = grams[slot % env.block_slots]
            vacant = np.flatnonzero(trajectory[slot] == 0)
            assert not gram[vacant].any() and not gram[:, vacant].any()
            diagonal = np.diag(gram)
            busy = np.flatnonzero(trajectory[slot])
            np.testing.assert_allclose(diagonal[busy], bins, rtol=1e-12)
            assert (diagonal[n:] > 0).all()
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
        # Runs of all-vacant and all-busy slots inside and across blocks.
        config, trajectory, matrix = signal_setup(n, k, snr_db, 80, seed=3)
        trajectory = trajectory.copy()
        trajectory[10:30] = 0
        trajectory[40:55] = 1
        trajectory[60::3] = 0
        self.assert_layout(config, trajectory, matrix)

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
            result = env.sense(selected, slot, [0.5] * n)
            assert result.statuses.tolist() == trajectory[slot, selected].tolist()


class FreshTableEnvironment(SignalEnvironment):
    """A SignalEnvironment sensing each slot through a new support table
    and so through a new plan from the new table's cache, so no row or plan
    outlives the slot that built it."""

    def sense(self, selected, slot, prior_vacancy):
        self.support_table = SupportTable(self.support_table.matrix,
                                          self.support_table.cfg)
        result = super().sense(selected, slot, prior_vacancy)
        assert [plan.bands for plan in self.support_table._plans.values()] == \
            [tuple(selected)]
        return result


class TestSupportTableHistory:
    """Sensing does not depend on what the support table or plans served
    before."""

    @pytest.mark.parametrize("n, k", [(8, 4), (16, 8)])
    def test_shared_and_fresh_tables_agree(self, n, k, monkeypatch):
        config, trajectory, matrix = signal_setup(n, k, 10.0, 300, seed=11)
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
        run_policy(config, "LDM",
                   SignalEnvironment(trajectory, table, np.random.default_rng(5)),
                   np.random.default_rng(6))

        def run(fresh_table=False):
            supports.clear()
            backend = FreshTableEnvironment if fresh_table else SignalEnvironment
            env = RecordingEnvironment(backend(trajectory, table,
                                               np.random.default_rng(3)))
            run_policy(config, "IMP", env, np.random.default_rng(13))
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
    oracle = OracleEnvironment(trajectory, 4).sense((0, 2, 5), 0, [0.5] * 8)
    signal = signal_environment(config, trajectory, matrix, 0).sense((0, 2, 5), 0, [0.5] * 8)
    for result in (oracle, signal):
        assert type(result) is SenseResult
        statuses, xi = result
        assert xi in (0, 1) and len(statuses) == 3
    assert oracle.statuses == trajectory[0, [0, 2, 5]].tolist()
    # The signal backend's statuses stay an int8 array.
    assert signal.statuses.dtype == np.int8


def test_both_backends_require_the_prior():
    # Sensing always scores under the policy's beliefs: there is no default.
    config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
    for env in (OracleEnvironment(trajectory, 4),
                signal_environment(config, trajectory, matrix, 0)):
        with pytest.raises(TypeError, match="prior_vacancy"):
            env.sense((0, 2, 5), 3)


@pytest.mark.parametrize("slot", [-1, 10])
def test_both_backends_reject_slots_outside_the_trajectory(slot, monkeypatch):
    # A negative slot must not wrap round to the trajectory's end.
    config, trajectory, matrix = signal_setup(8, 4, 20.0, 10)
    message = f"slot {slot} is outside the trajectory's 10 slots"
    flat = [0.5] * 8
    with pytest.raises(ValueError, match=message):
        OracleEnvironment(trajectory, 4).sense((0, 2, 5), slot, flat)
    # The signal backend senses from slot 0: a first call at another slot
    # draws nothing, and slot 0 is then sensed as by an environment that
    # never saw it. Blocks of 5 slots end with the trajectory.
    monkeypatch.setattr(experiments, "_BLOCK_GRAM_VALUES", 5 * (8 + 4) ** 2)
    env = signal_environment(config, trajectory, matrix, 0)
    assert env.block_slots == 5
    state = env.rng.bit_generator.state
    with pytest.raises(ValueError, match=f"expected slot 0, got {slot}"):
        env.sense((0, 2, 5), slot, flat)
    assert env.rng.bit_generator.state == state
    want = signal_environment(config, trajectory, matrix, 0).sense((0, 2, 5), 0, flat)
    got = env.sense((0, 2, 5), 0, flat)
    assert got.statuses.tobytes() == want.statuses.tobytes() and got.xi == want.xi
    # Past the last slot, where a block would start, the next call in
    # order is rejected and draws nothing.
    for t in range(1, 10):
        env.sense((0, 2, 5), t, flat)
    state = env.rng.bit_generator.state
    with pytest.raises(ValueError, match="slot 10 is outside the trajectory's 10 slots"):
        env.sense((0, 2, 5), 10, flat)
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
            support, energy = search(*args)
            found.append(support.copy())
            return support, energy

        def recording_sense(env, selected, slot, prior_vacancy):
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


def two_best_scores(s_yy, plan, prior_activity):
    """The two highest support scores of one sense, as signal_sense ranks
    them, each with its support's statuses."""
    inv = plan.inv if plan.direct else plan.table.inv[plan.rows]
    scores = (plan.weighted_logdet - inv @ s_yy.ravel()
              + plan.indicator @ recovery._prior_log_odds(prior_activity))
    return [(plan.statuses[i].tolist(), float(scores[i]))
            for i in np.argsort(-scores, kind="stable")[:2]]


class TestNoiselessSignalAgreesWithOracleRule:
    """Noiseless signal sensing against the oracle rule applied to the true
    statuses of the same set and slot, sense by sense, at the shipped seed
    7: configs/case1.cfg and case2.cfg at 8 bands and 4 branches (2
    replications of 2,000 slots) and case2.cfg at 16 bands and 8 branches
    (1 replication of 1,500 slots). Without noise every direct sense and
    every search sense of at most gamma truly busy bands reports the truth
    with xi = 0. The one disagreement left is an overloaded search sense
    that passes its residual test (xi = 0, where the oracle rule fails
    it); these are counted, not bounded. No digest is read: LDM's sets
    never exceed the branch count, so its throughput column equals oracle
    mode's byte for byte."""

    # (config, (n_bands, k_branches) or None, replications, horizon)
    RUNS = {"case1": ("case1", None, 2, 2000),
            "case2": ("case2", None, 2, 2000),
            "case2-n16-k8": ("case2", (16, 8), 1, 1500)}

    def config(self, name, rs_mode):
        case, shape, replications, horizon = self.RUNS[name]
        cfg = load_config(CONFIGS / f"{case}.cfg")
        cfg.rs_mode, cfg.snr_db, cfg.seed = rs_mode, None, 7
        cfg.replications, cfg.horizon = replications, horizon
        if shape is not None:
            cfg.n_bands, cfg.k_branches = shape
        return cfg

    @pytest.fixture(scope="class", params=list(RUNS))
    def ledger(self, request):
        """The run's sense counts by kind; the kind of every sense that
        disagrees with the oracle rule and its report (slot, set, truth,
        result and the two best scores); and the signal and oracle runs'
        MetricSeries."""
        cfg = self.config(request.param, "signal")
        k = cfg.k_branches
        counts = dict.fromkeys(["direct", "search within gamma",
                                "overloaded passed", "overloaded failed"], 0)
        disagreements = []
        sensed = []   # the last signal_sense call's (s_yy, plan, prior)
        signal_sense, sense = experiments.signal_sense, SignalEnvironment.sense

        def recording_signal_sense(s_yy, plan, prior_activity):
            sensed[:] = [s_yy, plan, prior_activity]
            return signal_sense(s_yy, plan, prior_activity)

        def checked_sense(env, selected, slot, prior_vacancy):
            result = sense(env, selected, slot, prior_vacancy)
            truth = env.trajectory[slot, list(selected)]
            statuses, xi = result.statuses.tolist(), result.xi
            busy = int(truth.sum())
            if len(selected) <= k:
                kind = "direct"
            elif busy <= recovery.gamma_threshold(len(selected), k):
                kind = "search within gamma"
            else:
                kind = "overloaded failed" if xi else "overloaded passed"
            counts[kind] += 1
            expected = recovery.oracle_sense(truth.tolist(), k)
            agrees = xi == expected.xi and (xi or statuses == expected.statuses)
            if not agrees:
                disagreements.append((kind, f"slot {slot}, set {tuple(selected)}: truth "
                    f"{expected.statuses}, got {statuses} with xi = {xi}; "
                    f"two best scores {two_best_scores(*sensed)}"))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "signal_sense", recording_signal_sense)
            patch.setattr(SignalEnvironment, "sense", checked_sense)
            signal = run_experiment(cfg)
        oracle = run_experiment(self.config(request.param, "oracle"))
        assert sum(counts.values()) == \
            len(cfg.policies) * cfg.replications * cfg.horizon
        return counts, disagreements, signal, oracle

    @staticmethod
    def reports(disagreements, kind):
        return [report for of_kind, report in disagreements if of_kind == kind]

    def test_direct_senses_report_the_truth(self, ledger):
        counts, disagreements, _, _ = ledger
        assert counts["direct"] > 0
        wrong = self.reports(disagreements, "direct")
        assert not wrong, wrong[:5]

    def test_search_senses_within_gamma_report_the_truth(self, ledger):
        counts, disagreements, _, _ = ledger
        assert counts["search within gamma"] > 0
        wrong = self.reports(disagreements, "search within gamma")
        assert not wrong, wrong[:5]

    def test_every_disagreement_is_an_overloaded_pass(self, ledger):
        # An overloaded search sense that fails agrees with the oracle
        # rule; one that passes is the one disagreement allowed, counted.
        counts, disagreements, _, _ = ledger
        others = [(kind, report) for kind, report in disagreements
                  if kind != "overloaded passed"]
        assert not others, others[:5]
        assert len(disagreements) == counts["overloaded passed"]
        print(counts)

    def test_ldm_throughput_equals_oracle_mode(self, ledger):
        _, _, signal, oracle = ledger
        assert signal.mean_throughput["LDM"].tobytes() == \
            oracle.mean_throughput["LDM"].tobytes()


class TestPinnedOracleOutput:
    """Oracle-mode CSV bytes of the shipped configs, pinned.

    One replication of 4,000 slots: long enough for OLDM to unlock its
    adaptive set sizing in both cases. Oracle mode draws only from
    Generator streams and computes with elementwise IEEE double arithmetic,
    so the bytes do not depend on the machine. Signal mode is pinned too,
    by TestPinnedSignalOutput: its scores and residuals go through BLAS
    and LAPACK, but every CSV value is a mean of integer throughputs, so a
    last-bit change reaches the bytes only by flipping a support decision
    or a residual test, and test_signal_digest_survives_perturbation shows
    that a 1e-9 relative change flips none in the pinned runs.
    """

    DIGESTS = {
        "case1": "717f1b7bda6ebe0085cbb2b404978bbf5e09ee3f4bc4d753506231d5ac6db5d6",
        "case2": "0dcb8c8367b8d29b04d4fa146c1e44f3d81fe95fbf7aaae96dd2520dcf8e693e",
        # 16 bands, 4 branches: 12 bands go unsensed on each LDM slot.
        "case1-n16-k4": "0202d313f368df100c2eeaaf1aa1b5562cb2763fd343e840681d9bd3d484275d",
        # 7 bands, 3 branches: the last exploration group is short.
        "case1-n7-k3": "5d925e0299f8b37bd3201fc40b2280760f4978325774d64346c72227d386be45",
    }

    # The manifests written beside the CSVs of the shipped configs: the
    # resolved p01/p10 as float reprs joined by ", ", snr_db = noiseless,
    # and every other field in declaration order.
    MANIFEST_DIGESTS = {
        "case1": "b8ad016b39a3ad7b7937a88a9079e3fec42c09656636861037e702f9135f56fe",
        "case2": "6c0e69f0d2ad99b6edad33bbb2f76b594be2d2053508840706266c26af85d794",
    }

    # (n_bands, k_branches) of the runs that change case1.cfg's shape.
    SHAPES = {"case1-n16-k4": (16, 4), "case1-n7-k3": (7, 3)}

    def emit(self, name, tmp_path):
        case = name.split("-")[0]
        cfg = load_config(CONFIGS / f"{case}.cfg")
        assert cfg.rs_mode == "oracle"
        cfg.replications = 1
        cfg.horizon = 4000
        if name in self.SHAPES:
            cfg.n_bands, cfg.k_branches = self.SHAPES[name]
        return emit_results(run_experiment(cfg), tmp_path / f"{name}.csv")

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_csv_digest(self, name, tmp_path):
        csv_path, _ = self.emit(name, tmp_path)
        assert sha256(csv_path) == self.DIGESTS[name]

    @pytest.mark.parametrize("name", list(MANIFEST_DIGESTS))
    def test_manifest_digest(self, name, tmp_path):
        _, manifest = self.emit(name, tmp_path)
        assert sha256(manifest) == self.MANIFEST_DIGESTS[name]


def test_pinned_oracle_mean_over_replications(tmp_path):
    # TestPinnedOracleOutput runs one replication; this pins the per-slot
    # mean over five, whose bits depend on the order of the sum.
    cfg = load_config(CONFIGS / "case2.cfg")
    assert cfg.rs_mode == "oracle"
    cfg.replications, cfg.horizon = 5, 1000
    csv_path, _ = emit_results(run_experiment(cfg), tmp_path / "case2.csv")
    assert sha256(csv_path) == \
        "853c5aaacdf203afe1668883ffab5fc515aa5d467c1267f3bb1266e2ba1364d4"


class TestPinnedSignalOutput:
    """Signal-mode CSV bytes, pinned.

    case1.cfg in signal mode at 20, 10 and 0 dB and noiseless, 2
    replications of 4,000 slots: IMP's size-7 sets take the support
    search, LDM's size-4 sets the direct path, and OLDM unlocks and grows
    its sets onto the search. case2.cfg at 16 bands, 8 branches and 10 dB,
    1 replication of 1,000 slots: the deeper search (gamma 4), and 371
    direct and 656 search plan builds, so the table's plan cache (128
    plans) evicts and rebuilds; each direct plan builds its supports beyond
    the table (more than 4 of its up to 8 bands) by one padded covariance
    call; `wssim run` of that config writes a CSV of the same digest. The
    same shape without noise (case2-n16-k8-noiseless), 1 replication of
    1,000 slots: each slot's block Gram has only the 16 band rows and the
    search runs at gamma 4.
    case2.cfg at 0 dB, 2 replications of 4,000 slots: case2's crowded
    profile at 8 bands and 4 branches, where 8,812 of the 24,000 senses
    take the search, at the SNR where its residual test is passed most
    narrowly. The first replication of case1 reads the same decisions at
    20 dB as without noise; the second does not, so the two digests
    differ.
    """

    DIGESTS = {
        "case1-20db": "67fa393df26f61f43ed28f9886f14dfc24163bef5e388dd3d945b5d1253e7d49",
        "case1-10db": "78b0c28445f3fe6ea03389e9b3a4cbdb1034bc34b8e117dd7d467c07adb2a7db",
        "case1-0db": "51cb75c94056e8d8b019d3ce6bd16d3a0c300411dd472bd85947d4d6b8cb43af",
        "case1-noiseless": "8b74f4730bb24f350af3ef987da641002220821a37682429cc6320cc8096396d",
        "case2-n16-k8-10db": "00640692c226fbbda0a18c1b1360152c3719d878b9db3cf94ef5c6ea7a0a4077",
        "case2-0db": "1d6ed243d7b37f81c4de41a2968a1f942706ca68b70f2bcc31a6d9b1730cfd0a",
        "case2-n16-k8-noiseless": "6614638d0045cb73d568e02aee3fc251b3362020bbbdf0918639e57668c68248",
    }

    # (config, snr_db, (n_bands, k_branches) or None, replications, horizon)
    RUNS = {
        "case1-20db": ("case1", 20.0, None, 2, 4000),
        "case1-10db": ("case1", 10.0, None, 2, 4000),
        "case1-0db": ("case1", 0.0, None, 2, 4000),
        "case1-noiseless": ("case1", None, None, 2, 4000),
        "case2-n16-k8-10db": ("case2", 10.0, (16, 8), 1, 1000),
        "case2-0db": ("case2", 0.0, None, 2, 4000),
        "case2-n16-k8-noiseless": ("case2", None, (16, 8), 1, 1000),
    }

    # The manifests beside the 16/8 CSVs: snr_db = 10.0 and noiseless.
    MANIFEST_DIGESTS = {
        "case2-n16-k8-10db": "69473b46692aa528f166a9379067d475cf540d7a2b87ea6fcc963008fc428ade",
        "case2-n16-k8-noiseless": "68fb778d518389dfd510a7bdd331afa3719b30098fc43423c4c987146bba9337",
    }

    def emit(self, name, tmp_path):
        case, snr_db, shape, replications, horizon = self.RUNS[name]
        cfg = load_config(CONFIGS / f"{case}.cfg")
        cfg.rs_mode, cfg.snr_db = "signal", snr_db
        cfg.replications, cfg.horizon = replications, horizon
        if shape is not None:
            cfg.n_bands, cfg.k_branches = shape
        return emit_results(run_experiment(cfg), tmp_path / f"{name}.csv")

    def digest(self, name, tmp_path):
        csv_path, _ = self.emit(name, tmp_path)
        return sha256(csv_path)

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_csv_digest(self, name, tmp_path):
        assert self.digest(name, tmp_path) == self.DIGESTS[name]

    @pytest.mark.parametrize("name", list(MANIFEST_DIGESTS))
    def test_manifest_digest(self, name, tmp_path):
        _, manifest = self.emit(name, tmp_path)
        assert sha256(manifest) == self.MANIFEST_DIGESTS[name]

    @pytest.mark.parametrize("name", ["case1-0db", "case2-n16-k8-10db", "case2-0db"])
    def test_signal_digest_survives_perturbation(self, name, tmp_path, monkeypatch):
        # Every support score is scaled by 1 - 1e-9 on even rows and
        # 1 + 1e-9 on odd ones (scaling a row of inv, weighted_logdet and
        # indicator scales that row's score), and every search residual
        # energy by (1 + 1e-9)^2, its ratio by 1 + 1e-9. The digest holds,
        # so the pinned decisions have more margin than any reordered sum
        # could take from them.
        calls = {"score": 0, "residual": 0}
        first_map, search = recovery._first_map, recovery.fbmp_recover

        def nudged_first_map(s_yy, inv, weighted_logdet, indicator, prior_activity):
            calls["score"] += 1
            scale = 1.0 + 1e-9 * (-1.0) ** (np.arange(len(weighted_logdet)) + 1)
            return first_map(s_yy, inv * scale[:, None], weighted_logdet * scale,
                             indicator * scale[:, None], prior_activity)

        def nudged_search(*args):
            calls["residual"] += 1
            support, energy = search(*args)
            return support, energy * (1.0 + 1e-9) ** 2

        monkeypatch.setattr(recovery, "_first_map", nudged_first_map)
        monkeypatch.setattr(recovery, "fbmp_recover", nudged_search)
        assert self.digest(name, tmp_path) == self.DIGESTS[name]
        assert calls["score"] > calls["residual"] > 0


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

    def test_manifest_is_the_config_that_ran(self, tmp_path):
        # A change to the caller's config between the run and emit_results
        # must not reach the manifest.
        cfg = load_config(CONFIGS / "case1.cfg")
        cfg.replications, cfg.horizon = 1, 200
        series = run_experiment(cfg)
        cfg.seed = 99
        first_csv, manifest = emit_results(series, tmp_path / "a.csv")
        rerun_csv, _ = emit_results(run_experiment(load_config(manifest)),
                                    tmp_path / "b.csv")
        assert rerun_csv.read_bytes() == first_csv.read_bytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_series_leaves_no_files(self, tmp_path, bad):
        series = run_experiment(small_config(horizon=50))
        series.mean_regret["LDM"][7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            emit_results(series, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []


def config_with_field(declaration, tmp_path, monkeypatch):
    """wssim.config imported anew with one more ExperimentConfig field,
    declared after residual_threshold."""
    last = "    residual_threshold: float = 0.1\n"
    source = Path(config.__file__).read_text(encoding="utf-8")
    assert source.count(last) == 1
    path = tmp_path / "config_probe.py"
    path.write_text(source.replace(last, f"{last}    {declaration}\n"), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("wssim.config_probe", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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

    # search_breadth and energy_fa_rate are retired keys: an old manifest
    # that sets them fails to load.
    @pytest.mark.parametrize("key, value", [("bogus", "1"), ("search_breadth", "5"),
                                            ("energy_fa_rate", "1e-17")])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"n_bands = 8\nrs_mode = signal\n{key} = {value}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown configuration key: {key}"):
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

    def test_field_type_without_text_form_fails_at_import(self, tmp_path, monkeypatch):
        with pytest.raises(KeyError, match=r"dict\[str, float\]"):
            config_with_field("weights: dict[str, float] | None = None",
                              tmp_path, monkeypatch)

    def test_field_declared_int_is_read_written_and_checked_as_one(
            self, tmp_path, monkeypatch):
        module = config_with_field("extra: int = 0", tmp_path, monkeypatch)
        path = tmp_path / "exp.cfg"
        path.write_text("extra = 3\n", encoding="utf-8")
        cfg = module.load_config(path)
        assert cfg.extra == 3
        module.dump_config(cfg, path)
        assert "extra = 3" in path.read_text(encoding="utf-8").splitlines()
        with pytest.raises(ValueError, match="extra must be an integer"):
            module.ExperimentConfig(extra=2.5).validate()

    def test_recovery_config_takes_the_recovery_fields(self):
        cfg = small_config(snr_db=20.0, residual_threshold=0.2)
        assert cfg.recovery_config() == RecoveryConfig(
            noise_variance=10.0 ** -2.0, residual_threshold=0.2)
        assert small_config().recovery_config().noise_variance == 0.0

    def test_validation_rejects_overflowing_noise_power(self):
        # 10^(4000/10) overflows a float; the error names snr_db.
        with pytest.raises(ValueError, match="snr_db"):
            small_config(snr_db=-4000.0).validate()

    @pytest.mark.parametrize("field, value", [
        ("n_bands", 0), ("k_branches", 9), ("horizon", -1),
        ("exploration_coefficient", 0.0), ("mu", 1.5), ("delta", 0.0),
        ("seed", -1), pytest.param("policies", ("IMP", "XYZ"), id="policies"),
        ("replications", 0), ("rs_mode", "x"),
        pytest.param("policies", (), id="no-policies"),
        pytest.param("policies", ("IMP", "LDM", "IMP"), id="repeated-policy"),
        ("lambda_mixing", 0.0), pytest.param("p01", (0.1,) * 8, id="p01-alone"),
        pytest.param("p01", {"p01": (0.1,) * 7, "p10": (0.2,) * 7}, id="short-vectors"),
        pytest.param("p10", {"p01": (0.1,) * 8, "p10": (0.2,) * 9}, id="long-p10"),
        ("case", "case9")])
    def test_validation_names_offending_field(self, field, value):
        # A dict value sets several fields at once.
        overrides = value if isinstance(value, dict) else {field: value}
        with pytest.raises(ValueError, match=field):
            small_config(**overrides).validate()

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
