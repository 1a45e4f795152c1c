from pathlib import Path

import numpy as np
import pytest

from wssim import experiments
from wssim.config import ExperimentConfig, dump_config, load_config
from wssim.experiments import (compute_regret, emit_results, run_experiment,
                               run_replication)


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

    def test_validation_names_offending_field(self):
        cfg = small_config(mu=1.5)
        with pytest.raises(ValueError, match="mu"):
            cfg.validate()
        cfg = small_config(policies=("IMP", "XYZ"))
        with pytest.raises(ValueError, match="policies"):
            cfg.validate()

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
