from pathlib import Path

import pytest

from wssim.cli import RESULTS_ENV_VAR, main

TINY = """\
n_bands = 8
k_branches = 4
horizon = 120
replications = 2
seed = 3
case = case1
policies = IMP, OLDM
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv(RESULTS_ENV_VAR, str(tmp_path / "results"))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    return tmp_path, cfg


class TestTheorem1:
    def test_reference_values(self, capsys):
        assert main(["theorem1", "--N", "8", "--K", "4",
                     "--mu", "0.05", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Q=4061" in out
        assert "W=16244" in out

    def test_rejects_bad_mu(self, capsys):
        assert main(["theorem1", "--N", "8", "--K", "4",
                     "--mu", "1.5", "--delta", "0.1"]) != 0
        assert "mu" in capsys.readouterr().err

    def test_rejects_more_branches_than_bands(self, capsys):
        assert main(["theorem1", "--N", "2", "--K", "4",
                     "--mu", "0.2", "--delta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert "k_branches" in captured.err and "Q=" not in captured.out


class TestValidate:
    def test_good_config(self, workdir, capsys):
        _, cfg = workdir
        assert main(["validate", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_branch_count_names_field(self, workdir, capsys):
        tmp_path, cfg = workdir
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY.replace("k_branches = 4", "k_branches = 9"),
                       encoding="utf-8")
        assert main(["validate", str(bad)]) != 0
        assert "k_branches" in capsys.readouterr().err

    def test_nan_snr_exits_with_usage_error(self, workdir, capsys):
        tmp_path, _ = workdir
        bad = tmp_path / "nan.cfg"
        bad.write_text(TINY + "snr_db = nan\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "snr_db" in capsys.readouterr().err

    def test_oversized_signal_table_exits_with_usage_error(self, workdir, capsys):
        _, cfg = workdir
        wide = ["--set", "n_bands=32", "--set", "k_branches=8"]
        assert main(["validate", str(cfg)] + wide) == 0
        capsys.readouterr()
        assert main(["validate", str(cfg), "--set", "rs_mode=signal"] + wide) == 2
        err = capsys.readouterr().err
        assert "n_bands" in err and "k_branches" in err

    @pytest.mark.parametrize("key, value", [("search_breadth", "5"),
                                            ("energy_fa_rate", "1e-17")])
    def test_retired_key_override_is_unknown(self, workdir, capsys, key, value):
        _, cfg = workdir
        assert main(["validate", str(cfg), "--set", "rs_mode=signal",
                     "--set", f"{key}={value}"]) == 2
        assert f"unknown configuration key: {key}" in capsys.readouterr().err

    def test_unparsable_override_names_key(self, workdir, capsys):
        _, cfg = workdir
        assert main(["validate", str(cfg), "--set", "mu=high"]) == 2
        assert "cannot parse mu = 'high'" in capsys.readouterr().err

    def test_override_without_equals_sign(self, workdir, capsys):
        _, cfg = workdir
        assert main(["validate", str(cfg), "--set", "seed"]) == 2
        assert "--set expects key=value, got: seed" in capsys.readouterr().err

    def test_config_line_without_equals_sign(self, workdir, capsys):
        tmp_path, _ = workdir
        bad = tmp_path / "bare.cfg"
        bad.write_text(TINY + "seed 4\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert f"{bad}:8: expected 'key = value'" in capsys.readouterr().err

    def test_repeated_key_exits_with_usage_error(self, workdir, capsys):
        tmp_path, _ = workdir
        bad = tmp_path / "repeat.cfg"
        bad.write_text(TINY + "n_bands = 16\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert f"{bad}:8: n_bands repeats line 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "no_such_file.cfg"]) != 0


class TestRun:
    def test_writes_csv_and_manifest(self, workdir):
        tmp_path, cfg = workdir
        assert main(["run", str(cfg)]) == 0
        results = tmp_path / "results"
        assert (results / "tiny.csv").exists()
        assert (results / "tiny.manifest.cfg").exists()

    def test_set_overrides(self, workdir):
        tmp_path, cfg = workdir
        assert main(["run", str(cfg), "--set", "horizon=40"]) == 0
        lines = (tmp_path / "results" / "tiny.csv").read_text().splitlines()
        assert len(lines) == 1 + 40

    @pytest.mark.parametrize("overrides, expected", [
        (["mu=0.25"], ["mu = 0.25"]),
        (["case=case2"], ["case = case2"]),
        # tiny.cfg leaves snr_db at noiseless, so 7.5 comes first.
        (["snr_db=7.5", "snr_db=noiseless"], ["snr_db = noiseless"]),
        (["snr_db=7.5"], ["snr_db = 7.5"]),
        (["p01=0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4",
          "p10=0.5,0.45,0.4,0.35,0.3,0.25,0.2,0.125"],
         ["p01 = 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4",
          "p10 = 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.125"]),
        (["policies=ldm, imp"], ["policies = LDM, IMP"]),
    ], ids=["float", "str", "noiseless", "snr", "vectors", "policies"])
    def test_set_override_is_written_to_the_manifest(self, workdir, overrides, expected):
        tmp_path, cfg = workdir
        args = ["run", str(cfg)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0
        lines = (tmp_path / "results" / "tiny.manifest.cfg").read_text().splitlines()
        assert set(expected) <= set(lines)

    def test_rerun_bit_identical(self, workdir):
        tmp_path, cfg = workdir
        results = tmp_path / "results"
        main(["run", str(cfg)])
        first = (results / "tiny.csv").read_bytes()
        manifest = (results / "tiny.manifest.cfg").read_bytes()
        main(["run", str(cfg)])
        assert (results / "tiny.csv").read_bytes() == first
        assert (results / "tiny.manifest.cfg").read_bytes() == manifest

    def test_manifest_reruns_identically(self, workdir):
        tmp_path, cfg = workdir
        main(["run", str(cfg)])
        results = tmp_path / "results"
        first = (results / "tiny.csv").read_bytes()
        assert main(["run", str(results / "tiny.manifest.cfg")]) == 0
        assert (results / "tiny.manifest.csv").read_bytes() == first


class TestSweep:
    def test_three_files(self, workdir):
        tmp_path, cfg = workdir
        assert main(["sweep", str(cfg), "--param", "K",
                     "--values", "3,4,5"]) == 0
        results = tmp_path / "results"
        for value in (3, 4, 5):
            assert (results / f"tiny_k_branches_{value}.csv").exists()

    def test_snr_alias(self, workdir):
        tmp_path, cfg = workdir
        assert main(["sweep", str(cfg), "--param", "SNR",
                     "--values", "20"]) == 0
        assert (tmp_path / "results" / "tiny_snr_db_20.csv").exists()

    def test_unknown_param(self, workdir, capsys):
        tmp_path, cfg = workdir
        assert main(["sweep", str(cfg), "--param", "bogus",
                     "--values", "1"]) == 2
        assert "unknown configuration key: bogus" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_bad_value_stops_the_sweep_before_any_run(self, workdir, capsys):
        # K = 9 exceeds the 8 bands; the values before it must not run.
        tmp_path, cfg = workdir
        assert main(["sweep", str(cfg), "--param", "K",
                     "--values", "3,4,9"]) == 2
        assert "k_branches" in capsys.readouterr().err
        results = tmp_path / "results"
        assert not results.exists() or not any(results.iterdir())

    def test_value_repeated_after_parsing_stops_the_sweep_before_any_run(
            self, workdir, capsys):
        # 04 parses to 4: running it would redo K = 4 and, for the plain
        # repeat, overwrite tiny_k_branches_4.csv.
        tmp_path, cfg = workdir
        assert main(["sweep", str(cfg), "--param", "K",
                     "--values", "4,4,04"]) == 2
        assert "k_branches = 4 twice" in capsys.readouterr().err
        assert main(["sweep", str(cfg), "--param", "K",
                     "--values", "3, 4,04"]) == 2
        assert "k_branches = 4 twice (as '4' and '04')" in capsys.readouterr().err
        results = tmp_path / "results"
        assert not results.exists() or not any(results.iterdir())


class TestUsageErrors:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0
