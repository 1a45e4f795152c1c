"""Tests of the benchmark itself, at tiny scale (about a minute).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection, which they would slow down by starting interpreters.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small enough to be quick. oracle_case1 keeps its 10,000 slots so that
# OLDM's sizing unlocks and the criterion-5 check still applies.
TINY = {
    "oracle_case1": {"replications": 1},
    "signal_case1_20db": {"horizon": 60, "replications": 1},
    "signal_case2_wide": {"horizon": 40, "replications": 1},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    workloads = {name: dataclasses.replace(
                     w, overrides=dict(w.overrides, **TINY[name]))
                 for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def invoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_runs_and_reports_every_metric(tiny, capsys, workload, trace):
    result = invoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    record = json.loads((tiny / f"{workload}-seed7-trace{trace}.json").read_text())
    # Tracing must not disturb the simulation: one CSV digest for all runs.
    assert {r["traced"] for r in record["runs"]} == {False, True}
    assert {r["csv_sha256"] for r in record["runs"]} == {record["csv_sha256"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        signal = workload.startswith("signal")
        assert (metrics["recovery.fbmp_recover.calls"] > 0) == signal
        assert (metrics["recovery.oracle_sense.us_per_call"] > 0) != signal
        assert metrics["learning.update_counts.calls"] > 0
        assert metrics["trace.overhead"] > 0
    else:
        assert metrics["ok_frac"] == 1.0
        assert metrics["xi_agreement"] >= 0.95


def test_failing_check_is_counted(tiny, capsys, monkeypatch):
    real_check = run.check_outputs

    def failing_check(*args):
        return real_check(*args) + ["injected failure"]

    monkeypatch.setattr(run, "check_outputs", failing_check)
    result = invoke(capsys, "oracle_case1", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_missing_names_read_as_absent_and_zero():
    package = types.SimpleNamespace(experiments=types.SimpleNamespace(),
                                    learning=types.SimpleNamespace())
    tracer = tracing.Tracer(k_branches=4).install(package)
    expected = {name for _, _, name in tracing.FUNCTIONS + tracing.SENSE_METHODS}
    assert set(tracer.absent) == expected
    metrics = tracing.layer_metrics(tracer.raw())
    assert set(metrics) <= set(run.PER_LAYER)
    assert all(value == 0 for value in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle_case1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
