"""Benchmark of wssim experiments, run from outside the package.

    python3 perfbench/run.py --workload oracle_case1 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. Each experiment runs in a fresh
interpreter (perfbench/worker.py), one after another, so one process
generates the load. The benchmark first runs one set-up-only worker,
untimed, to warm the file cache and to check that the checkout holds
``src/wssim`` and the workload's config; without them it exits with code 2
and prints no result.

``--trace 0`` repeats untraced experiments until ``--seconds`` have passed
(at least MIN_RUNS), then runs one traced experiment for xi_agreement, and
reports the end-to-end metrics as medians over the untraced runs.
``--trace 1`` alternates untraced and traced experiments and reports the
per-layer metrics. Every run's outputs are checked, and all runs of one
invocation must write byte-identical CSVs, traced or not.

Each run's times are divided by the time its worker took for a fixed
calibration kernel and multiplied by CALIBRATION_REFERENCE_S. The ``wall.*``
per-layer metrics are the same medians unscaled.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An attempt is one replication;
it fails when its experiment raises or its output check fails. Full
records, with the environment and every run's raw figures, are written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``. perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

MIN_RUNS = 3            # untraced runs per invocation, whatever --seconds says
TIME_LIMIT_S = 170.0    # workers still running this long after the start are killed
# Reported times are scaled to a machine on which worker.calibration_kernel
# takes this long (on the machine the benchmark was written on: 0.06-0.11 s).
CALIBRATION_REFERENCE_S = 0.1
TIME_UNITS = ("s", "ms", "us")
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "slot_rate": "slots/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "xi_agreement": "ratio",
}
PER_LAYER = {
    "learning.run_policy.self_us_per_slot": "us",
    "learning.propagate_belief.us_per_call": "us",
    "learning.exploit_select.us_per_call": "us",
    "learning.update_counts.calls": "count",
    "learning.update_counts.us_per_call": "us",
    "learning.obs_per_slot": "ratio",
    "recovery.oracle_sense.us_per_call": "us",
    "spectrum.simulate_occupancy.ms_per_call": "ms",
    "sizing.optimize_size.calls": "count",
    "sizing.optimize_size.us_per_call": "us",
    "spectrum.synthesize_band_spectra.us_per_call": "us",
    "sensing.measure.us_per_call": "us",
    "recovery.signal_sense.self_us_per_call": "us",
    "recovery.fbmp_recover.calls": "count",
    "recovery.fbmp_recover.us_per_call": "us",
    "recovery.direct_solve.us_per_call": "us",
    "recovery.energy_detect.us_per_call": "us",
    "recovery.search_share": "ratio",
    "recovery.xi_fail_rate": "ratio",
    "recovery.false_alarm_rate": "ratio",
    "recovery.miss_rate": "ratio",
    "sensing.draw_sensing_matrix.us_per_call": "us",
    "experiments.run_replication.s_p50": "s",
    "experiments.run_replication.s_max": "s",
    "experiments.run_replication.samples": "count",
    "experiments.emit_results.s": "s",
    "setup.import_s": "s",
    "trace.overhead": "ratio",
    "wall.setup_s": "s",
    "wall.total_s": "s",
    "wall.slot_rate": "slots/s",
    "calibration.kernel_s": "s",
}


@dataclass(frozen=True)
class Workload:
    config: str                     # config file, relative to the checkout root
    overrides: dict = field(default_factory=dict)
    oldm_below_ldm: bool = False    # criterion 5: OLDM's final regret < LDM's
    min_xi_agreement: float | None = None   # criterion 8's bound


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "oracle_case1": Workload(
        "configs/case1.cfg", {"replications": 1}, oldm_below_ldm=True),
    "signal_case1_20db": Workload(
        "configs/case1.cfg",
        {"rs_mode": "signal", "snr_db": 20.0, "horizon": 800,
         "replications": 1},
        min_xi_agreement=0.95),
    "signal_case2_wide": Workload(
        "configs/case2.cfg",
        {"rs_mode": "signal", "snr_db": 10.0, "n_bands": 16, "k_branches": 8,
         "horizon": 300, "replications": 1},
        min_xi_agreement=0.95),
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **versions,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def start_worker(spec: dict, deadline: float) -> dict:
    """Run one worker; its JSON record, or {"error": ...} if it failed."""
    started = time.time()
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}"}
    record = json.loads(lines[-1])
    if "emitted_at" in record:
        record["total_s"] = record.pop("emitted_at") - started
    return record


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_outputs(workload: Workload, record: dict, csv_path: Path,
                  expected: dict) -> list[str]:
    """Problems found in one run's CSV and manifest; empty when correct."""
    problems = []
    header, rows = read_csv(csv_path)
    want = ["slot"]
    for policy in expected["policies"]:
        want.append(f"{policy.lower()}_mean_throughput")
        if "IMP" in expected["policies"]:
            want.append(f"{policy.lower()}_mean_regret")
    if header != want:
        problems.append(f"CSV columns {header} != {want}")
        return problems
    if len(rows) != expected["horizon"]:
        problems.append(f"CSV has {len(rows)} rows, horizon is {expected['horizon']}")
    for i, row in enumerate(rows):
        if len(row) != len(header) or row[0] != str(i):
            problems.append(f"CSV row {i} is malformed")
            break
        try:
            finite = all(math.isfinite(float(v)) for v in row[1:])
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"CSV row {i} is not all finite numbers")
            break
    manifest = csv_path.with_suffix(".manifest.cfg")
    if not manifest.is_file() or manifest.stat().st_size == 0:
        problems.append("manifest missing or empty")
    if workload.oldm_below_ldm and rows and not problems:
        final = dict(zip(header, rows[-1]))
        if float(final["imp_mean_regret"]) != 0.0:
            problems.append(f"IMP final regret {final['imp_mean_regret']} != 0")
        if not float(final["oldm_mean_regret"]) < float(final["ldm_mean_regret"]):
            problems.append(f"OLDM final regret {final['oldm_mean_regret']} is not "
                            f"below LDM's {final['ldm_mean_regret']}")
    if workload.min_xi_agreement is not None and "trace" in record:
        agreement = tracing.xi_agreement(record["trace"], record["rs_mode"])
        if agreement < workload.min_xi_agreement:
            problems.append(f"xi_agreement {agreement:.4f} < {workload.min_xi_agreement}")
    return problems


@dataclass
class Session:
    """The runs of one invocation and their accounting."""

    name: str
    workload: Workload
    seed: int
    out_dir: Path
    deadline: float
    expected: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)
    sha256: str | None = None
    attempted: int = 0
    failed: int = 0

    def spec(self, traced: bool, setup_only: bool = False) -> dict:
        return {"root": str(ROOT), "config": self.workload.config,
                "overrides": dict(self.workload.overrides, seed=self.seed),
                "csv": str(self.out_dir / f"run{len(self.runs)}.csv"),
                "traced": traced, "setup_only": setup_only}

    def setup(self) -> None:
        for path in ("src/wssim/__init__.py", self.workload.config):
            if not (ROOT / path).is_file():
                raise SetupError(f"{ROOT / path} not found")
        record = start_worker(self.spec(False, setup_only=True), self.deadline)
        if "error" in record:
            raise SetupError(f"set-up run failed: {record['error']}")
        self.expected = record

    def run(self, traced: bool) -> dict:
        spec = self.spec(traced)
        csv_path = Path(spec["csv"])
        record = start_worker(spec, self.deadline)
        record["traced"] = traced
        if "error" in record:
            record["problems"] = [record["error"]]
        elif not csv_path.is_file():
            record["problems"] = [f"{csv_path.name} was not written"]
        else:
            record["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            record["problems"] = check_outputs(self.workload, record, csv_path,
                                               self.expected)
            if self.sha256 is None:
                self.sha256 = record["csv_sha256"]
            elif record["csv_sha256"] != self.sha256:
                record["problems"].append("CSV differs from the first run's")
        for path in (csv_path, csv_path.with_suffix(".manifest.cfg")):
            path.unlink(missing_ok=True)
        record["ok"] = not record["problems"]
        self.attempted += self.expected["replications"]
        self.failed += 0 if record["ok"] else self.expected["replications"]
        self.runs.append(record)
        for problem in record["problems"]:
            print(f"run {len(self.runs) - 1}: FAILED: {problem}", file=sys.stderr)
        return record

    def completed(self, traced: bool) -> list[dict]:
        """Runs that finished, whether or not their outputs passed the checks."""
        return [r for r in self.runs if "run_s" in r and r["traced"] == traced]


def measure(session: Session, seconds: float, trace: bool) -> None:
    """Run experiments until `seconds` have passed, at least MIN_RUNS untraced."""
    start = time.perf_counter()
    rounds = 0
    while True:
        session.run(traced=False)
        if trace:
            session.run(traced=True)
        rounds += 1
        now = time.perf_counter()
        per_round = (now - start) / rounds
        if now + 2 * per_round > session.deadline:   # room for one more round
            break
        if rounds >= MIN_RUNS and now - start + per_round > seconds:
            break
    if not trace:
        session.run(traced=True)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def scale(run: dict) -> float:
    """Factor taking the run's times to calibration speed."""
    return CALIBRATION_REFERENCE_S / statistics.mean(run["calibration_s"])


def timings(session: Session, scaled: bool) -> dict[str, float]:
    """Median set-up time, total time and throughput over the runs."""
    plain = session.completed(traced=False)
    traced = session.completed(traced=True)
    exp = session.expected
    policy_slots = exp["replications"] * exp["horizon"] * len(exp["policies"])

    def f(run):
        return scale(run) if scaled else 1.0

    return {
        "setup_s": _median(r["setup_s"] * f(r) for r in plain + traced),
        "total_s": _median(r["total_s"] * f(r) for r in plain),
        "slot_rate": _median(policy_slots / (r["run_s"] * f(r)) for r in plain),
    }


def end_to_end_metrics(session: Session) -> dict[str, float]:
    plain = session.completed(traced=False)
    traced = session.completed(traced=True)
    return {
        **timings(session, scaled=True),
        "peak_rss_mb": _median(r["peak_rss_mib"] for r in plain),
        "ok_frac": (session.attempted - session.failed) / session.attempted,
        "xi_agreement": _median(tracing.xi_agreement(r["trace"], r["rs_mode"])
                                for r in traced),
    }


def per_layer_metrics(session: Session) -> dict[str, float]:
    plain = session.completed(traced=False)
    traced = session.completed(traced=True)
    per_run = []
    for r in traced:
        metrics = tracing.layer_metrics(r["trace"])
        per_run.append({name: value * scale(r) if PER_LAYER[name] in TIME_UNITS
                        else value for name, value in metrics.items()})
    out = {name: _median(m[name] for m in per_run) for name in per_run[0]}
    reps = [s * scale(r) for r in traced for s in r["trace"]["rep_seconds"]]
    out["experiments.run_replication.s_p50"] = _median(reps)
    out["experiments.run_replication.s_max"] = max(reps, default=0.0)
    out["experiments.run_replication.samples"] = len(reps)
    out["experiments.emit_results.s"] = _median(r["emit_s"] * scale(r) for r in plain)
    out["setup.import_s"] = _median(r["import_s"] * scale(r) for r in plain + traced)
    untraced_s = _median(r["run_s"] * scale(r) for r in plain)
    out["trace.overhead"] = _median(r["run_s"] * scale(r) for r in traced) / untraced_s
    out.update({f"wall.{name}": value
                for name, value in timings(session, scaled=False).items()})
    out["calibration.kernel_s"] = _median(
        s for r in plain + traced for s in r["calibration_s"])
    return {name: out.get(name, 0.0) for name in PER_LAYER}


def print_report(session: Session, metrics: dict, units: dict, env: dict) -> None:
    plain = session.completed(traced=False)
    print(f"workload {session.name}, seed {session.seed}: "
          f"{len(session.runs)} runs ({len(plain)} untraced), "
          f"{session.expected['replications']} replications x "
          f"{session.expected['horizon']} slots x "
          f"{len(session.expected['policies'])} policies each")
    for r in session.runs:
        kind = "traced  " if r["traced"] else "untraced"
        if "run_s" in r:
            print(f"  {kind} setup {r['setup_s']:.3f} s  run {r['run_s']:.3f} s  "
                  f"total {r['total_s']:.3f} s  cpu {r['cpu_s']:.3f} s  "
                  f"calibration {statistics.mean(r['calibration_s']):.3f} s  "
                  f"rss {r['peak_rss_mib']:.1f} MiB  {'ok' if r['ok'] else 'FAILED'}")
        else:
            print(f"  {kind} FAILED: {r['error']}")
    print(f"  csv sha256 {session.sha256}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = Session(name=args.workload, workload=WORKLOADS[args.workload],
                      seed=args.seed,
                      out_dir=OUT_DIR / f"{tag}-{os.getpid()}",
                      deadline=time.perf_counter() + TIME_LIMIT_S)
    session.out_dir.mkdir()
    try:
        session.setup()
        measure(session, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(session.out_dir, ignore_errors=True)

    if not session.completed(traced=False) or not session.completed(traced=True):
        print("error: no untraced or no traced run finished", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = per_layer_metrics(session) if args.trace else end_to_end_metrics(session)
    env = environment(args.seed, session.expected["versions"])
    print_report(session, metrics, units, env)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "env": env, "metrics": metrics,
         "attempted": session.attempted, "failed": session.failed,
         "csv_sha256": session.sha256, "runs": session.runs}, indent=1))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
