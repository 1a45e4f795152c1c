"""Experiment orchestration: seeded replications, metrics, and file output.

Within one replication every requested policy sees the same occupancy
trajectory and, in signal mode, the same sensing matrix (common random
numbers), so policy comparisons are paired. Replication results merge by
replication index, which keeps the aggregate independent of execution
order. Oracle mode draws no sensing matrix, but the matrix's seed stream
stays reserved, so every other stream and the output are unchanged; one
OracleEnvironment serves all policies of a replication. Both sensing
backends check the trajectory once, with spectrum.check_trajectory, and
return a recovery.SenseResult per slot.

In signal mode run_replication builds one recovery.SupportTable of the
replication's sensing matrix, with the RecoveryConfig that
ExperimentConfig.recovery_config() builds, and hands it to every policy's
SignalEnvironment. The table is eager (Phi_S^-1, log det Phi_S and the
posterior-mean operator of every support of at most K // 2 bands, from
the start) and never grows or clears. Each environment keeps one recovery.SensingPlan per distinct
selected set, a view of the table built the first time the set is
sensed, and at most _MAX_PLANS of them (the oldest goes first), which
bounds memory whatever the horizon. Signal power is the unit: busy bands
carry mean power 1 per bin and the noise power per bin is
10^(-snr_db/10). Each slot hands signal_sense the plan, the slot's sample
Gram and, on the search path only, the selected bands' busy priors,
nothing else; the search scores every support of at most gamma of the
set's bands and keeps the first maximum in (size, lexicographic) order.
Plans return the same values whatever the environment held before, so
the output depends on the config alone. It matches a search that
factorises every support's covariance except where two supports' scores
tie to the last bits, which the table's cached inverses can change; band
energies and residuals are products with cached operators, not per-slot
solves (see recovery).

A slot's random draws depend only on its trajectory row, bins_per_band,
K and the SNR, not on the selected bands. So a SignalEnvironment draws
the spectra and noise of a block of consecutive slots in one generator
call when it senses the block's first slot, at most _BLOCK_DRAWS values
(at least one slot; the last block ends at the trajectory's end). The
values and their order are those of calling synthesize_band_spectra and
measure slot by slot, so the generator is in the same state after each
block and at the horizon's end. Each sense() call must therefore name
the slot after the previous call's (the first call may name any slot),
as run_policy does; any other slot raises a ValueError naming the
expected one.

No complex spectra or samples are formed. Recovery reads a slot only
through its sample Gram S_yy (see recovery), so the environment keeps each
slot's Gram of its band spectra and noise (_draw_block), and a slot's
S_yy is two small products with the plan's mixing matrix. It equals the
Gram of the per-slot samples up to rounding, not bit for bit, so a status
or xi can differ from the per-slot chain only where an energy or a
residual meets its threshold to the last bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, dump_config
from .learning import OracleEnvironment, run_policy
from .recovery import SenseResult, SensingPlan, SupportTable, signal_sense
from .sensing import draw_sensing_matrix, noise_power_for_snr, noise_scale
from .spectrum import (BandStatistics, check_bins_per_band, check_trajectory,
                       simulate_occupancy, unit_power_scale)

# Sensing plans kept per SignalEnvironment: every subset of 8 bands.
_MAX_PLANS = 256
# Random values a SignalEnvironment draws at most per block of slots. A
# slot draws at most 2 * bins_per_band * (n_bands + k_branches) of them.
_BLOCK_DRAWS = 1 << 15


@dataclass
class MetricSeries:
    """Aggregated per-slot metrics of one experiment."""

    policies: tuple[str, ...]
    mean_throughput: dict[str, np.ndarray]   # per-slot mean over replications
    mean_regret: dict[str, np.ndarray]       # cumulative gap to IMP (empty without IMP)
    rep_totals: dict[str, np.ndarray]        # total throughput per replication
    config: ExperimentConfig


class SignalEnvironment:
    """Sensing backend running the full measurement and recovery chain.

    The trajectory is checked by spectrum.check_trajectory. table is the
    replication's SupportTable, over its whole sensing matrix, with the
    config's recovery settings; every policy's environment shares it.
    Slots are sensed in order: each sense() call names the slot after the
    previous call's (the first may name any slot), and any other slot
    raises a ValueError.
    """

    def __init__(self, trajectory: np.ndarray, table: SupportTable,
                 config: ExperimentConfig, rng: np.random.Generator):
        self.trajectory = check_trajectory(trajectory)
        self.config = config
        self.rng = rng
        self.support_table = table
        self._plans: dict[tuple[int, ...], SensingPlan] = {}
        self._noise_power = noise_power_for_snr(config.snr_db)
        most_draws = (2 * check_bins_per_band(config.bins_per_band)
                      * (self.trajectory.shape[1] + config.k_branches))
        self.block_slots = max(1, _BLOCK_DRAWS // most_draws)
        self._next_slot: int | None = None
        self._block_start = self._block_end = 0
        self._grams = None

    def _plan(self, selected) -> SensingPlan:
        """The sensing plan of a band set, built on its first use."""
        key = tuple(selected)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                del self._plans[next(iter(self._plans))]
            plan = self._plans[key] = SensingPlan(self.support_table, key)
        return plan

    def _draw_block(self, start: int) -> None:
        """Draw the spectra and noise of the block_slots slots from start
        (fewer at the trajectory's end) in one generator call, and keep
        each slot's Gram of them.

        The values come in the order per-slot synthesize_band_spectra and
        measure draw them, bins_per_band to a row: per slot, the real parts
        of every busy band in band order, then their imaginary parts, then
        (unless the run is noiseless) K rows of the noise's real parts and
        K of its imaginary parts. They are laid out as one (slots, N + K,
        2 * bins) array, a row per band (zero when vacant) and per noise
        branch (none when noiseless), real draws then imaginary ones, and
        one batched product gives each slot's raw Gram H. Scaling a busy
        band's row and column by unit_power_scale(H_jj / bins) and the
        noise rows' by noise_scale(noise power), the formulas of
        synthesize_band_spectra and measure, makes it the Gram of the
        slot's unit-power spectra and noise; sense() forms the slot's S_yy
        from it as plan.mixing @ Gram @ plan.mixing^T (the mixing's first N
        columns when noiseless).
        """
        n, k = self.trajectory.shape[1], self.config.k_branches
        bins = self.config.bins_per_band
        self._grams = None   # free the last block first
        busy_mask = self.trajectory[start:start + self.block_slots] != 0
        busy = np.count_nonzero(busy_mask, axis=1)
        noise_rows = k if self._noise_power > 0.0 else 0
        rows_per_slot = 2 * busy + 2 * noise_rows
        offsets = np.cumsum(rows_per_slot) - rows_per_slot
        draws = self.rng.standard_normal((int(rows_per_slot.sum()), bins))
        stack = np.zeros((busy.size, n + noise_rows, 2, bins))
        # A busy band's real row: its slot's offset plus its rank among the
        # slot's busy bands; its imaginary row is the slot's busy count on.
        slot_of, band = np.nonzero(busy_mask)
        rank = np.arange(slot_of.size) - (np.cumsum(busy) - busy)[slot_of]
        real = offsets[slot_of] + rank
        stack[slot_of, band] = draws[np.stack([real, real + busy[slot_of]], axis=1)]
        if noise_rows:
            real = (offsets + 2 * busy)[:, None] + np.arange(k)
            stack[:, n:] = draws[np.stack([real, real + k], axis=2)]
        flat = stack.reshape(busy.size, n + noise_rows, 2 * bins)
        grams = flat @ flat.transpose(0, 2, 1)
        scale = np.zeros((busy.size, n + noise_rows))
        scale[slot_of, band] = unit_power_scale(grams[slot_of, band, band] / bins)
        scale[:, n:] = noise_scale(self._noise_power)
        grams *= scale[:, :, None]
        grams *= scale[:, None, :]
        self._grams = grams
        self._block_start, self._block_end = start, start + busy.size

    def sense(self, selected, slot, prior_vacancy=None) -> SenseResult:
        if self._next_slot is not None and slot != self._next_slot:
            raise ValueError(f"slots are sensed in order: expected slot "
                             f"{self._next_slot}, got {slot}")
        plan = self._plan(selected)
        if self._next_slot is None or slot == self._block_end:
            self._draw_block(slot)
        self._next_slot = slot + 1
        gram = self._grams[slot - self._block_start]
        mixing = plan.mixing[:, :len(gram)]
        s_yy = mixing @ gram @ mixing.T
        if prior_vacancy is None or plan.direct:
            prior_activity = 0.5
        else:
            prior_activity = 1.0 - np.asarray(prior_vacancy)[np.asarray(selected)]
        return signal_sense(s_yy, plan, prior_activity)


def run_replication(config: ExperimentConfig, rep_index: int,
                    stats: BandStatistics | None = None) -> dict[str, np.ndarray]:
    """Per-slot throughput of every policy for one replication.

    Seeding depends only on (config.seed, rep_index), so replications can
    run in any order and still merge identically.
    """
    if not 0 <= rep_index < config.replications:
        raise ValueError("rep_index out of range")
    if stats is None:
        stats = config.band_statistics()
    # Child rep_index of SeedSequence(config.seed), without spawning the
    # other replications' children.
    rep_seed = np.random.SeedSequence(config.seed, spawn_key=(rep_index,))
    streams = rep_seed.spawn(2 + 2 * len(config.policies))
    trajectory = simulate_occupancy(stats, config.horizon,
                                    np.random.default_rng(streams[0]))
    signal = config.rs_mode == "signal"
    if signal:
        matrix = draw_sensing_matrix(config.k_branches, config.n_bands,
                                     np.random.default_rng(streams[1]))
        table = SupportTable(matrix, config.recovery_config())
    else:
        env = OracleEnvironment(trajectory, config.k_branches)
    series = {}
    for i, policy in enumerate(config.policies):
        policy_rng = np.random.default_rng(streams[2 + 2 * i])
        if signal:
            env = SignalEnvironment(trajectory, table, config,
                                    np.random.default_rng(streams[3 + 2 * i]))
        outcomes = run_policy(config.policy_config(policy), env, policy_rng,
                              true_stats=stats)
        series[policy] = np.fromiter((o.throughput for o in outcomes),
                                     dtype=float, count=config.horizon)
    return series


def compute_regret(policy_series: np.ndarray, imp_series: np.ndarray) -> np.ndarray:
    """Cumulative throughput gap of a policy against the IMP baseline."""
    policy_series = np.asarray(policy_series, dtype=float)
    imp_series = np.asarray(imp_series, dtype=float)
    if policy_series.shape != imp_series.shape:
        raise ValueError("series must have equal length")
    return np.cumsum(imp_series - policy_series)


def run_experiment(config: ExperimentConfig) -> MetricSeries:
    """Run all replications and aggregate per-slot means and regrets."""
    config.validate()
    stats = config.band_statistics()
    stacked = {p: np.empty((config.replications, config.horizon))
               for p in config.policies}
    for r in range(config.replications):
        series = run_replication(config, r, stats=stats)
        for policy, values in series.items():
            stacked[policy][r] = values
    mean_throughput = {p: stacked[p].mean(axis=0) for p in config.policies}
    rep_totals = {p: stacked[p].sum(axis=1) for p in config.policies}
    mean_regret = {}
    if "IMP" in config.policies:
        imp = mean_throughput["IMP"]
        mean_regret = {p: compute_regret(mean_throughput[p], imp)
                       for p in config.policies}
    return MetricSeries(policies=config.policies,
                        mean_throughput=mean_throughput,
                        mean_regret=mean_regret,
                        rep_totals=rep_totals,
                        config=config)


def manifest_path_for(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".manifest.cfg")


def emit_results(series: MetricSeries, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the per-slot CSV and the resolved-config manifest.

    The CSV carries one row per slot with the mean throughput and (when IMP
    was run) mean cumulative regret of every policy, at full float
    precision. Re-running from the manifest reproduces the CSV byte for
    byte. Both files are written under temporary names in the target
    directory and renamed into place only once both are complete, so a
    failure leaves neither a partial CSV nor a partial manifest behind.
    """
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    columns = ["slot"]
    series_by_column = []
    for policy in series.policies:
        columns.append(f"{policy.lower()}_mean_throughput")
        series_by_column.append(series.mean_throughput[policy])
        if series.mean_regret:
            columns.append(f"{policy.lower()}_mean_regret")
            series_by_column.append(series.mean_regret[policy])
    for values in series_by_column:
        if not np.all(np.isfinite(values)):
            raise ValueError("refusing to emit non-finite metric values")
    manifest = manifest_path_for(csv_path)
    tmp_csv, tmp_manifest = (path.with_name(f".{path.name}.{os.getpid()}.tmp")
                             for path in (csv_path, manifest))
    try:
        try:
            with open(tmp_csv, "w", encoding="utf-8", newline="") as f:
                f.write(",".join(columns) + "\n")
                for slot in range(series.config.horizon):
                    row = [str(slot)] + [repr(float(col[slot]))
                                         for col in series_by_column]
                    f.write(",".join(row) + "\n")
        except OSError as exc:
            raise OSError(f"failed to write results to {csv_path}: {exc}") from exc
        dump_config(series.config.resolved(), tmp_manifest)
        os.replace(tmp_csv, csv_path)
        os.replace(tmp_manifest, manifest)
    finally:
        for tmp in (tmp_csv, tmp_manifest):
            tmp.unlink(missing_ok=True)
    return csv_path, manifest
