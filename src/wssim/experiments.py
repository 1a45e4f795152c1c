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
SignalEnvironment, which takes K, the bin count and the noise power from
the table alone. The table is eager (Phi_S^-1, log det Phi_S and the fit
operator Q_S = F_S^T F_S of every support of at most K // 2 bands, from
the start) and its rows never change. It also caches one
recovery.SensingPlan per distinct selected set, a view of the table built
the first time any policy of the replication senses the set, and at most
recovery._MAX_PLANS of them (the oldest goes first), which bounds memory
whatever the horizon; policies sensing the same set share its plan. Signal
power is the unit: busy bands carry mean power 1 per bin and the noise
power per bin is 10^(-snr_db/10). Each slot hands signal_sense the plan,
the slot's sample Gram and the selected bands' busy priors (one minus the
policy's vacancy beliefs), nothing else. On either path the statuses are
the first maximum a posteriori support in (size, lexicographic) order: of
all 2^m supports of a set of m <= K bands, of those of at most gamma bands
otherwise. Plans return the same values whatever the environment held
before, so the output depends on the config alone. It matches scoring that
factorises every support's covariance except where two supports' scores
tie to the last bits, which the cached inverses can change; the search's
residuals are products with the cached fit operators, not per-slot solves
(see recovery).

A slot's random draws depend only on its trajectory row, bins_per_band,
K and the SNR, not on the selected bands. So a SignalEnvironment draws a
block of consecutive slots when it senses the block's first slot: as
many slots as keep the block's Grams within _BLOCK_GRAM_VALUES values,
(N + K)^2 a slot (at least one slot; the last block ends at the
trajectory's end). Each sense() call must therefore name the slot after
the previous call's (the first call may name any slot of the trajectory),
as run_policy does; any other slot raises a ValueError naming the
expected one, and a slot outside the trajectory one naming its length.

No spectra or samples are formed. Recovery reads a slot only through its
sample Gram S_yy (see recovery), so the environment draws each slot's
Gram of its band spectra and noise directly, from its Bartlett factor
(_draw_block): two generator calls per block, one standard_normal call
for every factor's below-diagonal values and one chisquare call for
their diagonals, in the order _draw_block's docstring gives. That order
defines the signal-mode random stream. The Gram is equal in law to that
of the unit-power spectra and noise that the sample-domain reference
chain in tests/conftest.py (synthesize_band_spectra, then measure) draws
slot by slot, so every statistic recovery reads has its law, but the
values differ. A slot's S_yy is two small products with the plan's
mixing matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, dump_config
from .learning import OracleEnvironment, run_policy
from .recovery import SenseResult, SupportTable, signal_sense
from .sensing import draw_sensing_matrix
from .spectrum import BandStatistics, check_trajectory, simulate_occupancy

# Gram values a SignalEnvironment keeps at most per block of slots, at
# (n_bands + k_branches)^2 a slot.
_BLOCK_GRAM_VALUES = 1 << 15


@dataclass
class MetricSeries:
    """Aggregated per-slot metrics of one experiment."""

    policies: tuple[str, ...]
    mean_throughput: dict[str, np.ndarray]   # per-slot mean over replications
    mean_regret: dict[str, np.ndarray]       # cumulative gap to IMP (empty without IMP)
    config: ExperimentConfig


class SignalEnvironment:
    """Sensing backend running the full measurement and recovery chain.

    The trajectory is checked by spectrum.check_trajectory. table is the
    replication's SupportTable, over its whole sensing matrix; every
    policy's environment shares it and the sensing plans it caches. The
    environment's settings are the table's: K is the matrix's row count,
    and the bin count and the per-bin noise power are table.cfg's
    bins_per_band and noise_variance. The matrix has one column per band
    of the trajectory.
    Slots are sensed in order: each sense() call names the slot after the
    previous call's (the first may name any slot of the trajectory), and
    any other slot raises a ValueError.
    """

    def __init__(self, trajectory: np.ndarray, table: SupportTable,
                 rng: np.random.Generator):
        self.trajectory = check_trajectory(trajectory)
        if table.matrix.shape[1] != self.trajectory.shape[1]:
            raise ValueError(f"the support table senses {table.matrix.shape[1]} "
                             f"bands, the trajectory has {self.trajectory.shape[1]}")
        self.rng = rng
        self.support_table = table
        gram_values = (self.trajectory.shape[1] + table.matrix.shape[0]) ** 2
        self.block_slots = max(1, _BLOCK_GRAM_VALUES // gram_values)
        self._next_slot: int | None = None
        self._block_start = self._block_end = 0
        self._grams = None

    def _draw_block(self, start: int) -> None:
        """Draw the Grams of the block_slots slots from start (fewer at the
        trajectory's end) from their Bartlett factors, in two generator
        calls. A start outside the trajectory raises a ValueError before
        anything is drawn.

        A slot's rows are its busy bands in band order, then (unless the
        run is noiseless) its K noise branches: r rows. In the per-slot
        sample chain (the reference in tests/conftest.py) each row is nu =
        2 * bins standard normal values, so their raw Gram H is
        Wishart_r(nu, I). Here H = L L^T, with L the r x min(r, nu) factor
        whose row i holds sqrt(chi2(nu - i)) on its diagonal when i < nu
        and N(0, 1) values in every column before it (so all of them from
        row nu on): Bartlett's decomposition, the law of the LQ factor of
        r x nu standard normals, which gives H the same law (Odell and
        Feiveson, JASA 1966).

        The random stream: one standard_normal call fills every
        below-diagonal value of the block, slot by slot, row by row,
        column by column; then one chisquare call fills every diagonal, in
        the same slot and row order.

        Each factor row sits at its band's index (zero when the band is
        vacant) or at N plus its noise branch. A busy band's row is scaled
        by sqrt(1 / (H_jj / bins)), H_jj its sum of squares, to unit mean
        power per bin, and a noise row by sqrt(noise power / 2), the
        formulas, in the same operand order, of the reference chain; a
        vacant row's scale is 0 and nothing is divided by it. One batched
        product of the scaled factors then gives the (slots, N + K', N + K')
        Grams (K' = 0 when noiseless), each equal in law to the Gram of the
        slot's unit-power spectra and noise. sense() forms the slot's S_yy from it as
        plan.mixing @ Gram @ plan.mixing^T (the mixing's first N columns
        when noiseless).
        """
        if not 0 <= start < len(self.trajectory):
            raise ValueError(f"slot {start} is outside the trajectory's "
                             f"{len(self.trajectory)} slots")
        table = self.support_table
        n, k = self.trajectory.shape[1], table.matrix.shape[0]
        bins, noise_power = table.cfg.bins_per_band, table.cfg.noise_variance
        self._grams = None   # free the last block first
        busy_mask = self.trajectory[start:start + self.block_slots] != 0
        slots = len(busy_mask)
        rows = n + (k if noise_power > 0.0 else 0)
        # Each row's index among its slot's rows, -1 for a vacant band.
        active = np.ones((slots, rows), dtype=bool)
        active[:, :n] = busy_mask
        index = np.cumsum(active, axis=1) - 1
        index[~active] = -1
        column = np.arange(min(rows, 2 * bins))
        lower = column < np.minimum(index, 2 * bins)[:, :, None]
        factor = np.zeros((slots, rows, column.size))
        factor[lower] = self.rng.standard_normal(np.count_nonzero(lower))
        slot_of, row = np.nonzero((index >= 0) & (index < 2 * bins))
        diagonal = index[slot_of, row]
        factor[slot_of, row, diagonal] = np.sqrt(self.rng.chisquare(2 * bins - diagonal))
        # Scaling a factor row scales its Gram row and column.
        scale = np.zeros((slots, rows))
        slot_of, band = np.nonzero(busy_mask)
        busy_rows = factor[slot_of, band]
        scale[slot_of, band] = np.sqrt(
            1.0 / (np.einsum("ij,ij->i", busy_rows, busy_rows) / bins))
        scale[:, n:] = np.sqrt(noise_power / 2.0)
        factor *= scale[:, :, None]
        self._grams = factor @ factor.transpose(0, 2, 1)
        self._block_start, self._block_end = start, start + slots

    def sense(self, selected, slot, prior_vacancy=None) -> SenseResult:
        if self._next_slot is not None and slot != self._next_slot:
            raise ValueError(f"slots are sensed in order: expected slot "
                             f"{self._next_slot}, got {slot}")
        plan = self.support_table.plan(selected)
        if self._next_slot is None or slot == self._block_end:
            self._draw_block(slot)
        self._next_slot = slot + 1
        gram = self._grams[slot - self._block_start]
        mixing = plan.mixing[:, :len(gram)]
        s_yy = mixing @ gram @ mixing.T
        if prior_vacancy is None:
            prior_activity = 0.5
        else:
            prior_activity = [1.0 - prior_vacancy[band] for band in selected]
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
            env = SignalEnvironment(trajectory, table,
                                    np.random.default_rng(streams[3 + 2 * i]))
        outcomes = run_policy(config, policy, env, policy_rng, true_stats=stats)
        series[policy] = np.array([o.throughput for o in outcomes], dtype=float)
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
    mean_regret = {}
    if "IMP" in config.policies:
        imp = mean_throughput["IMP"]
        mean_regret = {p: compute_regret(mean_throughput[p], imp)
                       for p in config.policies}
    return MetricSeries(policies=config.policies,
                        mean_throughput=mean_throughput,
                        mean_regret=mean_regret,
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
    # Python floats, one list per column: repr gives numpy's bytes.
    rows = zip(range(series.config.horizon),
               *(np.asarray(col, float).tolist() for col in series_by_column))
    manifest = manifest_path_for(csv_path)
    tmp_csv, tmp_manifest = (path.with_name(f".{path.name}.{os.getpid()}.tmp")
                             for path in (csv_path, manifest))
    try:
        try:
            with open(tmp_csv, "w", encoding="utf-8", newline="") as f:
                f.write(",".join(columns) + "\n")
                for slot, *row in rows:
                    f.write(",".join([str(slot), *map(repr, row)]) + "\n")
        except OSError as exc:
            raise OSError(f"failed to write results to {csv_path}: {exc}") from exc
        dump_config(series.config.resolved(), tmp_manifest)
        os.replace(tmp_csv, csv_path)
        os.replace(tmp_manifest, manifest)
    finally:
        for tmp in (tmp_csv, tmp_manifest):
            tmp.unlink(missing_ok=True)
    return csv_path, manifest
