"""Experiment configuration: declarative description of one run.

Configs live in flat ``key = value`` text files (``#`` starts a comment),
each key at most once; a value that does not parse is an error naming its
key and line. Band statistics come either from a named case or from
explicit per-band transition vectors; explicit vectors win when both are
present, so an emitted manifest reloads to the exact same experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .recovery import RecoveryConfig, support_count
from .sensing import noise_power_for_snr
from .sizing import exploration_threshold
from .spectrum import CASE_STATIONARY, BandStatistics

RS_MODES = ("oracle", "signal")
POLICY_MODES = ("LDM", "OLDM", "IMP")


@dataclass
class ExperimentConfig:
    n_bands: int = 8
    k_branches: int = 4
    horizon: int = 10_000
    replications: int = 100
    seed: int = 0
    case: str = "case1"
    p01: tuple[float, ...] | None = None
    p10: tuple[float, ...] | None = None
    snr_db: float | None = None          # None means noiseless
    rs_mode: str = "oracle"
    policies: tuple[str, ...] = ("IMP", "LDM", "OLDM")
    exploration_coefficient: float = 10.0
    mu: float = 0.5
    delta: float = 0.1
    lambda_mixing: float = 0.5
    bins_per_band: int = 64
    residual_threshold: float = 0.1

    def recovery_config(self) -> RecoveryConfig:
        """The signal-mode recovery settings of this experiment."""
        return RecoveryConfig(noise_variance=noise_power_for_snr(self.snr_db),
                              residual_threshold=self.residual_threshold,
                              bins_per_band=self.bins_per_band)

    def validate(self) -> None:
        """Reject invalid fields with a message naming the field.

        This is the one place the settings are checked:
        experiments.run_experiment calls it once, before any replication,
        and neither run_replication nor learning.run_policy checks again.
        Integer fields must hold Python or numpy integers, so NaN and
        non-integral values fail (and seed must be nonnegative, as
        SeedSequence requires), and float checks are written so that NaN
        fails them. The n_bands, k_branches (1 <= k_branches <= n_bands),
        mu and delta checks are sizing.exploration_threshold's, which
        theorem1 shares, so they are made by computing the exploration
        budget. The recovery fields, snr_db and bins_per_band among them,
        are checked by building recovery_config(), in either mode. Signal
        mode also rejects an n_bands and k_branches whose support table
        would exceed recovery._MAX_SUPPORTS rows (support_count). Neither
        mode imports SciPy.
        """
        for name in sorted(_INT_KEYS):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        exploration_threshold(self.n_bands, self.k_branches, self.mu, self.delta)
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.exploration_coefficient > 0.0:
            raise ValueError("exploration_coefficient must be positive")
        if self.rs_mode not in RS_MODES:
            raise ValueError(f"rs_mode must be one of {RS_MODES}")
        if not self.policies:
            raise ValueError("policies must list at least one policy")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("policies must not repeat")
        for policy in self.policies:
            if policy not in POLICY_MODES:
                raise ValueError(f"policies entries must be among {POLICY_MODES}")
        if not 0.0 < self.lambda_mixing <= 1.0:
            raise ValueError("lambda_mixing must lie in (0, 1]")
        self.recovery_config()
        if self.rs_mode == "signal":
            support_count(self.n_bands, self.k_branches)
        if (self.p01 is None) != (self.p10 is None):
            raise ValueError("p01 and p10 must be given together")
        if self.p01 is not None:
            if len(self.p01) != self.n_bands or len(self.p10) != self.n_bands:
                raise ValueError("p01 and p10 must have n_bands entries")
        elif self.case not in CASE_STATIONARY:
            raise ValueError(
                f"case must be one of {sorted(CASE_STATIONARY)} "
                "unless explicit p01/p10 vectors are given")
        self.band_statistics()  # surfaces probability-range errors

    def band_statistics(self) -> BandStatistics:
        """Resolve the configured statistics to explicit transition vectors."""
        if self.p01 is not None:
            return BandStatistics(p01=np.asarray(self.p01),
                                  p10=np.asarray(self.p10))
        base = np.asarray(CASE_STATIONARY[self.case])
        return BandStatistics.from_stationary(np.resize(base, self.n_bands),
                                              mixing=self.lambda_mixing)

    def resolved(self) -> "ExperimentConfig":
        """Copy with the statistics pinned as explicit vectors."""
        stats = self.band_statistics()
        return replace(self, p01=tuple(float(x) for x in stats.p01),
                       p10=tuple(float(x) for x in stats.p10))


_INT_KEYS = {"n_bands", "k_branches", "horizon", "replications", "seed",
             "bins_per_band"}
_FLOAT_KEYS = {"exploration_coefficient", "mu", "delta", "lambda_mixing",
               "residual_threshold"}
_ALL_KEYS = {f.name for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, where: str = ""):
    """The value of one config key from its text; every error names the key
    and starts with where (a file's path:lineno)."""
    if key not in _ALL_KEYS:
        raise ValueError(f"{where}unknown configuration key: {key}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "snr_db":
            return None if raw.lower() in ("noiseless", "none", "inf") else float(raw)
        if key == "policies":
            return tuple(part.strip().upper() for part in raw.split(",") if part.strip())
        if key in ("p01", "p10"):
            return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"{where}cannot parse {key} = {raw!r}: {exc}") from None
    return raw.strip()   # case, rs_mode


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key = value config file; errors give path:lineno."""
    values, first_line = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: {key} repeats line {first_line[key]}")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}: ")
        first_line[key] = lineno
    return ExperimentConfig(**values)


def _format_value(key: str, value) -> str:
    if key == "snr_db":
        return "noiseless" if value is None else repr(float(value))
    if key == "policies":
        return ", ".join(value)
    if key in ("p01", "p10"):
        return ", ".join(repr(float(x)) for x in value)
    if key in _FLOAT_KEYS:
        return repr(float(value))
    return str(value)


def dump_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write a config (or manifest) back in the loadable flat format."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None and f.name in ("p01", "p10"):
            continue
        lines.append(f"{f.name} = {_format_value(f.name, value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
