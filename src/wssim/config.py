"""Experiment configuration: declarative description of one run.

Configs live in flat ``key = value`` text files (``#`` starts a comment),
each key at most once; a value that does not parse is an error naming its
key and line. A key's value is read and written by the text form of its
field's declared type on ExperimentConfig (_TEXT_FORMS). Band statistics
come either from a named case or from explicit per-band transition
vectors; explicit vectors win when both are present, so an emitted
manifest reloads to the exact same experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

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

        This is the one place every setting is checked:
        experiments.run_experiment calls it once, before any replication. A
        few checks run again where a run builds what they guard:
        run_replication checks rep_index and rebuilds band_statistics()
        (BandStatistics checks the vectors) and, in signal mode,
        recovery_config(); learning.run_policy rejects an unknown mode and
        recomputes sizing.exploration_threshold, which checks n_bands,
        k_branches, mu and delta. The fields declared int must hold Python or
        numpy integers, so NaN and non-integral values fail (and seed must be
        nonnegative, as SeedSequence requires), and float checks are written
        so that NaN fails them. The n_bands, k_branches (1 <= k_branches <=
        n_bands), mu and delta checks are sizing.exploration_threshold's,
        which theorem1 shares, so they are made by computing the exploration
        budget. The recovery fields, snr_db and bins_per_band among them, are
        checked by building recovery_config(), in either mode. Signal mode
        also rejects an n_bands and k_branches whose support table would
        exceed recovery._MAX_SUPPORTS rows (support_count). Neither mode
        imports SciPy.
        """
        for name in sorted(key for key, kind in _FIELD_TYPES.items() if kind is int):
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


# How a value of each declared field type is read from its text and
# written back. A writer returns None for a value it leaves out of a
# written file (an unset p01 or p10).
_TEXT_FORMS = {
    int: (int, str),
    float: (float, lambda value: repr(float(value))),
    str: (str.strip, str),
    float | None: (
        lambda raw: None if raw.lower() in ("noiseless", "none", "inf") else float(raw),
        lambda value: "noiseless" if value is None else repr(float(value))),
    tuple[float, ...] | None: (
        lambda raw: tuple(float(part) for part in raw.split(",") if part.strip()),
        lambda value: None if value is None else ", ".join(repr(float(x)) for x in value)),
    tuple[str, ...]: (
        lambda raw: tuple(part.strip().upper() for part in raw.split(",") if part.strip()),
        ", ".join),
}
_FIELD_TYPES = get_type_hints(ExperimentConfig)
# (read, write) of every key; a type with no text form fails here, at import.
_FIELD_FORMS = {key: _TEXT_FORMS[kind] for key, kind in _FIELD_TYPES.items()}


def _parse_value(key: str, raw: str, where: str = ""):
    """The value of one config key from its text; every error names the key
    and starts with where (a file's path:lineno)."""
    if key not in _FIELD_FORMS:
        raise ValueError(f"{where}unknown configuration key: {key}")
    try:
        return _FIELD_FORMS[key][0](raw)
    except ValueError as exc:
        raise ValueError(f"{where}cannot parse {key} = {raw!r}: {exc}") from None


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


def dump_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write a config (or manifest) back in the loadable flat format."""
    texts = {key: write(getattr(cfg, key)) for key, (_, write) in _FIELD_FORMS.items()}
    lines = [f"{key} = {text}" for key, text in texts.items() if text is not None]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
