"""Ground-truth spectrum environment.

Each frequency band is an independent two-state Markov chain (0 = vacant,
1 = busy). A slot's statuses are an int8 vector and a trajectory is a
(slots, bands) int8 array, checked once by check_trajectory where it
enters a sensing backend. A busy band carries a flat circular
complex-Gaussian spectrum of bins_per_band bins, and a vacant band
carries nothing. Signal power is the unit: every busy band's spectrum has
mean power 1 per bin, and the SNR sets the noise power relative to it
(sensing.noise_power_for_snr). No spectrum is ever formed: a signal run
draws each slot's Gram of the spectra and noise directly
(experiments.SignalEnvironment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stationary vacancy profiles of the two benchmark environments.
CASE_STATIONARY = {
    "case1": (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95),
    "case2": (0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80, 0.90),
}


@dataclass(frozen=True)
class BandStatistics:
    """Per-band transition probabilities of the vacant/busy chain.

    p01[n] is the probability that band n turns busy given it was vacant,
    p10[n] the probability that it turns vacant given it was busy. The
    degenerate chain p01 = p10 = 0 is rejected because its stationary
    vacancy is undefined.
    """

    p01: np.ndarray
    p10: np.ndarray

    def __post_init__(self):
        p01 = np.atleast_1d(np.asarray(self.p01, dtype=float))
        p10 = np.atleast_1d(np.asarray(self.p10, dtype=float))
        if p01.ndim != 1 or p01.shape != p10.shape or p01.size == 0:
            raise ValueError("p01 and p10 must be equal-length nonempty vectors")
        for name, vec in (("p01", p01), ("p10", p10)):
            if not np.all((vec >= 0.0) & (vec <= 1.0)):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if np.any(p01 + p10 <= 0.0):
            raise ValueError("degenerate chain: p01 + p10 must be positive for every band")
        object.__setattr__(self, "p01", p01)
        object.__setattr__(self, "p10", p10)

    @property
    def n_bands(self) -> int:
        return self.p01.size

    @classmethod
    def from_stationary(cls, p0, mixing: float = 0.5) -> "BandStatistics":
        """Build transition pairs with a prescribed stationary vacancy vector.

        Uses p10 = mixing * p0 and p01 = mixing * (1 - p0), which leaves the
        stationary vacancy equal to p0 for any mixing speed in (0, 1].
        """
        p0 = np.atleast_1d(np.asarray(p0, dtype=float))
        if not np.all((p0 >= 0.0) & (p0 <= 1.0)):
            raise ValueError("stationary vacancy entries must lie in [0, 1]")
        if not 0.0 < mixing <= 1.0:
            raise ValueError("mixing must lie in (0, 1]")
        return cls(p01=mixing * (1.0 - p0), p10=mixing * p0)


def stationary_vacancy(stats: BandStatistics) -> np.ndarray:
    """Stationary probability that each band is vacant: p10 / (p10 + p01)."""
    return stats.p10 / (stats.p10 + stats.p01)


def init_occupancy(stats: BandStatistics, rng: np.random.Generator) -> np.ndarray:
    """Draw slot-0 int8 statuses independently from each band's stationary law."""
    vacant_prob = stationary_vacancy(stats)
    return (rng.random(stats.n_bands) >= vacant_prob).astype(np.int8)


def check_trajectory(trajectory) -> np.ndarray:
    """A status trajectory as a (slots, bands) int8 array, after checking
    that it is 2-D and, before the cast, that it holds only 0 and 1 (so 0.5
    or 257 is rejected rather than truncated or wrapped into 0/1)."""
    trajectory = np.asarray(trajectory)
    if trajectory.ndim != 2:
        raise ValueError("trajectory must be a slots x bands array")
    if not np.all((trajectory == 0) | (trajectory == 1)):
        raise ValueError("trajectory statuses must be 0/1")
    return trajectory.astype(np.int8, copy=False)


def check_bins_per_band(bins_per_band: int) -> int:
    """bins_per_band, after checking that it is at least 1."""
    if bins_per_band < 1:
        raise ValueError("bins_per_band must be at least 1")
    return bins_per_band


def simulate_occupancy(stats: BandStatistics, horizon: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Full status trajectory, shape (horizon, n_bands), slot 0 stationary.

    Slot 0 is drawn as init_occupancy draws it. Every later transition
    takes one uniform u per band and step, all drawn in one bulk call,
    which yields the same numbers as one rng.random(n_bands) call per
    step. A vacant band turns busy when u < p01; a busy band stays busy
    when u >= p10. With a = (u < p01) and b = (u >= p10), a step where a
    equals b sets the next status to a whatever the current one (a reset;
    slot 0 counts as one), a step with a and not b flips the status, and
    any other step holds it. Each status is therefore the value at its
    band's last reset plus the parity of the flips since, which two
    logical_xor accumulations give without a per-step loop. Every working
    array except the draws is bool.
    """
    n = stats.n_bands
    out = np.empty((horizon, n), dtype=np.int8)
    if horizon == 0:
        return out
    first = init_occupancy(stats, rng).astype(bool)
    # Band-major (n, horizon) layout, so each band's slots are contiguous.
    u = rng.random((horizon - 1, n)).T
    a = np.empty((n, horizon), dtype=bool)
    b = np.empty((n, horizon), dtype=bool)
    a[:, 0] = b[:, 0] = first
    np.less(u, stats.p01[:, None], out=a[:, 1:])
    np.greater_equal(u, stats.p10[:, None], out=b[:, 1:])
    del u
    reset = a == b
    # Flips up to and including each slot.
    parity = np.logical_xor.accumulate(a > b, axis=1)
    # status[t] = a[r] ^ parity[r] ^ parity[t] for the last reset r <= t.
    # Spread a[r] ^ parity[r] forward from each reset by accumulating its
    # changes from one reset to the next. Every band's row starts with a
    # reset, so the running xor never carries across bands.
    at_reset = a[reset] ^ parity[reset]
    del a, b
    changes = at_reset.copy()
    changes[1:] ^= at_reset[:-1]
    spread = np.zeros((n, horizon), dtype=bool)
    spread[reset] = changes
    flat = spread.reshape(-1)
    np.logical_xor.accumulate(flat, out=flat)
    spread ^= parity
    out[:] = spread.T
    return out
