"""Simulated sub-Nyquist measurement front end.

A bank of K mixing branches observes the selected bands through a fixed
K x N coefficient matrix; per frequency bin the measurement is the mixed
band content plus optional additive white Gaussian noise. Signal power is
the unit, so the per-bin noise power at an SNR of s dB is 10^(-s/10).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Random K-column sub-matrices whose rank draw_sensing_matrix checks.
_SUBSET_CHECKS = 8


def draw_sensing_matrix(k_branches: int, n_bands: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw the K x N matrix of i.i.d. standard Gaussian mixing coefficients.

    Full row rank is verified numerically, along with a random sample of
    K-column sub-matrices (Gaussian draws satisfy both almost surely). A
    rank-deficient draw is redrawn once before giving up.
    """
    if not 1 <= k_branches <= n_bands:
        raise ValueError("k_branches must satisfy 1 <= k_branches <= n_bands")
    for _ in range(2):
        entries = rng.standard_normal((k_branches, n_bands))
        if np.linalg.matrix_rank(entries) < k_branches:
            continue
        for _ in range(_SUBSET_CHECKS):
            cols = rng.choice(n_bands, size=k_branches, replace=False)
            if np.linalg.matrix_rank(entries[:, cols]) < k_branches:
                break
        else:
            return entries
    raise np.linalg.LinAlgError("sensing matrix rank-deficient after redraw")


def select_submatrix(matrix: np.ndarray, selected: Sequence[int]) -> np.ndarray:
    """Columns of the K x N master matrix at the selected bands, order preserved."""
    idx = np.asarray(selected, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("selected must be a nonempty index vector")
    # A set, not np.unique, whose first call imports numpy.ma (about 15 ms).
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("selected band indices must be distinct")
    if np.any((idx < 0) | (idx >= matrix.shape[1])):
        raise ValueError("selected band index out of range")
    return matrix[:, idx]


def noise_power_for_snr(snr_db: float | None) -> float:
    """Per-bin noise power giving the requested per-busy-band SNR.

    None and +inf mean noiseless; -inf, NaN and an SNR whose power
    overflows (numpy scalars included) raise a ValueError naming snr_db.
    """
    if snr_db is None or snr_db == math.inf:
        return 0.0
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db must be a number or +inf (noiseless), got {snr_db!r}")
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db!r} overflows the noise power") from None


def measure(a_sub: np.ndarray, band_rows: np.ndarray, snr_db: float | None,
            rng: np.random.Generator) -> np.ndarray:
    """Mix the selected band spectra through the branch coefficients.

    Returns the (k_branches, bins) sub-Nyquist samples of one slot, one
    column per frequency bin. Per bin f the measurement is
    a_sub @ band_rows[:, f] plus complex AWGN whose per-bin power makes the
    busy-band SNR equal snr_db at unit signal power. Passing snr_db=None
    (or +inf) produces a noiseless measurement.
    """
    a_sub = np.asarray(a_sub, dtype=float)
    band_rows = np.asarray(band_rows)
    if a_sub.ndim != 2 or band_rows.ndim != 2:
        raise ValueError("a_sub and band_rows must be two-dimensional")
    if a_sub.shape[1] != band_rows.shape[0]:
        raise ValueError("a_sub column count must equal the number of selected bands")
    samples = a_sub @ band_rows
    noise_power = noise_power_for_snr(snr_db)
    if noise_power > 0.0:
        k, bins = samples.shape
        samples = samples + complex_noise(rng.standard_normal((k, bins)),
                                          rng.standard_normal((k, bins)),
                                          noise_power)
    return samples


def complex_noise(real: np.ndarray, imag: np.ndarray,
                  noise_power: float) -> np.ndarray:
    """Circular complex AWGN of the given per-bin power from standard
    normal real and imaginary parts, elementwise and of any shape."""
    return (real + 1j * imag) * noise_scale(noise_power)


def noise_scale(noise_power: float) -> float:
    """The factor that turns standard normal draws into the real or the
    imaginary part of circular complex noise of the given per-bin power;
    complex_noise and SignalEnvironment's block Grams both scale by it."""
    return np.sqrt(noise_power / 2.0)
