"""Simulated sub-Nyquist measurement front end.

A bank of K mixing branches observes the selected bands through a fixed
K x N coefficient matrix; per frequency bin the measurement is the mixed
band content plus optional circular complex white Gaussian noise. Signal
power is the unit, so the per-bin noise power at an SNR of s dB is
10^(-s/10). This module draws the matrix, selects its columns and maps an
SNR to a noise power; the measurement itself is never formed, since
recovery reads only its Gram (see experiments).
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
