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


def draw_sensing_matrix(k_branches: int, n_bands: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw the K x N matrix of i.i.d. standard Gaussian mixing coefficients:
    one rng.standard_normal((K, N)) call, and no other draw.

    No rank is checked. A Gaussian draw has full rank, and so has every
    K-column sub-matrix, almost surely, and recovery needs neither: each
    support's Phi_S = sig_n I + A_S A_S^T, with sig_n at least recovery's
    model floor of 1e-10, is positive definite whatever the rank of A_S.
    """
    if not 1 <= k_branches <= n_bands:
        raise ValueError("k_branches must satisfy 1 <= k_branches <= n_bands")
    return rng.standard_normal((k_branches, n_bands))


def select_submatrix(matrix: np.ndarray, selected: Sequence[int]) -> np.ndarray:
    """Columns of the K x N master matrix at the selected bands, strictly ascending."""
    idx = np.asarray(selected)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("selected must be a nonempty index vector")
    # The dtype first: a cast would truncate a fractional index to a band.
    if idx.dtype.kind not in "iu" or not (idx[1:] > idx[:-1]).all():
        raise ValueError(f"bands must be strictly ascending integers, got {idx.tolist()}")
    if idx[0] < 0 or idx[-1] >= matrix.shape[1]:
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
