"""Property tests of recovery invariants, over hypothesis-drawn instances."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wssim.recovery import (RecoveryConfig, SensingPlan, oracle_sense,  # noqa: E402
                            signal_sense)
from wssim.sensing import measure  # noqa: E402
from wssim.spectrum import synthesize_band_spectra  # noqa: E402


@st.composite
def noiseless_direct_slots(draw):
    """K branches, m <= K bands with 0/1 truth, bins, and a generator seed."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, k))
    truth = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    bins = draw(st.sampled_from([1, 2, 16, 64]))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, np.array(truth, dtype=np.int8), bins, seed


@settings(derandomize=True, deadline=None, max_examples=200)
@given(noiseless_direct_slots())
def test_noiseless_direct_path_returns_truth(slot):
    # With no noise and at most K bands the least-squares path inverts the
    # mixing exactly: the detected statuses are the truth, and neither the
    # signal chain nor the oracle rule flags a failure.
    k, truth, bins, seed = slot
    rng = np.random.default_rng(seed)
    a_sub = rng.standard_normal((k, truth.size))
    spectra = synthesize_band_spectra(truth, bins, 1.0, rng)
    samples = measure(a_sub, spectra.grid, None, rng)
    result = signal_sense(samples, SensingPlan(a_sub, RecoveryConfig()))
    assert result.statuses.tolist() == truth.tolist()
    assert result.xi == oracle_sense(truth, k).xi == 0
