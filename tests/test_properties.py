"""Property tests of recovery, sizing and learning invariants, over
hypothesis-drawn instances."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wssim.learning import BeliefState, update_counts  # noqa: E402
from wssim.recovery import (RecoveryConfig, SensingPlan, SupportTable,  # noqa: E402
                            oracle_sense, signal_sense)
from wssim.sizing import optimize_size  # noqa: E402

from conftest import (measure, poisson_binomial_pmf,  # noqa: E402
                      reference_refresh_estimates, sample_gram,
                      success_probability, synthesize_band_spectra)


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
    # With no noise and at most K bands the direct path's MAP support is
    # the truth, and neither the signal chain nor the oracle rule flags a
    # failure.
    k, truth, bins, seed = slot
    rng = np.random.default_rng(seed)
    a_sub = rng.standard_normal((k, truth.size))
    grid = synthesize_band_spectra(truth, bins, rng)
    samples = measure(a_sub, grid, None, rng)
    plan = SensingPlan(SupportTable(a_sub, RecoveryConfig(bins_per_band=bins)),
                       range(truth.size))
    result = signal_sense(sample_gram(samples), plan, [0.5] * truth.size)
    assert result.statuses.tolist() == truth.tolist()
    assert result.xi == oracle_sense(truth, k).xi == 0


probabilities = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(probabilities, st.data())
def test_optimize_size_beats_every_other_prefix_size(vacancy, data):
    # The chosen size's objective is at least that of every other prefix
    # of the vacancy-sorted bands, recomputed through success_probability.
    k = data.draw(st.integers(1, len(vacancy)))
    decision = optimize_size(vacancy, k)
    top = sorted(vacancy, reverse=True)
    assert k <= decision.size <= len(vacancy)
    objectives = {size: success_probability(top[:size], k) * sum(top[:size])
                  for size in range(k, len(vacancy) + 1)}
    tolerance = 1e-12 * max(1.0, max(objectives.values()))
    assert decision.objective_value == pytest.approx(objectives[decision.size],
                                                     abs=tolerance)
    for objective in objectives.values():
        assert decision.objective_value >= objective - tolerance


@settings(derandomize=True, deadline=None, max_examples=300)
@given(probabilities)
def test_poisson_binomial_pmf_sums_to_one_over_all_counts(busy):
    pmf = poisson_binomial_pmf(busy, len(busy))
    assert pmf.shape == (len(busy) + 1,)
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(probabilities, st.integers(1, 8))
def test_success_probability_does_not_increase_as_bands_are_added(vacancy, k):
    # Each added band can only raise the busy count, so the probability of
    # staying recoverable never grows, across the jump past K included.
    chances = [success_probability(vacancy[:size], k)
               for size in range(1, len(vacancy) + 1)]
    for before, after in zip(chances, chances[1:]):
        assert after <= before + 1e-12


@st.composite
def credited_transitions(draw):
    """A band count and a run of update_counts calls, each crediting one
    u -> v transition to each of some distinct bands."""
    n = draw(st.integers(1, 8))
    transition = st.tuples(st.integers(0, n - 1), st.integers(0, 1),
                           st.integers(0, 1))
    calls = draw(st.lists(st.lists(transition, min_size=1, max_size=n,
                                   unique_by=lambda c: c[0]),
                          min_size=1, max_size=40))
    return n, calls


@settings(derandomize=True, deadline=None, max_examples=300)
@given(credited_transitions())
def test_update_counts_refreshes_only_the_credited_row(case):
    # update_counts recomputes only row u's estimate of a u -> v credit.
    # After every call both estimates of every band must equal a full
    # recomputation from the counts, bit for bit, and the estimate of the
    # row that was not credited must keep its bits.
    n, calls = case
    belief = BeliefState.fresh(n)
    for call in calls:
        bands, prev, now = (list(values) for values in zip(*call))
        before = {"p01_hat": belief.p01_hat.copy(),
                  "p10_hat": belief.p10_hat.copy()}
        update_counts(belief, tuple(bands), prev, now)
        expected = BeliefState.fresh(n)
        expected.counts = belief.counts.copy()
        reference_refresh_estimates(expected, np.arange(n))
        for name in ("p01_hat", "p10_hat"):
            assert getattr(belief, name).tobytes() == getattr(expected, name).tobytes()
        for band, u in zip(bands, prev):
            other = "p01_hat" if u else "p10_hat"
            assert getattr(belief, other)[band:band + 1].tobytes() == \
                before[other][band:band + 1].tobytes()
