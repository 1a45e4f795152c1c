"""Wideband spectrum sensing simulator.

Sub-Nyquist measurement of a chosen subset of frequency bands, sparse
recovery of their occupancy, and online learning policies that decide
which bands to sense each slot.
"""

from .config import ExperimentConfig, dump_config, load_config
from .experiments import (MetricSeries, SignalEnvironment, compute_regret,
                          emit_results, run_experiment, run_replication)
from .learning import (BeliefState, OracleEnvironment, PolicyConfig,
                       SlotOutcome, epsilon, explore_schedule, exploit_select,
                       estimate_transition, propagate_belief, run_policy,
                       update_counts)
from .recovery import (RecoveryConfig, SenseResult, direct_solve,
                       energy_detect, fbmp_recover, gamma_threshold,
                       oracle_sense, signal_sense)
from .sensing import (SensingMatrix, draw_sensing_matrix, measure,
                      select_submatrix)
from .sizing import (ExplorationBudget, SizeDecision, exploration_threshold,
                     mu_correct, optimize_size, poisson_binomial_pmf,
                     success_probability)
from .spectrum import (CASE_STATIONARY, BandSpectra, BandStatistics,
                       OccupancyState, init_occupancy, simulate_occupancy,
                       stationary_vacancy, synthesize_band_spectra)

__version__ = "0.1.0"
