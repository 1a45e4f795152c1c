"""Wideband spectrum sensing simulator.

Sub-Nyquist measurement of a chosen subset of frequency bands, sparse
recovery of their occupancy, and online learning policies that decide
which bands to sense each slot. The package exports what a run needs;
everything else is imported from its module (wssim.recovery,
wssim.learning, ...). run_experiment validates its config once, with
ExperimentConfig.validate(); a caller of the modules' functions, such as
learning.run_policy, validates the config's remaining fields itself.
"""

from .config import ExperimentConfig, dump_config, load_config
from .experiments import emit_results, run_experiment

__version__ = "0.1.0"
