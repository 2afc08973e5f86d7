"""Distributed decision-making over adaptive agent networks.

Agents observe noisy data generated by one of several candidate models,
learn by diffusion, work out which neighbors observe the same model, and
steer the whole network to a single desired model: one the network picks
itself, one tracked from a designated agent, or, for mobile agents, one
they physically gather at.
"""

from .config import ConfigError, ExperimentConfig
from .decision import InvariantViolation, run_decision
from .follow import run_follow
from .harness import (MonteCarloSummary, run_monte_carlo, run_single_trial,
                      run_sweep, trial_seeds)
from .network import (DivergenceError, TopologyError, network_from_json,
                      network_to_json)
from .records import RunRecord, load_record, save_record

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DivergenceError",
    "ExperimentConfig",
    "InvariantViolation",
    "MonteCarloSummary",
    "RunRecord",
    "TopologyError",
    "load_record",
    "network_from_json",
    "network_to_json",
    "run_decision",
    "run_follow",
    "run_monte_carlo",
    "run_single_trial",
    "run_sweep",
    "save_record",
    "trial_seeds",
]
