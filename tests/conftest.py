"""Shared helpers: tiny seeded worlds that run in well under a second."""

import numpy as np
import pytest

from netdecide.config import ExperimentConfig
from netdecide.network import (assign_agents, build_streams, draw_noise_profile,
                               generate_models, generate_topology)


def tiny_config(**overrides):
    """A 20-agent decide config sized for fast unit runs."""
    base = dict(mode="decide", n_agents=20, n_models=2, radius=0.4,
                max_iters=300, n_trials=2, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def build_world(cfg, seed=0):
    """Topology, assigned models and streams for one seeded run."""
    topo = generate_topology(cfg.n_agents, cfg.max_degree, cfg.radius, seed=seed)
    models = generate_models(cfg.n_models, cfg.dim, cfg.model_range,
                             seed=seed + 1, min_separation_sq=4.0 * cfg.beta)
    models = assign_agents(models, topo, seed=seed + 2)
    noise = draw_noise_profile(cfg.n_agents, cfg.dim, seed=seed + 3,
                               sigma_v2_range=cfg.sigma_v2_range,
                               reg_power_range=cfg.reg_power_range)
    streams = build_streams(noise, cfg.max_iters, seed + 4)
    return topo, models, streams


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
