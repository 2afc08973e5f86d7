"""Mobile swarms: motion toward desired estimates and per-round topology.

Positions and model coordinates share one 2-D plane measured in body
lengths. Each round every agent steers toward its own desired estimate,
blended with neighbor-velocity alignment and short-range repulsion, at a
hard speed cap; the communication graph is then rebuilt from the new
positions as a radius graph with the usual degree cap. Disconnection is
tolerated, an isolated agent simply runs self-only updates.
"""

from __future__ import annotations

import numpy as np

from .network import DivergenceError, link_grid, squared_distances, _prune_degrees


def step_motion(pos, vel, targets, adjacency, config):
    """One synchronous motion step from positions ``pos`` and velocities
    ``vel`` (both (N, 2)), with the steering gains and geometry of an
    :class:`~netdecide.config.ExperimentConfig`; returns the new
    ``(pos, vel)``.

    The steering blend is goal_gain * (displacement to target, capped at
    unit length) + align_gain * (mean linked-neighbor velocity, self
    excluded) + repulse_gain * (inverse-square push from any agent within
    the repulsion radius). Velocity is the blend rescaled by
    max_speed / max(|blend|, goal_gain): a lone far-from-target agent
    moves at exactly max_speed, velocity fades linearly to zero at the
    target, and the cap can never be exceeded.
    """
    to_target = targets - pos
    dist = np.linalg.norm(to_target, axis=1)
    goal = to_target / np.maximum(dist, 1.0)[:, None]

    others = adjacency.copy()
    np.fill_diagonal(others, False)
    counts = others.sum(axis=1)
    align = (others @ vel) / np.maximum(counts, 1)[:, None]

    # [j, i] = pos_i - pos_j: axis-0 sums over j add row by row, keeping the golden bits
    x, y = pos[:, 0], pos[:, 1]
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    d2 = dx * dx + dy * dy
    near = d2 < config.repulse_radius ** 2
    np.fill_diagonal(near, False)
    denom = np.maximum(d2, 1e-12)
    repulse = np.column_stack([np.where(near, dx / denom, 0.0).sum(axis=0),
                               np.where(near, dy / denom, 0.0).sum(axis=0)])

    blend = (config.goal_gain * goal + config.align_gain * align
             + config.repulse_gain * repulse)
    speed = np.linalg.norm(blend, axis=1)
    new_vel = blend * (config.max_speed / np.maximum(speed, config.goal_gain))[:, None]
    return pos + new_vel, new_vel


def rebuild_topology(positions, radius, max_degree):
    """Adjacency of the radius graph of the current positions, an N x N
    boolean matrix with a True diagonal, with the degree cap applied;
    connectivity is not required."""
    d2 = squared_distances(positions)
    adjacency = d2 <= radius * radius
    np.fill_diagonal(adjacency, True)
    _prune_degrees(adjacency, d2, max_degree, keep_connected=False)
    return adjacency


class MotionDriver:
    """Steps the swarm inside the decision loop and samples trajectories.

    ``config`` supplies the motion law's gains, the link radius and degree
    cap of the per-round topology rebuild and the iterations at which
    positions are sampled (``snapshot_iters``); ``links`` are
    the swarm's links at ``positions``, which each step replaces with the
    links at the new positions. A non-finite velocity raises
    :class:`~netdecide.network.DivergenceError`, which the harness records
    as a diverged trial.
    """

    def __init__(self, config, positions, links, models):
        self.config = config
        self.positions = np.array(positions, dtype=float)
        self.links = links
        self.velocities = np.zeros_like(self.positions)
        self.models = np.atleast_2d(models)
        self.blocks = []
        self.max_observed_speed = 0.0

    def step(self, iteration, targets):
        self.positions, self.velocities = step_motion(
            self.positions, self.velocities, targets, self.links.mask, self.config)
        if not np.isfinite(self.velocities).all():
            raise DivergenceError(f"non-finite velocity at iteration {iteration}")
        speed = float(np.linalg.norm(self.velocities, axis=1).max(initial=0.0))
        if speed > self.config.max_speed * (1 + 1e-9):
            raise AssertionError(f"speed cap violated at iteration {iteration}: {speed}")
        self.max_observed_speed = max(self.max_observed_speed, speed)
        if iteration in self.config.snapshot_iters:
            n = len(targets)
            labels = squared_distances(targets, self.models).argmin(axis=1)
            self.blocks.append(np.column_stack(
                [np.full(n, iteration), np.arange(n), self.positions, labels]))
        self.links = link_grid(rebuild_topology(self.positions, self.config.radius,
                                                self.config.max_degree))

    def trajectory(self):
        return np.concatenate(self.blocks) if self.blocks else None
