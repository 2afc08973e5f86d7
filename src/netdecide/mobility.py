"""Mobile swarms: motion toward desired estimates and per-round topology.

Positions and model coordinates share one 2-D plane measured in body
lengths. Each round every agent steers toward its own desired estimate,
blended with neighbor-velocity alignment and short-range repulsion, at a
hard speed cap; the communication graph is then rebuilt from the new
positions as a radius graph with the usual degree cap. Disconnection is
tolerated, an isolated agent simply runs self-only updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Topology, squared_distances, _prune_degrees


@dataclass(eq=False)
class MotionState:
    positions: np.ndarray
    velocities: np.ndarray

    @classmethod
    def at(cls, positions):
        positions = np.asarray(positions, dtype=float)
        return cls(positions=positions.copy(),
                   velocities=np.zeros_like(positions))


def step_motion(state, targets, adjacency, config):
    """One synchronous motion step, with the steering gains and geometry
    of an :class:`~netdecide.config.ExperimentConfig`.

    The steering blend is goal_gain * (displacement to target, capped at
    unit length) + align_gain * (mean linked-neighbor velocity, self
    excluded) + repulse_gain * (inverse-square push from any agent within
    the repulsion radius). Velocity is the blend rescaled by
    max_speed / max(|blend|, goal_gain): a lone far-from-target agent
    moves at exactly max_speed, velocity fades linearly to zero at the
    target, and the cap can never be exceeded.
    """
    pos = state.positions
    vel = state.velocities

    to_target = targets - pos
    dist = np.linalg.norm(to_target, axis=1)
    goal = to_target / np.maximum(dist, 1.0)[:, None]

    others = adjacency.copy()
    np.fill_diagonal(others, False)
    counts = others.sum(axis=1)
    align = (others @ vel) / np.maximum(counts, 1)[:, None]

    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    near = d2 < config.repulse_radius ** 2
    np.fill_diagonal(near, False)
    push = np.where(near[:, :, None], diff / np.maximum(d2, 1e-12)[:, :, None], 0.0)
    repulse = push.sum(axis=1)

    blend = (config.goal_gain * goal + config.align_gain * align
             + config.repulse_gain * repulse)
    speed = np.linalg.norm(blend, axis=1)
    new_vel = blend * (config.max_speed / np.maximum(speed, config.goal_gain))[:, None]
    return MotionState(positions=pos + new_vel, velocities=new_vel)


def rebuild_topology(positions, comm_radius, max_degree):
    """Radius graph of the current positions with the degree cap applied;
    connectivity is not required."""
    d2 = squared_distances(positions)
    adjacency = d2 <= comm_radius * comm_radius
    np.fill_diagonal(adjacency, True)
    _prune_degrees(adjacency, d2, max_degree, keep_connected=False)
    return Topology(adjacency, positions)


class MotionDriver:
    """Steps the swarm inside the decision loop and samples trajectories.

    ``config`` supplies the motion law's gains and the communication
    radius and degree cap of the per-round topology rebuild.
    """

    def __init__(self, config, positions, models, snapshot_iters=()):
        self.config = config
        self.state = MotionState.at(positions)
        self.models = np.atleast_2d(models)
        self.snapshot_iters = set(snapshot_iters)
        self.rows = []
        self.max_observed_speed = 0.0

    def step(self, iteration, targets, topology):
        self.state = step_motion(self.state, targets, topology.adjacency, self.config)
        speed = float(np.linalg.norm(self.state.velocities, axis=1).max(initial=0.0))
        self.max_observed_speed = max(self.max_observed_speed, speed)
        if speed > self.config.max_speed * (1 + 1e-9):
            raise AssertionError(f"speed cap violated at iteration {iteration}: {speed}")
        if iteration in self.snapshot_iters:
            labels = squared_distances(targets, self.models).argmin(axis=1)
            for k in range(len(targets)):
                self.rows.append((iteration, k, self.state.positions[k, 0],
                                  self.state.positions[k, 1], labels[k]))
        return rebuild_topology(self.state.positions, self.config.comm_radius,
                                self.config.max_degree)

    def trajectory(self):
        return np.array(self.rows, dtype=float) if self.rows else None
