"""Motion law, topology rebuilds, and a full seeded swarm run."""

import numpy as np
import pytest

from netdecide.config import ExperimentConfig
from netdecide.harness import run_single_trial, trial_seeds
from netdecide.metrics import captured_source
from netdecide.mobility import (MotionDriver, MotionState, rebuild_topology,
                                step_motion)
from netdecide.network import is_connected, squared_distances


PARAMS = ExperimentConfig.for_mode("mobile")


def lone_adjacency(n):
    return np.eye(n, dtype=bool)


def test_agent_at_target_stays_put():
    state = MotionState.at(np.array([[3.0, 4.0]]))
    out = step_motion(state, np.array([[3.0, 4.0]]), lone_adjacency(1), PARAMS)
    assert np.linalg.norm(out.velocities) < 1e-6
    assert np.allclose(out.positions, [[3.0, 4.0]])


def test_lone_far_agent_moves_at_exactly_max_speed():
    state = MotionState.at(np.array([[0.0, 0.0]]))
    target = np.array([[300.0, 400.0]])
    out = step_motion(state, target, lone_adjacency(1), PARAMS)
    speed = np.linalg.norm(out.velocities)
    assert speed == pytest.approx(PARAMS.max_speed, rel=1e-12)
    assert np.allclose(out.positions, [[0.6, 0.8]])


def test_velocity_fades_near_target():
    state = MotionState.at(np.array([[0.0, 0.0]]))
    out = step_motion(state, np.array([[0.1, 0.0]]), lone_adjacency(1), PARAMS)
    # inside the unit ball the goal term scales with distance
    assert np.linalg.norm(out.velocities) == pytest.approx(0.1, rel=1e-9)


def test_speed_cap_holds_on_random_swarms(rng):
    for _ in range(25):
        n = 12
        state = MotionState(positions=rng.uniform(-20, 20, (n, 2)),
                            velocities=rng.uniform(-1, 1, (n, 2)))
        targets = rng.uniform(-20, 20, (n, 2))
        adjacency = rng.random((n, n)) < 0.4
        adjacency |= adjacency.T
        np.fill_diagonal(adjacency, True)
        out = step_motion(state, targets, adjacency, PARAMS)
        speeds = np.linalg.norm(out.velocities, axis=1)
        assert (speeds <= PARAMS.max_speed * (1 + 1e-9)).all()


def test_repulsion_separates_near_collisions():
    positions = np.array([[0.0, 0.0], [0.05, 0.0]])
    state = MotionState.at(positions)
    targets = np.array([[10.0, 0.0], [10.0, 0.0]])
    before = np.linalg.norm(positions[0] - positions[1])
    out = step_motion(state, targets, np.ones((2, 2), dtype=bool), PARAMS)
    after = np.linalg.norm(out.positions[0] - out.positions[1])
    assert after > before


def test_alignment_pulls_along_neighbor_velocity():
    # both sit at their targets; only the trailing agent feels alignment
    positions = np.array([[0.0, 0.0], [5.0, 0.0]])
    velocities = np.array([[0.0, 0.0], [1.0, 0.0]])
    state = MotionState(positions=positions, velocities=velocities)
    targets = positions.copy()
    out = step_motion(state, targets, np.ones((2, 2), dtype=bool), PARAMS)
    assert out.velocities[0, 0] > 0


def test_rebuild_topology_matches_brute_force(rng):
    for _ in range(10):
        pts = rng.uniform(-30, 30, (15, 2))
        topo = rebuild_topology(pts, comm_radius=12.0, max_degree=100)
        topo.validate()
        for i in range(15):
            for j in range(15):
                want = ((pts[i] - pts[j]) ** 2).sum() <= 144.0
                assert topo.adjacency[i, j] == (want or i == j)


def test_rebuild_topology_applies_degree_cap():
    pts = np.zeros((9, 2))
    topo = rebuild_topology(pts, comm_radius=5.0, max_degree=4)
    assert topo.degrees.max() <= 4
    assert topo.adjacency.diagonal().all()


def test_rebuild_topology_tolerates_disconnection():
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    topo = rebuild_topology(pts, comm_radius=5.0, max_degree=7)
    assert not topo.adjacency[0, 1]
    assert not is_connected(topo.adjacency)


def test_motion_driver_samples_requested_snapshots():
    models = np.array([[-50.0, -50.0], [50.0, 50.0]])
    positions = np.array([[-40.0, -40.0], [40.0, 40.0], [0.0, 1.0]])
    driver = MotionDriver(PARAMS, positions, models,
                          snapshot_iters=(1, 3))
    targets = np.array([[-50.0, -50.0], [50.0, 50.0], [50.0, 50.0]])
    for i in (1, 2, 3):
        topo = driver.step(i, targets, rebuild_topology(
            driver.state.positions, 22.0, 80))
        topo.validate()
    rows = driver.trajectory()
    assert rows.shape == (6, 5)
    assert set(rows[:, 0]) == {1.0, 3.0}
    # labels name the model nearest each agent's current target
    first = rows[rows[:, 0] == 1]
    assert first[:, 4].tolist() == [0.0, 1.0, 1.0]
    assert driver.max_observed_speed <= PARAMS.max_speed * (1 + 1e-9)
    empty = MotionDriver(PARAMS, positions, models)
    assert empty.trajectory() is None


def test_seeded_swarm_reaches_one_source():
    cfg = ExperimentConfig.for_mode("mobile", n_trials=1, seed=0)
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0],
                                 trajectories=True)
    assert record.success
    assert record.max_speed_observed <= cfg.max_speed * (1 + 1e-9)
    assert record.final_positions.shape == (cfg.n_agents, 2)
    source = captured_source(record.final_positions, record.models)
    assert source is not None and source == record.final_model
    # desired-estimate deviation keeps shrinking once the swarm settles
    late = np.nanmedian(record.msd_desired[-100:])
    mid = np.nanmedian(record.msd_desired[199:300])
    assert late < mid
    traj = record.trajectory
    assert traj is not None
    assert set(traj[:, 0]) <= set(cfg.snapshot_iters)
