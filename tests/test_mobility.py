"""Motion law, topology rebuilds, and a full seeded swarm run."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netdecide.mobility
from netdecide.config import ExperimentConfig
from netdecide.harness import run_single_trial, trial_seeds
from netdecide.metrics import captured_source
from netdecide.mobility import MotionDriver, rebuild_topology, step_motion
from netdecide.network import (DivergenceError, component_count, link_grid,
                               squared_distances)

from test_network import walk_prune


PARAMS = ExperimentConfig.for_mode("mobile")


def lone_adjacency(n):
    return np.eye(n, dtype=bool)


def at_rest(positions):
    """Positions and zero velocities, the ``(pos, vel)`` of a swarm at rest."""
    positions = np.array(positions, dtype=float)
    return positions, np.zeros_like(positions)


def test_agent_at_target_stays_put():
    pos, vel = step_motion(*at_rest([[3.0, 4.0]]), np.array([[3.0, 4.0]]),
                           lone_adjacency(1), PARAMS)
    assert np.linalg.norm(vel) < 1e-6
    assert np.allclose(pos, [[3.0, 4.0]])


def test_lone_far_agent_moves_at_exactly_max_speed():
    target = np.array([[300.0, 400.0]])
    pos, vel = step_motion(*at_rest([[0.0, 0.0]]), target, lone_adjacency(1), PARAMS)
    speed = np.linalg.norm(vel)
    assert speed == pytest.approx(PARAMS.max_speed, rel=1e-12)
    assert np.allclose(pos, [[0.6, 0.8]])


def test_velocity_fades_near_target():
    _, vel = step_motion(*at_rest([[0.0, 0.0]]), np.array([[0.1, 0.0]]),
                         lone_adjacency(1), PARAMS)
    # inside the unit ball the goal term scales with distance
    assert np.linalg.norm(vel) == pytest.approx(0.1, rel=1e-9)


def test_speed_cap_holds_on_random_swarms(rng):
    for _ in range(25):
        n = 12
        pos = rng.uniform(-20, 20, (n, 2))
        vel = rng.uniform(-1, 1, (n, 2))
        targets = rng.uniform(-20, 20, (n, 2))
        adjacency = rng.random((n, n)) < 0.4
        adjacency |= adjacency.T
        np.fill_diagonal(adjacency, True)
        _, vel = step_motion(pos, vel, targets, adjacency, PARAMS)
        speeds = np.linalg.norm(vel, axis=1)
        assert (speeds <= PARAMS.max_speed * (1 + 1e-9)).all()


def test_repulsion_separates_near_collisions():
    positions = np.array([[0.0, 0.0], [0.05, 0.0]])
    targets = np.array([[10.0, 0.0], [10.0, 0.0]])
    before = np.linalg.norm(positions[0] - positions[1])
    pos, _ = step_motion(*at_rest(positions), targets, np.ones((2, 2), dtype=bool),
                         PARAMS)
    after = np.linalg.norm(pos[0] - pos[1])
    assert after > before


def test_alignment_pulls_along_neighbor_velocity():
    # both sit at their targets; only the trailing agent feels alignment
    positions = np.array([[0.0, 0.0], [5.0, 0.0]])
    velocities = np.array([[0.0, 0.0], [1.0, 0.0]])
    targets = positions.copy()
    _, vel = step_motion(positions, velocities, targets, np.ones((2, 2), dtype=bool),
                         PARAMS)
    assert vel[0, 0] > 0


def all_pairs_motion(pos, vel, targets, adjacency, config):
    """The motion law over (N, N, 2) difference arrays: the reference
    :func:`step_motion` must reproduce bit for bit."""
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
    return pos + new_vel, new_vel


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
       extent=st.floats(0.25, 40.0), coincident=st.floats(0.0, 0.5),
       link=st.floats(0.0, 1.0), radius=st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]),
       boundary=st.booleans())
# a crowd well inside the radius, where every agent sums many pushes
@example(seed=0, n=120, extent=2.0, coincident=0.1, link=0.3, radius=1.0,
         boundary=True)
def test_step_motion_matches_all_pairs_law(seed, n, extent, coincident, link,
                                           radius, boundary):
    rng = np.random.default_rng(seed)
    # positions on a grid of quarters, so a pair sits exactly radius apart
    positions = np.round(rng.uniform(-extent, extent, (n, 2)) * 4) / 4
    copies = rng.random(n) < coincident
    positions[copies] = positions[rng.integers(0, n, copies.sum())]
    if boundary and n >= 2:
        positions[1] = positions[0] + [radius, 0.0]
    velocities = rng.uniform(-1, 1, (n, 2))
    targets = rng.uniform(-extent, extent, (n, 2))
    upper = np.triu(rng.random((n, n)) < link, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    config = PARAMS.replace(repulse_radius=radius)

    got = step_motion(positions, velocities, targets, adjacency, config)
    want = all_pairs_motion(positions, velocities, targets, adjacency, config)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_step_motion_at_n320_holds_one_dense_float_matrix():
    # a crowd about 30 wide, which sums a few hundred pushes; the only N x N
    # float array left is the alignment product's operand
    n = 320
    rng = np.random.default_rng(3)
    positions = rng.uniform(-15, 15, (n, 2))
    args = (positions, rng.uniform(-1, 1, (n, 2)), rng.uniform(-50, 50, (n, 2)),
            rebuild_topology(positions, PARAMS.radius, PARAMS.max_degree), PARAMS)
    assert (squared_distances(positions) < PARAMS.repulse_radius ** 2).sum() > 2 * n
    step_motion(*args)
    tracemalloc.start()
    try:
        step_motion(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8, peak


def test_rebuild_topology_matches_brute_force(rng):
    for _ in range(10):
        pts = rng.uniform(-30, 30, (15, 2))
        adjacency = rebuild_topology(pts, radius=12.0, max_degree=100)
        for i in range(15):
            for j in range(15):
                want = ((pts[i] - pts[j]) ** 2).sum() <= 144.0
                assert adjacency[i, j] == (want or i == j)


def test_rebuild_topology_applies_degree_cap():
    pts = np.zeros((9, 2))
    adjacency = rebuild_topology(pts, radius=5.0, max_degree=4)
    assert adjacency.sum(axis=0).max() <= 4
    assert adjacency.diagonal().all()


@pytest.mark.parametrize("n, radius, max_degree", [
    (15, 20.0, 3), (40, 14.0, 5), (80, 22.0, 7), (80, 11.0, 2), (150, 9.0, 12)])
def test_rebuild_topology_prune_matches_the_walk(rng, n, radius, max_degree):
    for snapped in (False, True):
        positions = rng.uniform(-30, 30, (n, 2))
        if snapped:
            # every other agent on a lattice of spacing 3, where distances tie
            positions[::2] = np.round(positions[::2] / 3) * 3
        d2 = squared_distances(positions)
        want = d2 <= radius * radius
        np.fill_diagonal(want, True)
        assert want.sum(axis=0).max() > max_degree, "the cap does not bind"
        walk_prune(want, d2, max_degree, keep_connected=False)
        assert np.array_equal(rebuild_topology(positions, radius, max_degree), want)


def test_rebuild_topology_tolerates_disconnection():
    pts = np.array([[0.0, 0.0], [100.0, 0.0]])
    adjacency = rebuild_topology(pts, radius=5.0, max_degree=7)
    assert not adjacency[0, 1]
    assert component_count(adjacency) == 2


def test_motion_driver_samples_requested_snapshots():
    models = np.array([[-50.0, -50.0], [50.0, 50.0]])
    positions = np.array([[-40.0, -40.0], [40.0, 40.0], [0.0, 1.0]])
    links = link_grid(rebuild_topology(positions, PARAMS.radius, PARAMS.max_degree))
    driver = MotionDriver(PARAMS.replace(snapshot_iters=(1, 3)), positions, links, models)
    targets = np.array([[-50.0, -50.0], [50.0, 50.0], [50.0, 50.0]])
    for i in (1, 2, 3):
        driver.step(i, targets)
        # each step replaces the graph with the one at the new positions
        assert np.array_equal(driver.links.mask, rebuild_topology(
            driver.positions, PARAMS.radius, PARAMS.max_degree))
    rows = driver.trajectory()
    assert rows.shape == (6, 5)
    assert set(rows[:, 0]) == {1.0, 3.0}
    # labels name the model nearest each agent's current target
    first = rows[rows[:, 0] == 1]
    assert first[:, 4].tolist() == [0.0, 1.0, 1.0]
    assert driver.max_observed_speed <= PARAMS.max_speed * (1 + 1e-9)
    empty = MotionDriver(PARAMS, positions, links, models)
    assert empty.trajectory() is None


def test_motion_driver_raises_divergence_on_non_finite_velocity():
    # agent 0 steers at a NaN target while agent 1 flies on at full speed
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    driver = MotionDriver(PARAMS, positions, link_grid(rebuild_topology(positions, 22.0, 80)),
                          np.array([[20.0, 0.0]]))
    targets = np.array([[np.nan, np.nan], [20.0, 0.0]])
    with pytest.raises(DivergenceError, match="iteration 4"):
        driver.step(4, targets)


def test_non_finite_motion_records_a_diverged_trial(monkeypatch):
    def nan_motion(pos, vel, *args):
        return pos + np.nan, vel + np.nan

    monkeypatch.setattr(netdecide.mobility, "step_motion", nan_motion)
    cfg = ExperimentConfig.for_mode("mobile", n_agents=12, max_iters=40,
                                    t_hold=10, n_trials=1)
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0])
    assert record.diverged and not record.success


def test_overflowing_speed_records_a_diverged_trial(monkeypatch):
    # the velocities stay finite, near 1e308, but their norm overflows
    cfg = ExperimentConfig.for_mode("mobile", n_agents=10, max_iters=20, t_hold=5,
                                    n_trials=1, max_speed=1e308)
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0])
    assert record.diverged and not record.success
    # a finite speed over the cap is a broken motion law, not a divergence
    monkeypatch.setattr(netdecide.mobility, "step_motion",
                        lambda pos, vel, *args: (pos, np.full_like(vel, 3.0)))
    with pytest.raises(AssertionError, match="speed cap violated at iteration 1"):
        run_single_trial(cfg.replace(max_speed=2.0), trial_seeds(cfg.seed, 1)[0])


def test_seeded_swarm_reaches_one_source():
    cfg = ExperimentConfig.for_mode("mobile", n_trials=1, seed=0,
                                    snapshot_iters=(1, 200, 500, 1000))
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0])
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
