"""Anchor relay mechanics and the follow-the-target loop."""

import numpy as np
import pytest

from conftest import build_world, tiny_config
from netdecide.follow import (AnchorState, follow_matrices, run_follow,
                              spread_anchor)
from netdecide.network import bfs_depths
from test_network import path_adjacency


def test_anchor_chain_walkthrough():
    # chain 0 - 1 - 2 with target 0: the neighbor copies the current
    # output, the next hop picks it up one round later
    adj = path_adjacency(3)
    state = AnchorState.initial(3, 2)
    psi1 = np.array([[1.0, 1.0], [7.0, 7.0], [8.0, 8.0]])
    state = spread_anchor(state, psi1, adj, target=0)
    assert np.array_equal(state.anchors[0], psi1[0])
    assert np.array_equal(state.anchors[1], psi1[0])
    assert np.array_equal(state.anchors[2], [0.0, 0.0])
    assert state.sources.tolist() == [1, 1, 0]
    psi2 = np.array([[2.0, 2.0], [7.0, 7.0], [8.0, 8.0]])
    state = spread_anchor(state, psi2, adj, target=0)
    assert np.array_equal(state.anchors[1], psi2[0])
    assert np.array_equal(state.anchors[2], psi1[0])
    assert state.sources.tolist() == [1, 1, 2]


def test_anchor_staleness_on_chain():
    # depth-d agent lags the target's output by d - 1 rounds
    n = 6
    adj = path_adjacency(n)
    state = AnchorState.initial(n, 2)
    history = {}
    for i in range(1, 15):
        psi = np.full((n, 2), -1.0)
        psi[0] = [float(i), float(i)]
        history[i] = psi[0].copy()
        state = spread_anchor(state, psi, adj, target=0)
        for depth in range(1, n):
            if i >= depth:
                assert np.array_equal(state.anchors[depth],
                                      history[i - depth + 1])
        assert np.array_equal(state.anchors[0], history[i])


def test_informed_set_is_bfs_ball(rng):
    n = 12
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = rng.random() < 0.2
    depths = bfs_depths(adj, 4)
    state = AnchorState.initial(n, 2)
    psi = rng.normal(size=(n, 2))
    for i in range(1, n + 2):
        state = spread_anchor(state, psi, adj, target=4)
        informed = state.sources > 0
        assert np.array_equal(informed, (depths >= 0) & (depths <= i))


def test_sources_latch_lowest_index_and_never_reset():
    # agent 3 can hear both 1 and 2; it must record 1 (lower index)
    n = 4
    adj = np.eye(n, dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        adj[a, b] = adj[b, a] = True
    state = AnchorState.initial(n, 2)
    psi = np.zeros((n, 2))
    seen = []
    for _ in range(5):
        state = spread_anchor(state, psi, adj, target=0)
        seen.append(state.sources.copy())
    assert seen[0].tolist() == [1, 1, 1, 0]
    assert seen[1][3] == 2
    for s in seen[1:]:
        assert s.tolist() == seen[1].tolist()


def test_follow_matrices_columns():
    n = 4
    adj = np.ones((n, n), dtype=bool)
    anchors = np.zeros((n, 2))
    sources = np.array([1, 1, 2, 0])
    state = AnchorState(anchors=anchors, sources=sources)
    psi = np.zeros((n, 2))
    psi[1] = [9.0, 9.0]
    matrices = follow_matrices(state, psi, adj, threshold=0.08)
    # uninformed agent 3 keeps a pure self column
    assert matrices.weights[:, 3].tolist() == [0, 0, 0, 1]
    assert np.allclose(matrices.weights.sum(axis=0), 1.0)
    # informed agents link informed peers only, plus themselves
    assert matrices.linked[:3, :3].all()
    assert not matrices.linked[3, 0] and not matrices.linked[0, 3]
    # agent 1's far-off output rides the hold route everywhere
    assert np.allclose(matrices.fresh[1, :], 0.0)
    assert np.allclose(matrices.hold[1, :3], matrices.weights[1, :3])
    assert np.allclose(matrices.fresh + matrices.hold, matrices.weights)


def test_run_follow_converges_to_target_model():
    cfg = tiny_config(mode="follow", n_models=2, max_iters=600, target_agent=3)
    topo, models, streams = build_world(cfg, seed=2)
    record = run_follow(cfg, topo, models, streams,
                        check_invariants=True)
    assert record.n_iters == 600
    assert record.mode == "follow"
    assert not np.isnan(record.msd_desired).any()
    coverage = record.source_coverage
    assert (np.diff(coverage) >= 0).all()
    depth_max = bfs_depths(topo.adjacency, 2).max()
    assert coverage[depth_max - 1] == cfg.n_agents
    assert record.success
    assert record.final_model == models.assignment[2]
    target_model = models.models[models.assignment[2]]
    assert ((record.final_w - target_model) ** 2).sum(axis=1).max() < cfg.beta


def test_run_follow_reassignment_perturbs_only_the_suffix():
    cfg = tiny_config(mode="follow", n_models=2, max_iters=320, target_agent=3)
    world = build_world(cfg, seed=6)
    plain = run_follow(cfg, *world)
    shaken = run_follow(cfg.replace(reassign_at=(150,)), *world)
    assert np.array_equal(plain.msd_observed[:149], shaken.msd_observed[:149])
    assert not np.array_equal(plain.msd_desired[149:], shaken.msd_desired[149:])


def test_run_follow_is_deterministic():
    cfg = tiny_config(mode="follow", n_models=2, max_iters=200, target_agent=1)
    world = build_world(cfg, seed=8)
    a = run_follow(cfg, *world)
    b = run_follow(cfg, *world)
    assert a == b
