"""Anchor relay mechanics and the follow-the-target loop."""

import numpy as np
import pytest

from conftest import build_world, tiny_config
import netdecide.follow
from netdecide.decision import InvariantViolation, update_desired_matrices
from netdecide.diffusion import combination_weights
from netdecide.follow import follow_matrices, run_follow, spread_anchor
from netdecide.network import link_index
from test_links import dense, everyone
from test_network import path_adjacency


def hop_depths(adjacency, root):
    """Hop counts from ``root`` by a plain-Python breadth-first search;
    -1 marks agents it never reaches."""
    depth = [-1] * len(adjacency)
    depth[root] = 0
    frontier = [root]
    while frontier:
        grown = []
        for v in frontier:
            for w in np.flatnonzero(adjacency[v]).tolist():
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    grown.append(w)
        frontier = grown
    return np.array(depth)


def initial_relay(n, dim):
    """No agent informed yet: zero anchors, no sources."""
    return np.zeros((n, dim)), np.zeros(n, dtype=int)


def test_anchor_chain_walkthrough():
    # chain 0 - 1 - 2 with target 0: the neighbor copies the current
    # output, the next hop picks it up one round later
    adj = path_adjacency(3)
    anchors, sources = initial_relay(3, 2)
    psi1 = np.array([[1.0, 1.0], [7.0, 7.0], [8.0, 8.0]])
    anchors, sources = spread_anchor(anchors, sources, psi1, link_index(adj), target=0)
    assert np.array_equal(anchors[0], psi1[0])
    assert np.array_equal(anchors[1], psi1[0])
    assert np.array_equal(anchors[2], [0.0, 0.0])
    assert sources.tolist() == [1, 1, 0]
    psi2 = np.array([[2.0, 2.0], [7.0, 7.0], [8.0, 8.0]])
    anchors, sources = spread_anchor(anchors, sources, psi2, link_index(adj), target=0)
    assert np.array_equal(anchors[1], psi2[0])
    assert np.array_equal(anchors[2], psi1[0])
    assert sources.tolist() == [1, 1, 2]


def test_anchor_staleness_on_chain():
    # depth-d agent lags the target's output by d - 1 rounds
    n = 6
    adj = path_adjacency(n)
    anchors, sources = initial_relay(n, 2)
    history = {}
    for i in range(1, 15):
        psi = np.full((n, 2), -1.0)
        psi[0] = [float(i), float(i)]
        history[i] = psi[0].copy()
        anchors, sources = spread_anchor(anchors, sources, psi, link_index(adj), target=0)
        for depth in range(1, n):
            if i >= depth:
                assert np.array_equal(anchors[depth], history[i - depth + 1])
        assert np.array_equal(anchors[0], history[i])


def test_informed_set_is_bfs_ball(rng):
    n = 12
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = rng.random() < 0.2
    depths = hop_depths(adj, 4)
    anchors, sources = initial_relay(n, 2)
    psi = rng.normal(size=(n, 2))
    for i in range(1, n + 2):
        anchors, sources = spread_anchor(anchors, sources, psi, link_index(adj), target=4)
        informed = sources > 0
        assert np.array_equal(informed, (depths >= 0) & (depths <= i))


def test_sources_latch_lowest_index_and_never_reset():
    # agent 3 can hear both 1 and 2; it must record 1 (lower index)
    n = 4
    adj = np.eye(n, dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        adj[a, b] = adj[b, a] = True
    anchors, sources = initial_relay(n, 2)
    psi = np.zeros((n, 2))
    seen = []
    for _ in range(5):
        anchors, sources = spread_anchor(anchors, sources, psi, link_index(adj), target=0)
        seen.append(sources.copy())
    assert seen[0].tolist() == [1, 1, 1, 0]
    assert seen[1][3] == 2
    for s in seen[1:]:
        assert s.tolist() == seen[1].tolist()


def on_matrix(links, values):
    """The N x N matrix holding one value per link of ``links``, 0 elsewhere."""
    matrix = np.zeros((links.n, links.n))
    matrix[links.rows, links.cols] = values
    return matrix


def test_follow_matrices_columns():
    n = 4
    adj = np.ones((n, n), dtype=bool)
    anchors = np.zeros((n, 2))
    sources = np.array([1, 1, 2, 0])
    psi = np.zeros((n, 2))
    psi[1] = [9.0, 9.0]
    links = link_index(adj)
    fresh, hold = (on_matrix(links, a) for a in
                   follow_matrices(anchors, sources, psi, links, threshold=0.08))
    weights = fresh + hold
    # uninformed agent 3 keeps a pure self column
    assert weights[:, 3].tolist() == [0, 0, 0, 1]
    assert np.allclose(weights.sum(axis=0), 1.0)
    # informed agents link informed peers only, plus themselves
    linked = np.eye(n, dtype=bool)
    linked[:3, :3] = True
    assert np.array_equal(weights, combination_weights(linked, everyone(n)))
    # agent 1's far-off output rides the hold route everywhere
    assert np.allclose(fresh[1, :], 0.0)
    assert np.allclose(hold[1, :3], 1 / 3)
    # the relay only chooses the links and the anchors of the shared split
    want = update_desired_matrices(linked, psi, anchors, 0.08, everyone(n))
    assert all(np.array_equal(a, b) for a, b in zip((fresh, hold), want))


def test_run_follow_converges_to_target_model():
    cfg = tiny_config(mode="follow", n_models=2, max_iters=600, target_agent=3)
    links, models, assignment, streams = build_world(cfg, seed=2)
    record = run_follow(cfg, links, models, assignment, streams,
                        check_invariants=True)
    assert record.n_iters == 600
    assert record.mode == "follow"
    assert not np.isnan(record.msd_desired).any()
    coverage = record.source_coverage
    assert (np.diff(coverage) >= 0).all()
    depth_max = hop_depths(dense(links), 2).max()
    assert coverage[depth_max - 1] == cfg.n_agents
    assert record.success
    assert record.final_model == assignment[2]
    target_model = models[assignment[2]]
    assert ((record.final_w - target_model) ** 2).sum(axis=1).max() < cfg.beta


def test_invariant_check_catches_a_stalled_relay(monkeypatch):
    # the relay skips its third round, so the informed set lags the ball
    calls = []

    def stalled(anchors, sources, *args):
        calls.append(None)
        if len(calls) == 3:
            return anchors, sources
        return spread_anchor(anchors, sources, *args)

    monkeypatch.setattr(netdecide.follow, "spread_anchor", stalled)
    cfg = tiny_config(mode="follow", n_models=2, max_iters=40, target_agent=3)
    with pytest.raises(InvariantViolation, match="at round 3 "):
        run_follow(cfg, *build_world(cfg, seed=2), check_invariants=True)
    assert len(calls) == 3


def test_invariant_check_catches_a_source_that_is_no_neighbor(monkeypatch):
    # in its fourth round the relay records a non-neighbor as the source of
    # its first informed agent; the informed set is still the hop ball
    cfg = tiny_config(mode="follow", n_models=2, max_iters=40, target_agent=3)
    world = build_world(cfg, seed=2)
    adjacency = dense(world[0])
    calls = []

    def misrouted(*args):
        calls.append(None)
        anchors, sources = spread_anchor(*args)
        if len(calls) == 4:
            k = np.flatnonzero(sources)[0]
            sources[k] = np.flatnonzero(~adjacency[k])[0] + 1
        return anchors, sources

    monkeypatch.setattr(netdecide.follow, "spread_anchor", misrouted)
    with pytest.raises(InvariantViolation, match="source at round 4 is not its neighbor"):
        run_follow(cfg, *world, check_invariants=True)
    assert len(calls) == 4


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
