"""Anchor relay mechanics and the follow-the-target loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_world, tiny_config
import netdecide.follow
from netdecide.decision import InvariantViolation, update_desired_matrices
from netdecide.diffusion import combination_weights
from netdecide.follow import (AnchorRelay, follow_matrices, relay_routes, run_follow,
                              spread_anchor)
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


def scan_relay(adjacency, target, psis):
    """The relay as a per-round neighbor scan, in plain Python: yield each
    round's anchors and 1-based sources, 0 for an agent not informed yet.

    The target's neighbors (itself included) copy its current output; an
    uninformed agent latches onto its lowest-indexed neighbor informed last
    round; an informed agent refreshes from its recorded source."""
    n = len(adjacency)
    anchors = [[0.0] * len(psis[0][0]) for _ in range(n)]
    sources = [0] * n
    for psi in psis:
        prev_anchors, prev_sources = anchors, sources
        anchors, sources = list(prev_anchors), list(prev_sources)
        for k in range(n):
            if adjacency[target][k]:
                anchors[k], sources[k] = list(psi[target]), target + 1
            elif prev_sources[k]:
                anchors[k] = prev_anchors[prev_sources[k] - 1]
            else:
                for j in range(n):
                    if adjacency[k][j] and prev_sources[j]:
                        anchors[k], sources[k] = prev_anchors[j], j + 1
                        break
        yield np.array(anchors), np.array(sources)


def relay(adjacency, target, psis):
    """Run :func:`relay_routes` once and :func:`spread_anchor` for each
    round's adaptation outputs in ``psis``; yield each round's anchors and
    its sources as :func:`scan_relay` numbers them."""
    depth, source = relay_routes(link_index(adjacency), target)
    anchors = np.zeros(np.shape(psis[0]))
    for i, psi in enumerate(psis, start=1):
        anchors = spread_anchor(anchors, np.asarray(psi), depth, source, i)
        yield anchors, np.where(depth <= i, source + 1, 0)


def random_adjacency(g, n, density):
    """A symmetric, self-looped boolean adjacency with links drawn at ``density``."""
    upper = np.triu(g.random((n, n)) < density, 1)
    return upper | upper.T | np.eye(n, dtype=bool)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 0.3),
       st.integers(1, 3))
def test_relay_matches_the_per_round_neighbor_scan(seed, n, density, dim):
    # sparse draws leave agents out of the target's reach, which must stay
    # uninformed past round N
    g = np.random.default_rng(seed)
    adjacency = random_adjacency(g, n, density)
    target = int(g.integers(n))
    psis = g.normal(size=(n + 3, n, dim))
    for i, ((anchors, sources), (want_anchors, want_sources)) in enumerate(
            zip(relay(adjacency, target, psis), scan_relay(adjacency, target, psis.tolist())),
            start=1):
        assert anchors.tobytes() == want_anchors.tobytes(), i
        assert sources.tolist() == want_sources.tolist(), i
    assert i == n + 3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.0, 0.3))
def test_relay_weights_follow_each_rounds_informed_set(seed, n, density):
    # the stage keeps its weights once the informed set stops growing;
    # sparse draws leave agents out of the target's reach
    g = np.random.default_rng(seed)
    links = link_index(random_adjacency(g, n, density))
    cfg = tiny_config(mode="follow", n_agents=n, n_models=1, max_iters=n + 3,
                      target_agent=int(g.integers(n)) + 1)
    stage = AnchorRelay(cfg, links, 2, check_invariants=False)
    psi = g.normal(size=(n, 2))
    for t in range(n + 3):
        _, _, weights, anchors = stage.desired(t, psi, psi, None, None, links)
        assert weights.tobytes() == follow_matrices(stage.depth <= t + 1, links).tobytes()
        assert anchors is stage.anchors


def test_anchor_chain_walkthrough():
    # chain 0 - 1 - 2 with target 0: the neighbor copies the current
    # output, the next hop picks it up one round later
    adj = path_adjacency(3)
    psi1 = np.array([[1.0, 1.0], [7.0, 7.0], [8.0, 8.0]])
    psi2 = np.array([[2.0, 2.0], [7.0, 7.0], [8.0, 8.0]])
    rounds = relay(adj, 0, [psi1, psi2])
    anchors, sources = next(rounds)
    assert np.array_equal(anchors[0], psi1[0])
    assert np.array_equal(anchors[1], psi1[0])
    assert np.array_equal(anchors[2], [0.0, 0.0])
    assert sources.tolist() == [1, 1, 0]
    anchors, sources = next(rounds)
    assert np.array_equal(anchors[1], psi2[0])
    assert np.array_equal(anchors[2], psi1[0])
    assert sources.tolist() == [1, 1, 2]


def test_anchor_staleness_on_chain():
    # depth-d agent lags the target's output by d - 1 rounds
    n = 6
    adj = path_adjacency(n)
    psis = np.full((14, n, 2), -1.0)
    psis[:, 0] = np.arange(1.0, 15.0)[:, None]
    history = {i: psis[i - 1, 0] for i in range(1, 15)}
    for i, (anchors, _) in enumerate(relay(adj, 0, psis), start=1):
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
    psi = rng.normal(size=(n, 2))
    for i, (_, sources) in enumerate(relay(adj, 4, [psi] * (n + 1)), start=1):
        informed = sources > 0
        assert np.array_equal(informed, (depths >= 0) & (depths <= i))


def test_sources_latch_lowest_index_and_never_reset():
    # agent 3 can hear both 1 and 2; it must record 1 (lower index)
    n = 4
    adj = np.eye(n, dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        adj[a, b] = adj[b, a] = True
    seen = [sources for _, sources in relay(adj, 0, [np.zeros((n, 2))] * 5)]
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
    informed = np.array([True, True, True, False])
    psi = np.zeros((n, 2))
    psi[1] = [9.0, 9.0]
    links = link_index(adj)
    relay = follow_matrices(informed, links)
    fresh, hold = (on_matrix(links, a) for a in
                   update_desired_matrices(relay, psi, anchors, 0.08, links))
    weights = fresh + hold
    assert np.array_equal(weights, on_matrix(links, relay))
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
    want = update_desired_matrices(combination_weights(linked, everyone(n)), psi, anchors,
                                   0.08, everyone(n))
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


def test_invariant_check_catches_a_depth_off_by_one(monkeypatch):
    # the routes place an agent of depth 3 one hop deeper, so the informed
    # set of round 3 falls short of the hop ball
    calls = []

    def deepened(links, target):
        calls.append(None)
        depth, source = relay_routes(links, target)
        depth[np.flatnonzero(depth == 3)[0]] += 1
        return depth, source

    monkeypatch.setattr(netdecide.follow, "relay_routes", deepened)
    cfg = tiny_config(mode="follow", n_models=2, max_iters=40, target_agent=3)
    with pytest.raises(InvariantViolation, match="at round 3 "):
        run_follow(cfg, *build_world(cfg, seed=2), check_invariants=True)
    assert len(calls) == 1


def test_invariant_check_catches_a_source_that_is_no_neighbor(monkeypatch):
    # the routes give the first agent of depth 4 a source that is no
    # neighbor; the informed set is still the hop ball
    cfg = tiny_config(mode="follow", n_models=2, max_iters=40, target_agent=3)
    world = build_world(cfg, seed=2)
    adjacency = dense(world[0])
    calls = []

    def misrouted(links, target):
        calls.append(None)
        depth, source = relay_routes(links, target)
        k = np.flatnonzero(depth == 4)[0]
        source[k] = np.flatnonzero(~adjacency[k])[0]
        return depth, source

    monkeypatch.setattr(netdecide.follow, "relay_routes", misrouted)
    with pytest.raises(InvariantViolation, match="source at round 4 is not its neighbor"):
        run_follow(cfg, *world, check_invariants=True)
    assert len(calls) == 1


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
