"""Anchor relay mechanics and the follow-the-target loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOISE_RANGES, build_world, tiny_config
import netdecide.decision
import netdecide.follow
from netdecide.config import ExperimentConfig
from netdecide.decision import InvariantViolation, update_desired_matrices
from netdecide.diffusion import combination_weights
from netdecide.follow import (AnchorRelay, follow_matrices, relay_routes, run_follow,
                              spread_anchor)
from netdecide.harness import run_single_trial, trial_seeds
from netdecide.labeling import agreement_vector
from netdecide.network import (build_streams, close_component_count, draw_noise_profile,
                               link_index, network_from_json, pairwise_close,
                               squared_distances)
from test_links import dense, everyone, old_split, traced_peak
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
        anchors = spread_anchor(anchors, np.asarray(psi), depth, source)
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
    stage = AnchorRelay(cfg, links, np.zeros((1, 2)), check_invariants=False)
    psi = g.normal(size=(n, 2))
    for t in range(n + 3):
        _, weights, anchors = stage.desired(t, psi, psi, links)
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
    near = update_desired_matrices(psi, anchors, 0.08, links)
    fresh, hold = (on_matrix(links, a) for a in old_split(relay, near))
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
    want = old_split(combination_weights(linked, everyone(n)),
                     update_desired_matrices(psi, anchors, 0.08, everyone(n)))
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


def two_part_world(seed=0):
    """A follow world whose links do not join every agent: a chain of eight
    agents, closed into a ring, that holds the target (agent 3, 0-based 2),
    and apart from it a clique of four the relay never reaches. Three
    models; the target observes model 0, and the clique's two halves models
    1 and 2, so the clique's estimates come to disagree."""
    n = 12
    doc = {"schema": "netdecide.network/1",
           "agents": [{"id": k + 1, "x": 0.05 * k, "y": 0.0} for k in range(n)],
           "links": [[k, k + 1] for k in range(1, 8)] + [[1, 8]]
                    + [[a, b] for a in range(9, 13) for b in range(a + 1, 13)],
           "models": [[-0.6, -0.6], [0.6, 0.6], [0.6, -0.6]],
           "assignment": [2, 2, 1, 1, 2, 2, 1, 2, 2, 2, 3, 3]}
    _, links, models, assignment = network_from_json(doc)
    noise = draw_noise_profile(n, 2, seed=seed, **NOISE_RANGES)
    return links, models, assignment, build_streams(*noise, seed + 1)


def per_round_reference(links, models, target, beta, w_prevs, ws, assignments, depth):
    """Every fact of a follow record, round by round, from the estimates
    each round began from (``w_prevs``) and handed on (``ws``) and its
    assignment: ``(agreed, n_desired, final p, msd_desired, coverage)``."""
    agreed, n_desired, deviations, coverage = [], [], [], []
    for i, (w_prev, w, assignment) in enumerate(zip(w_prevs, ws, assignments), start=1):
        p = agreement_vector(pairwise_close(w_prev, beta, links), links)
        agreed.append(bool((p == 1.0).all()))
        n_desired.append(close_component_count(w_prev, beta, links, agreed[-1]))
        deviations.append(squared_distances(w, models[[assignment[target]]]).sum() / len(w))
        coverage.append(int((depth <= i).sum()))
    return np.array(agreed), np.array(n_desired), p, np.array(deviations), np.array(coverage)


@pytest.mark.parametrize("world", [two_part_world, lambda: build_world(
    tiny_config(mode="follow", n_models=2, target_agent=3), seed=2)], ids=["apart", "joined"])
def test_relay_block_edge_rounds_equal_a_per_round_reference(world, monkeypatch):
    # runs that end one round before, at and one round after a block's end,
    # after the second block's first round and in the first round; a
    # reassignment inside a block changes the target's model. On the
    # network apart the clique's estimates leave the target's and split, so
    # the rounds that fail the bounding box take the link test and the sweep
    links, models, assignment, streams = world()
    cfg = tiny_config(mode="follow", n_agents=links.n, n_models=len(models), target_agent=3)
    block = AnchorRelay(cfg, links, models, check_invariants=False).block_models.size
    seen = []
    update, measure = netdecide.decision.update_estimate, netdecide.decision.observed_msd

    def updated(phi, w_prev, *args):
        w = update(phi, w_prev, *args)
        seen.append((w_prev, w))
        return w

    def measured(phi, observed, assignment, followers):
        seen[-1] += (assignment,)
        return measure(phi, observed, assignment, followers)

    monkeypatch.setattr(netdecide.decision, "update_estimate", updated)
    monkeypatch.setattr(netdecide.decision, "observed_msd", measured)
    moved = False
    for rounds in (1, block - 1, block, block + 1, 2 * block + 1):
        seen.clear()
        config = cfg.replace(max_iters=rounds, t_hold=1, reassign_at=(max(1, block // 2),)
                             if rounds >= block // 2 else ())
        record = run_follow(config, links, models, assignment, streams)
        w_prevs, ws, assignments = zip(*seen)
        assert len(ws) == rounds
        agreed, n_desired, p, deviations, coverage = per_round_reference(
            links, models, 2, cfg.beta, w_prevs, ws, assignments,
            relay_routes(links, 2)[0])
        assert record.all_agreed.tolist() == agreed.tolist(), rounds
        assert record.n_desired_models.tolist() == n_desired.tolist(), rounds
        assert record.final_agreement.tobytes() == p.tobytes(), rounds
        assert record.msd_desired.tobytes() == deviations.tobytes(), rounds
        assert record.source_coverage.tolist() == coverage.tolist(), rounds
        moved |= len({int(a[2]) for a in assignments}) > 1
    assert moved
    if world is two_part_world:
        assert agreed.any() and not agreed.all() and (n_desired == 1).any()
        assert (n_desired > 1).any()


def test_relay_block_edge_rounds_whose_facts_change_every_round():
    # the stage fed estimates of a new kind every round: one point (the box
    # passes), the ring and the clique of two_part_world at two points
    # (every link close, the box fails, two models), or a scatter (links
    # disagree); and a target model drawn every round. A round settled from
    # a neighboring round's row, in its block or across a block's edge,
    # reads other facts than its own
    links, models, _, _ = two_part_world()
    n = links.n
    cfg = tiny_config(mode="follow", n_agents=n, n_models=len(models), target_agent=3)
    block = AnchorRelay(cfg, links, models, check_invariants=False).block_models.size
    g = np.random.default_rng(5)

    def draw(kind):
        if kind == 0:
            return g.normal(size=2) + 0.01 * g.random((n, 2))
        if kind == 1:
            return np.where(np.arange(n)[:, None] < 8, -1.0, 1.0) + 0.01 * g.random((n, 2))
        return g.normal(size=(n, 2))

    for rounds in (1, block - 1, block, block + 1, 2 * block + 1):
        stage = AnchorRelay(cfg.replace(max_iters=rounds, t_hold=1), links, models, False)
        kind = 0
        w_prevs, ws, assignments = [draw(kind)], [], []
        for t in range(rounds):
            stage.desired(t, w_prevs[t], w_prevs[t], links)
            kind = (kind + int(g.integers(1, 3))) % 3
            ws.append(draw(kind))
            assignments.append(g.integers(0, len(models), size=n))
            stage.track(t, ws[t], assignments[t])
            w_prevs.append(ws[t])
        fields = stage.record_fields(rounds)
        agreed, n_desired, p, deviations, coverage = per_round_reference(
            links, models, 2, cfg.beta, w_prevs, ws, assignments, stage.depth)
        assert fields["all_agreed"].tolist() == agreed.tolist(), rounds
        assert fields["n_desired_models"].tolist() == n_desired.tolist(), rounds
        assert fields["final_agreement"].tobytes() == p.tobytes(), rounds
        assert fields["msd_desired"].tobytes() == deviations.tobytes(), rounds
        assert fields["source_coverage"].tolist() == coverage.tolist(), rounds
    assert {1, 2} <= set(n_desired.tolist()) and agreed.any() and not agreed.all()


@pytest.mark.parametrize("n", [20, 80, 320])
def test_relay_block_holds_at_most_2_11_estimate_values(n):
    cfg = tiny_config(mode="follow", n_agents=n, target_agent=1)
    relay = AnchorRelay(cfg, link_index(path_adjacency(n)), np.zeros((2, 2)), False)
    assert relay.block.size <= 2 ** 11
    assert relay.block_models.size >= 1


def test_long_follow_trial_peaks_as_one_capped_at_paper_length():
    # the relay's block is fixed in size, so beyond the record curves,
    # which hold every round, a run of 4000 rounds holds what one of 1400 does
    config = ExperimentConfig.for_mode("follow", n_trials=1)
    seed = trial_seeds(0, 1)[0]
    run_single_trial(config.replace(max_iters=50), seed)
    (short, _), short_peak = traced_peak(lambda: run_single_trial(config, seed))
    (long, _), long_peak = traced_peak(
        lambda: run_single_trial(config.replace(max_iters=4000), seed))
    assert (short.n_iters, long.n_iters) == (1400, 4000)

    def curve_bytes(record):
        return sum(curve.nbytes for curve in (
            record.msd_observed, record.msd_desired, record.all_agreed,
            record.n_desired_models, record.source_coverage))

    allowance = curve_bytes(long) - curve_bytes(short)
    assert long_peak <= 1.1 * short_peak + allowance, (long_peak, short_peak, allowance)
