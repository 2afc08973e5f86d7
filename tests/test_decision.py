"""Switching logic, split-weight estimates, and the round verifier."""

import numpy as np
import pytest

from conftest import build_world, tiny_config
from netdecide.decision import (InvariantViolation, apply_switching,
                                run_decision, switch_decision,
                                update_desired_matrices, update_estimate,
                                verify_round)
from netdecide.diffusion import (ClusterMatrices, aggregate,
                                 believed_neighborhoods, combination_weights)
from netdecide.labeling import view_from_closeness
from netdecide.network import Topology, pairwise_close
from test_labeling import block_matrix


def full_topology(n):
    return Topology(np.ones((n, n), dtype=bool), np.zeros((n, 2)))


def test_desired_matrices_all_fresh_when_everyone_agrees():
    w_prev = np.tile([0.4, -0.2], (4, 1))
    psi = w_prev + 0.01
    matrices = update_desired_matrices(w_prev, psi, np.ones((4, 4), dtype=bool),
                                       0.08, pairwise_close(w_prev, 0.08))
    assert matrices.linked.all()
    assert np.allclose(matrices.hold, 0.0)
    assert np.allclose(matrices.fresh, matrices.weights)


def test_desired_matrices_route_far_neighbors_to_hold():
    w_prev = np.zeros((3, 2))
    psi = np.zeros((3, 2))
    psi[1] = [10.0, 10.0]
    matrices = update_desired_matrices(w_prev, psi, np.ones((3, 3), dtype=bool),
                                       0.08, pairwise_close(w_prev, 0.08))
    # agent 1 still looks linked through w_prev, but its adaptation
    # output rides the hold route in every column
    assert np.allclose(matrices.fresh[1], 0.0)
    assert np.allclose(matrices.hold[1], matrices.weights[1])
    assert np.allclose(matrices.hold[0], 0.0)


def test_desired_matrices_split_properties(rng):
    for _ in range(50):
        n = 6
        w_prev = rng.normal(size=(n, 2))
        psi = rng.normal(size=(n, 2))
        adjacency = rng.random((n, n)) < 0.6
        adjacency |= adjacency.T
        np.fill_diagonal(adjacency, True)
        matrices = update_desired_matrices(w_prev, psi, adjacency, 0.5,
                                           pairwise_close(w_prev, 0.5))
        assert np.allclose(matrices.fresh + matrices.hold, matrices.weights)
        assert not ((matrices.fresh > 0) & (matrices.hold > 0)).any()
        assert np.allclose(matrices.weights.sum(axis=0), 1.0, atol=1e-12)
        assert ((matrices.weights > 0) <= (matrices.linked & adjacency)).all()


def test_update_estimate_pure_fresh_returns_aggregates():
    from netdecide.decision import DesiredMatrices
    phi = np.array([[1.0, 2.0], [3.0, 4.0]])
    w_prev = np.array([[9.0, 9.0], [8.0, 8.0]])
    eye = np.eye(2)
    m = DesiredMatrices(linked=np.eye(2, dtype=bool), weights=eye,
                        fresh=eye, hold=np.zeros((2, 2)))
    assert np.array_equal(update_estimate(phi, w_prev, m), phi)
    m = DesiredMatrices(linked=np.eye(2, dtype=bool), weights=eye,
                        fresh=np.zeros((2, 2)), hold=eye)
    assert np.array_equal(update_estimate(phi, w_prev, m), w_prev)


def test_update_estimate_mixed_routes_hand_value():
    # agent 0 takes half its weight fresh from agent 1's aggregate [1, 1]
    # and half held from agent 2's previous estimate [0, 0]
    phi = np.array([[9.0, 9.0], [1.0, 1.0], [9.0, 9.0]])
    w_prev = np.array([[9.0, 9.0], [9.0, 9.0], [0.0, 0.0]])
    fresh = np.zeros((3, 3))
    hold = np.zeros((3, 3))
    fresh[1, 0] = 0.5
    hold[2, 0] = 0.5
    from netdecide.decision import DesiredMatrices
    m = DesiredMatrices(linked=np.ones((3, 3), dtype=bool),
                        weights=fresh + hold, fresh=fresh, hold=hold)
    out = update_estimate(phi, w_prev, m)
    assert np.allclose(out[0], [0.5, 0.5])


def test_switch_keeps_estimate_when_view_is_unanimous(rng):
    view = view_from_closeness(1, np.ones((4, 4), dtype=bool), np.arange(4))
    assert switch_decision(1, view, rng) == (None, None)


def test_switch_adopts_lowest_indexed_majority_member(rng):
    close = block_matrix([[0, 2, 3], [1], [4]], 5)
    view = view_from_closeness(1, close, np.arange(5))
    assert switch_decision(1, view, rng) == (0, "majority")
    view4 = view_from_closeness(4, close, np.arange(5))
    assert switch_decision(4, view4, rng) == (0, "majority")


def test_switch_majority_member_stays_with_three_classes(rng):
    close = block_matrix([[0, 1, 2], [3, 4], [5]], 6)
    view = view_from_closeness(0, close, np.arange(6))
    assert switch_decision(0, view, rng) == (None, None)


def test_switch_even_split_draw_matches_member_frequencies():
    # majority member in a 4-vs-2 split: uniform draw over all six
    # members, so the majority block is hit with probability 2/3
    close = block_matrix([[0, 1, 2, 3], [4, 5]], 6)
    view = view_from_closeness(0, close, np.arange(6))
    rng = np.random.default_rng(99)
    n_draws = 10_000
    hits = np.zeros(6, dtype=int)
    for _ in range(n_draws):
        source, case = switch_decision(0, view, rng)
        assert case == "random"
        hits[source] += 1
    majority_hits = hits[:4].sum()
    sigma = np.sqrt(n_draws * (2 / 3) * (1 / 3))
    assert abs(majority_hits - n_draws * 2 / 3) < 3 * sigma
    assert (hits > 0).all()


def test_switch_even_split_respects_equilibrium_flag(rng):
    close = block_matrix([[0, 1], [2, 3]], 4)
    view = view_from_closeness(0, close, np.arange(4))
    assert switch_decision(0, view, rng, equilibrium_break=False) == (None, None)
    source, case = switch_decision(0, view, rng, equilibrium_break=True)
    assert case == "random" and source in range(4)


def test_apply_switching_reads_pre_switch_estimates():
    # agents 0 and 1 adopt each other in the same round; both copies must
    # come from the published pre-switch values
    n = 4
    adjacency = np.eye(n, dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 3)]:
        adjacency[a, b] = adjacency[b, a] = True
    topo = Topology(adjacency, np.zeros((n, 2)))
    close = block_matrix([[1, 2], [0, 3]], n)
    w_prev = np.arange(n * 2, dtype=float).reshape(n, 2)
    rngs = [np.random.default_rng(s) for s in range(n)]
    adopt = np.zeros(n, dtype=int)
    random = np.zeros(n, dtype=int)
    p = np.array([0.5, 0.5, 1.0, 1.0])
    updated, changed = apply_switching(w_prev.copy(), close, topo, p, rngs,
                                       True, adopt, random)
    assert changed
    assert np.array_equal(updated[0], w_prev[1])
    assert np.array_equal(updated[1], w_prev[0])
    assert np.array_equal(updated[2:], w_prev[2:])
    assert adopt.tolist() == [1, 1, 0, 0]
    assert random.sum() == 0


def test_apply_switching_skips_agreeing_agents():
    n = 3
    topo = full_topology(n)
    close = block_matrix([[0], [1], [2]], n)
    w_prev = np.arange(n * 2, dtype=float).reshape(n, 2)
    rngs = [np.random.default_rng(s) for s in range(n)]
    updated, changed = apply_switching(w_prev.copy(), close, topo,
                                       np.ones(n), rngs, True,
                                       np.zeros(n, dtype=int),
                                       np.zeros(n, dtype=int))
    assert not changed
    assert np.array_equal(updated, w_prev)


def healthy_round(n=4, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = np.ones((n, n), dtype=bool)
    psi = rng.normal(size=(n, 2)) * 0.01
    w_prev = psi.copy()
    smoothed = np.ones((n, n)) * 0.9
    cluster = ClusterMatrices(raw=np.ones((n, n), dtype=bool),
                              smoothed=smoothed, beliefs=smoothed >= 0.5)
    support = believed_neighborhoods(cluster.beliefs)
    combination = combination_weights(support)
    phi = aggregate(combination, psi)
    close = pairwise_close(w_prev, 0.5)
    matrices = update_desired_matrices(w_prev, psi, adjacency, 0.5, close)
    return dict(combination=combination, support=support, cluster=cluster,
                matrices=matrices, close=close, adjacency=adjacency,
                phi=phi, psi=psi)


def test_verify_round_accepts_consistent_state():
    verify_round(**healthy_round())


@pytest.mark.parametrize("corrupt", [
    lambda r: r["combination"].__setitem__((0, 0), 2.0),
    lambda r: r["support"].__setitem__((0, 1), False),
    lambda r: r["close"].__setitem__((0, 1), False),
    lambda r: r["cluster"].smoothed.__setitem__((0, 0), 0.2),
    lambda r: r["cluster"].smoothed.__setitem__((0, 0), 1.5),
    lambda r: r["matrices"].hold.__setitem__((0, 0), 0.1),
    lambda r: r["matrices"].fresh.__setitem__((0, 0), 0.7),
    lambda r: r["phi"].__setitem__((0, 0), 99.0),
])
def test_verify_round_rejects_corruption(corrupt):
    round_state = healthy_round()
    corrupt(round_state)
    with pytest.raises(InvariantViolation):
        verify_round(**round_state)


def test_run_decision_smoke_with_invariants():
    cfg = tiny_config(max_iters=250, early_stop=False)
    topo, models, streams = build_world(cfg, seed=1)
    record = run_decision(cfg, topo, models, streams,
                          check_invariants=True)
    assert record.n_iters == 250
    assert record.msd_observed.shape == (250, 2)
    assert record.final_w.shape == (20, 2)
    assert not record.diverged


def test_single_model_network_never_switches():
    cfg = tiny_config(n_models=1, max_iters=400)
    topo, models, streams = build_world(cfg, seed=5)
    record = run_decision(cfg, topo, models, streams)
    assert record.success
    assert record.switch_adopt.sum() == 0
    assert record.switch_random.sum() == 0
    assert record.final_model == 0


def test_early_stop_matches_full_run_outcome():
    cfg_stop = tiny_config(max_iters=700)
    cfg_full = cfg_stop.replace(early_stop=False)
    world = build_world(cfg_full, seed=9)
    stopped = run_decision(cfg_stop, *world)
    full = run_decision(cfg_full, *world)
    assert stopped.n_iters <= full.n_iters
    assert stopped.success == full.success
    assert stopped.final_model == full.final_model
    if stopped.success and stopped.n_iters < full.n_iters:
        # once the stop condition fires the network stays agreed
        assert full.all_agreed[stopped.n_iters - 1:].all()
