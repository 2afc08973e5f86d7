"""Switching logic, split-weight estimates, and the round verifier."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_world, tiny_config
from netdecide.decision import (InvariantViolation, apply_switching,
                                run_decision, update_desired_matrices,
                                update_estimate, verify_round)
from netdecide.diffusion import (aggregate, believed_neighborhoods,
                                 combination_weights)
from netdecide.network import link_index, pairwise_close
from test_labeling import THRESHOLD, block_points, switch_sources
from test_links import dense_view, estimates


def desired_split(w_prev, psi, adjacency, threshold):
    """The decide split: linked where previous desired estimates are close."""
    linked = pairwise_close(w_prev, threshold) & adjacency
    return update_desired_matrices(linked, psi, w_prev, threshold)


def test_desired_matrices_all_fresh_when_everyone_agrees():
    w_prev = np.tile([0.4, -0.2], (4, 1))
    psi = w_prev + 0.01
    fresh, hold = desired_split(w_prev, psi, np.ones((4, 4), dtype=bool), 0.08)
    assert np.allclose(hold, 0.0)
    assert np.allclose(fresh, 0.25)


def test_desired_matrices_route_far_neighbors_to_hold():
    w_prev = np.zeros((3, 2))
    psi = np.zeros((3, 2))
    psi[1] = [10.0, 10.0]
    fresh, hold = desired_split(w_prev, psi, np.ones((3, 3), dtype=bool), 0.08)
    # agent 1 still looks linked through w_prev, but its adaptation
    # output rides the hold route in every column
    assert np.allclose(fresh[1], 0.0)
    assert np.allclose(hold[1], 1 / 3)
    assert np.allclose(hold[0], 0.0)


def test_desired_matrices_split_properties(rng):
    for _ in range(50):
        n = 6
        w_prev = rng.normal(size=(n, 2))
        psi = rng.normal(size=(n, 2))
        adjacency = rng.random((n, n)) < 0.6
        adjacency |= adjacency.T
        np.fill_diagonal(adjacency, True)
        linked = pairwise_close(w_prev, 0.5) & adjacency
        fresh, hold = desired_split(w_prev, psi, adjacency, 0.5)
        assert np.allclose(fresh + hold, combination_weights(linked))
        assert not ((fresh > 0) & (hold > 0)).any()
        assert np.allclose((fresh + hold).sum(axis=0), 1.0, atol=1e-12)
        assert ((fresh + hold > 0) == linked).all()


def test_update_estimate_pure_fresh_returns_aggregates():
    phi = np.array([[1.0, 2.0], [3.0, 4.0]])
    w_prev = np.array([[9.0, 9.0], [8.0, 8.0]])
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    assert np.array_equal(update_estimate(phi, w_prev, eye, zero), phi)
    assert np.array_equal(update_estimate(phi, w_prev, zero, eye), w_prev)


def test_update_estimate_mixed_routes_hand_value():
    # agent 0 takes half its weight fresh from agent 1's aggregate [1, 1]
    # and half held from agent 2's previous estimate [0, 0]
    phi = np.array([[9.0, 9.0], [1.0, 1.0], [9.0, 9.0]])
    w_prev = np.array([[9.0, 9.0], [9.0, 9.0], [0.0, 0.0]])
    fresh = np.zeros((3, 3))
    hold = np.zeros((3, 3))
    fresh[1, 0] = 0.5
    hold[2, 0] = 0.5
    out = update_estimate(phi, w_prev, fresh, hold)
    assert np.allclose(out[0], [0.5, 0.5])


def test_switch_keeps_estimate_when_view_is_unanimous():
    # the stage itself keeps a one-class view, whatever p_k reads
    assert switch_sources([range(4)], 4, [1]) == ([0, 1, 2, 3], [], [])


def test_switch_adopts_lowest_indexed_majority_member():
    assert switch_sources([[0, 2, 3], [1], [4]], 5, [1, 4]) == ([0, 0, 2, 3, 0], [1, 4], [])


def test_switch_majority_member_stays_with_three_classes():
    assert switch_sources([[0, 1, 2], [3, 4], [5]], 6, [0]) == ([0, 1, 2, 3, 4, 5], [], [])


def test_switch_even_split_draw_matches_member_frequencies():
    # majority members in a 4-vs-2 split: uniform draws over all six
    # members, so the majority block is hit with probability 2/3; the four
    # members share one generator and draw in ascending order
    blocks = [[0, 1, 2, 3], [4, 5]]
    rng = np.random.default_rng(99)
    n_calls = 2_500
    hits = np.zeros(6, dtype=int)
    for _ in range(n_calls):
        sources, adopted, drawn = switch_sources(blocks, 6, range(4), rngs=[rng] * 6)
        assert drawn == [0, 1, 2, 3] and adopted == []
        np.add.at(hits, sources[:4], 1)
    n_draws = 4 * n_calls
    majority_hits = hits[:4].sum()
    sigma = np.sqrt(n_draws * (2 / 3) * (1 / 3))
    assert abs(majority_hits - n_draws * 2 / 3) < 3 * sigma
    assert (hits > 0).all()


def test_switch_even_split_respects_equilibrium_flag():
    blocks = [[0, 1], [2, 3]]
    assert switch_sources(blocks, 4, [0], equilibrium_break=False) == ([0, 1, 2, 3], [], [])
    sources, adopted, drawn = switch_sources(blocks, 4, [0], equilibrium_break=True)
    assert drawn == [0] and adopted == [] and sources[0] in range(4)


def test_apply_switching_reads_pre_switch_estimates():
    # agents 0 and 1 adopt each other in the same round; both copies must
    # come from the published pre-switch values
    n = 4
    adjacency = np.eye(n, dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 3)]:
        adjacency[a, b] = adjacency[b, a] = True
    w_prev = block_points([[1, 2], [0, 3]], n)
    rngs = [np.random.default_rng(s) for s in range(n)]
    p = np.array([0.5, 0.5, 1.0, 1.0])
    updated, adopted, drawn = apply_switching(w_prev.copy(), THRESHOLD, adjacency, p,
                                              rngs, True)
    assert np.array_equal(updated[0], w_prev[1])
    assert np.array_equal(updated[1], w_prev[0])
    assert np.array_equal(updated[2:], w_prev[2:])
    assert adopted.tolist() == [0, 1]
    assert drawn.size == 0


def test_apply_switching_skips_agreeing_agents():
    n = 3
    w_prev = block_points([[0], [1], [2]], n)
    rngs = [np.random.default_rng(s) for s in range(n)]
    updated, adopted, drawn = apply_switching(w_prev.copy(), THRESHOLD,
                                              np.ones((n, n), dtype=bool),
                                              np.ones(n), rngs, True)
    assert adopted.size == 0 and drawn.size == 0
    assert np.array_equal(updated, w_prev)


def per_agent_view(agent, close, members):
    """One agent's view built alone: ``(members, classes, majority)``, the
    classes grouped by identical closeness columns."""
    matrix = close[np.ix_(members, members)]
    groups = {}
    for pos in range(len(members)):
        groups.setdefault(matrix[:, pos].tobytes(), []).append(pos)
    classes = sorted((np.sort(members[idx]) for idx in groups.values()),
                     key=lambda c: int(c[0]))
    best = max(len(c) for c in classes)
    candidates = [c for c in classes if len(c) == best]
    majority = next((c for c in candidates if agent in c), candidates[0])
    return members, classes, majority


def per_agent_switching(w_prev, close, adjacency, p, rngs, equilibrium_break):
    """The switch stage one agent at a time: the reference
    :func:`apply_switching` must reproduce, draws and generator states
    included."""
    updated = w_prev.copy()
    adopted, drawn = [], []
    for k in np.flatnonzero(p < 1.0):
        members, classes, majority = per_agent_view(k, close,
                                                    np.flatnonzero(adjacency[k]))
        if k not in majority:
            updated[k] = w_prev[int(majority.min())]
            adopted.append(k)
        elif equilibrium_break and len(classes) == 2:
            updated[k] = w_prev[int(members[rngs[k].integers(0, len(members))])]
            drawn.append(k)
    return updated, adopted, drawn


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
       link=st.floats(0.0, 1.0), groups=st.integers(1, 5),
       spread=st.floats(0.0, 0.3), grid=st.booleans(),
       flips=st.one_of(st.just(0.0), st.floats(0.0, 0.3)), pending=st.floats(0.0, 1.0),
       equilibrium_break=st.booleans())
@example(seed=0, n=80, link=1.0, groups=2, spread=0.0, grid=False, flips=0.0, pending=1.0,
         equilibrium_break=True)
def test_apply_switching_matches_per_agent_path(seed, n, link, groups, spread, grid,
                                                flips, pending, equilibrium_break):
    # views up to 80 wide, so labels span up to 10 bytes. Estimates sit
    # around group centers 0.3 apart, scattered so that closeness need not
    # be transitive, or on a grid whose distances meet the threshold
    # exactly. Flipped pairs give relations no estimates need realize; the
    # switch stage then reads its views from that relation
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < link, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    if grid:
        w_prev = estimates(rng, n)
        threshold = 0.25
    else:
        label = rng.integers(0, groups, size=n)
        w_prev = np.column_stack([0.3 * label, np.zeros(n)])
        w_prev += rng.normal(size=(n, 2)) * spread
        threshold = THRESHOLD
    flipped = np.triu(rng.random((n, n)) < flips, 1)
    close = pairwise_close(w_prev, threshold) ^ flipped ^ flipped.T
    p = np.where(rng.random(n) < pending, 0.5, 1.0)
    rngs = [np.random.default_rng([seed, k]) for k in range(n)]
    ref_rngs = [np.random.default_rng([seed, k]) for k in range(n)]

    relation = (mock.patch("netdecide.decision.view_from_closeness",
                           lambda points, threshold, views: dense_view(close, views))
                if flipped.any() else nullcontext())
    with relation:
        updated, adopted, drawn = apply_switching(w_prev, threshold, adjacency, p, rngs,
                                                  equilibrium_break)
    ref, ref_adopted, ref_drawn = per_agent_switching(w_prev, close, adjacency, p,
                                                      ref_rngs, equilibrium_break)
    assert np.array_equal(updated, ref)
    assert adopted.tolist() == ref_adopted
    assert drawn.tolist() == ref_drawn
    for got, want in zip(rngs, ref_rngs):
        assert got.bit_generator.state == want.bit_generator.state


def healthy_round(n=4, seed=0):
    """One consistent round on the complete graph, in the link forms
    :func:`verify_round` takes; link l*n + k joins l to k."""
    rng = np.random.default_rng(seed)
    adjacency = np.ones((n, n), dtype=bool)
    links = link_index(adjacency)
    psi = rng.normal(size=(n, 2)) * 0.01
    w_prev = psi.copy()
    smoothed = np.full(n * n, 0.9)
    support = believed_neighborhoods(smoothed, links)
    combination = combination_weights(support, links)
    phi = aggregate(combination, psi, links)
    close = pairwise_close(w_prev, 0.5, links)
    fresh, hold = update_desired_matrices(close, psi, w_prev, 0.5, links)
    return dict(links=links, combination=combination, support=support,
                smoothed=smoothed, fresh=fresh, hold=hold, close=close,
                adjacency=adjacency, w_prev=w_prev, threshold=0.5, n_desired=1,
                phi=phi, psi=psi)


def test_verify_round_accepts_consistent_state():
    verify_round(**healthy_round())


@pytest.mark.parametrize("corrupt", [
    lambda r: r["combination"].__setitem__(0, 2.0),
    lambda r: r["support"].__setitem__(1, False),
    lambda r: r["close"].__setitem__(1, False),
    lambda r: r["adjacency"].__setitem__((0, 1), False),
    lambda r: r["smoothed"].__setitem__(0, 1.5),
    lambda r: r["hold"].__setitem__(0, 0.1),
    lambda r: r["fresh"].__setitem__(0, 0.7),
    lambda r: r["phi"].__setitem__((0, 0), 99.0),
    # just outside the hull, in one coordinate
    lambda r: r["phi"].__setitem__((0, 1), r["psi"][:, 1].max() + 1e-8),
    lambda r: r.__setitem__("n_desired", 2),
    # the links read closeness of other estimates than the dense relation
    lambda r: r["w_prev"].__setitem__((0, 0), 5.0),
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
