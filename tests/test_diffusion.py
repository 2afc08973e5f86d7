"""Adaptation step, divergence guard, and the belief-smoothing stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecide.config import ExperimentConfig
from netdecide.decision import run_decision
from netdecide.diffusion import (DivergenceError, adapt, aggregate,
                                 believed_neighborhoods,
                                 check_divergence, combination_weights,
                                 update_cluster_matrices)
from netdecide.network import (DataStream, build_streams, draw_noise_profile,
                               generate_models, generate_topology, link_grid,
                               link_index)

from conftest import NOISE_RANGES, build_world
from test_links import dense, everyone


def test_adapt_zero_regressor_is_identity():
    psi = np.array([[0.3, -0.7], [1.0, 2.0]])
    out = adapt(psi, np.zeros((2, 2)), np.array([5.0, -5.0]), 0.01)
    assert np.array_equal(out, psi)


def test_adapt_single_step_hand_value():
    psi = np.zeros((1, 2))
    out = adapt(psi, np.array([[1.0, 0.0]]), np.array([1.0]), 0.01)
    assert np.allclose(out, [[0.01, 0.0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adapt_matches_per_agent_loop(seed):
    g = np.random.default_rng(seed)
    n, dim = 5, 2
    psi = g.normal(size=(n, dim))
    u = g.normal(size=(n, dim))
    d = g.normal(size=n)
    mu = 0.05
    got = adapt(psi, u, d, mu)
    for k in range(n):
        err = d[k] - u[k] @ psi[k]
        assert np.allclose(got[k], psi[k] + mu * err * u[k])


def test_adapt_converges_on_noiseless_stream():
    g = np.random.default_rng(0)
    w = np.array([[0.4, -0.9]])
    psi = np.zeros((1, 2))
    for _ in range(10_000):
        u = g.normal(size=(1, 2))
        d = u @ w[0]
        psi = adapt(psi, u, d, 0.01)
    assert ((psi - w) ** 2).sum() < 1e-6


def test_check_divergence_names_the_agent():
    psi = np.array([[0.0, 0.0], [1e6, 0.0], [0.0, 0.0]])
    check_divergence(psi, bound=1e7)
    with pytest.raises(DivergenceError, match="agent 2"):
        check_divergence(psi, bound=1e3)
    with pytest.raises(DivergenceError, match="agent 3"):
        check_divergence(np.array([[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]]), 1e3)


def test_initial_cluster_state_is_self_only():
    # the loop starts from the identity: each agent believes only in
    # itself, and one round of far-off estimates cannot undo that
    psi = np.arange(8.0).reshape(4, 2) * 10
    smoothed = update_cluster_matrices(np.eye(4), psi, -psi, alpha=0.04, smoothing=0.005,
                                       links=everyone(4))
    assert np.array_equal(believed_neighborhoods(smoothed, everyone(4)), np.eye(4, dtype=bool))
    assert np.allclose(smoothed, 0.995 * np.eye(4))


def test_belief_gate_requires_both_proximity_and_link():
    psi = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    phi_prev = psi.copy()
    adjacency = np.ones((3, 3), dtype=bool)
    adjacency[0, 2] = adjacency[2, 0] = False
    grid = link_grid(adjacency)
    smoothed = update_cluster_matrices(np.eye(3), psi, phi_prev, alpha=0.04, smoothing=1.0,
                                       links=grid)
    want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    # a gain of 1 makes the smoothed state the instantaneous indicator
    assert np.array_equal(smoothed, want.astype(float))
    assert np.array_equal(believed_neighborhoods(smoothed, grid), want)


def test_smoothing_single_step_is_innovation_gain():
    # one round of a steady indicator moves the state by the gain only;
    # a fresh pair sits at 0.005, far below the 0.5 belief threshold
    psi = np.zeros((2, 2))
    out = update_cluster_matrices(np.zeros((2, 2)), psi, psi, alpha=0.04, smoothing=0.005,
                                  links=everyone(2))
    assert np.allclose(out, 0.005)
    assert not (out >= 0.5).any()


def test_belief_forms_after_sustained_proximity():
    # closed form: smoothed after t steady rounds is 1 - 0.995^t, which
    # first crosses 0.5 at t = ceil(ln 0.5 / ln 0.995) = 139
    smoothed = 0.0
    t = 0
    while smoothed < 0.5:
        smoothed = 0.995 * smoothed + 0.005
        t += 1
    assert t == 139
    # two agents whose estimates coincide from round 1, on either layout:
    # the link between them is believed from round 139 on, and not before
    psi = np.zeros((2, 2))
    for links in (everyone(2), link_index(np.ones((2, 2), dtype=bool))):
        smoothed = (links.rows == links.cols).astype(float)
        between = np.broadcast_to(links.rows != links.cols, smoothed.shape)
        for i in range(1, 141):
            smoothed = update_cluster_matrices(smoothed, psi, psi, alpha=0.04,
                                               smoothing=0.005, links=links)
            believed = believed_neighborhoods(smoothed, links)
            assert (believed[between] == (i >= 139)).all()
            assert believed[~between].all()


def test_established_belief_is_a_fixed_point():
    psi = np.zeros((1, 2))
    out = update_cluster_matrices(np.ones((1, 1)), psi, psi, alpha=0.04, smoothing=0.005,
                                  links=everyone(1))
    assert out[0, 0] == 1.0


def test_belief_tie_at_half_rounds_up():
    # two agents that believed in each other drift apart for one round
    # at gain 0.5: the off-diagonal state lands exactly on the tie
    psi = np.zeros((2, 2))
    out = update_cluster_matrices(np.ones((2, 2)), psi, psi + 10.0, alpha=0.04,
                                  smoothing=0.5, links=everyone(2))
    assert out[0, 1] == 0.5 and out[1, 0] == 0.5
    assert believed_neighborhoods(out, everyone(2)).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_smoothed_state_stays_in_unit_interval(seed):
    g = np.random.default_rng(seed)
    n = 4
    smoothed = np.eye(n)
    for _ in range(30):
        psi = g.normal(size=(n, 2))
        phi = g.normal(size=(n, 2))
        smoothed = update_cluster_matrices(smoothed, psi, phi, alpha=1.0,
                                           smoothing=g.uniform(0, 1), links=everyone(n))
        assert (smoothed >= 0.0).all() and (smoothed <= 1.0).all()


def test_believed_neighborhoods_always_include_self():
    smoothed = np.zeros((3, 3))
    smoothed[0, 1] = 0.7
    smoothed[1, 0] = 0.3
    support = believed_neighborhoods(smoothed, everyone(3))
    assert support.diagonal().all()
    assert support[0, 1]
    assert not support[1, 0]


def test_combination_weights_are_uniform_over_support():
    support = np.zeros((6, 6), dtype=bool)
    support[:4, 0] = True
    np.fill_diagonal(support, True)
    weights = combination_weights(support, everyone(6))
    assert np.allclose(weights[:4, 0], 0.25)
    assert np.allclose(weights[4:, 0], 0.0)
    assert weights[5, 5] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combination_columns_are_stochastic(seed):
    g = np.random.default_rng(seed)
    n = 6
    support = g.random((n, n)) < 0.4
    np.fill_diagonal(support, True)
    weights = combination_weights(support, everyone(n))
    assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-12)
    assert (weights[~support] == 0).all()


def test_combination_weights_reject_empty_column():
    support = np.eye(3, dtype=bool)
    support[1, 1] = False
    with pytest.raises(ValueError):
        combination_weights(support, everyone(3))


def test_aggregate_identity_and_mean():
    psi = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(aggregate(np.eye(2), psi, everyone(2)), psi)
    half = np.full((2, 2), 0.5)
    assert np.allclose(aggregate(half, psi, everyone(2)), [[0.5, 0.5], [0.5, 0.5]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_aggregate_stays_in_convex_hull(seed):
    g = np.random.default_rng(seed)
    n = 5
    psi = g.normal(size=(n, 2)) * 3
    support = g.random((n, n)) < 0.5
    np.fill_diagonal(support, True)
    phi = aggregate(combination_weights(support, everyone(n)), psi, everyone(n))
    for j in range(2):
        assert (phi[:, j] >= psi[:, j].min() - 1e-12).all()
        assert (phi[:, j] <= psi[:, j].max() + 1e-12).all()


@pytest.mark.parametrize("seed", range(10))
def test_beliefs_recover_cluster_structure(seed):
    """Two well-separated models: after the belief lag has long passed,
    linked pairs believe in each other exactly when they share a model."""
    n, n_rounds = 16, 600
    adjacency = dense(generate_topology(n, max_degree=7, radius=0.55, seed=seed)[1])
    grid = link_grid(adjacency)
    models = generate_models(2, 2, (-1.0, 1.0), seed=seed + 100,
                             min_separation_sq=0.32)
    assignment = np.arange(n) % 2
    observed = models[assignment]
    noise = draw_noise_profile(n, 2, seed=seed + 200, **NOISE_RANGES)
    streams = build_streams(*noise, seed + 300)
    psi = np.zeros((n, 2))
    phi = np.zeros((n, 2))
    smoothed = np.eye(n)
    for i in range(1, n_rounds + 1):
        d, u = streams.data.round(i, observed)
        psi = adapt(psi, u, d, 0.01)
        smoothed = update_cluster_matrices(smoothed, psi, phi, alpha=0.04, smoothing=0.005,
                                           links=grid)
        phi = aggregate(combination_weights(believed_neighborhoods(smoothed, grid), grid),
                        psi, grid)
    same_model = assignment[:, None] == assignment[None, :]
    linked = adjacency & ~np.eye(n, dtype=bool)
    assert np.array_equal(believed_neighborhoods(smoothed, grid)[linked], same_model[linked])


@pytest.mark.parametrize("reg_power_range", [(2.0, 2.0), NOISE_RANGES["reg_power_range"]])
def test_steady_state_msd_matches_stand_alone_lms(reg_power_range):
    # each agent runs LMS on its own data, whose steady-state deviation is
    # mu sigma_v^2 M / 2 whatever the regressor power, and phi averages its
    # closed neighborhood's independent errors. Adapt-then-combine
    # diffusion would read about 14 times lower, and the form
    # mu sigma_v^2 tr(R) / 2 is twice this one at regressor power 2
    config = ExperimentConfig.for_mode("decide", n_models=1, early_stop=False,
                                       max_iters=2000, reg_power_range=reg_power_range)
    links, models, assignment, streams = build_world(config, seed=0)
    sigma_v2, _ = draw_noise_profile(config.n_agents, config.dim, seed=3,
                                     sigma_v2_range=config.sigma_v2_range,
                                     reg_power_range=reg_power_range)
    record = run_decision(config, links, models, assignment, streams)
    adjacency = dense(links)
    predicted = (config.step_size * config.dim / 2
                 * (adjacency @ sigma_v2) / adjacency.sum(axis=0) ** 2).mean()
    assert record.msd_observed[1000:2000, 0].mean() == pytest.approx(predicted, rel=0.25)
