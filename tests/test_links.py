"""The link-only round of static networks against test-local dense oracles.

Static runs keep every per-pair quantity as one value per link of the
adjacency and sum over links with ``np.bincount``; mobile runs keep N x N
arrays. Each link-form stage must give the bytes of a dense N x N
computation with the same arithmetic, so the sign of zero counts too, and
so does a test at its threshold, where a one-ulp difference in a distance
would flip it. Every distance comes from the one kernel,
``squared_distances``, at links, at view member pairs or as a matrix.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecide.config import ExperimentConfig
from netdecide.decision import run_decision, update_desired_matrices, update_estimate
from netdecide.diffusion import (aggregate, believed_neighborhoods, combination_weights,
                                 update_cluster_matrices)
from netdecide.follow import follow_matrices
from netdecide.labeling import agreement_vector, view_from_closeness
from netdecide.network import (ModelSet, build_streams, draw_noise_profile,
                               generate_models, generate_topology, link_index,
                               pairwise_close, random_assignment, squared_distances)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def estimates(g, n, dim=2):
    """(n, dim) estimates: grid points a half apart, whose distances are
    exact, mixed with normal draws, and some rows copied onto others."""
    out = np.where(g.random((n, 1)) < 0.5, g.integers(-2, 3, size=(n, dim)) / 2,
                   g.normal(size=(n, dim)) * 0.4)
    copies = g.integers(0, n, size=n // 4)
    out[copies] = out[g.integers(0, n, size=copies.size)]
    return out


def threshold(g, d2, links):
    """A threshold that one linked distance meets exactly, or the grid's 0.25.

    Distances near 0 are left out: an agent's distance to itself can
    exceed them, which would leave its column of the decide split empty.
    """
    d2 = d2[links.rows, links.cols]
    d2 = d2[d2 > 1e-6]
    return float(g.choice(d2)) if d2.size and g.random() < 0.7 else 0.25


def dense_sums(weights, x):
    """Column sums of weights[l, k] * x_l over every l in ascending order,
    starting from +0.0: the arithmetic of the link sums, on all N x N pairs."""
    out = np.zeros((weights.shape[1], x.shape[1]))
    for l in range(len(x)):
        out += weights[l][:, None] * x[l]
    return out


def dense_update(fresh, hold, phi, w_prev):
    """The estimate update as :func:`dense_sums` adds it: one term
    fresh * phi_l + hold * w_prev_l per pair."""
    out = np.zeros(phi.shape)
    for l in range(len(phi)):
        out += fresh[l][:, None] * phi[l] + hold[l][:, None] * w_prev[l]
    return out


def dense_view(close, views):
    """Label classes of ``views`` read from the N x N closeness ``close``:
    ``(slots, same)`` as :func:`view_from_closeness` returns them."""
    width = views.sum(axis=1)
    valid = np.arange(width.max()) < width[:, None]
    slots = np.full(valid.shape, -1)
    slots[valid] = np.nonzero(views)[1]
    block = close[slots[:, :, None], slots[:, None, :]] & valid[:, :, None]
    columns = block.transpose(0, 2, 1)
    same = (columns[:, :, None, :] == columns[:, None, :, :]).all(axis=3)
    return slots, same & valid[:, :, None] & valid[:, None, :]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.02, 1.0),
       st.integers(1, 4))
def test_link_round_equals_dense_round(seed, n, density, dim):
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    links = link_index(adjacency)
    at = (links.rows, links.cols)
    degrees = adjacency.sum(axis=0)
    psi, phi, w_prev, anchors = (estimates(g, n, dim) for _ in range(4))

    for x, y in ((psi, phi), (psi, anchors), (w_prev, w_prev)):
        assert same_bits(squared_distances(x, y, *at), squared_distances(x, y)[at])
    assert same_bits(squared_distances(psi, None, *at), squared_distances(psi)[at])

    # beliefs, some smoothed entries exactly on the 0.5 tie
    smoothed = np.where(g.random((n, n)) < 0.2, 0.5, g.random((n, n)))
    support = believed_neighborhoods(smoothed) & adjacency
    assert same_bits(believed_neighborhoods(smoothed[at], links), support[at])
    alpha = threshold(g, squared_distances(psi, phi), links)
    smoothing = float(g.choice([0.005, 0.5, 1.0, g.random()]))
    assert same_bits(
        update_cluster_matrices(smoothed[at], psi, phi, adjacency, alpha, smoothing, links),
        update_cluster_matrices(smoothed, psi, phi, adjacency, alpha, smoothing)[at])

    # weights and the aggregation sums
    weights = combination_weights(support)
    assert same_bits(combination_weights(support[at], links), weights[at])
    assert same_bits(aggregate(weights[at], psi, links), dense_sums(weights, psi))

    # closeness, agreement and the decide split on the links whose previous
    # desired estimates are close
    beta = threshold(g, squared_distances(psi, w_prev), links)
    close = pairwise_close(w_prev, beta)
    assert same_bits(pairwise_close(w_prev, beta, links), close[at])
    assert same_bits(agreement_vector(close[at], degrees, links),
                     agreement_vector(close & adjacency, degrees))
    fresh, hold = update_desired_matrices(close & adjacency, psi, w_prev, beta)
    got = update_desired_matrices(close[at], psi, w_prev, beta, links)
    assert same_bits(got[0], fresh[at]) and same_bits(got[1], hold[at])
    assert not fresh[~adjacency].any() and not hold[~adjacency].any()
    assert same_bits(update_estimate(phi, w_prev, *got, links),
                     dense_update(fresh, hold, phi, w_prev))

    # the follow split: links between informed agents, and every self-link
    sources = np.where(g.random(n) < 0.6, g.integers(1, n + 1, size=n), 0)
    beta = threshold(g, squared_distances(psi, anchors), links)
    informed = sources > 0
    linked = adjacency & informed[:, None] & informed[None, :]
    np.fill_diagonal(linked, True)
    want = update_desired_matrices(linked, psi, anchors, beta)
    got = follow_matrices(anchors, sources, psi, links, beta)
    assert all(same_bits(a, b[at]) for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.0, 1.0),
       st.integers(1, 3))
def test_views_read_the_dense_relation(seed, n, density, dim):
    # the switch stage computes closeness at its views' member pairs only
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    points = estimates(g, n, dim)
    t = threshold(g, squared_distances(points), link_index(adjacency))
    views = adjacency[g.random(n) < 0.7]
    if not len(views):
        views = adjacency[:1]
    got = view_from_closeness(points, t, views)
    want = dense_view(pairwise_close(points, t), views)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.booleans())
def test_pairwise_close_equals_clamped_test(seed, n, with_nan):
    # the kernel's squares are never negative, so no clamp guards the test;
    # the symmetrized test must agree, at a threshold of 0 and on a NaN row
    g = np.random.default_rng(seed)
    points = estimates(g, n)
    if with_nan:
        points[g.integers(0, n)] = np.nan
    d2 = squared_distances(points)
    for t in (0.0, 0.25, float(d2[g.integers(0, n), g.integers(0, n)])):
        want = d2 <= t
        want &= want.T
        assert np.array_equal(pairwise_close(points, t), want)


def test_decide_round_holds_no_n_by_n_float_array():
    # N = 1280: one N x N float64 array is 13.1 MB, far above what the
    # link-only round needs; the world is built before measuring
    n = 1280
    config = ExperimentConfig.for_mode("decide", n_agents=n, radius=0.06,
                                       max_iters=4, t_hold=4, n_trials=1)
    topology = generate_topology(n, config.max_degree, config.radius, seed=0)
    models = generate_models(config.n_models, config.dim, config.model_range, seed=1,
                             min_separation_sq=4.0 * config.beta)
    models = ModelSet(models.models, random_assignment(n, models.n_models,
                                                       np.random.default_rng(2)))
    noise = draw_noise_profile(n, config.dim, seed=3, sigma_v2_range=config.sigma_v2_range,
                               reg_power_range=config.reg_power_range)
    streams = build_streams(*noise, config.max_iters, 4)
    tracemalloc.start()
    try:
        record = run_decision(config, topology, models, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.n_iters == 4
    assert peak < n * n * 8, peak
