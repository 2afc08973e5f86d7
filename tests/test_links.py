"""The round's stages on both layouts of a neighborhood, and the link
sums against test-local dense oracles.

A static network's stages keep one value per link of the adjacency and
sum over links with ``np.bincount``; a swarm's keep N x N arrays. Each
stage must give the same bytes at the links on both layouts, so the sign
of zero counts too, and so does a test at its threshold, where a one-ulp
difference in a distance would flip it; the link sums must give the bytes
of a dense computation with the same arithmetic. Every distance comes
from the one kernel, ``squared_distances``, at links, at view member
pairs or as a matrix.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecide.config import ExperimentConfig
from netdecide.decision import (apply_switching, run_decision, update_desired_matrices,
                                update_estimate)
from netdecide.diffusion import (aggregate, believed_neighborhoods, combination_weights,
                                 update_cluster_matrices)
from netdecide.follow import follow_matrices
from netdecide.labeling import agreement_vector, view_from_closeness
from netdecide.network import (build_streams, draw_noise_profile,
                               generate_models, generate_topology, link_grid,
                               link_index, network_from_json, network_to_json,
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


def old_split(weights, near):
    """``(fresh, hold)``: the weights split by route, the form the
    ``(weights, near)`` of the estimate update replaces, kept as its oracle."""
    fresh = np.where(near, weights, 0.0)
    return fresh, weights - fresh


def dense_update(fresh, hold, phi, w_prev):
    """The estimate update as :func:`dense_sums` adds it: one term
    fresh * phi_l + hold * w_prev_l per pair."""
    out = np.zeros(phi.shape)
    for l in range(len(phi)):
        out += fresh[l][:, None] * phi[l] + hold[l][:, None] * w_prev[l]
    return out


def members_of(views):
    """The ``(members, width)`` of :func:`view_from_closeness` for the
    views marked by the rows of a (P, N) boolean array."""
    return np.nonzero(views)[1], views.sum(axis=1)


def everyone(n):
    """The swarm layout of the complete graph on ``n`` agents."""
    return link_grid(np.ones((n, n), dtype=bool))


def dense(links):
    """The N x N boolean matrix whose True entries are ``links``."""
    out = np.zeros((links.n, links.n), dtype=bool)
    out[links.rows, links.cols] = True
    return out


def dense_view(close, members, width):
    """Label classes of the views of ``members`` and ``width`` read from
    the N x N closeness ``close``: ``(slots, same)`` as
    :func:`view_from_closeness` returns them."""
    valid = np.arange(width.max()) < width[:, None]
    slots = np.full(valid.shape, -1)
    slots[valid] = members
    block = close[slots[:, :, None], slots[:, None, :]] & valid[:, :, None]
    columns = block.transpose(0, 2, 1)
    same = (columns[:, :, None, :] == columns[:, None, :, :]).all(axis=3)
    return slots, same & valid[:, :, None] & valid[:, None, :]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.02, 1.0),
       st.integers(1, 4))
def test_link_round_equals_dense_round(seed, n, density, dim):
    # each stage runs once on the links and once on the swarm layout of the
    # same adjacency; per-pair inputs are the grid's arrays, read at the
    # links for the link layout
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    links, grid = link_index(adjacency), link_grid(adjacency)
    at = (links.rows, links.cols)
    psi, phi, w_prev, anchors = (estimates(g, n, dim) for _ in range(4))

    for x, y in ((psi, phi), (psi, anchors), (w_prev, w_prev)):
        assert same_bits(squared_distances(x, y, *at), squared_distances(x, y)[at])
        assert same_bits(squared_distances(x, y, grid.rows, grid.cols), squared_distances(x, y))
    assert same_bits(squared_distances(psi, None, *at), squared_distances(psi)[at])
    assert same_bits((grid.rows == grid.cols).astype(float), np.eye(n))
    # a swarm's links are rebuilt every round: no run may count on them
    assert not grid.stays_connected
    for layout in (links, grid):
        assert np.array_equal(layout.adjacency(), adjacency)
        assert same_bits(layout.counts(), adjacency.sum(axis=0))
        assert same_bits(layout.counts(axis=1), adjacency.sum(axis=1))

    # beliefs, some smoothed entries exactly on the 0.5 tie
    smoothed = np.where(g.random((n, n)) < 0.2, 0.5, g.random((n, n)))
    support = believed_neighborhoods(smoothed, grid)
    assert same_bits(support, ((smoothed >= 0.5) | np.eye(n, dtype=bool)) & adjacency)
    assert same_bits(believed_neighborhoods(smoothed[at], links), support[at])
    alpha = threshold(g, squared_distances(psi, phi), links)
    smoothing = float(g.choice([0.005, 0.5, 1.0, g.random()]))
    assert same_bits(update_cluster_matrices(smoothed[at], psi, phi, alpha, smoothing, links),
                     update_cluster_matrices(smoothed, psi, phi, alpha, smoothing, grid)[at])

    # weights and the aggregation sums
    weights = combination_weights(support, grid)
    assert same_bits(combination_weights(support[at], links), weights[at])
    assert same_bits(aggregate(weights[at], psi, links), dense_sums(weights, psi))
    assert np.allclose(aggregate(weights, psi, grid), dense_sums(weights, psi))

    # closeness, agreement and the decide split on the links whose previous
    # desired estimates are close
    beta = threshold(g, squared_distances(psi, w_prev), links)
    close = pairwise_close(w_prev, beta, grid)
    assert same_bits(close, (squared_distances(w_prev) <= beta) & adjacency)
    assert same_bits(pairwise_close(w_prev, beta, links), close[at])
    assert same_bits(agreement_vector(close[at], links), agreement_vector(close, grid))
    weights = combination_weights(close, grid)
    near = update_desired_matrices(psi, w_prev, beta, grid)
    got = update_desired_matrices(psi, w_prev, beta, links)
    assert same_bits(got, near[at])
    fresh, hold = old_split(weights, near)
    assert not fresh[~adjacency].any() and not hold[~adjacency].any()
    assert same_bits(update_estimate(phi, w_prev, weights[at], got, links),
                     dense_update(fresh, hold, phi, w_prev))
    assert np.allclose(update_estimate(phi, w_prev, weights, near, grid),
                       dense_update(fresh, hold, phi, w_prev))

    # the follow split: links between informed agents, and every self-link
    informed = g.random(n) < 0.6
    beta = threshold(g, squared_distances(psi, anchors), links)
    linked = adjacency & informed[:, None] & informed[None, :]
    np.fill_diagonal(linked, True)
    want = follow_matrices(informed, grid)
    got = follow_matrices(informed, links)
    assert same_bits(want, combination_weights(linked, grid))
    assert same_bits(got, want[at])
    assert same_bits(update_desired_matrices(psi, anchors, beta, links),
                     update_desired_matrices(psi, anchors, beta, grid)[at])


def signed_zeros(g, values):
    """``values`` with about a third of its entries set to +0.0 or -0.0."""
    zeros = np.where(g.random(values.shape) < 0.5, 0.0, -0.0)
    return np.where(g.random(values.shape) < 0.3, zeros, values)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 1.0),
       st.integers(1, 4))
def test_fused_update_has_the_bits_of_the_split_sums(seed, n, density, dim):
    # a static network weighs each link's routed value in one product; the
    # split sums add a second, signed zero term to it. Zero weights and
    # signed zero estimates make products of either sign, which the sum from
    # +0.0 must not tell apart. A swarm keeps the split's two BLAS products
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    links, grid = link_index(adjacency), link_grid(adjacency)
    at = (links.rows, links.cols)
    support = adjacency & (g.random((n, n)) < 0.7)
    np.fill_diagonal(support, True)
    weights = combination_weights(support, grid)
    near = g.random((n, n)) < 0.5
    phi, w_prev = (signed_zeros(g, estimates(g, n, dim)) for _ in range(2))
    fresh, hold = old_split(weights, near)
    assert same_bits(update_estimate(phi, w_prev, weights[at], near[at], links),
                     links.sums((fresh[at], phi), (hold[at], w_prev)))
    assert same_bits(update_estimate(phi, w_prev, weights, near, grid),
                     fresh.T @ phi + hold.T @ w_prev)


def loop_sums(links, terms):
    """The static link sums by a plain-Python loop: per link, its terms
    added in order, then into its column, in link order from +0.0."""
    (w0, x0), *rest = [(w.tolist(), x.tolist()) for w, x in terms]
    dim = len(x0[0])
    out = [[0.0] * dim for _ in range(links.n)]
    for l, (r, k) in enumerate(zip(links.rows.tolist(), links.cols.tolist())):
        for c in range(dim):
            value = w0[l] * x0[r][c]
            for w, x in rest:
                value += w[l] * x[r][c]
            out[k][c] += value
    return np.array(out)


# M = 9 catches a reduction over the coordinate axis, which numpy adds
# pairwise from 8 elements on
@pytest.mark.parametrize("dim", [1, 2, 3, 9])
@pytest.mark.parametrize("n_terms", [1, 2])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.0, 1.0))
def test_static_link_sums_equal_a_per_link_loop(n_terms, dim, seed, n, density):
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    links = link_index(upper | upper.T | np.eye(n, dtype=bool))
    size = links.rows.size
    terms = [(np.where(g.random(size) < 0.3, 0.0, g.normal(size=size)), estimates(g, n, dim))
             for _ in range(n_terms)]
    assert same_bits(links.sums(*terms), loop_sums(links, terms))


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
    got = view_from_closeness(points, t, *members_of(views))
    want = dense_view(pairwise_close(points, t, everyone(n)), *members_of(views))
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
        assert np.array_equal(pairwise_close(points, t, everyone(n)), want)


# N = 1280: one N x N bool array is 1.64 MB (a float64 one 13.1 MB), above
# what the link-only round needs; the world is built before measuring
N_LARGE = 1280


@pytest.fixture(scope="module")
def large_world():
    """A decide config at N_LARGE and the links of its network."""
    config = ExperimentConfig.for_mode("decide", n_agents=N_LARGE, radius=0.06,
                                       max_iters=4, t_hold=4, n_trials=1)
    return config, generate_topology(N_LARGE, config.max_degree, config.radius, seed=0)[1]


def traced_peak(call):
    """``(call(), peak bytes that tracemalloc saw during the call)``."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_decide_round_holds_no_n_by_n_float_array(large_world):
    n = N_LARGE
    config, links = large_world
    models = generate_models(config.n_models, config.dim, config.model_range, seed=1,
                             min_separation_sq=4.0 * config.beta)
    assignment = random_assignment(n, len(models), np.random.default_rng(2))
    noise = draw_noise_profile(n, config.dim, seed=3, sigma_v2_range=config.sigma_v2_range,
                               reg_power_range=config.reg_power_range)
    streams = build_streams(*noise, 4)
    record, peak = traced_peak(
        lambda: run_decision(config, links, models, assignment, streams))
    assert record.n_iters == 4
    assert peak < n * n, peak


def test_switch_stage_with_every_agent_pending_holds_no_n_by_n_array(large_world):
    # the (P, N) boolean views of every pending agent would be N x N
    n = N_LARGE
    links = large_world[1]
    g = np.random.default_rng(5)
    w_prev = estimates(g, n)
    (_, adopted, drawn), peak = traced_peak(
        lambda: apply_switching(w_prev, 0.25, np.full(n, 0.5), g, True, links))
    assert adopted.size and drawn.size
    assert peak < n * n, peak


def test_network_import_holds_no_n_by_n_array(large_world):
    n = N_LARGE
    links = large_world[1]
    doc = network_to_json(np.zeros((n, 2)), links, np.zeros((1, 2)))
    # a first import pays numpy's one-time lazy imports outside the trace
    network_from_json(network_to_json(np.zeros((1, 2)), link_index(np.eye(1, dtype=bool)),
                                      np.zeros((1, 2))))
    (_, imported, _, _), peak = traced_peak(lambda: network_from_json(doc))
    assert np.array_equal(imported.rows, links.rows)
    assert np.array_equal(imported.cols, links.cols)
    assert peak < n * n, peak
