"""The link-list round of static networks against the dense N x N round.

Static runs take the neighborhood tests and weights on the adjacency's
links; mobile runs take them on N x N arrays. Both must produce the same
bits, including at a test's threshold, where a one-ulp difference in a
distance would flip it. Both read their distances from the one kernel,
``squared_distances``: one value per link, or the N x N matrix.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecide.decision import update_desired_matrices
from netdecide.diffusion import (believed_neighborhoods, combination_weights,
                                 update_cluster_matrices)
from netdecide.follow import follow_matrices
from netdecide.network import link_index, pairwise_close, squared_distances


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
    d2 = d2.ravel()[links.flat]
    d2 = d2[d2 > 1e-6]
    return float(g.choice(d2)) if d2.size and g.random() < 0.7 else 0.25


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.02, 1.0),
       st.integers(1, 4))
def test_link_round_equals_dense_round(seed, n, density, dim):
    g = np.random.default_rng(seed)
    upper = np.triu(g.random((n, n)) < density, 1)
    adjacency = upper | upper.T | np.eye(n, dtype=bool)
    links = link_index(adjacency)
    psi, phi, w_prev, anchors = (estimates(g, n, dim) for _ in range(4))

    for x, y in ((psi, phi), (psi, anchors), (w_prev, w_prev)):
        assert same_bits(squared_distances(x, y, links),
                         squared_distances(x, y).ravel()[links.flat])
    # x is y takes the symmetric (syrk) product in both
    assert same_bits(squared_distances(psi, psi, links),
                     squared_distances(psi).ravel()[links.flat])

    # beliefs, some smoothed entries exactly on the 0.5 tie
    smoothed = np.where(g.random((n, n)) < 0.2, 0.5, g.random((n, n)))
    support = believed_neighborhoods(smoothed) & adjacency
    assert same_bits(combination_weights(believed_neighborhoods(smoothed, links), links),
                     combination_weights(support))
    alpha = threshold(g, squared_distances(psi, phi), links)
    smoothing = float(g.choice([0.005, 0.5, 1.0, g.random()]))
    assert same_bits(
        update_cluster_matrices(smoothed, psi, phi, adjacency, alpha, smoothing, links),
        update_cluster_matrices(smoothed, psi, phi, adjacency, alpha, smoothing))

    # the decide split: links whose previous desired estimates are close
    beta = threshold(g, squared_distances(psi, w_prev), links)
    close = pairwise_close(w_prev, beta)
    want = update_desired_matrices(close & adjacency, psi, w_prev, beta)
    got = update_desired_matrices(close.ravel()[links.flat], psi, w_prev, beta, links)
    assert all(same_bits(a, b) for a, b in zip(got, want))

    # the follow split: links between informed agents, and every self-link
    sources = np.where(g.random(n) < 0.6, g.integers(1, n + 1, size=n), 0)
    beta = threshold(g, squared_distances(psi, anchors), links)
    informed = sources > 0
    linked = adjacency & informed[:, None] & informed[None, :]
    np.fill_diagonal(linked, True)
    want = update_desired_matrices(linked, psi, anchors, beta)
    got = follow_matrices(anchors, sources, psi, links, beta)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.booleans())
def test_pairwise_close_equals_clamped_test(seed, n, with_nan):
    # pairwise_close is the clamped kernel's test with no symmetry guard;
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
