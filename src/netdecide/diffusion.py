"""Diffusion adaptation with adaptive cluster beliefs.

Every iteration each agent takes a least-mean-squares step on its own data
and then aggregates the intermediate estimates of the neighbors it currently
believes observe the same model. Beliefs come from a smoothed proximity
test between a neighbor's fresh estimate and the agent's previous
aggregate, so cooperation links form and dissolve as the estimates move.

The belief state is one N x N array of smoothed indicators in [0, 1],
the identity before any data (each agent believes only in itself). A
belief is its entry rounded half up, read where the aggregation support
is built.

Static networks pass the stages the adjacency's link index
(``netdecide.network.link_index``: the flat indices l*N + k, rows and
columns of its True entries), and the proximity test, the support and the
weights run on the links. The smoothed state and the weights, the BLAS
operand of :func:`aggregate`, stay N x N. Mobile swarms pass no index and
take the same steps on N x N arrays, to the same bits: both read the test's
distances from ``netdecide.network.squared_distances``.
"""

from __future__ import annotations

import numpy as np

from .network import DivergenceError, squared_distances


def adapt(psi, u, d, step_size):
    """One least-mean-squares step for every agent.

    psi_new = psi + mu * u^T * (d - u . psi), row-wise over agents.

    Parameters
    ----------
    psi : ndarray, shape (N, M)
        Intermediate estimates before the step.
    u : ndarray, shape (N, M)
        Current regressor rows.
    d : ndarray, shape (N,)
        Current observations.
    step_size : float or ndarray
        Scalar or per-agent adaptation gains.

    Returns
    -------
    ndarray, shape (N, M)
    """
    err = d - (u * psi).sum(axis=1)
    gain = np.asarray(step_size, dtype=float)
    return psi + (gain * err)[:, None] * u


def check_divergence(psi, bound):
    """Abort with the offending agent when an estimate blows up."""
    norms = np.linalg.norm(psi, axis=1)
    if np.isfinite(norms).all() and (norms <= bound).all():
        return
    k = int(np.argmax(~np.isfinite(norms) | (norms > bound)))
    raise DivergenceError(
        f"agent {k + 1} diverged: |estimate| = {norms[k]:.3e} exceeds bound {bound:.3e}"
    )


def update_cluster_matrices(smoothed, psi, phi_prev, adjacency, alpha, smoothing,
                            links=None):
    """Advance the smoothed cluster indicators by one round.

    The instantaneous indicator for (l, k) is the test
    ||psi_l - phi_k_prev||^2 <= alpha restricted to l in k's neighborhood.
    The smoothed value moves toward the instantaneous one with gain
    ``smoothing``; a small gain means long memory, so a belief only forms
    or dissolves after the indicator holds steadily for on the order of
    1/smoothing rounds. That lag is what keeps transient proximity during
    the early adaptation phase from ever being believed.

    Given ``links``, the link index of ``adjacency``, the test runs on the
    links only and ``smoothing`` is added where it passes, which rounds
    exactly as adding ``smoothing`` times the 0/1 indicator.
    """
    if links is None:
        raw = (squared_distances(psi, phi_prev) <= alpha) & adjacency
        return (1.0 - smoothing) * smoothed + smoothing * raw
    near = squared_distances(psi, phi_prev, links) <= alpha
    smoothed = (1.0 - smoothing) * smoothed
    smoothed.ravel()[links.flat[near]] += smoothing
    return smoothed


def believed_neighborhoods(smoothed, links=None):
    """Column support for aggregation: believed neighbors plus always self.

    Entry (l, k) of ``smoothed`` rounded to the nearest integer, ties at
    0.5 rounding up, says whether k believes l observes its model. Given
    ``links``, the support is one bool per link.
    """
    if links is not None:
        return (smoothed.ravel()[links.flat] >= 0.5) | (links.rows == links.cols)
    support = smoothed >= 0.5
    np.fill_diagonal(support, True)
    return support


def link_weights(links):
    """Uniform column-stochastic weights over ``links``, one per link:
    1 / (the number of links in its column)."""
    counts = np.bincount(links.cols, minlength=links.n)
    if (counts == 0).any():
        raise ValueError("empty aggregation support column")
    return 1.0 / counts[links.cols]


def combination_weights(support, links=None):
    """Uniform column-stochastic weights over each column's support.

    Entry (l, k) is the weight agent k puts on neighbor l. Every column
    must be nonempty (guaranteed when support includes the diagonal).
    Given ``links``, ``support`` holds one bool per link; the weights are
    the same N x N array.
    """
    if links is not None:
        links = links.where(support)
        return links.scatter(link_weights(links))
    counts = support.sum(axis=0)
    if (counts == 0).any():
        raise ValueError("empty aggregation support column")
    return support.astype(float) / counts


def aggregate(weights, psi):
    """Aggregate per-agent estimates: row k is sum_l weights[l, k] psi_l."""
    return weights.T @ psi
