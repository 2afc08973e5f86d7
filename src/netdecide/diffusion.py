"""Diffusion adaptation with adaptive cluster beliefs.

Every iteration each agent takes a least-mean-squares step on its own data
from its own previous estimate, psi_k += mu u_k^T (d_k - u_k psi_k), and
then aggregates the estimates of the neighbors it currently believes
observe the same model, phi_k = sum_l a_lk psi_l. Each agent thus runs
stand-alone LMS (adapt-then-combine diffusion would adapt from phi_k): with
one model and every neighbor believed, phi_k's steady-state deviation is
about (1/n_k^2) sum_{l in N_k} mu sigma_v,l^2 M / 2, over the closed
neighborhood N_k of n_k agents, for M-entry models. Beliefs come from a
smoothed proximity test between a neighbor's fresh estimate and the
agent's previous aggregate, so cooperation links form and dissolve as the
estimates move.

The belief state holds smoothed indicators in [0, 1], the identity before
any data (each agent believes only in itself). A belief is its entry
rounded half up, read where the aggregation support is built.

A static network is its links (``netdecide.network.Links``: the rows and
columns of its adjacency's True entries), which it passes the stages,
and the belief state, the support and the weights hold one value per
link. Aggregation adds each column's terms in link order with
``np.bincount`` (:func:`link_sums`), so no N x N array and no BLAS product
enters a static round, and its bits do not depend on the CPU. A mobile
swarm's neighborhood is its N x N adjacency: it passes no links and keeps
these as N x N arrays, with the same proximity test (the distances of
``netdecide.network.squared_distances``) and a BLAS product for the
aggregation.
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

    Given a static network's ``links``, which stand in for ``adjacency``,
    ``smoothed`` holds one value per link and ``smoothing`` is added where
    the test passes, which rounds exactly as adding ``smoothing`` times the
    0/1 indicator.
    """
    if links is None:
        raw = (squared_distances(psi, phi_prev) <= alpha) & adjacency
        return (1.0 - smoothing) * smoothed + smoothing * raw
    near = squared_distances(psi, phi_prev, links.rows, links.cols) <= alpha
    smoothed = (1.0 - smoothing) * smoothed
    smoothed[near] += smoothing
    return smoothed


def believed_neighborhoods(smoothed, links=None):
    """Column support for aggregation: believed neighbors plus always self.

    Entry (l, k) of ``smoothed`` rounded to the nearest integer, ties at
    0.5 rounding up, says whether k believes l observes its model. Given
    ``links``, ``smoothed`` and the support hold one value per link.
    """
    if links is not None:
        return (smoothed >= 0.5) | (links.rows == links.cols)
    support = smoothed >= 0.5
    np.fill_diagonal(support, True)
    return support


def combination_weights(support, links=None):
    """Uniform column-stochastic weights over each column's support.

    Entry (l, k) is the weight agent k puts on neighbor l. Every column
    must be nonempty (guaranteed when support includes the diagonal).
    Given ``links``, ``support`` and the weights hold one value per link.
    """
    if links is None:
        counts = support.sum(axis=0)
    else:
        counts = np.bincount(links.cols[support], minlength=links.n)
    if (counts == 0).any():
        raise ValueError("empty aggregation support column")
    if links is None:
        return support.astype(float) / counts
    return np.where(support, 1.0 / counts[links.cols], 0.0)


def link_sums(links, terms):
    """Per-column sums of ``terms``, one row per link of ``links``: row k
    of the result adds the terms of the links in column k, in link order,
    starting from +0.0."""
    return np.stack([np.bincount(links.cols, weights=terms[:, c], minlength=links.n)
                     for c in range(terms.shape[1])], axis=1)


def aggregate(weights, psi, links=None):
    """Aggregate per-agent estimates: row k is sum_l weights[l, k] psi_l.

    Given ``links``, ``weights`` holds one value per link and the sum runs
    over the links of each column in link order (:func:`link_sums`);
    otherwise it is the BLAS product ``weights.T @ psi``.
    """
    if links is None:
        return weights.T @ psi
    return link_sums(links, weights[:, None] * psi[links.rows])
