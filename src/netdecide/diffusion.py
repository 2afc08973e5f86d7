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
rounded half up, read where the aggregation support is built. Every stage
takes the round's neighborhood, a ``netdecide.network.Links``.
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
    """Abort with the offending agent when an estimate blows up.

    One comparison clears a healthy round: a sum of squares within a
    quarter of ``bound`` squared puts every norm within about half of
    ``bound``, far inside rounding, and a non-finite entry makes the sum
    inf or nan, which fails the test. Any other round takes the norms, so
    the bits of the sum, a BLAS product, choose only the path."""
    if np.vdot(psi, psi) <= 0.25 * bound * bound:
        return
    norms = np.linalg.norm(psi, axis=1)
    if np.isfinite(norms).all() and (norms <= bound).all():
        return
    k = int(np.argmax(~np.isfinite(norms) | (norms > bound)))
    raise DivergenceError(
        f"agent {k + 1} diverged: |estimate| = {norms[k]:.3e} exceeds bound {bound:.3e}"
    )


def update_cluster_matrices(smoothed, psi, phi_prev, alpha, smoothing, links):
    """Advance the smoothed cluster indicators by one round.

    The instantaneous indicator for (l, k) is the test
    ||psi_l - phi_k_prev||^2 <= alpha restricted to l in k's neighborhood.
    The smoothed value moves toward the instantaneous one with gain
    ``smoothing``; a small gain means long memory, so a belief only forms
    or dissolves after the indicator holds steadily for on the order of
    1/smoothing rounds. That lag is what keeps transient proximity during
    the early adaptation phase from ever being believed.
    """
    near = links.restrict(squared_distances(psi, phi_prev, links.rows, links.cols) <= alpha)
    return (1.0 - smoothing) * smoothed + smoothing * near


def believed_neighborhoods(smoothed, links):
    """Column support for aggregation: believed neighbors plus always self.

    Entry (l, k) of ``smoothed`` rounded to the nearest integer, ties at
    0.5 rounding up, says whether k believes l observes its model; only
    links are believed.
    """
    return links.restrict((smoothed >= 0.5) | links.loops)


def combination_weights(support, links):
    """Uniform column-stochastic weights over each column's support.

    Entry (l, k) is the weight agent k puts on neighbor l. Every column
    must be nonempty (guaranteed when support includes the diagonal).
    """
    counts = links.counts(support)
    if (counts == 0).any():
        raise ValueError("empty aggregation support column")
    return support * (1.0 / counts)[links.cols]


def aggregate(weights, psi, links):
    """Aggregate per-agent estimates: row k is sum_l weights[l, k] psi_l."""
    return links.sums((weights, psi))
