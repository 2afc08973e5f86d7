"""Deviation metrics and the success test.

Two curves are tracked per run. The observed-model curve averages, within
each model's followers, the squared deviation of their aggregates from
that model. The desired-model curve averages, over the whole network, the
squared deviation of the desired estimates from the one model the network
settles on; it only exists while everyone agrees, so rows outside the
final sustained agreement stretch stay blank.
"""

from __future__ import annotations

import numpy as np

from .network import squared_distances


def msd_observed(phi, observed, assignment, followers):
    """Per-model mean squared deviation of the aggregates.

    Parameters
    ----------
    phi : ndarray, shape (N, M)
        Current aggregates.
    observed : ndarray, shape (N, M)
        Each agent's own model vector, ``models[assignment]``.
    assignment : ndarray, shape (N,)
        Model index observed by each agent.
    followers : ndarray, shape (C,)
        Each model's follower count, ``np.bincount(assignment, minlength=C)``.

    Returns
    -------
    ndarray, shape (C,)
        Mean over each model's followers; nan where a model currently has
        no followers.
    """
    # each agent's distance to its own model only, with the bits the
    # (N, C) matrix holds there
    own = squared_distances(phi, observed, np.s_[:], np.s_[:])
    sums = np.bincount(assignment, weights=own, minlength=followers.size)
    return np.divide(sums, followers, out=np.full(followers.size, np.nan),
                     where=followers > 0)


def final_agreement_block(all_agreed):
    """Start index of the maximal all-agreed suffix, or None if the run
    does not end in agreement."""
    flags = np.asarray(all_agreed, dtype=bool)
    if flags.size == 0 or not flags[-1]:
        return None
    broken = np.flatnonzero(~flags)
    return 0 if broken.size == 0 else int(broken[-1]) + 1


def common_model(final_w, models, threshold):
    """Index of the one model every estimate is within ``threshold`` of
    (squared norm), or None. Unique whenever models are separated by more
    than 4x the threshold."""
    d2 = squared_distances(final_w, np.atleast_2d(models))
    within = (d2 <= threshold).all(axis=0)
    hits = np.flatnonzero(within)
    return int(hits[0]) if hits.size else None


def captured_source(positions, sources, capture_radius=5.0):
    """Index of the one source every agent is physically within
    ``capture_radius`` (plain distance, body lengths) of, or None."""
    return common_model(positions, sources, capture_radius * capture_radius)


def evaluate_success(record):
    """Replay the success test from a run record alone.

    For static and follow runs success requires (a) network-wide agreement
    at every one of the final ``record.t_hold`` iterations and (b) every
    final desired estimate within ``record.threshold`` (squared norm) of
    one common ground-truth model; follow runs additionally require that model to be
    the target agent's observed one. A mobile run succeeds when the whole
    swarm physically parks within the capture radius of one source.
    Returns ``(success, model_index_or_None)``.
    """
    if record.mode == "mobile":
        if record.final_positions is None:
            return False, None
        source = captured_source(record.final_positions, record.models)
        return source is not None, source
    flags = np.asarray(record.all_agreed, dtype=bool)
    model = common_model(record.final_w, record.models, record.threshold)
    if flags.size < record.t_hold or not flags[-record.t_hold:].all():
        return False, model
    if model is None:
        return False, None
    if record.mode == "follow" and model != record.assignment[record.target_agent]:
        return False, model
    return True, model
