"""Follow-the-target variant: anchor relay instead of majority voting.

One designated target agent's adaptation output is relayed hop by hop
through the network. Direct neighbors of the target copy its current
output; everyone else latches onto the first informed neighbor it sees and
keeps refreshing from that source's previous-round anchor, so an agent at
relay depth d holds the target's output from d-1 rounds ago. The relayed
anchor replaces local labeling: weights follow the fresh route when a
neighbor's adaptation output is near one's own anchor.

:class:`AnchorRelay` is the desired-estimate stage that
``netdecide.decision.run_rounds``, the round loop every mode shares, calls
in follow runs; majority switching fills the same stage in the other
modes. The relay also keeps its coverage curve and the deviation of the
desired estimates from the target's observed model.

Source bookkeeping uses 1-based agent ids with 0 meaning "no source yet".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import DesiredMatrices, InvariantViolation, run_rounds
from .diffusion import combination_weights
from .network import bfs_depths, squared_distances

# benchmark/spans.py wraps these names in this module; they stay bound
# here until it wraps them only in netdecide.decision, whose loop calls them
from .decision import (adapt, aggregate, agreement_vector,  # noqa: F401
                       believed_neighborhoods, check_divergence, component_count,
                       evaluate_success, observed_msd, pairwise_close,
                       update_cluster_matrices, update_estimate)


@dataclass(eq=False)
class AnchorState:
    """Relayed anchor values and where they come from.

    anchors : ndarray, shape (N, M)
        Each agent's current copy of the target's adaptation output
        (zeros until reached).
    sources : ndarray of int, shape (N,)
        1-based id of the neighbor each agent relays from; 0 while
        uninformed. The target and its direct neighbors point at the
        target itself.
    """

    anchors: np.ndarray
    sources: np.ndarray

    @classmethod
    def initial(cls, n_agents, dim):
        return cls(anchors=np.zeros((n_agents, dim)),
                   sources=np.zeros(n_agents, dtype=int))


def spread_anchor(state, psi, adjacency, target):
    """Advance the relay by one synchronous round.

    Direct neighbors of ``target`` (itself included) copy its current
    adaptation output. An uninformed agent adopts the previous-round
    anchor of its lowest-indexed informed neighbor and records that
    neighbor as its source; an informed agent refreshes from its recorded
    source's previous-round anchor whenever that source is still a
    neighbor, and otherwise keeps its stale copy.
    """
    n = adjacency.shape[0]
    anchors = state.anchors.copy()
    sources = state.sources.copy()

    direct = adjacency[:, target]
    informed_prev = state.sources > 0

    # uninformed agents scan neighbors for anyone informed last round
    candidates = adjacency & informed_prev[:, None]
    has_candidate = candidates.any(axis=0)
    first_candidate = candidates.argmax(axis=0)
    latch = ~direct & ~informed_prev & has_candidate
    anchors[latch] = state.anchors[first_candidate[latch]]
    sources[latch] = first_candidate[latch] + 1

    # informed agents refresh from their recorded source while it stays nearby
    refresh = ~direct & informed_prev
    src = state.sources - 1
    still_linked = np.zeros(n, dtype=bool)
    still_linked[refresh] = adjacency[src[refresh], np.flatnonzero(refresh)]
    refresh &= still_linked
    anchors[refresh] = state.anchors[src[refresh]]

    # a direct link to the target dominates everything
    anchors[direct] = psi[target]
    sources[direct] = target + 1
    return AnchorState(anchors=anchors, sources=sources)


def follow_matrices(state, psi, adjacency, threshold):
    """Split weight matrices driven by the relay instead of labels.

    Neighbors are linked when both ends are informed; uninformed agents
    keep a self-preserving link so their column stays stochastic. A linked
    neighbor's weight rides the fresh route when its adaptation output is
    within ``threshold`` (squared norm) of the agent's anchor.
    """
    informed = state.sources > 0
    linked = adjacency & informed[:, None] & informed[None, :]
    np.fill_diagonal(linked, True)
    weights = combination_weights(linked)
    refresh = squared_distances(psi, state.anchors) <= threshold
    fresh = np.where(refresh, weights, 0.0)
    return DesiredMatrices(linked=linked, weights=weights, fresh=fresh,
                           hold=weights - fresh)


class AnchorRelay:
    """Desired-estimate stage of follow runs.

    Each round advances the relay (:func:`spread_anchor`) and weights the
    estimate update by it (:func:`follow_matrices`); desired estimates are
    never switched. The desired deviation is measured against the target's
    current observed model. With ``check_invariants`` each round also
    checks that the informed agents are exactly the ball of radius i hops
    around the target.
    """

    mode = "follow"
    stops_early = False

    def __init__(self, config, topology, dim, check_invariants):
        self.beta = config.beta
        self.target = config.target_agent - 1
        self.anchor = AnchorState.initial(topology.n_agents, dim)
        self.coverage = np.zeros(config.max_iters, dtype=int)
        self.deviations = np.zeros(config.max_iters)
        self.depths = (bfs_depths(topology.adjacency, self.target)
                       if check_invariants else None)

    def desired(self, t, w_prev, psi, close, p, topology):
        adjacency = topology.adjacency
        self.anchor = spread_anchor(self.anchor, psi, adjacency, self.target)
        informed = self.anchor.sources > 0
        self.coverage[t] = int(informed.sum())
        if self.depths is not None and not np.array_equal(
                informed, (self.depths >= 0) & (self.depths <= t + 1)):
            raise InvariantViolation(
                f"informed set at round {t + 1} is not the {t + 1}-hop ball around the target")
        return w_prev, close, follow_matrices(self.anchor, psi, adjacency, self.beta)

    def track(self, t, w, models, assignment):
        self.deviations[t] = squared_distances(w, models[[assignment[self.target]]]).mean()

    def record_fields(self, n_ran, agreed):
        n = len(self.anchor.sources)
        return dict(msd_desired=self.deviations[:n_ran],
                    source_coverage=self.coverage[:n_ran], target_agent=self.target,
                    switch_adopt=np.zeros(n, dtype=int),
                    switch_random=np.zeros(n, dtype=int))


def run_follow(config, topology, models, streams, *, check_invariants=False):
    """Run the follow-the-target loop and return its :class:`RunRecord`.

    The target agent is ``config.target_agent`` (1-based). Success demands
    network-wide agreement on the target's observed model.
    """
    policy = AnchorRelay(config, topology, models.dim, check_invariants)
    return run_rounds(config, topology, models, streams, policy,
                      check_invariants=check_invariants)
