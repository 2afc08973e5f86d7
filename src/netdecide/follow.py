"""Follow-the-target variant: anchor relay instead of majority voting.

One designated target agent's adaptation output is relayed hop by hop
through the network. Direct neighbors of the target copy its current
output; everyone else latches onto the first informed neighbor it sees and
keeps refreshing from that source's previous-round anchor, so an agent at
relay depth d holds the target's output from d-1 rounds ago. The relayed
anchor replaces local labeling: informed agents link to their informed
neighbors, and the split weights of
``netdecide.decision.update_desired_matrices`` send a link's weight down
the fresh route when the neighbor's adaptation output is near one's own
anchor. Like every stage of the round on a static network, the relay
reads the links of the (never moving) adjacency, and the split holds one
value per link, with per-pair distances from
``netdecide.network.squared_distances``. The relay state is two arrays,
the anchors and their sources.

:class:`AnchorRelay` is the desired-estimate stage that
``netdecide.decision.run_rounds``, the round loop every mode shares, calls
in follow runs; majority switching fills the same stage in the other
modes. The relay also keeps its coverage curve and the deviation of the
desired estimates from the target's observed model.

Source bookkeeping uses 1-based agent ids with 0 meaning "no source yet".
"""

from __future__ import annotations

import numpy as np

from .decision import InvariantViolation, run_rounds, update_desired_matrices
from .network import squared_distances

# benchmark/spans.py wraps these names in this module; they stay bound
# here until it wraps them only in netdecide.decision, whose loop calls them
from .decision import (adapt, aggregate, agreement_vector,  # noqa: F401
                       believed_neighborhoods, check_divergence,
                       combination_weights, component_count, evaluate_success,
                       observed_msd, pairwise_close, update_cluster_matrices,
                       update_estimate)


def spread_anchor(anchors, sources, psi, links, target):
    """Advance the relay by one synchronous round and return the new
    ``(anchors, sources)``.

    ``anchors`` (N, M) holds each agent's copy of the target's adaptation
    output (zeros until reached); ``sources`` holds the 1-based id of the
    neighbor each agent relays from, 0 while uninformed, and the target
    itself for the target and its direct neighbors.

    Direct neighbors of ``target`` (itself included) copy its current
    adaptation output. An uninformed agent adopts the previous-round
    anchor of its lowest-indexed informed neighbor and records that
    neighbor as its source; an informed agent refreshes from its recorded
    source's previous-round anchor whenever that source is still a
    neighbor, and otherwise keeps its stale copy. Neighbors are the links
    of ``links``, the link index of the adjacency.
    """
    n = links.n
    prev_anchors, prev_sources = anchors, sources
    anchors = anchors.copy()
    sources = sources.copy()

    direct = np.zeros(n, dtype=bool)
    direct[links.cols[links.rows == target]] = True
    informed_prev = prev_sources > 0

    # uninformed agents scan neighbors for anyone informed last round: the
    # adjacency is symmetric, so the first informed link of row k, in
    # row-major order, leads to k's lowest-indexed informed neighbor
    uninformed = ~direct & ~informed_prev
    if uninformed.any():
        heard = np.flatnonzero(informed_prev[links.cols])
        rows = links.rows[heard]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        first_candidate = np.full(n, n)
        first_candidate[rows[first]] = links.cols[heard[first]]
        latch = uninformed & (first_candidate < n)
        anchors[latch] = prev_anchors[first_candidate[latch]]
        sources[latch] = first_candidate[latch] + 1

    # informed agents refresh from their recorded source while it stays a
    # neighbor, found among the sorted link keys
    refresh = ~direct & informed_prev
    src = prev_sources - 1
    asked = src[refresh] * n + np.flatnonzero(refresh)
    found = np.minimum(np.searchsorted(links.flat, asked), len(links.flat) - 1)
    still_linked = np.zeros(n, dtype=bool)
    still_linked[refresh] = links.flat[found] == asked
    refresh &= still_linked
    anchors[refresh] = prev_anchors[src[refresh]]

    # a direct link to the target dominates everything
    anchors[direct] = psi[target]
    sources[direct] = target + 1
    return anchors, sources


def follow_matrices(anchors, sources, psi, links, threshold):
    """Split weights ``(fresh, hold)`` driven by the relay instead of
    labels, one value per link of ``links``, the link index of the
    adjacency.

    Neighbors are linked when both ends are informed; uninformed agents
    keep a self-preserving link so their column stays stochastic. A linked
    neighbor's weight rides the fresh route when its adaptation output is
    within ``threshold`` (squared norm) of the agent's anchor.
    """
    informed = sources > 0
    linked = informed[links.rows] & informed[links.cols] | (links.rows == links.cols)
    return update_desired_matrices(linked, psi, anchors, threshold, links)


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
        self.anchors = np.zeros((topology.n_agents, dim))
        self.sources = np.zeros(topology.n_agents, dtype=int)
        self.coverage = np.zeros(config.max_iters, dtype=int)
        self.deviations = np.zeros(config.max_iters)
        # the hop ball around the target, grown by one hop each round
        self.ball = (np.arange(topology.n_agents) == self.target
                     if check_invariants else None)

    def desired(self, t, w_prev, psi, close, p, adjacency, links):
        self.anchors, self.sources = spread_anchor(self.anchors, self.sources, psi,
                                                   links, self.target)
        informed = self.sources > 0
        self.coverage[t] = int(informed.sum())
        if self.ball is not None:
            self.ball = adjacency[self.ball].any(axis=0)
            if not np.array_equal(informed, self.ball):
                raise InvariantViolation(
                    f"informed set at round {t + 1} is not the {t + 1}-hop ball around the target")
        return (w_prev, close,
                *follow_matrices(self.anchors, self.sources, psi, links, self.beta))

    def track(self, t, w, models, assignment):
        self.deviations[t] = squared_distances(w, models[[assignment[self.target]]]).mean()

    def record_fields(self, n_ran, agreed):
        n = len(self.sources)
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
