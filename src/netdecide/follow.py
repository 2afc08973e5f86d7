"""Follow-the-target variant: anchor relay instead of majority voting.

One designated target agent's adaptation output is relayed hop by hop
through the network. Direct neighbors of the target copy its current
output; everyone else refreshes from one neighbor a hop closer to the
target, its source, so an agent at relay depth d holds the target's output
from d-1 rounds ago. The relayed anchor replaces local labeling: informed
agents link to their informed neighbors, and the split weights of
``netdecide.decision.update_desired_matrices`` send a link's weight down
the fresh route when the neighbor's adaptation output is near one's own
anchor. A follow network is static, its links fixed, so the routes (each
agent's hop depth and source) are computed once per run by
:func:`relay_routes`, and a round only copies anchors along them.

:class:`AnchorRelay` is the desired-estimate stage that
``netdecide.decision.run_rounds``, the round loop every mode shares, calls
in follow runs; majority switching fills the same stage in the other
modes. The relay also keeps its coverage curve and the deviation of the
desired estimates from the target's observed model.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .decision import InvariantViolation, grown, run_rounds
from .diffusion import combination_weights
from .network import squared_distances

# benchmark/spans.py wraps these names in this module; they stay bound
# here until it wraps them only in netdecide.decision, whose loop calls them
from .decision import (adapt, aggregate, agreement_vector,  # noqa: F401
                       believed_neighborhoods, check_divergence,
                       component_count, evaluate_success,
                       observed_msd, pairwise_close, update_cluster_matrices,
                       update_estimate)

# the depth of an agent the relay never reaches: it must exceed every
# round, or the agent would count as informed from that round on
OUT_OF_REACH = np.iinfo(np.intp).max


def relay_routes(links, target):
    """The relay's fixed routes on the static network of ``links``:
    ``(depth, source)``, each agent's hop count from ``target`` and the
    neighbor it relays from.

    The target is its own source, and so are the agents out of its reach,
    whose depth is ``OUT_OF_REACH``. Any other agent's source is its
    lowest-indexed neighbor one hop closer to the target: the neighbor it
    first hears from, as the relay reaches each agent one hop a round.
    """
    depth = np.full(links.n, OUT_OF_REACH)
    source = np.arange(links.n)
    depth[target] = 0
    for hop in count(1):
        heard = (depth[links.rows] == hop - 1) & (depth[links.cols] > hop)
        # links are row-major, so each agent's first heard link comes from
        # its lowest-indexed neighbor
        reached, first = np.unique(links.cols[heard], return_index=True)
        if not reached.size:
            return depth, source
        depth[reached] = hop
        source[reached] = links.rows[heard][first]


def spread_anchor(anchors, psi, depth, source, i):
    """The anchors after round ``i`` of the relay on the routes
    ``(depth, source)`` of :func:`relay_routes`.

    ``anchors`` (N, M) holds each agent's copy of the target's adaptation
    output after the previous round, zeros while uninformed. The target
    and its neighbors (depth 0 and 1) copy the target's current output
    ``psi[target]``; the other agents within ``i`` hops copy their
    source's previous anchor; the rest keep zeros.
    """
    relayed = np.where((depth <= i)[:, None], anchors[source], 0.0)
    direct = depth <= 1
    relayed[direct] = psi[source[direct]]
    return relayed


def follow_matrices(informed, links):
    """The relay's combination weights, in place of labels, at the links of
    ``links``: uniform over each agent's linked neighbors.

    Neighbors are linked when both ends are ``informed``; uninformed
    agents keep a self-preserving link so their column stays stochastic.
    ``netdecide.decision.update_desired_matrices`` splits them at the
    anchors.
    """
    return combination_weights(
        links.restrict(informed[links.rows] & informed[links.cols] | links.loops), links)


class AnchorRelay:
    """Desired-estimate stage of follow runs.

    Each round advances the relay (:func:`spread_anchor`) along the routes
    :func:`relay_routes` found for the run's ``links``, and weights the
    estimate update by it (:func:`follow_matrices`), anchored at the
    relayed copies; desired estimates are never switched. The informed
    agents of round i are those within i hops, so the weights are fixed
    once the relay has reached every agent it can. The desired deviation
    is measured against the target's current observed model. With
    ``check_invariants`` each round also checks that the informed agents
    are exactly the ball of radius i hops around the target, grown here one
    hop a round, and that each one's source is its neighbor.
    """

    def __init__(self, config, links, dim, check_invariants):
        self.beta = config.beta
        self.target = config.target_agent - 1
        self.depth, self.source = relay_routes(links, self.target)
        # the informed set, and with it the weights, stops growing at the
        # farthest hop the relay reaches
        self.last_growth = max(1, int(self.depth[self.depth != OUT_OF_REACH].max()))
        self.weights = None
        self.anchors = np.zeros((links.n, dim))
        self.max_iters = config.max_iters
        self.coverage = np.zeros(0, dtype=int)
        self.deviations = np.zeros(0)
        self.ball = np.arange(links.n) == self.target if check_invariants else None

    def desired(self, t, w_prev, psi, close, p, links):
        i = t + 1
        self.anchors = spread_anchor(self.anchors, psi, self.depth, self.source, i)
        informed = self.depth <= i
        self.coverage = grown(self.coverage, t, self.max_iters)
        self.coverage[t] = int(informed.sum())
        if self.ball is not None:
            self.ball = links.counts(self.ball[links.rows]) > 0
            if not np.array_equal(informed, self.ball):
                raise InvariantViolation(
                    f"informed set at round {i} is not the {i}-hop ball around the target")
            k = np.flatnonzero(informed)
            if not np.isin(k * links.n + self.source[k],
                           links.rows * links.n + links.cols).all():
                raise InvariantViolation(
                    f"an informed agent's source at round {i} is not its neighbor")
        if i <= self.last_growth:
            self.weights = follow_matrices(informed, links)
        return w_prev, close, self.weights, self.anchors

    def track(self, t, w, models, assignment):
        self.deviations = grown(self.deviations, t, self.max_iters)
        self.deviations[t] = (squared_distances(w, models[[assignment[self.target]]]).sum()
                              / len(w))

    def record_fields(self, n_ran, agreed):
        n = len(self.depth)
        return dict(msd_desired=self.deviations[:n_ran],
                    source_coverage=self.coverage[:n_ran], target_agent=self.target,
                    switch_adopt=np.zeros(n, dtype=int),
                    switch_random=np.zeros(n, dtype=int))


def run_follow(config, links, models, assignment, streams, *, check_invariants=False):
    """Run the follow-the-target loop on the static network of ``links``
    and return its :class:`RunRecord`; see ``netdecide.decision.run_rounds``.

    The target agent is ``config.target_agent`` (1-based). Success demands
    network-wide agreement on the target's observed model.
    """
    policy = AnchorRelay(config, links, models.shape[1], check_invariants)
    return run_rounds(config, links, models, assignment, streams, policy,
                      check_invariants=check_invariants)
