"""Follow-the-target variant: anchor relay instead of majority voting.

One designated target agent's adaptation output is relayed hop by hop
through the network. Direct neighbors of the target copy its current
output; everyone else refreshes from one neighbor a hop closer to the
target, its source, so an agent at relay depth d holds the target's output
from d-1 rounds ago. The relayed anchor replaces local labeling: informed
agents link to their informed neighbors, and the estimate update sends a
link's weight down the fresh route when the neighbor's adaptation output is
near one's own anchor (``netdecide.decision.update_desired_matrices``). A
follow network is static, its links fixed, so the routes (each agent's hop
depth and source) are computed once per run by :func:`relay_routes`, and a
round only copies anchors along them.

:class:`AnchorRelay` is the desired-estimate stage that
``netdecide.decision.run_rounds``, the round loop every mode shares, calls
in follow runs; majority switching fills the same stage in the other
modes. No round of the relay reads what a round records of its desired
estimates, so the relay copies them into a block of at most
``_BLOCK_VALUES`` values and settles the block's facts at once when it is
full and when the run ends: all agreed, the desired-model count, the final
agreement degrees and the deviation from the target's observed model. A
round whose estimates pass the bounding-box test of
``netdecide.network.close_component_count`` is agreed on one model; only
the other rounds test their links and sweep. Under the invariant checks a
block is one round, settled before the checks read it. The coverage curve,
the agents within each round's hop radius, is read off the routes once the
run is over.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from operator import add

import numpy as np

from .decision import InvariantViolation, grown, run_rounds
from .diffusion import combination_weights
from .labeling import agreement_vector
from .network import close_component_count, pairwise_close, squared_distances

# benchmark/spans.py wraps these names in this module as well as in
# netdecide.decision. The relay calls pairwise_close and agreement_vector
# itself; the shared loop calls the rest through netdecide.decision
from .decision import (adapt, aggregate, believed_neighborhoods,  # noqa: F401
                       check_divergence, component_count, evaluate_success,
                       observed_msd, update_cluster_matrices, update_estimate)

# estimate values the relay's record block holds at most, the desired
# estimates of its rounds and those its first round started from, unless
# one round's and its start's exceed it
_BLOCK_VALUES = 2 ** 11

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


def spread_anchor(anchors, psi, depth, source):
    """The anchors after the next round of the relay on the routes
    ``(depth, source)`` of :func:`relay_routes`.

    ``anchors`` (N, M) holds each agent's copy of the target's adaptation
    output after the previous round, zeros while uninformed. The target
    and its neighbors (depth 0 and 1) copy the target's current output
    ``psi[target]``; every other agent copies its source's previous
    anchor. An agent the relay has not reached yet reads zeros there: its
    source is one hop nearer the target, and the relay gains a hop a round.
    """
    relayed = anchors[source]
    direct = depth <= 1
    relayed[direct] = psi[source[direct]]
    return relayed


def follow_matrices(informed, links):
    """The relay's combination weights, in place of labels, at the links of
    ``links``: uniform over each agent's linked neighbors.

    Neighbors are linked when both ends are ``informed``; uninformed
    agents keep a self-preserving link so their column stays stochastic.
    ``netdecide.decision.update_desired_matrices`` marks their routes at
    the anchors.
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
    is measured against the target's current observed model among
    ``models``. The facts of each round's desired estimates are settled a
    block of rounds at a time (:meth:`settle`). With ``check_invariants``
    a block is one round, and each round also checks that the informed
    agents are exactly the ball of radius i hops around the target, grown
    here one hop a round, and that each one's source is its neighbor.
    """

    def __init__(self, config, links, models, check_invariants):
        self.beta = config.beta
        self.links = links
        self.models = models
        self.target = config.target_agent - 1
        self.depth, self.source = relay_routes(links, self.target)
        # the informed set, and with it the weights, stops growing at the
        # farthest hop the relay reaches
        self.last_growth = max(1, int(self.depth[self.depth != OUT_OF_REACH].max()))
        self.weights = None
        n, dim = links.n, models.shape[1]
        self.anchors = np.zeros((n, dim))
        self.max_iters = config.max_iters
        self.agreed = np.zeros(0, dtype=bool)
        self.n_desired = np.zeros(0, dtype=int)
        self.deviations = np.zeros(0)
        # the last settled round's agreement degrees; None when every p_k = 1
        self.p = None
        # row r + 1 of the block holds the estimates round start + r hands
        # on, row 0 those round start began from, each row transposed to
        # (M, N) so that a reduction over the agents runs along memory; and
        # each round's target model
        rounds = 1 if check_invariants else max(1, _BLOCK_VALUES // (n * dim) - 1)
        self.block = np.empty((rounds + 1, dim, n))
        self.block_models = np.empty(rounds, dtype=int)
        self.start = 0
        self.ball = np.arange(n) == self.target if check_invariants else None

    def desired(self, t, w_prev, psi, links):
        i = t + 1
        if t == 0:
            self.block[0] = w_prev.T
        self.anchors = spread_anchor(self.anchors, psi, self.depth, self.source)
        if self.ball is not None:
            informed = self.depth <= i
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
            self.weights = follow_matrices(self.depth <= i, links)
        return w_prev, self.weights, self.anchors

    def track(self, t, w, assignment):
        """Copy round ``t``'s updated estimates ``w`` into the block, and
        settle the block when it is full. A follow run never stops early."""
        row = t - self.start
        self.block[row + 1] = w.T
        self.block_models[row] = assignment[self.target]
        if row + 1 == len(self.block_models):
            self.settle(row + 1)
        return False

    def settle(self, rounds):
        """Fill the facts of the block's first ``rounds`` rounds, and start
        the next block from the estimates the last of them handed on."""
        t = self.start
        self.agreed, self.n_desired, self.deviations = (
            grown(curve, t + rounds - 1, self.max_iters)
            for curve in (self.agreed, self.n_desired, self.deviations))
        rows = self.block[:rounds]
        points = rows.transpose(0, 2, 1)
        # the bounding box, its extents squared and added in coordinate
        # order as close_component_count tests it: no pair within it is
        # farther apart, so every link is close and the points one model
        extent = rows.max(axis=2) - rows.min(axis=2)
        boxed = reduce(add, (extent * extent).T) <= self.beta
        self.agreed[t:t + rounds] = boxed
        self.n_desired[t:t + rounds] = 1
        for r in np.flatnonzero(~boxed).tolist():
            p = agreement_vector(pairwise_close(points[r], self.beta, self.links), self.links)
            agreed = self.agreed[t + r] = bool((p == 1.0).all())
            self.n_desired[t + r] = close_component_count(points[r], self.beta, self.links,
                                                          agreed)
        # all ones when the last round's box passed
        self.p = None if boxed[-1] else p
        target = self.models[self.block_models[:rounds]]
        d2 = squared_distances(self.block[1:rounds + 1].transpose(0, 2, 1), target[:, None, :])
        self.deviations[t:t + rounds] = d2[..., 0].sum(axis=1) / self.links.n
        self.block[0] = self.block[rounds]
        self.start += rounds

    def record_fields(self, n_ran):
        if n_ran > self.start:
            self.settle(n_ran - self.start)
        n = self.links.n
        return dict(all_agreed=self.agreed[:n_ran], n_desired_models=self.n_desired[:n_ran],
                    final_agreement=np.ones(n) if self.p is None else self.p.copy(),
                    msd_desired=self.deviations[:n_ran],
                    source_coverage=np.searchsorted(np.sort(self.depth),
                                                    np.arange(1, n_ran + 1), side="right"),
                    target_agent=self.target,
                    switch_adopt=np.zeros(n, dtype=int),
                    switch_random=np.zeros(n, dtype=int))


def run_follow(config, links, models, assignment, streams, *, check_invariants=False):
    """Run the follow-the-target loop on the static network of ``links``
    and return its :class:`RunRecord`; see ``netdecide.decision.run_rounds``.

    The target agent is ``config.target_agent`` (1-based). Success demands
    network-wide agreement on the target's observed model.
    """
    policy = AnchorRelay(config, links, models, check_invariants)
    return run_rounds(config, links, models, assignment, streams, policy,
                      check_invariants=check_invariants)
