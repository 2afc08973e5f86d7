"""Network-wide decision making on top of diffusion adaptation.

Every mode runs one synchronous round loop, :func:`run_rounds`: scheduled
reassignment, adaptation, cluster beliefs, aggregation, the desired-estimate
stage, the estimate update, the observed-model deviations, motion (mobile
swarms) and early stop. The desired-estimate stage is the loop's only seam,
and one of two policies fills it. Each policy keeps what a round records of
its desired estimates: whether every link joins close estimates (all
agreed), the desired-model count, the last agreement degrees p_k and the
desired-deviation curve.

- :class:`MajoritySwitching` (decision-making and mobile swarms) reads these
  facts, so it keeps them every round and decides the early stop: agreement
  from the closeness at the links, p only on a round some link disagrees,
  the count after its switches, and a deviation row only on agreed rounds,
  the only rows its record keeps. Agents label their neighbors' desired
  models locally and switch their own desired estimate when they disagree
  with the local majority. In a two-class view, however it splits, a
  majority member copies a neighbor drawn uniformly: a voter step, on which
  agreement rests (about 82% of switches are such draws; without them no
  N=80 trial of twenty agrees). All non-unanimous agents are labeled and
  decided in one array batch.
- ``netdecide.follow.AnchorRelay`` (follow-the-target): a relayed copy of
  the target agent's output replaces local labeling. No round of the relay
  reads the facts, so it settles them a bounded block of rounds at a time.

Each policy hands the loop uniform weights over every agent's linked
neighbors and the anchors (the desired estimates, or the relayed target
output). :func:`update_desired_matrices` marks the links whose neighbor's
adaptation output is near the agent's anchor, and the estimate update sends
a marked link's weight down the "fresh" route, onto the neighbor's
aggregate, and any other down the "hold" route, onto its previous desired
estimate.

Every stage takes the round's neighborhood, a ``netdecide.network.Links``,
fixed for a static network's run and rebuilt every round for a mobile
swarm; only the invariant checks build dense N x N references. A round's
desired models are counted by ``netdecide.network.close_component_count``
given the round's links and whether every p_k = 1. The combination weights
depend on their support alone, and are rebuilt only when it changes.

All updates are synchronous: within one iteration every read sees the
state published at the previous barrier, and the switch stage publishes
(re-sends) updated desired estimates before the combination weights for
this round are built.
"""

from __future__ import annotations

import time

import numpy as np

from .diffusion import (adapt, aggregate, believed_neighborhoods,
                        check_divergence, combination_weights,
                        update_cluster_matrices)
# benchmark/spans.py times the switch stage's labeling under this name, here
from .labeling import agreement_vector, view_from_closeness
from .metrics import (common_model, evaluate_success, final_agreement_block,
                      msd_observed as observed_msd)
from .network import (close_component_count, close_matrix, component_count, link_grid,
                      pairwise_close, random_assignment, squared_distances)
from .records import RunRecord


class InvariantViolation(AssertionError):
    """A per-round structural invariant failed."""


def update_desired_matrices(psi, anchors, threshold, links):
    """The links whose neighbor rides the fresh route this round: those
    (l, k) where the neighbor's adaptation output ``psi[l]`` is within
    ``threshold`` (squared norm) of the agent's anchor ``anchors[k]``.
    Every other link holds."""
    return squared_distances(psi, anchors, links.rows, links.cols) <= threshold


def update_estimate(phi, w_prev, weights, near, links):
    """Desired-estimate update: each link's weight (column-stochastic,
    uniform over each agent's linked neighbors) on the neighbor's aggregate
    where ``near`` marks it, on its previous estimate otherwise."""
    return links.route_sums(weights, near, phi, w_prev)


def apply_switching(w_prev, threshold, p, rng, equilibrium_break, links):
    """Run the switch stage for every non-unanimous agent (p_k < 1) and
    return ``(updated, adopted, drawn)``: the estimates after it and the
    ids of the agents that adopted a majority or drew a neighbor.

    An agent's view is its closed neighborhood, its links in ``links``.
    Neighbors are of one class when their previous desired estimates
    ``w_prev`` are close (``threshold``, squared norm) to the same members
    of the view. An agent outside its local majority class (the largest,
    ties going to its own class, then to the smallest leading member)
    adopts the majority's smallest member. With ``equilibrium_break`` a
    majority member of any two-class view, a 4-vs-2 split as much as an
    even one, copies a neighbor of its view drawn uniformly: a voter step.
    Most switches are such draws, and without them the dynamics freeze
    short of agreement. ``rng`` makes every such draw of the round in one
    call, in ascending agent order. All decisions read the pre-switch
    estimates; the copies are applied together, which is the intra-round
    re-send barrier.
    """
    pending = np.flatnonzero(p < 1.0)
    if pending.size == 0:
        return w_prev, pending, pending
    views = links.restrict((p < 1.0)[links.rows])
    members, width = links.pairs(views)[1], links.counts(views, axis=1)[pending]
    slots, same = view_from_closeness(w_prev, threshold, members, width)
    size = same.sum(axis=2)
    best = size.max(axis=1)
    # each view holds its viewer in exactly one slot
    adopt = size[slots == pending[:, None]] < best
    # the first slot of largest-class size leads the first largest class
    first = np.argmax(size == best[:, None], axis=1)
    # a slot leads its class when its first equal-label slot is itself
    classes = (same.argmax(axis=2) == np.arange(slots.shape[1])).sum(axis=1)
    draw = ~adopt & (classes == 2) & equilibrium_break

    updated = w_prev.copy()
    updated[pending[adopt]] = w_prev[slots[adopt, first[adopt]]]
    updated[pending[draw]] = w_prev[slots[draw, rng.integers(0, width[draw])]]
    return updated, pending[adopt], pending[draw]


# rows a record curve grows by: it holds the rounds run, not max_iters rows
_CURVE_ROWS = 64


def grown(curve, t, cap):
    """``curve`` when it has a row ``t``, else a copy with zero rows up to
    the next multiple of ``_CURVE_ROWS`` past ``t``, never more than
    ``cap`` rows in all."""
    if t < len(curve):
        return curve
    out = np.zeros((min((t // _CURVE_ROWS + 1) * _CURVE_ROWS, cap), *curve.shape[1:]),
                   dtype=curve.dtype)
    out[:len(curve)] = curve
    return out


# how far verify_round lets a weight column's sum stray from 1
_SUM_TOL = 1e-12


def verify_round(*, links, combination, support, smoothed, weights, adjacency,
                 w_prev, desired, threshold, agreed, n_desired, phi, psi):
    """Structural checks applied after each round when instrumentation is on.

    Every per-pair argument holds the round's values at the pairs of
    ``links``. The round's results are held to dense N x N references:
    ``support`` and the weights' support to the believed neighborhoods of
    ``smoothed`` within the ``adjacency``, ``agreed`` to whether the dense
    closeness of the previous desired estimates ``w_prev`` holds at every
    link, and ``n_desired`` to the component count of the dense closeness
    of the ``desired`` estimates the stage handed on.
    """
    def column_sums(values):
        return links.sums((values, np.ones((links.n, 1))))[:, 0]

    at = (links.rows, links.cols)
    if np.abs(column_sums(combination) - 1.0).max() > _SUM_TOL:
        raise InvariantViolation("aggregation weights are not column-stochastic")
    beliefs = np.zeros((links.n, links.n))
    beliefs[at] = smoothed
    believed = believed_neighborhoods(beliefs, link_grid(adjacency))[at]
    if not np.array_equal(support, believed):
        raise InvariantViolation("aggregation support differs from the believed neighborhoods")
    if not np.array_equal(combination > 0, believed):
        raise InvariantViolation("aggregation weight outside believed support")
    dense = close_matrix(w_prev, threshold)
    if not np.array_equal(dense, dense.T) or not dense.diagonal().all():
        raise InvariantViolation("desired-model closeness must be symmetric with unit diagonal")
    if agreed != bool(dense[adjacency].all()):
        raise InvariantViolation("agreement flag differs from the dense relation")
    if n_desired != component_count(close_matrix(desired, threshold)):
        raise InvariantViolation("desired-model count differs from the dense relation's")
    if smoothed.min() < 0.0 or smoothed.max() > 1.0:
        raise InvariantViolation("smoothed indicators left [0, 1]")
    if np.abs(column_sums(weights) - 1.0).max() > _SUM_TOL:
        raise InvariantViolation("desired weights are not column-stochastic")
    if ((weights > 0) & ~adjacency[at]).any():
        raise InvariantViolation("desired weights outside the adjacency")
    # aggregates stay in the convex hull of the estimates they combine
    rows, cols = links.pairs(support)
    lo = np.full_like(phi, np.inf)
    hi = np.full_like(phi, -np.inf)
    np.minimum.at(lo, cols, psi[rows])
    np.maximum.at(hi, cols, psi[rows])
    if (phi < lo - 1e-9).any() or (phi > hi + 1e-9).any():
        raise InvariantViolation("aggregate left the convex hull of its support")


class MajoritySwitching:
    """Desired-estimate stage of decision-making and mobile swarms.

    Non-unanimous agents copy their local majority's estimate or, in a
    two-class view, draw a neighbor's: the voter step agreement rests on
    (see :func:`apply_switching`). Each switch is counted by case. Every
    round keeps its facts (see the module notes). The desired deviation is
    tracked against every model on agreed rounds and, once the run is over,
    kept for the model the final agreement stretch starts closest to. A
    decision-making run stops once agreement has held ``t_hold`` rounds
    with every estimate near one model.
    """

    def __init__(self, config, n_agents, models, rng):
        self.beta = config.beta
        self.equilibrium_break = config.equilibrium_break
        self.rng = rng
        self.models = models
        self.adopt_counts = np.zeros(n_agents, dtype=int)
        self.random_counts = np.zeros(n_agents, dtype=int)
        self.max_iters = config.max_iters
        self.agreed = np.zeros(0, dtype=bool)
        self.n_desired = np.zeros(0, dtype=int)
        self.deviations = np.zeros((0, len(models)))
        # the last round's agreement degrees; None when every p_k = 1
        self.p = None
        # a settled network cannot unsettle: with every p_k = 1 no switch ever
        # fires again and the estimate update only contracts toward the common
        # model, so once agreement has held t_hold rounds and every estimate
        # sits within the grouping threshold of one model the remaining rounds
        # are inert and may be skipped. A swarm's links move, so it runs on.
        self.may_stop = config.early_stop and config.mode == "decide"
        self.t_hold = config.t_hold
        self.last_reassign = max(config.reassign_at, default=0)
        self.streak = 0

    def desired(self, t, w_prev, psi, links):
        close = pairwise_close(w_prev, self.beta, links)
        # every link close is every p_k = 1
        agreed = links.every(close)
        self.p = None
        if not agreed:
            self.p = agreement_vector(close, links)
            w_prev, adopted, drawn = apply_switching(
                w_prev, self.beta, self.p, self.rng, self.equilibrium_break, links)
            if adopted.size or drawn.size:
                self.adopt_counts[adopted] += 1
                self.random_counts[drawn] += 1
                close = pairwise_close(w_prev, self.beta, links)
        self.agreed, self.n_desired = (grown(curve, t, self.max_iters)
                                       for curve in (self.agreed, self.n_desired))
        self.agreed[t] = agreed
        self.streak = self.streak + 1 if agreed else 0
        # an agreed round switches no one, so its links hold close estimates
        self.n_desired[t] = close_component_count(w_prev, self.beta, links, agreed)
        # linked where the desired estimates are close, anchored at them
        return w_prev, combination_weights(close, links), w_prev

    def track(self, t, w, assignment):
        """Record round ``t``'s updated estimates ``w``; True when the
        rounds left are inert."""
        if self.agreed[t]:
            self.deviations = grown(self.deviations, t, self.max_iters)
            self.deviations[t] = squared_distances(w, self.models).sum(axis=0) / len(w)
        return bool(self.may_stop and self.streak >= self.t_hold and t + 1 >= self.last_reassign
                    and common_model(w, self.models, self.beta) is not None)

    def record_fields(self, n_ran):
        agreed = self.agreed[:n_ran]
        msd_desired = np.full(n_ran, np.nan)
        block = final_agreement_block(agreed)
        if block is not None:
            target_model = int(np.argmin(self.deviations[block]))
            msd_desired[block:] = self.deviations[block:n_ran, target_model]
        n = len(self.adopt_counts)
        return dict(all_agreed=agreed, n_desired_models=self.n_desired[:n_ran],
                    final_agreement=np.ones(n) if self.p is None else self.p.copy(),
                    msd_desired=msd_desired, source_coverage=None, target_agent=None,
                    switch_adopt=self.adopt_counts, switch_random=self.random_counts)


def run_rounds(config, links, models, assignment, streams, policy, *,
               check_invariants=False, motion=None):
    """Run the round loop with ``policy`` as its desired-estimate stage and
    return the run's :class:`RunRecord`.

    ``links`` is the network's ``netdecide.network.Links``, ``models`` the
    (C, M) array of model vectors and ``assignment`` the (N,) array of
    each agent's 0-based model. A mobile swarm also passes its ``motion``,
    which is stepped at the end of every round, and the next round reads
    its ``links``.

    Raises
    ------
    DivergenceError
        When any agent's adaptation estimate exceeds one thousand times
        the largest model norm.
    """
    started = time.perf_counter()
    n = len(assignment)
    n_models, dim = models.shape
    n_iters = config.max_iters
    assignment = assignment.copy()
    # the assignment's constants, refreshed at each reassignment: each
    # agent's model row and each model's follower count
    observed = models[assignment]
    followers = np.bincount(assignment, minlength=n_models)
    bound = 1e3 * max(np.linalg.norm(models, axis=1).max(), 1.0)
    reassign_at = set(config.reassign_at)

    psi = np.zeros((n, dim))
    phi = np.zeros((n, dim))
    smoothed = links.loops.astype(float)
    w_prev = None
    support = combination = None
    msd_observed = np.zeros((0, n_models))
    n_ran = n_iters

    for i in range(1, n_iters + 1):
        t = i - 1
        msd_observed = grown(msd_observed, t, n_iters)
        if i in reassign_at:
            assignment = random_assignment(n, n_models, streams.reassign)
            observed = models[assignment]
            followers = np.bincount(assignment, minlength=n_models)

        d, u = streams.data.round(i, observed)
        psi = adapt(psi, u, d, config.step_size)
        check_divergence(psi, bound)
        if i == 1:
            w_prev = psi.copy()

        smoothed = update_cluster_matrices(smoothed, psi, phi, config.alpha,
                                           config.smoothing, links)
        believed = believed_neighborhoods(smoothed, links)
        # the weights are the support's alone, and it seldom changes
        if support is None or (believed != support).any():
            combination = combination_weights(believed, links)
        support = believed
        phi = aggregate(combination, psi, links)

        desired, weights, anchors = policy.desired(t, w_prev, psi, links)
        near = update_desired_matrices(psi, anchors, config.beta, links)
        w = update_estimate(phi, desired, weights, near, links)

        msd_observed[t] = observed_msd(phi, observed, assignment, followers)
        inert = policy.track(t, w, assignment)

        if check_invariants:
            verify_round(links=links, combination=combination, support=support,
                         smoothed=smoothed, weights=weights, adjacency=links.adjacency(),
                         w_prev=w_prev, desired=desired, threshold=config.beta,
                         agreed=policy.agreed[t], n_desired=policy.n_desired[t],
                         phi=phi, psi=psi)

        if motion is not None:
            motion.step(i, w)
            links = motion.links
        w_prev = w
        if inert:
            n_ran = i
            break

    record = RunRecord(
        mode=config.mode,
        n_iters=n_ran,
        msd_observed=msd_observed[:n_ran],
        models=models.copy(),
        assignment=assignment,
        final_w=w_prev.copy(),
        success=False,
        final_model=None,
        threshold=config.beta,
        t_hold=config.t_hold,
        trajectory=None if motion is None else motion.trajectory(),
        final_positions=None if motion is None else motion.positions.copy(),
        max_speed_observed=None if motion is None else motion.max_observed_speed,
        wall_time=time.perf_counter() - started,
        **policy.record_fields(n_ran),
    )
    record.success, record.final_model = evaluate_success(record)
    return record


def run_decision(config, links, models, assignment, streams, *,
                 check_invariants=False, motion=None):
    """Run decision-making on the network of ``links`` (and a mobile
    swarm's ``motion``) and return its :class:`RunRecord`; see :func:`run_rounds`."""
    policy = MajoritySwitching(config, len(assignment), models, streams.decision)
    return run_rounds(config, links, models, assignment, streams, policy,
                      check_invariants=check_invariants, motion=motion)
