"""Network-wide decision making on top of diffusion adaptation.

Every mode runs one synchronous round loop, :func:`run_rounds`: scheduled
reassignment, adaptation, cluster beliefs, aggregation, the closeness of
the previous desired estimates and the agreement degrees, the
desired-estimate stage, the estimate update, metrics, motion (mobile
swarms) and early stop. The desired-estimate stage is the loop's only
seam, and one of two policies fills it. Each policy also keeps its own
desired-deviation curve and record fields.

- :class:`MajoritySwitching` (decision-making and mobile swarms): agents
  label their neighbors' desired models locally and switch their own
  desired estimate when they disagree with the local majority, with a
  random tie-breaker that defuses evenly split standoffs. All
  non-unanimous agents are labeled and decided in one array batch.
- ``netdecide.follow.AnchorRelay`` (follow-the-target): a relayed copy of
  the target agent's output replaces local labeling.

Both then blend neighbor aggregates with previous estimates through two
complementary weight matrices built by :func:`update_desired_matrices`:
uniform weights over the agent's linked neighbors, split into a "fresh"
route for neighbors whose adaptation output is already near the agent's
anchor (its previous desired estimate, or the relayed target output), and
a "hold" route that keeps diffusing previous desired estimates otherwise.
The two are all the loop keeps of the split; their sum is the linked
weights.

A static topology is fixed for the whole run, so :func:`run_rounds`
builds its link index once (the rows and columns of the adjacency's True
entries) and the round is link-only. The smoothed beliefs, the
combination, fresh and hold weights and the closeness of the desired
estimates hold one value per link; the aggregation and the estimate
update add each column's link terms in link order. The switch stage
reads its pending agents' views from their adjacency rows and computes
closeness at the views' member pairs only, and the desired-model count
comes from ``netdecide.network.close_component_count``'s cell grid.
Every distance is per-pair elementwise arithmetic
(``netdecide.network.squared_distances``), so wherever a pair is tested
it reads the same bits, on any CPU. Mobile swarms rebuild their topology
every round and keep N x N arrays, the closeness matrix and its component
count, and BLAS products for the two sums.

All updates are synchronous: within one iteration every read sees the
state published at the previous barrier, and the switch stage publishes
(re-sends) updated desired estimates before the combination weights for
this round are built.
"""

from __future__ import annotations

import time

import numpy as np

from .diffusion import (adapt, aggregate, believed_neighborhoods,
                        check_divergence, combination_weights, link_sums,
                        update_cluster_matrices)
# benchmark/spans.py times the switch stage's labeling under this name, here
from .labeling import agreement_vector, view_from_closeness
from .metrics import (common_model, evaluate_success, final_agreement_block,
                      msd_observed as observed_msd)
from .network import (close_component_count, component_count, link_index,
                      pairwise_close, random_assignment, squared_distances)
from .records import RunRecord


class InvariantViolation(AssertionError):
    """A per-round structural invariant failed."""


def update_desired_matrices(linked, psi, anchors, threshold, links=None):
    """Split weights ``(fresh, hold)`` for one round.

    The uniform column-stochastic weights over ``linked`` are split by
    neighbor: a weight rides the fresh route when the neighbor's
    adaptation output is within ``threshold`` (squared norm) of the
    agent's anchor, and the hold route otherwise. Given ``links``,
    ``linked`` and both splits hold one value per link; otherwise they
    are N x N matrices.
    """
    weights = combination_weights(linked, links)
    pairs = () if links is None else (links.rows, links.cols)
    fresh = np.where(squared_distances(psi, anchors, *pairs) <= threshold, weights, 0.0)
    return fresh, weights - fresh


def update_estimate(phi, w_prev, fresh, hold, links=None):
    """Desired-estimate update: fresh-route aggregates plus hold-route
    previous estimates, columns normalized by construction.

    Given ``links``, each link contributes fresh * phi_l + hold * w_prev_l
    to its column, summed in link order; otherwise the update is two BLAS
    products.
    """
    if links is None:
        return fresh.T @ phi + hold.T @ w_prev
    terms = fresh[:, None] * phi[links.rows] + hold[:, None] * w_prev[links.rows]
    return link_sums(links, terms)


def apply_switching(w_prev, threshold, adjacency, p, rngs, equilibrium_break):
    """Run the switch stage for every non-unanimous agent (p_k < 1) and
    return ``(updated, adopted, drawn)``: the estimates after it and the
    ids of the agents that adopted a majority or drew a neighbor.

    Neighbors are of one class when their previous desired estimates
    ``w_prev`` are close (``threshold``, squared norm) to the same members
    of the view. An agent outside its local majority class (the largest,
    ties going to its own class, then to the smallest leading member)
    adopts the majority's smallest member. With ``equilibrium_break`` a
    majority member of a two-class view copies a neighbor drawn uniformly
    by its own generator, which defuses evenly split standoffs. All
    decisions read the pre-switch estimates; the copies are applied
    together, which is the intra-round re-send barrier.
    """
    pending = np.flatnonzero(p < 1.0)
    if pending.size == 0:
        return w_prev, pending, pending
    slots, same = view_from_closeness(w_prev, threshold, adjacency[pending])
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
    width = (slots >= 0).sum(axis=1)
    for v in np.flatnonzero(draw):
        k = pending[v]
        updated[k] = w_prev[slots[v, rngs[k].integers(0, width[v])]]
    return updated, pending[adopt], pending[draw]


def verify_round(*, links, combination, support, smoothed, fresh, hold, close,
                 adjacency, w_prev, threshold, n_desired, phi, psi, tol=1e-12):
    """Structural checks applied after each round when instrumentation is on.

    Every per-pair argument holds one value per link of ``links``, as the
    round of a static network keeps them. The round's results are held to
    dense N x N references: ``support`` and the weights' support to the
    believed neighborhoods of ``smoothed`` within the adjacency, ``close``
    (the closeness of the desired estimates ``w_prev`` at the links) to
    the dense relation, and ``n_desired`` to that relation's component
    count.
    """
    def column_sums(values):
        return np.bincount(links.cols, weights=values, minlength=links.n)

    at = (links.rows, links.cols)
    if np.abs(column_sums(combination) - 1.0).max() > tol:
        raise InvariantViolation("aggregation weights are not column-stochastic")
    beliefs = np.zeros((links.n, links.n))
    beliefs[at] = smoothed
    believed = (believed_neighborhoods(beliefs) & adjacency)[at]
    if not np.array_equal(support, believed):
        raise InvariantViolation("aggregation support differs from the believed neighborhoods")
    if not np.array_equal(combination > 0, believed):
        raise InvariantViolation("aggregation weight outside believed support")
    dense = pairwise_close(w_prev, threshold)
    if not np.array_equal(dense, dense.T) or not dense.diagonal().all():
        raise InvariantViolation("desired-model closeness must be symmetric with unit diagonal")
    if not np.array_equal(close, dense[at]):
        raise InvariantViolation("link closeness differs from the dense relation")
    if n_desired != component_count(dense):
        raise InvariantViolation("desired-model count differs from the dense relation's")
    if smoothed.min() < 0.0 or smoothed.max() > 1.0:
        raise InvariantViolation("smoothed indicators left [0, 1]")
    if ((fresh > 0) & (hold > 0)).any():
        raise InvariantViolation("fresh and hold supports overlap")
    total = fresh + hold
    if np.abs(column_sums(total) - 1.0).max() > tol:
        raise InvariantViolation("split weights are not column-stochastic")
    if ((total > 0) & ~adjacency[at]).any():
        raise InvariantViolation("desired weights outside the adjacency")
    # aggregates stay in the convex hull of the estimates they combine
    rows, cols = links.rows[support], links.cols[support]
    lo = np.full_like(phi, np.inf)
    hi = np.full_like(phi, -np.inf)
    np.minimum.at(lo, cols, psi[rows])
    np.maximum.at(hi, cols, psi[rows])
    if (phi < lo - 1e-9).any() or (phi > hi + 1e-9).any():
        raise InvariantViolation("aggregate left the convex hull of its support")


class MajoritySwitching:
    """Desired-estimate stage of decision-making and mobile swarms.

    Non-unanimous agents copy their local majority's estimate (see
    :func:`apply_switching`), counting each switch by case. The desired
    deviation is tracked against every model and, once the run is over,
    kept for the model the final agreement stretch sits closest to.
    """

    mode = "decide"
    stops_early = True

    def __init__(self, config, n_agents, n_models, rngs):
        self.beta = config.beta
        self.equilibrium_break = config.equilibrium_break
        self.rngs = rngs
        self.adopt_counts = np.zeros(n_agents, dtype=int)
        self.random_counts = np.zeros(n_agents, dtype=int)
        self.deviations = np.zeros((config.max_iters, n_models))

    def desired(self, t, w_prev, psi, close, p, adjacency, links):
        w_prev, adopted, drawn = apply_switching(
            w_prev, self.beta, adjacency, p, self.rngs, self.equilibrium_break)
        if adopted.size or drawn.size:
            self.adopt_counts[adopted] += 1
            self.random_counts[drawn] += 1
            close = pairwise_close(w_prev, self.beta, links)
        linked = close & adjacency if links is None else close
        fresh, hold = update_desired_matrices(linked, psi, w_prev, self.beta, links)
        return w_prev, close, fresh, hold

    def track(self, t, w, models, assignment):
        self.deviations[t] = squared_distances(w, models).mean(axis=0)

    def record_fields(self, n_ran, agreed):
        deviations = self.deviations[:n_ran]
        msd_desired = np.full(n_ran, np.nan)
        block = final_agreement_block(agreed)
        if block is not None:
            target_model = int(np.argmin(deviations[block]))
            msd_desired[block:] = deviations[block:, target_model]
        return dict(msd_desired=msd_desired, source_coverage=None, target_agent=None,
                    switch_adopt=self.adopt_counts, switch_random=self.random_counts)


def run_rounds(config, topology, models, streams, policy, *,
               check_invariants=False, motion=None):
    """Run the round loop with ``policy`` as its desired-estimate stage and
    return the run's :class:`RunRecord`.

    ``models`` must carry an assignment. When ``motion`` is given (mobile
    swarms) it is stepped at the end of every round and returns the
    topology for the next one.

    Raises
    ------
    DivergenceError
        When any agent's adaptation estimate exceeds one thousand times
        the largest model norm.
    """
    started = time.perf_counter()
    n = topology.n_agents
    n_models = models.n_models
    n_iters = config.max_iters
    assignment = models.assignment.copy()
    observed = models.models[assignment]
    adjacency = topology.adjacency
    degrees = topology.degrees
    # a static network's links, on which the neighborhood stages run
    links = link_index(adjacency) if motion is None else None
    bound = 1e3 * max(np.linalg.norm(models.models, axis=1).max(), 1.0)
    reassign_at = set(config.reassign_at)

    psi = np.zeros((n, models.dim))
    phi = np.zeros((n, models.dim))
    smoothed = np.eye(n) if links is None else (links.rows == links.cols).astype(float)
    w_prev = None

    msd_observed = np.full((n_iters, n_models), np.nan)
    agreed = np.zeros(n_iters, dtype=bool)
    n_desired = np.zeros(n_iters, dtype=int)
    p = np.zeros(n)

    # a settled network cannot unsettle: with every p_k = 1 no switch ever
    # fires again and the estimate update only contracts toward the common
    # model, so once agreement has held t_hold rounds and every estimate
    # sits within the grouping threshold of one model the remaining rounds
    # are inert and may be skipped
    may_stop = config.early_stop and motion is None and policy.stops_early
    last_reassign = max(reassign_at, default=0)
    streak = 0
    n_ran = n_iters

    for i in range(1, n_iters + 1):
        t = i - 1
        if i in reassign_at:
            assignment = random_assignment(n, n_models, streams.reassign)
            observed = models.models[assignment]

        d, u = streams.data.round(i, observed)
        psi = adapt(psi, u, d, config.step_size)
        check_divergence(psi, bound)
        if i == 1:
            w_prev = psi.copy()

        smoothed = update_cluster_matrices(smoothed, psi, phi, adjacency,
                                           config.alpha, config.smoothing, links)
        support = believed_neighborhoods(smoothed, links)
        if links is None:
            support &= adjacency
        combination = combination_weights(support, links)
        phi = aggregate(combination, psi, links)

        close = pairwise_close(w_prev, config.beta, links)
        p = agreement_vector(close & adjacency if links is None else close, degrees, links)
        agreed[t] = bool((p == 1.0).all())
        streak = streak + 1 if agreed[t] else 0

        w_prev, close, fresh, hold = policy.desired(t, w_prev, psi, close, p,
                                                    adjacency, links)
        n_desired[t] = (component_count(close) if links is None
                        else close_component_count(w_prev, config.beta))
        w = update_estimate(phi, w_prev, fresh, hold, links)

        msd_observed[t] = observed_msd(phi, models.models, assignment)
        policy.track(t, w, models.models, assignment)

        if check_invariants:
            # mobile's N x N arrays are read as one value per pair of agents
            pairs = links if links is not None else link_index(np.ones((n, n), dtype=bool))
            verify_round(links=pairs, combination=combination.ravel(),
                         support=support.ravel(), smoothed=smoothed.ravel(),
                         fresh=fresh.ravel(), hold=hold.ravel(), close=close.ravel(),
                         adjacency=adjacency, w_prev=w_prev, threshold=config.beta,
                         n_desired=n_desired[t], phi=phi, psi=psi)

        if motion is not None:
            topology = motion.step(i, w, topology)
            adjacency = topology.adjacency
            degrees = topology.degrees
        w_prev = w

        if (may_stop and streak >= config.t_hold and i >= last_reassign
                and common_model(w, models.models, config.beta) is not None):
            n_ran = i
            break

    record = RunRecord(
        mode="mobile" if motion is not None else policy.mode,
        n_iters=n_ran,
        msd_observed=msd_observed[:n_ran],
        all_agreed=agreed[:n_ran],
        n_desired_models=n_desired[:n_ran],
        models=models.models.copy(),
        assignment=assignment,
        final_w=w_prev.copy(),
        final_agreement=p.copy(),
        success=False,
        final_model=None,
        threshold=config.beta,
        t_hold=config.t_hold,
        trajectory=None if motion is None else motion.trajectory(),
        final_positions=None if motion is None else motion.positions.copy(),
        max_speed_observed=None if motion is None else motion.max_observed_speed,
        wall_time=time.perf_counter() - started,
        **policy.record_fields(n_ran, agreed[:n_ran]),
    )
    record.success, record.final_model = evaluate_success(record)
    return record


def run_decision(config, topology, models, streams, *, check_invariants=False,
                 motion=None):
    """Run decision-making (mobile swarms when ``motion`` is given) and
    return its :class:`RunRecord`; see :func:`run_rounds`."""
    policy = MajoritySwitching(config, topology.n_agents, models.n_models,
                               streams.decision)
    return run_rounds(config, topology, models, streams, policy,
                      check_invariants=check_invariants, motion=motion)
