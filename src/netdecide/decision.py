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
  random tie-breaker that defuses evenly split standoffs.
- ``netdecide.follow.AnchorRelay`` (follow-the-target): a relayed copy of
  the target agent's output replaces local labeling.

Both then blend neighbor aggregates with previous estimates through two
complementary weight matrices: a "fresh" route for neighbors whose
adaptation output is already near the agent's desired model, and a "hold"
route that keeps diffusing previous desired estimates otherwise.

All updates are synchronous: within one iteration every read sees the
state published at the previous barrier, and the switch stage publishes
(re-sends) updated desired estimates before the combination weights for
this round are built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .diffusion import (ClusterMatrices, adapt, aggregate, believed_neighborhoods,
                        check_divergence, combination_weights, update_cluster_matrices)
from .labeling import agreement_vector, view_from_closeness
from .metrics import (common_model, evaluate_success, final_agreement_block,
                      msd_observed as observed_msd)
from .network import (component_count, pairwise_close, random_assignment,
                      squared_distances)
from .records import RunRecord


class InvariantViolation(AssertionError):
    """A per-round structural invariant failed."""


@dataclass(eq=False)
class DesiredMatrices:
    """Weight structure of the desired-estimate update.

    linked : ndarray of bool
        Neighbor pairs currently holding the same desired model
        (symmetric, True diagonal).
    weights : ndarray
        Uniform column-stochastic weights over ``linked``.
    fresh : ndarray
        Portion of ``weights`` applied to current neighbor aggregates.
    hold : ndarray
        Complementary portion applied to previous desired estimates.
    """

    linked: np.ndarray
    weights: np.ndarray
    fresh: np.ndarray
    hold: np.ndarray


def update_desired_matrices(w_prev, psi, adjacency, threshold, close):
    """Build the split weight matrices for one round.

    A neighbor's weight rides the fresh route when its adaptation output
    is within ``threshold`` (squared norm) of the agent's previous desired
    estimate, and the hold route otherwise.
    """
    linked = close & adjacency
    weights = combination_weights(linked)
    refresh = squared_distances(psi, w_prev) <= threshold
    fresh = np.where(refresh, weights, 0.0)
    return DesiredMatrices(linked=linked, weights=weights, fresh=fresh,
                           hold=weights - fresh)


def update_estimate(phi, w_prev, matrices):
    """Desired-estimate update: fresh-route aggregates plus hold-route
    previous estimates, columns normalized by construction."""
    return matrices.fresh.T @ phi + matrices.hold.T @ w_prev


def switch_decision(agent, view, rng, equilibrium_break=True):
    """Decide whose previous desired estimate ``agent`` should copy.

    Returns ``(source, case)`` where ``case`` is "majority" when the agent
    joins the local majority class, "random" when an evenly split view is
    defused by copying a uniformly drawn neighbor (majority members more
    likely to be drawn), or ``(None, None)`` to keep the current estimate.
    """
    if view.agreement == 1.0:
        return None, None
    if agent not in view.majority:
        return int(view.majority.min()), "majority"
    if equilibrium_break and view.model_count == 2:
        members = view.members
        return int(members[rng.integers(0, len(members))]), "random"
    return None, None


def apply_switching(w_prev, close, topology, p, rngs, equilibrium_break,
                    adopt_counts, random_counts):
    """Run the switch stage for every non-unanimous agent.

    All decisions read the published pre-switch estimates; the copies are
    applied together, which is the intra-round re-send barrier.
    """
    pending = np.flatnonzero(p < 1.0)
    if pending.size == 0:
        return w_prev, False
    updated = w_prev.copy()
    changed = False
    for k in pending:
        view = view_from_closeness(k, close, topology.neighbors[k])
        source, case = switch_decision(k, view, rngs[k], equilibrium_break)
        if source is None:
            continue
        updated[k] = w_prev[source]
        changed = True
        if case == "majority":
            adopt_counts[k] += 1
        else:
            random_counts[k] += 1
    return updated, changed


def verify_round(*, combination, support, cluster, matrices, close, adjacency,
                 phi, psi, tol=1e-12):
    """Structural checks applied after each round when instrumentation is on."""
    colsum = combination.sum(axis=0)
    if np.abs(colsum - 1.0).max() > tol:
        raise InvariantViolation("aggregation weights are not column-stochastic")
    if ((combination > 0) & ~support).any():
        raise InvariantViolation("aggregation weight outside believed support")
    if not np.array_equal(close, close.T) or not close.diagonal().all():
        raise InvariantViolation("desired-model closeness must be symmetric with unit diagonal")
    if not np.array_equal(cluster.beliefs, cluster.smoothed >= 0.5):
        raise InvariantViolation("beliefs must equal smoothed indicators rounded half-up")
    if cluster.smoothed.min() < 0.0 or cluster.smoothed.max() > 1.0:
        raise InvariantViolation("smoothed indicators left [0, 1]")
    if ((matrices.fresh > 0) & (matrices.hold > 0)).any():
        raise InvariantViolation("fresh and hold supports overlap")
    total = matrices.fresh + matrices.hold
    if np.abs(total - matrices.weights).max() > tol:
        raise InvariantViolation("fresh + hold must reproduce the linked weights")
    if np.abs(total.sum(axis=0) - 1.0).max() > tol:
        raise InvariantViolation("split weights are not column-stochastic")
    if ((matrices.weights > 0) & ~(matrices.linked & adjacency)).any():
        raise InvariantViolation("desired weights outside the linked support")
    # aggregates stay in the convex hull of the estimates they combine
    lo = np.where(support[:, :, None], psi[:, None, :], np.inf).min(axis=0)
    hi = np.where(support[:, :, None], psi[:, None, :], -np.inf).max(axis=0)
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

    def desired(self, t, w_prev, psi, close, p, topology):
        w_prev, changed = apply_switching(
            w_prev, close, topology, p, self.rngs, self.equilibrium_break,
            self.adopt_counts, self.random_counts)
        if changed:
            close = pairwise_close(w_prev, self.beta)
        matrices = update_desired_matrices(w_prev, psi, topology.adjacency,
                                           self.beta, close)
        return w_prev, close, matrices

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
    bound = 1e3 * max(np.linalg.norm(models.models, axis=1).max(), 1.0)
    reassign_at = set(config.reassign_at)

    psi = np.zeros((n, models.dim))
    phi = np.zeros((n, models.dim))
    cluster = ClusterMatrices.initial(n)
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
    hold = 0
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

        cluster = update_cluster_matrices(cluster, psi, phi, adjacency,
                                          config.alpha, config.smoothing)
        support = believed_neighborhoods(cluster.beliefs) & adjacency
        combination = combination_weights(support)
        phi = aggregate(combination, psi)

        close = pairwise_close(w_prev, config.beta)
        p = agreement_vector(close, adjacency, degrees)
        agreed[t] = bool((p == 1.0).all())
        hold = hold + 1 if agreed[t] else 0

        w_prev, close, matrices = policy.desired(t, w_prev, psi, close, p, topology)
        n_desired[t] = component_count(close)
        w = update_estimate(phi, w_prev, matrices)

        msd_observed[t] = observed_msd(phi, models.models, assignment)
        policy.track(t, w, models.models, assignment)

        if check_invariants:
            verify_round(combination=combination, support=support,
                         cluster=cluster, matrices=matrices, close=close,
                         adjacency=adjacency, phi=phi, psi=psi)

        if motion is not None:
            topology = motion.step(i, w, topology)
            adjacency = topology.adjacency
            degrees = topology.degrees
        w_prev = w

        if (may_stop and hold >= config.t_hold and i >= last_reassign
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
        final_positions=None if motion is None else motion.state.positions.copy(),
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
