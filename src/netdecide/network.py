"""Network scaffolding: geometric topologies, ground-truth models, noise
profiles, and the synthetic data streams the agents adapt on.

Agents live on an undirected graph with self-loops; every neighborhood is
closed (an agent is always its own neighbor) and degree counts include the
self-loop. Each agent observes a scalar stream d = u . w + v generated from
the ground-truth model it is assigned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class TopologyError(RuntimeError):
    """No feasible topology exists for the requested geometry."""


class DivergenceError(RuntimeError):
    """An agent's adaptive estimate left the sane region."""


def squared_distances(x, y=None):
    """Matrix of squared Euclidean distances D[i, j] = ||x_i - y_j||^2."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xx = (x * x).sum(axis=1)
    yy = (y * y).sum(axis=1)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def pairwise_close(points, threshold):
    """Symmetric boolean matrix of the test ||p_a - p_b||^2 <= threshold."""
    close = squared_distances(points) <= threshold
    # the test is symmetric; guard against one-ulp asymmetry in the distances
    close &= close.T
    return close


def bfs_depths(adjacency, root):
    """Hop counts from ``root``; -1 marks unreachable agents."""
    n = adjacency.shape[0]
    depth = np.full(n, -1, dtype=int)
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    d = 0
    while frontier.any():
        depth[frontier] = d
        reached = depth >= 0
        frontier = adjacency[:, frontier].any(axis=1) & ~reached
        d += 1
    return depth


def is_connected(adjacency):
    return bool((bfs_depths(adjacency, 0) >= 0).all())


def component_count(close):
    """Number of connected components of a symmetric boolean relation.

    A frontier sweep: a breadth-first search from the first agent no
    earlier search reached, repeated until every agent is reached; the
    number of searches is the count. Each level reads the rows of the
    frontier, which the symmetry makes equal to its columns.
    """
    close = np.asarray(close, dtype=bool)
    unreached = np.ones(close.shape[0], dtype=bool)
    count = 0
    while unreached.any():
        root = unreached.argmax()
        frontier = close[root] & unreached
        frontier[root] = True
        while frontier.any():
            unreached &= ~frontier
            frontier = close[frontier].any(axis=0) & unreached
        count += 1
    return count


@dataclass(eq=False)
class Topology:
    """Undirected agent graph with self-loops and 2-D coordinates.

    Attributes
    ----------
    adjacency : ndarray of bool, shape (N, N)
        Symmetric with a True diagonal (closed neighborhoods).
    positions : ndarray, shape (N, 2)
        Agent coordinates; abstract for static networks, body-length units
        for mobile swarms.
    """

    adjacency: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        self.positions = np.asarray(self.positions, dtype=float)
        self.degrees = self.adjacency.sum(axis=0)

    @cached_property
    def neighbors(self):
        """Closed neighborhood of each agent as an index array, built on
        first use: only the switch stage reads it, and mobile swarms
        rebuild their topology every round."""
        return [np.flatnonzero(col) for col in self.adjacency.T]

    @property
    def n_agents(self):
        return self.adjacency.shape[0]

    def validate(self):
        adj = self.adjacency
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise TopologyError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise TopologyError("adjacency must be symmetric")
        if not adj.diagonal().all():
            raise TopologyError("every agent must be its own neighbor")
        if self.positions.shape != (adj.shape[0], 2):
            raise TopologyError("positions must have shape (n_agents, 2)")
        return self


def _prune_degrees(adjacency, sqdist, max_degree, keep_connected):
    """Drop longest links at over-degree agents, in place.

    Links are visited longest first; a link is cut when either endpoint is
    still over the cap, unless cutting it would disconnect the graph and
    ``keep_connected`` is set. Returns True when every closed degree ends
    up <= max_degree.

    With ``keep_connected`` the graph must be connected on entry, and it
    stays connected after every cut. Cutting link a-b from a connected
    graph disconnects it exactly when b can no longer be reached from a,
    because every agent still reaches a or b without the link. So the
    whole-graph check reduces to a local one: a common neighbor of a and b
    settles it at once, and otherwise a search from a stops as soon as it
    reaches b. Both make the keep/cut decision a whole-graph check would.
    """
    deg = adjacency.sum(axis=0)
    if (deg <= max_degree).all():
        return True
    iu, ju = np.triu_indices_from(adjacency, k=1)
    present = adjacency[iu, ju]
    ea, eb = iu[present], ju[present]
    order = np.argsort(-sqdist[ea, eb], kind="stable")
    deg = deg.tolist()
    if keep_connected:
        nbrs = [set(np.flatnonzero(row).tolist()) - {k}
                for k, row in enumerate(adjacency)]
    cut_a, cut_b = [], []
    for a, b in zip(ea[order].tolist(), eb[order].tolist()):
        if deg[a] <= max_degree and deg[b] <= max_degree:
            continue
        if keep_connected:
            nbrs[a].discard(b)
            nbrs[b].discard(a)
            if nbrs[a].isdisjoint(nbrs[b]) and not _reaches(nbrs, a, b):
                nbrs[a].add(b)
                nbrs[b].add(a)
                continue
        cut_a.append(a)
        cut_b.append(b)
        deg[a] -= 1
        deg[b] -= 1
    adjacency[cut_a, cut_b] = False
    adjacency[cut_b, cut_a] = False
    return max(deg) <= max_degree


def _reaches(nbrs, a, b):
    """Whether ``b`` can be reached from ``a`` over the neighbor sets, by a
    breadth-first search that stops as soon as it sees ``b``."""
    seen = {a}
    frontier = [a]
    while frontier:
        grown = []
        for v in frontier:
            if b in nbrs[v]:
                return True
            fresh = nbrs[v] - seen
            seen |= fresh
            grown.extend(fresh)
        frontier = grown
    return False


def generate_topology(n_agents, max_degree=7, radius=0.18, seed=None, max_tries=50):
    """Connected random geometric graph on the unit square.

    Agents are placed uniformly at random and linked when closer than
    ``radius``; over-degree agents then shed their longest links while
    connectivity is preserved. Positions are resampled until both the
    degree cap and connectivity hold.

    Parameters
    ----------
    n_agents : int
        Number of agents.
    max_degree : int
        Cap on the closed neighborhood size (self-loop included).
    radius : float
        Link formation radius.
    seed : int, SeedSequence or Generator, optional
        Source of randomness.
    max_tries : int
        Placement attempts before giving up.

    Returns
    -------
    Topology

    Raises
    ------
    TopologyError
        If no feasible placement is found within ``max_tries`` attempts.
    """
    if n_agents < 1:
        raise TopologyError("n_agents must be positive")
    if max_degree < 1:
        raise TopologyError("max_degree must be at least 1 (the self-loop)")
    if radius <= 0:
        raise TopologyError("radius must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        positions = rng.random((n_agents, 2))
        d2 = squared_distances(positions)
        adjacency = d2 <= radius * radius
        np.fill_diagonal(adjacency, True)
        if not is_connected(adjacency):
            continue
        if _prune_degrees(adjacency, d2, max_degree, keep_connected=True):
            return Topology(adjacency, positions).validate()
    raise TopologyError(
        f"no connected topology with closed degree <= {max_degree} found for "
        f"{n_agents} agents at radius {radius} after {max_tries} tries"
    )


def two_clique_topology(clique_size=4):
    """Two complete cliques joined by a single bridge link.

    A stress pattern for consensus dynamics: every agent sits in a clear
    local majority, so nothing moves unless some tie-breaking rule injects
    randomness. The degree cap is intentionally not applied here.
    """
    c = int(clique_size)
    n = 2 * c
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[:c, :c] = True
    adjacency[c:, c:] = True
    adjacency[c - 1, c] = adjacency[c, c - 1] = True
    angles = np.linspace(0.0, 2 * np.pi, c, endpoint=False)
    blob = 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    positions = np.vstack([blob + [0.25, 0.5], blob + [0.75, 0.5]])
    return Topology(adjacency, positions).validate()


@dataclass(eq=False)
class ModelSet:
    """Ground-truth model vectors and the agent-to-model assignment.

    ``models`` has one row per model; ``assignment`` maps each agent to a
    row index (None until agents are assigned).
    """

    models: np.ndarray
    assignment: np.ndarray | None = None

    def __post_init__(self):
        self.models = np.atleast_2d(np.asarray(self.models, dtype=float))
        if self.assignment is not None:
            self.assignment = np.asarray(self.assignment, dtype=int)

    @property
    def n_models(self):
        return self.models.shape[0]

    @property
    def dim(self):
        return self.models.shape[1]


def generate_models(n_models, dim=2, value_range=(-1.0, 1.0), seed=None,
                    min_separation_sq=0.0, max_tries=1000):
    """Draw model vectors with entries uniform in ``value_range``.

    The whole set is redrawn until every pair is strictly farther apart
    than ``min_separation_sq`` (squared Euclidean), so that downstream
    proximity tests cannot confuse two models.
    """
    rng = np.random.default_rng(seed)
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("value_range must be increasing")
    for _ in range(max_tries):
        models = rng.uniform(lo, hi, size=(n_models, dim))
        if n_models < 2:
            return ModelSet(models)
        sep = squared_distances(models)
        np.fill_diagonal(sep, np.inf)
        if sep.min() > min_separation_sq:
            return ModelSet(models)
    raise RuntimeError(
        f"could not draw {n_models} models separated by more than "
        f"{min_separation_sq} (squared) in {max_tries} tries"
    )


def corner_models(value_range=(-1.0, 1.0)):
    """The four corners of the square box, as a :class:`ModelSet`.

    Row order is (lo,lo), (lo,hi), (hi,lo), (hi,hi). Used by mobile
    swarms, where sources double as locations to fly to.
    """
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("value_range must be increasing")
    return ModelSet(np.array([[lo, lo], [lo, hi], [hi, lo], [hi, hi]]))


def random_assignment(n_agents, n_models, rng):
    """Uniform agent-to-model assignment, resampled until no model is empty."""
    if n_models > n_agents:
        raise ValueError("need at least one agent per model")
    while True:
        assignment = rng.integers(0, n_models, size=n_agents)
        if np.unique(assignment).size == n_models:
            return assignment


def assign_agents(models, topology, seed=None):
    """Attach a uniform random assignment to ``models``; every model gets
    at least one follower."""
    rng = np.random.default_rng(seed)
    assignment = random_assignment(topology.n_agents, models.n_models, rng)
    return ModelSet(models.models, assignment)


@dataclass(eq=False)
class NoiseProfile:
    """Per-agent signal and noise statistics.

    sigma_v2 : ndarray, shape (N,)
        Measurement-noise variances.
    reg_power : ndarray, shape (N, M)
        Diagonal entries of each agent's regressor covariance.
    """

    sigma_v2: np.ndarray
    reg_power: np.ndarray

    def __post_init__(self):
        self.sigma_v2 = np.asarray(self.sigma_v2, dtype=float)
        self.reg_power = np.atleast_2d(np.asarray(self.reg_power, dtype=float))


def draw_noise_profile(n_agents, dim, seed=None, sigma_v2_range=(1e-3, 1e-2),
                       reg_power_range=(0.8, 1.2)):
    """Noise variances log-uniform in ``sigma_v2_range``; regressor powers
    uniform in ``reg_power_range``."""
    rng = np.random.default_rng(seed)
    lo, hi = sigma_v2_range
    sigma_v2 = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n_agents))
    reg_power = rng.uniform(*reg_power_range, size=(n_agents, dim))
    return NoiseProfile(sigma_v2, reg_power)


class DataStream:
    """Pre-generated regressor/noise blocks, one independent stream per agent.

    Each agent's block is drawn in a single pass from its own generator
    (regressors first, then noise scalars), so the realized data never
    depends on agent visit order or on how trials are scheduled.
    Observations are assembled on demand against the current observed
    models, which keeps mid-run reassignment cheap.
    """

    def __init__(self, noise, agent_seeds, n_iters):
        n = len(agent_seeds)
        dim = noise.reg_power.shape[1]
        self.u = np.empty((n_iters, n, dim))
        self.v = np.empty((n_iters, n))
        for k, entropy in enumerate(agent_seeds):
            g = np.random.default_rng(entropy)
            self.u[:, k, :] = g.standard_normal((n_iters, dim)) * np.sqrt(noise.reg_power[k])
            self.v[:, k] = g.standard_normal(n_iters) * np.sqrt(noise.sigma_v2[k])

    def round(self, i, observed):
        """Regressors and observations for 1-based iteration ``i``."""
        u = self.u[i - 1]
        d = (u * observed).sum(axis=1) + self.v[i - 1]
        return d, u


@dataclass
class StreamBundle:
    """All randomness one simulation run consumes."""

    data: DataStream
    decision: list
    reassign: np.random.Generator


def build_streams(noise, n_iters, seed):
    """Split ``seed`` into per-agent data streams, per-agent decision
    streams, and one reassignment stream (in that spawn order)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n = noise.reg_power.shape[0]
    children = root.spawn(2 * n + 1)
    data = DataStream(noise, children[:n], n_iters)
    decision = [np.random.default_rng(s) for s in children[n:2 * n]]
    return StreamBundle(data=data, decision=decision,
                        reassign=np.random.default_rng(children[2 * n]))


def network_to_json(topology, models):
    """Export a topology and model set as one JSON-ready document.

    Agents and model labels are 1-based; self-loops are implicit and the
    link list holds each undirected pair once.
    """
    n = topology.n_agents
    agents = [
        {"id": k + 1, "x": float(topology.positions[k, 0]), "y": float(topology.positions[k, 1])}
        for k in range(n)
    ]
    iu, ju = np.triu_indices(n, k=1)
    present = topology.adjacency[iu, ju]
    links = [[int(a) + 1, int(b) + 1] for a, b in zip(iu[present], ju[present])]
    doc = {
        "schema": "netdecide.network/1",
        "agents": agents,
        "links": links,
        "models": [[float(x) for x in row] for row in models.models],
    }
    if models.assignment is not None:
        doc["assignment"] = [int(j) + 1 for j in models.assignment]
    return doc


def network_from_json(doc):
    """Inverse of :func:`network_to_json`."""
    agents = sorted(doc["agents"], key=lambda a: a["id"])
    n = len(agents)
    positions = np.array([[a["x"], a["y"]] for a in agents])
    adjacency = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(adjacency, True)
    for a, b in doc["links"]:
        adjacency[a - 1, b - 1] = adjacency[b - 1, a - 1] = True
    assignment = doc.get("assignment")
    models = ModelSet(
        np.array(doc["models"], dtype=float),
        None if assignment is None else np.array(assignment, dtype=int) - 1,
    )
    return Topology(adjacency, positions).validate(), models
