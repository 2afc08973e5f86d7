"""Network scaffolding: geometric topologies, ground-truth models, per-agent
noise statistics, and the synthetic data streams the agents adapt on.

Agents live on an undirected graph with self-loops; every neighborhood is
closed (an agent is always its own neighbor) and degree counts include the
self-loop. Each agent observes a scalar stream d = u . w + v generated from
the ground-truth model it is assigned to.

Every pair distance comes from one kernel, :func:`squared_distances`: direct
differences one coordinate at a time, squared and added in coordinate
order, as an N x N matrix or at given index pairs (the links of an
adjacency, the member pairs of a view). A pair's distance therefore has
the same bits wherever it is computed, and elementwise IEEE arithmetic
gives the same bits on every CPU. :func:`close_component_count` counts
the components of the closeness relation from a cell grid without
building the relation, and the noise draw takes its exponential and
logarithm from :func:`_exp` and :func:`_log`, which use no math library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TopologyError(RuntimeError):
    """No feasible topology exists for the requested geometry."""


class DivergenceError(RuntimeError):
    """An agent's adaptive estimate left the sane region."""


class Links(NamedTuple):
    """The True entries of an N x N boolean matrix in row-major order:
    link i joins row ``rows[i]`` to column ``cols[i]``, and its key
    ``flat[i] = rows[i] * n + cols[i]`` is its row-major position, so the
    keys come sorted. A per-link array holds one value for each."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray


def link_index(adjacency):
    """:class:`Links` of a square boolean matrix, such as an adjacency."""
    n = adjacency.shape[0]
    rows, cols = np.nonzero(adjacency)
    return Links(n, rows, cols, rows * n + cols)


def squared_distances(x, y=None, rows=None, cols=None):
    """Squared Euclidean distances ||x_i - y_j||^2.

    For ``x`` of shape (..., N, M) and ``y`` of shape (..., K, M), the
    (..., N, K) matrices; given index arrays ``rows`` and ``cols``
    (broadcast together), the distances ||x_rows - y_cols||^2 of their
    shape. Both take direct differences one coordinate at a time, square
    them and add them in coordinate order, so a pair's distance has the
    same bits wherever it is computed, and is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    d2 = None
    for c in range(x.shape[-1]):
        if rows is None:
            diff = x[..., :, None, c] - y[..., None, :, c]
        else:
            diff = x[rows, c] - y[cols, c]
        diff *= diff
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2


def pairwise_close(points, threshold, links=None):
    """The test ||p_a - p_b||^2 <= threshold: an N x N boolean matrix,
    exactly symmetric as the distances are, or one bool per link of
    ``links``."""
    if links is None:
        return squared_distances(points) <= threshold
    return squared_distances(points, None, links.rows, links.cols) <= threshold


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


def _box_d2(extents):
    """The kernel's sum over the last axis of ``extents`` squared, in
    coordinate order; it bounds the distance of every pair of points whose
    coordinate differences are at most (or at least) these extents."""
    d2 = extents[..., 0] * extents[..., 0]
    for c in range(1, extents.shape[-1]):
        d2 = d2 + extents[..., c] * extents[..., c]
    return d2


def _labels(n, a, b):
    """Component labels of n nodes joined by the edges ``a[i]``-``b[i]``:
    each node ends with the smallest node of its component, by hooking
    onto the smallest neighboring label and pointer jumping."""
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[a], labels[b])
        hooked = labels.copy()
        np.minimum.at(hooked, a, low)
        np.minimum.at(hooked, b, low)
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _ranges(starts, stops):
    """Concatenated ``range(start, stop)`` of each pair, and the index of
    the pair each entry came from."""
    counts = stops - starts
    owner = np.repeat(np.arange(len(starts)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[owner] + offset, owner


# every step of at most two cells in each coordinate, for dims 1 to 3
_CELL_STEPS = {dim: np.stack(np.meshgrid(*[np.arange(-2, 3)] * dim, indexing="ij"),
                             axis=-1).reshape(-1, dim)
               for dim in (1, 2, 3)}


def close_component_count(points, threshold):
    """``component_count(pairwise_close(points, threshold))``, exactly,
    without the N x N relation when the points have at most three
    coordinates.

    A cloud whose bounding box passes the kernel's test (its extents
    squared and added in coordinate order, ``<= threshold``) is one
    component: rounding is monotone, so no pair of points computes a
    larger distance. Otherwise the points are binned into cells of side
    sqrt(threshold / dim). A cell whose box passes the test is a clique
    and one group; a cell that fails gives one group per point. Two groups
    can hold a close pair only if their cells lie at most two apart in
    every coordinate. Each such pair of groups is dropped when the gaps
    between their boxes (a lower bound on every member pair's distance)
    fail the test, joined when one witness pair (the members nearest their
    box centers) passes it, and only if still apart settled by testing
    every member pair.
    Points that are not finite, have more coordinates, or a threshold
    that is not positive take the dense relation.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if n == 0:
        return 0
    lo, hi = points.min(axis=0), points.max(axis=0)
    if _box_d2(hi - lo) <= threshold:
        return 1
    side = np.sqrt(threshold / dim) if dim <= 3 and threshold > 0 else 0.0
    # past 2**20 cells a coordinate the keys could overflow; NaN fails too
    if not np.all(hi - lo < side * 2.0 ** 20):
        return component_count(pairwise_close(points, threshold))

    # cell indices shifted by 2, and a base wide enough that a neighbor
    # two cells away in any coordinate keeps its own key
    cell = np.floor((points - lo) / side).astype(np.int64) + 2
    base = cell.max(axis=0) + 5
    key = cell[:, 0]
    for c in range(1, dim):
        key = key * base[c] + cell[:, c]
    order = np.argsort(key, kind="stable")
    pts, key = points[order], key[order]
    first = np.ones(n, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    cells = np.flatnonzero(first)
    clique = _box_d2(np.maximum.reduceat(pts, cells) - np.minimum.reduceat(pts, cells)) <= threshold
    # groups: each clique cell, and each point of a cell that is not one
    group_start = first | ~clique[np.cumsum(first) - 1]
    starts = np.flatnonzero(group_start)
    stops = np.append(starts[1:], n)
    glo = np.minimum.reduceat(pts, starts)
    ghi = np.maximum.reduceat(pts, starts)
    gkey = key[starts]

    # candidate pairs: groups of one cell, then groups in every neighbor
    # cell that comes later in key order
    strides = np.append(np.cumprod(base[:0:-1])[::-1], 1)
    koff = _CELL_STEPS[dim] @ strides
    koff = koff[koff > 0]
    g = np.arange(len(starts))
    target = (gkey[:, None] + koff[None, :]).ravel()
    same_b, same_a = _ranges(g + 1, np.searchsorted(gkey, gkey, side="right"))
    near_b, near_i = _ranges(np.searchsorted(gkey, target, side="left"),
                             np.searchsorted(gkey, target, side="right"))
    a = np.concatenate([same_a, near_i // len(koff)])
    b = np.concatenate([same_b, near_b])

    gap = np.maximum(np.maximum(glo[b] - ghi[a], glo[a] - ghi[b]), 0.0)
    keep = _box_d2(gap) <= threshold
    a, b = a[keep], b[keep]
    center = 0.5 * (glo + ghi)
    owner = np.repeat(g, stops - starts)
    nearest = np.lexsort((squared_distances(pts, center, np.arange(n), owner), owner))[starts]
    joined = squared_distances(pts, None, nearest[a], nearest[b]) <= threshold
    labels = _labels(len(starts), a[joined], b[joined])

    # every member pair of the pairs still apart
    open_ = ~joined & (labels[a] != labels[b])
    if not open_.any():
        return int(np.count_nonzero(labels == g))
    a_open, b_open = a[open_], b[open_]
    size = stops - starts
    k, pair = _ranges(np.zeros(len(a_open), dtype=np.int64), size[a_open] * size[b_open])
    p = starts[a_open][pair] + k // size[b_open][pair]
    q = starts[b_open][pair] + k % size[b_open][pair]
    hit = np.zeros(len(a_open), dtype=bool)
    hit[pair[squared_distances(pts, None, p, q) <= threshold]] = True
    labels = _labels(len(starts), np.concatenate([a[joined], a_open[hit]]),
                     np.concatenate([b[joined], b_open[hit]]))
    return int(np.count_nonzero(labels == g))


@dataclass(eq=False)
class Topology:
    """Undirected agent graph with self-loops and 2-D coordinates.

    Attributes
    ----------
    adjacency : ndarray of bool, shape (N, N)
        Symmetric with a True diagonal; row k is agent k's closed
        neighborhood.
    degrees : ndarray of int, shape (N,)
        Closed neighborhood sizes, derived from ``adjacency``.
    positions : ndarray, shape (N, 2)
        Agent coordinates; abstract for static networks, body-length units
        for mobile swarms.
    """

    adjacency: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        self.positions = np.asarray(self.positions, dtype=float)
        self.degrees = np.count_nonzero(self.adjacency, axis=0)

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


def generate_topology(n_agents, max_degree, radius, seed=None, max_tries=50):
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
        if component_count(adjacency) != 1:
            continue
        if _prune_degrees(adjacency, d2, max_degree, keep_connected=True):
            return Topology(adjacency, positions).validate()
    raise TopologyError(
        f"no connected topology with closed degree <= {max_degree} found for "
        f"{n_agents} agents at radius {radius} after {max_tries} tries"
    )


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


def generate_models(n_models, dim, value_range, seed=None, min_separation_sq=0.0,
                    max_tries=1000):
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


def corner_models(value_range):
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


# ln 2 split Cody-Waite style: the high part's trailing bits are zero, so
# k * _LN2_HI is exact for any |k| < 2**11
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
# 1/j! for j = 0..13, each an exact integer division rounded once
_EXP_TAYLOR = [1.0 / math.factorial(j) for j in range(14)]


def _exp(x):
    """exp(x) from IEEE additions, multiplications and ``np.ldexp`` alone,
    so the bits do not depend on the CPU or its math library.

    x = k ln 2 + r with |r| <= ln 2 / 2 (Cody-Waite reduction), exp(r) by
    its Taylor polynomial of degree 13 in Horner form, scaled by 2**k.
    """
    x = np.asarray(x, dtype=float)
    k = np.rint(x * _INV_LN2)
    r = (x - k * _LN2_HI) - k * _LN2_LO
    poly = np.full_like(r, _EXP_TAYLOR[-1])
    for coef in reversed(_EXP_TAYLOR[:-1]):
        poly = poly * r + coef
    return np.ldexp(poly, k.astype(int))


def _log(y):
    """log(y) for y > 0 by five Newton steps on :func:`_exp`, started from
    y = m 2**e: e ln 2 + 2 (m - 1) / (m + 1), which is off by at most 0.03."""
    y = np.asarray(y, dtype=float)
    m, e = np.frexp(y)
    x = e * (_LN2_HI + _LN2_LO) + 2.0 * (m - 1.0) / (m + 1.0)
    for _ in range(5):
        x = x + (y / _exp(x) - 1.0)
    return x


def draw_noise_profile(n_agents, dim, seed=None, *, sigma_v2_range, reg_power_range):
    """Per-agent signal and noise statistics ``(sigma_v2, reg_power)``.

    ``sigma_v2`` (N,) holds measurement-noise variances, log-uniform in
    ``sigma_v2_range``; ``reg_power`` (N, M) holds the diagonal entries of
    each agent's regressor covariance, uniform in ``reg_power_range``.
    The logarithm and exponential are :func:`_log` and :func:`_exp`, whose
    bits are the same on every CPU.
    """
    rng = np.random.default_rng(seed)
    lo, hi = _log(sigma_v2_range)
    sigma_v2 = _exp(rng.uniform(lo, hi, size=n_agents))
    reg_power = rng.uniform(*reg_power_range, size=(n_agents, dim))
    return sigma_v2, reg_power


class DataStream:
    """Pre-generated regressor/noise blocks, one independent stream per agent.

    Each agent's block is drawn in a single pass from its own generator
    (regressors first, then noise scalars), so the realized data never
    depends on agent visit order or on how trials are scheduled.
    Observations are assembled on demand against the current observed
    models, which keeps mid-run reassignment cheap.
    """

    def __init__(self, sigma_v2, reg_power, agent_seeds, n_iters):
        n = len(agent_seeds)
        dim = reg_power.shape[1]
        self.u = np.empty((n_iters, n, dim))
        self.v = np.empty((n_iters, n))
        for k, entropy in enumerate(agent_seeds):
            g = np.random.default_rng(entropy)
            self.u[:, k, :] = g.standard_normal((n_iters, dim)) * np.sqrt(reg_power[k])
            self.v[:, k] = g.standard_normal(n_iters) * np.sqrt(sigma_v2[k])

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


def build_streams(sigma_v2, reg_power, n_iters, seed):
    """Split ``seed`` into per-agent data streams, per-agent decision
    streams, and one reassignment stream (in that spawn order)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n = reg_power.shape[0]
    children = root.spawn(2 * n + 1)
    data = DataStream(sigma_v2, reg_power, children[:n], n_iters)
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


def _check_ids(kind, ids, upper):
    """Raise :class:`TopologyError` naming the first of ``ids`` outside
    1..upper."""
    outside = ids[(ids < 1) | (ids > upper)]
    if outside.size:
        raise TopologyError(f"{kind} {outside[0]} is outside 1..{upper}")


def network_from_json(doc):
    """Inverse of :func:`network_to_json`. Raises :class:`TopologyError`
    naming the first agent id that repeats or lies outside 1..N, the first
    link that is not a pair, the first assignment label outside 1..M, or an
    assignment that is not one label per agent."""
    agents = sorted(doc["agents"], key=lambda a: a["id"])
    n = len(agents)
    ids = np.array([a["id"] for a in agents], dtype=int)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise TopologyError(f"agent id {repeated[0]} repeats")
    _check_ids("agent id", ids, n)
    for link in doc["links"]:
        if not isinstance(link, (list, tuple)) or len(link) != 2:
            raise TopologyError(f"link {link!r} is not a pair of agent ids")
    links = np.array(doc["links"], dtype=int).reshape(-1, 2)
    _check_ids("link agent id", links.ravel(), n)
    adjacency = np.eye(n, dtype=bool)
    adjacency[links[:, 0] - 1, links[:, 1] - 1] = True
    models = ModelSet(doc["models"], doc.get("assignment"))
    if models.assignment is not None:
        if models.assignment.shape != (n,):
            raise TopologyError(f"assignment has {models.assignment.size} labels "
                                f"for {n} agents")
        _check_ids("assignment label", models.assignment, models.n_models)
        models.assignment = models.assignment - 1
    positions = np.array([[a["x"], a["y"]] for a in agents])
    return Topology(adjacency | adjacency.T, positions).validate(), models
