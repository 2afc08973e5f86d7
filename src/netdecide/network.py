"""Network scaffolding: geometric topologies, ground-truth models, per-agent
noise statistics, and the synthetic data streams the agents adapt on.

Agents live on an undirected graph with self-loops; every neighborhood is
closed (an agent is always its own neighbor) and degree counts include the
self-loop. A round reads its neighborhood as :class:`Links`, whose layout
is the only place a static network and a mobile swarm differ. Each agent
observes a scalar stream d = u . w + v generated from the ground-truth
model it is assigned to; the data of all agents is drawn together, a block
of rounds at a time (:class:`DataStream`).

Every pair distance comes from one kernel, :func:`squared_distances`: direct
differences one coordinate at a time, squared and added in coordinate
order, as an N x N matrix or at given index pairs (the links of an
adjacency, the member pairs of a view). A pair's distance therefore has
the same bits wherever it is computed, and elementwise IEEE arithmetic
gives the same bits on every CPU. :func:`close_component_count` counts
the components of the closeness relation by a frontier sweep that
computes the distances of a few frontier rows at a time, without
building the relation, and the noise draw takes its exponential and
logarithm from :func:`_exp` and :func:`_log`, which use no math library.

A degree-capped radius graph (:func:`generate_topology`, and each rebuild
of a swarm's) sheds its longest links at over-degree agents in one pass of
sorts over the links, :func:`_prune_degrees`. It falls back to a per-link
walk only after the first cut that would disconnect a static network, so
it takes the walk's decisions without its Python loop over every link.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .config import ConfigError, _is_real


class TopologyError(RuntimeError):
    """No feasible topology exists for the requested geometry."""


class DivergenceError(RuntimeError):
    """An agent's adaptive estimate left the sane region."""


class Links(NamedTuple):
    """A neighborhood: the links of a symmetric, self-looped N x N boolean
    adjacency, link (``rows[i]``, ``cols[i]``) joining agent ``rows[i]`` to
    agent ``cols[i]``. A per-link array holds one value for each link, and
    per-pair code indexes agents with ``rows`` and ``cols``. The round
    takes one of two layouts:

    - A static network (decide and follow) lists its adjacency's True
      entries in row-major order (:func:`link_index`): ``rows`` and
      ``cols`` are 1-D and ``mask`` is None. Its sums add each column's
      links in link order with ``np.bincount``, so no N x N array and no
      BLAS product enters its round, and the bits do not depend on the CPU.
    - A mobile swarm, whose adjacency is rebuilt every round, keeps it as
      ``mask``, with ``rows`` an (N, 1) and ``cols`` a (1, N) grid of
      agent ids (:func:`link_grid`). Per-pair arrays broadcast to N x N;
      entries outside the mask are no link, a per-link bool is False there
      (:meth:`restrict`), and the sums are BLAS products.

    The methods are the only code that tells the layouts apart.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    mask: np.ndarray | None = None

    def restrict(self, marked):
        """A per-pair bool array with the pairs outside the adjacency
        cleared; a static network's arrays hold links only."""
        return marked if self.mask is None else marked & self.mask

    def counts(self, marked=None, axis=0):
        """How many links ``marked`` (every link when None) holds in each
        column, or with ``axis=1`` each row: the closed degrees when None."""
        if self.mask is None:
            ends = self.cols if axis == 0 else self.rows
            return np.bincount(ends if marked is None else ends[marked], minlength=self.n)
        return (self.mask if marked is None else marked).sum(axis=axis)

    def sums(self, *terms):
        """Row k sums ``weights[l, k] * values[l]`` over the links (l, k)
        and over the ``(weights, values)`` pairs of ``terms``, each
        ``values`` an (N, M) array. A static network adds a link's terms,
        then each column's links in link order, starting from +0.0; a
        swarm adds one BLAS product ``weights.T @ values`` per pair."""
        if self.mask is None:
            per_link = reduce(add, [w[:, None] * x[self.rows] for w, x in terms])
            return np.stack([np.bincount(self.cols, weights=per_link[:, c], minlength=self.n)
                             for c in range(per_link.shape[1])], axis=1)
        return reduce(add, [w.T @ x for w, x in terms])

    def pairs(self, marked):
        """``(rows, cols)`` of the pairs ``marked`` holds, in row-major order."""
        return tuple(np.broadcast_to(ends, marked.shape)[marked]
                     for ends in (self.rows, self.cols))

    def adjacency(self):
        """The N x N boolean adjacency."""
        if self.mask is not None:
            return self.mask
        adjacency = np.zeros((self.n, self.n), dtype=bool)
        adjacency[self.rows, self.cols] = True
        return adjacency


def link_index(adjacency):
    """The static :class:`Links` of a square boolean matrix, such as an
    adjacency."""
    return Links(adjacency.shape[0], *np.nonzero(adjacency))


def link_grid(adjacency):
    """The swarm :class:`Links` of a symmetric, self-looped adjacency."""
    agents = np.arange(adjacency.shape[0])
    return Links(agents.size, agents[:, None], agents[None, :], adjacency)


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
            diff = x[:, c][rows] - y[:, c][cols]
        diff *= diff
        if d2 is None:
            d2 = diff
        else:
            d2 += diff
    return d2


# pairs whose distances one step of a blocked computation holds
_PAIRS_PER_STEP = 2 ** 13


def pairwise_close(points, threshold, links):
    """The test ||p_l - p_k||^2 <= threshold at each link (l, k) of
    ``links``, exactly symmetric as the distances are."""
    return links.restrict(
        squared_distances(points, None, links.rows, links.cols) <= threshold)


def component_count(close):
    """Number of connected components of a symmetric boolean relation."""
    return int(_component_labels(close).max(initial=-1)) + 1


def _component_labels(close):
    """Each agent's component in a symmetric boolean relation, numbered
    0, 1, ... in the order of the components' lowest agents.

    A frontier sweep: a breadth-first search from the first agent no
    earlier search reached, repeated until every agent is reached; the
    searches number the components. Each level reads the rows of the
    frontier, which the symmetry makes equal to its columns.
    """
    close = np.asarray(close, dtype=bool)
    unreached = np.ones(close.shape[0], dtype=bool)
    labels = np.empty(close.shape[0], dtype=int)
    count = 0
    while unreached.any():
        root = unreached.argmax()
        frontier = close[root] & unreached
        frontier[root] = True
        while frontier.any():
            unreached &= ~frontier
            labels[frontier] = count
            frontier = close[frontier].any(axis=0) & unreached
        count += 1
    return labels


def close_component_count(points, threshold):
    """``component_count(pairwise_close(points, threshold))``, exactly,
    without the N x N relation.

    A cloud whose bounding box passes the kernel's test (its extents
    squared and added in coordinate order, ``<= threshold``) is one
    component: rounding is monotone, so no pair of points computes a
    larger distance. Otherwise the frontier sweep of
    :func:`component_count` runs on the points: each level tests the
    frontier against the agents not yet reached, a block of at most
    ``_PAIRS_PER_STEP`` pairs at a time. The kernel gives each pair the
    bits it has in the N x N matrix, so the count is the same, for any
    number of coordinates and for points that are not finite.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        return 0
    if squared_distances(points.max(axis=0)[None], points.min(axis=0)[None])[0, 0] <= threshold:
        return 1
    unreached = np.ones(n, dtype=bool)
    count = 0
    while unreached.any():
        frontier = unreached.argmax(keepdims=True)
        while frontier.size:
            unreached[frontier] = False
            rest = np.flatnonzero(unreached)
            hit = np.zeros(rest.size, dtype=bool)
            step = max(1, _PAIRS_PER_STEP // max(rest.size, 1))
            for i in range(0, frontier.size, step):
                d2 = squared_distances(points, None, frontier[i:i + step, None], rest)
                hit |= (d2 <= threshold).any(axis=0)
            frontier = rest[hit]
        count += 1
    return count


def _prune_degrees(adjacency, sqdist, max_degree, keep_connected):
    """Drop longest links at over-degree agents, in place.

    The prune walks the links longest first, equal lengths in row-major
    order; a link is cut when either endpoint is still over the cap, unless
    ``keep_connected`` is set and cutting it would split a component of the
    graph (disconnect a connected graph). Returns True when every closed
    degree ends up <= max_degree.

    The walk is taken in array form, which rests on two facts:

    1. An agent over the cap loses every link, in order, until it reaches
       the cap. So with no connectivity rule a link is cut exactly when its
       rank among either endpoint's links is below that endpoint's excess
       (closed degree - max_degree): the forced cuts of
       :func:`_forced_cuts`. Degrees only fall, so a link whose endpoints
       both start within the cap is never cut, and is left out.
    2. With ``keep_connected``, the first cut the walk refuses is the first
       forced cut that disconnects the graph (splits a component). If the
       graph stays connected after every forced cut (keeps its components),
       no cut is refused, because every graph along the way holds that
       result. Otherwise the refused link joins two components of the
       pruned graph, and :func:`_first_refusal` finds it from the
       component labels. The cuts from it on are restored, and the walk
       itself (:func:`_walk`) finishes over the links after it.
    """
    deg = adjacency.sum(axis=0)
    excess = deg - max_degree
    over = excess > 0
    if not over.any():
        return True
    a, b = np.nonzero(np.triu(adjacency, 1))
    keep = over[a] | over[b]
    # the narrowest agent ids: a stable sort of 8- or 16-bit ids is a radix sort
    agent = np.min_scalar_type(deg.size - 1)
    a, b = a[keep].astype(agent), b[keep].astype(agent)
    order = np.argsort(-sqdist[a, b], kind="stable")
    a, b = a[order], b[order]
    cut = _forced_cuts(a, b, excess)
    cut_a, cut_b = a[cut], b[cut]
    adjacency[cut_a, cut_b] = adjacency[cut_b, cut_a] = False
    first = None
    if keep_connected:
        first = _first_refusal(_component_labels(adjacency), cut_a, cut_b)
    if first is not None:
        # the walk refuses cut `first`, so it has made none from it on
        rest_a, rest_b = cut_a[first:], cut_b[first:]
        adjacency[rest_a, rest_b] = adjacency[rest_b, rest_a] = True
    deg -= np.bincount(np.concatenate([cut_a[:first], cut_b[:first]]), minlength=deg.size)
    if first is None:
        return bool((deg <= max_degree).all())
    after = np.flatnonzero(cut)[first] + 1
    return _walk(adjacency, deg, a[after:], b[after:], max_degree)


def _forced_cuts(a, b, excess):
    """Which of the links (``a[i]``, ``b[i]``), listed in walk order, the
    walk cuts with no connectivity rule: those among the first ``excess``
    links of either endpoint. A stable sort of the link ends by agent
    ranks each agent's links in walk order."""
    ends = np.column_stack([a, b]).ravel()
    by_agent = np.argsort(ends, kind="stable")
    counts = np.bincount(ends, minlength=excess.size)
    first = np.clip(excess, 0, counts)
    # in the sorted ends, each agent's first `first` ends are cut
    cut_sorted = np.repeat(np.tile([True, False], counts.size),
                           np.column_stack([first, counts - first]).ravel())
    cut = np.zeros(a.size, dtype=bool)
    cut[by_agent[cut_sorted] // 2] = True
    return cut


def _first_refusal(labels, cut_a, cut_b):
    """The index of the first of the cuts (``cut_a[i]``, ``cut_b[i]``),
    listed in walk order, that splits a component of the graph, or None,
    given the component ``labels`` of the graph with every cut made.

    Only a cut between two of these components splits one. Added back
    latest first, over a union-find of the components, each cut that
    merges two undoes a split; the last one to merge is the first split.
    """
    ends_a, ends_b = labels[cut_a], labels[cut_b]
    cross = np.flatnonzero(ends_a != ends_b)[::-1]
    parent = list(range(int(labels.max()) + 1))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    first = None
    for i, x, y in zip(cross.tolist(), ends_a[cross].tolist(), ends_b[cross].tolist()):
        x, y = root(x), root(y)
        if x != y:
            parent[x] = y
            first = i
    return first


def _walk(adjacency, deg, a, b, max_degree):
    """The prune's walk over the links (``a[i]``, ``b[i]``), in walk order,
    from the closed degrees ``deg`` of ``adjacency``: cuts a link in place
    when either endpoint is over the cap and the cut splits no component.
    Returns True when every closed degree ends up <= max_degree.

    Cutting link a-b splits its component exactly when b can no longer be
    reached from a, because every agent of the component still reaches a or
    b without the link. So the whole-graph check reduces to a local one: a
    common neighbor of a and b settles it at once, and otherwise a search
    from a stops as soon as it reaches b. Both make the keep/cut decision a
    whole-graph check would.
    """
    keep = (deg[a] > max_degree) | (deg[b] > max_degree)
    nbrs = [set(np.flatnonzero(row).tolist()) - {k}
            for k, row in enumerate(adjacency)]
    deg = deg.tolist()
    cut_a, cut_b = [], []
    for x, y in zip(a[keep].tolist(), b[keep].tolist()):
        if deg[x] <= max_degree and deg[y] <= max_degree:
            continue
        nbrs[x].discard(y)
        nbrs[y].discard(x)
        if nbrs[x].isdisjoint(nbrs[y]) and not _reaches(nbrs, x, y):
            nbrs[x].add(y)
            nbrs[y].add(x)
            continue
        cut_a.append(x)
        cut_b.append(y)
        deg[x] -= 1
        deg[y] -= 1
    adjacency[cut_a, cut_b] = adjacency[cut_b, cut_a] = False
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
    ``radius``; over-degree agents then shed their longest links, longest
    first, except a link whose cut would disconnect the graph
    (:func:`_prune_degrees`: forced cuts found by sorting the links, the
    per-link walk only after the first refused cut). Positions are
    resampled until both the degree cap and connectivity hold.

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
    positions : ndarray, shape (N, 2)
    links : Links
        The links of the symmetric, self-looped adjacency.

    Raises
    ------
    TopologyError
        At once if no connected graph meets the cap, or if no feasible
        placement is found within ``max_tries`` attempts.
    """
    if n_agents < 1:
        raise TopologyError("n_agents must be positive")
    # a closed degree of 2 allows one neighbor, of 1 none
    least = min(n_agents, 3)
    if max_degree < least:
        raise TopologyError(f"no connected topology of {n_agents} agents has closed "
                            f"degree <= {max_degree}; need max_degree >= {least}")
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
            return positions, link_index(adjacency)
    raise TopologyError(
        f"no connected topology with closed degree <= {max_degree} found for "
        f"{n_agents} agents at radius {radius} after {max_tries} tries"
    )


def generate_models(n_models, dim, value_range, seed=None, min_separation_sq=0.0,
                    max_tries=1000):
    """Draw ``n_models`` model vectors, a (C, M) array with entries uniform
    in ``value_range``.

    The whole set is redrawn until every pair is strictly farther apart
    than ``min_separation_sq`` (squared Euclidean), so that downstream
    proximity tests cannot confuse two models; :class:`ConfigError` if
    ``max_tries`` draws all fail."""
    rng = np.random.default_rng(seed)
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("value_range must be increasing")
    for _ in range(max_tries):
        models = rng.uniform(lo, hi, size=(n_models, dim))
        if n_models < 2:
            return models
        sep = squared_distances(models)
        np.fill_diagonal(sep, np.inf)
        if sep.min() > min_separation_sq:
            return models
    raise ConfigError(f"could not draw n_models={n_models} models in model_range "
                      f"{tuple(value_range)} more than {min_separation_sq} (squared) apart "
                      f"in {max_tries} tries; lower n_models or beta, or widen model_range")


def corner_models(value_range):
    """The four corners of the square box, as a (4, 2) model array.

    Row order is (lo,lo), (lo,hi), (hi,lo), (hi,hi). Used by mobile
    swarms, where sources double as locations to fly to.
    """
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("value_range must be increasing")
    return np.array([[lo, lo], [lo, hi], [hi, lo], [hi, hi]], dtype=float)


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


_ROUNDS_PER_BLOCK = 64


class DataStream:
    """Every agent's regressors and noise, drawn ``_ROUNDS_PER_BLOCK``
    rounds at a time: when a round of block b is first read, the child
    that ``seed.spawn`` would number b draws the block's regressors
    (rounds, N, M), then its noise (rounds, N). A round's data depends on
    the seed and the round alone, so several runs can read one stream, in
    any order, and only the current block, ``u`` and ``v``, is held.
    """

    def __init__(self, sigma_v2, reg_power, seed):
        self.seed = seed
        self.scales = np.sqrt(reg_power), np.sqrt(sigma_v2)
        self._draw(0)

    def _draw(self, block):
        rng = np.random.default_rng(np.random.SeedSequence(
            self.seed.entropy, spawn_key=(*self.seed.spawn_key, block)))
        scale_u, scale_v = self.scales
        self.block = block
        self.u = rng.standard_normal((_ROUNDS_PER_BLOCK, *scale_u.shape)) * scale_u
        self.v = rng.standard_normal((_ROUNDS_PER_BLOCK, scale_v.size)) * scale_v

    def round(self, i, observed):
        """Regressors and observations for 1-based iteration ``i``, the
        observations assembled against the current ``observed`` models,
        which keeps mid-run reassignment cheap."""
        block, row = divmod(i - 1, _ROUNDS_PER_BLOCK)
        if block != self.block:
            self._draw(block)
        u = self.u[row]
        d = (u * observed).sum(axis=1) + self.v[row]
        return d, u


class StreamBundle(NamedTuple):
    """All randomness one simulation run consumes."""

    data: DataStream
    decision: np.random.Generator
    reassign: np.random.Generator


def build_streams(sigma_v2, reg_power, seed):
    """Split ``seed`` into the data stream's seed, the decision generator
    and the reassignment generator (in that spawn order)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    data, decision, reassign = root.spawn(3)
    return StreamBundle(DataStream(sigma_v2, reg_power, data),
                        np.random.default_rng(decision), np.random.default_rng(reassign))


def network_to_json(positions, links, models, assignment=None):
    """Export a network (its (N, 2) ``positions`` and :class:`Links`), its
    (C, M) model array and, when given, the agents' 0-based model
    assignment as one JSON-ready document.

    Agents and model labels are 1-based; self-loops are implicit and the
    link list holds each undirected pair once, in row-major order.
    """
    agents = [{"id": k + 1, "x": x, "y": y}
              for k, (x, y) in enumerate(np.asarray(positions, dtype=float).tolist())]
    rows, cols = links.pairs(links.restrict(links.rows < links.cols))
    pairs = zip(rows.tolist(), cols.tolist())
    doc = {
        "schema": "netdecide.network/1",
        "agents": agents,
        "links": [[a + 1, b + 1] for a, b in pairs],
        "models": [[float(x) for x in row] for row in models],
    }
    if assignment is not None:
        doc["assignment"] = [int(j) + 1 for j in assignment]
    return doc


def _numbers(kind, values, upper=None):
    """Floats of a flat list of JSON numbers or, given ``upper``, 0-based
    ints of 1-based ids; :class:`TopologyError` names the first value that
    is not a JSON number (a bool is not one), or not a whole number in
    1..upper."""
    bad = [x for x in values if not _is_real(x)]
    if bad:
        raise TopologyError(f"{kind} {bad[0]!r} is not a JSON number")
    x = np.array(values, dtype=float)
    if upper is None:
        return x
    valid = (x == np.floor(x)) & (x >= 1) & (x <= upper)
    if not valid.all():
        raise TopologyError(f"{kind} {values[np.argmin(valid)]} is not one of 1..{upper}")
    return x.astype(int) - 1


def network_from_json(doc):
    """Inverse of :func:`network_to_json`: ``(positions, links, models,
    assignment)``, the assignment None when the document has none. Raises
    :class:`TopologyError` for a document that is not an object with
    ``agents``, ``links`` and ``models`` lists, and naming the first agent
    that is not an object with an id, x and y, the first value that is not
    a JSON number, the first agent id that repeats, the first id or label
    that is not a whole number in 1..N (1..M for labels), the first link
    that is not a pair, models that are not rows of one positive length, or
    an assignment that is not one label per agent."""
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(key), list) for key in ("agents", "links", "models"))):
        raise TopologyError("a network document is an object with agents, links and "
                            "models lists")
    agents = doc["agents"]
    for agent in agents:
        if not isinstance(agent, dict) or not {"id", "x", "y"} <= agent.keys():
            raise TopologyError(f"agent {agent!r} is not an object with an id, x and y")
    n = len(agents)
    ids = _numbers("agent id", [a["id"] for a in agents], n)
    counts = np.bincount(ids, minlength=n)
    if (counts > 1).any():
        raise TopologyError(f"agent id {np.argmax(counts > 1) + 1} repeats")
    positions = np.empty((n, 2))
    positions[ids] = _numbers("coordinate", [a[c] for a in agents for c in "xy"]).reshape(n, 2)
    for link in doc["links"]:
        if not isinstance(link, (list, tuple)) or len(link) != 2:
            raise TopologyError(f"link {link!r} is not a pair of agent ids")
    ends = _numbers("link agent id", [k for link in doc["links"] for k in link], n)
    a, b, k = ends[0::2], ends[1::2], np.arange(n)
    # the row-major keys of both directions of every pair and the self-loops
    keys = np.unique(np.concatenate([a * n + b, b * n + a, k * n + k]))
    rows = doc["models"]
    widths = {len(row) if isinstance(row, (list, tuple)) else 0 for row in rows}
    if len(widths) != 1 or 0 in widths:
        raise TopologyError(f"models {rows!r} are not rows of one positive length")
    models = _numbers("model entry", [x for row in rows for x in row]).reshape(len(rows), -1)
    assignment = doc.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, (list, tuple)):
            raise TopologyError(f"assignment {assignment!r} is not a list of labels")
        if len(assignment) != n:
            raise TopologyError(f"assignment has {len(assignment)} labels for {n} agents")
        assignment = _numbers("assignment label", assignment, len(models))
    return positions, Links(n, keys // n, keys % n), models, assignment
