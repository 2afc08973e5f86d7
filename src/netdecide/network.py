"""Network scaffolding: geometric topologies, ground-truth models, per-agent
noise statistics, and the synthetic data streams the agents adapt on.

Agents live on an undirected graph with self-loops; every neighborhood is
closed (an agent is always its own neighbor) and degree counts include the
self-loop. A round reads its neighborhood as :class:`Links`, whose layout
is the only place a static network and a mobile swarm differ. A static
network's links are fixed for its run, so its :class:`Links` keeps their
constants, the self-loop mask and the closed degrees, made once; a swarm's
links live one round, and it makes them on each call. Each agent
observes a scalar stream d = u . w + v generated from the ground-truth
model it is assigned to; the data of all agents is drawn together, a block
of rounds at a time (:class:`DataStream`).

Every pair distance comes from one kernel, :func:`squared_distances`: direct
differences one coordinate at a time, squared and added in coordinate
order, as an N x N matrix or at given index pairs (the links of an
adjacency, the member pairs of a view). A pair's distance therefore has
the same bits wherever it is computed, and elementwise IEEE arithmetic
gives the same bits on every CPU. At index pairs, as in the link sums of
:class:`Links`, each coordinate is gathered from its own 1-D column: a row
gather ``x[rows]`` of an (N, 2) array costs several column gathers
``x[:, c][rows]`` (numpy 2.4.6, one core: 7-8 us against 0.8-2.1 us at
454 links, 26-41 us against about 2 us at 1,900).

:func:`close_component_count` counts the components of the closeness
relation by a frontier sweep that computes the distances of a few frontier
rows at a time, without building the relation (:func:`component_count`,
its dense reference, runs the same sweep on a matrix), and the noise draw
takes its exp and log from :func:`_exp` and :func:`_log`: no math library.

A degree-capped radius graph (:func:`generate_topology`, and each rebuild
of a swarm's) is built from the N x N boolean radius test alone:
:func:`close_matrix` makes it in one pass over row blocks of at most
``_PAIRS_PER_STEP`` pair distances, and the prune measures only the links
it walks, so no N x N float array is made. :func:`_prune_degrees` sheds the
longest links at over-degree agents by sorts over the links. A static
network repeats that pass after each cut that would disconnect it, so the
prune takes the decisions of a walk over the links, longest first, without
a loop over every link.
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


class Links:
    """A neighborhood: the links of a symmetric, self-looped N x N boolean
    adjacency, link (``rows[i]``, ``cols[i]``) joining agent ``rows[i]`` to
    agent ``cols[i]``. A per-link array holds one value for each link, and
    per-pair code indexes agents with ``rows`` and ``cols``. The round
    takes one of two layouts:

    - A static network (decide and follow) lists its adjacency's True
      entries in row-major order (:func:`link_index`): ``rows`` and
      ``cols`` are contiguous 1-D arrays and ``mask`` is None. Its sums add
      each column's links in link order with ``np.bincount``, so no N x N
      array and no BLAS product enters its round, and the bits do not
      depend on the CPU. Its links are fixed for a run, so its constants,
      the self-loop mask ``loops``, the closed degrees ``counts()`` and
      whether the links join every agent (``stays_connected``), are made
      once, here.
    - A mobile swarm, whose adjacency is rebuilt every round, keeps it as
      ``mask``, with ``rows`` an (N, 1) and ``cols`` a (1, N) grid of
      agent ids (:func:`link_grid`). Per-pair arrays broadcast to N x N;
      entries outside the mask are no link, a per-link bool is False there
      (:meth:`restrict`), and the sums are BLAS products. Its links live
      one round, so its constants are made on each call, and it holds no
      N x N array beyond its mask.

    The methods are the only code that tells the layouts apart.
    """

    __slots__ = ("n", "rows", "cols", "mask", "_loops", "_degrees", "_connected")

    def __init__(self, n, rows, cols, mask=None):
        self.n, self.rows, self.cols, self.mask = n, rows, cols, mask
        if mask is None:
            self._loops = rows == cols
            self._degrees = np.bincount(cols, minlength=n)
            self._loops.flags.writeable = self._degrees.flags.writeable = False
            self._connected = not _link_labels(n, rows, cols).any()

    @property
    def loops(self):
        """The per-pair bool array of the self-loops."""
        return self._loops if self.mask is None else self.rows == self.cols

    @property
    def stays_connected(self):
        """True when the links join every agent into one component for
        the whole run: a connected static network. A swarm's links change
        every round, so it is False there."""
        return self.mask is None and self._connected

    def restrict(self, marked):
        """A per-pair bool array with the pairs outside the adjacency
        cleared; a static network's arrays hold links only."""
        return marked if self.mask is None else marked & self.mask

    def counts(self, marked=None, axis=0):
        """How many links ``marked`` (every link when None) holds in each
        column, or with ``axis=1`` each row: the closed degrees when None."""
        if self.mask is None:
            if marked is None:
                return self._degrees
            return np.bincount((self.cols if axis == 0 else self.rows)[marked], minlength=self.n)
        return (self.mask if marked is None else marked).sum(axis=axis)

    def sums(self, *terms):
        """Row k sums ``weights[l, k] * values[l]`` over the links (l, k)
        and over the ``(weights, values)`` pairs of ``terms``, each
        ``values`` an (N, M) array. A static network adds a link's terms,
        then each column's links in link order, starting from +0.0, one
        coordinate at a time; a swarm adds one BLAS product
        ``weights.T @ values`` per pair. A static network gathers each
        coordinate from its column (see the module notes).
        """
        if self.mask is None:
            out = np.empty((self.n, terms[0][1].shape[1]))
            for c in range(out.shape[1]):
                per_link = reduce(add, [w * x[:, c][self.rows] for w, x in terms])
                out[:, c] = np.bincount(self.cols, weights=per_link, minlength=self.n)
            return out
        return reduce(add, [w.T @ x for w, x in terms])

    def route_sums(self, weights, near, fresh, held):
        """Row k sums ``weights[l, k]`` times ``fresh[l]`` over the links
        (l, k) that ``near`` marks and times ``held[l]`` over the rest.

        A static network multiplies each link's weight by the value its
        route picks, gathered from the columns of ``fresh`` stacked on
        ``held``, and adds one ``np.bincount`` per coordinate as in
        :meth:`sums`: the bits of the split sums ``sums((w_near, fresh),
        (w_far, held))``, whose other term is a signed zero that a sum from
        +0.0 drops. A swarm splits the weights in two and takes their BLAS
        products.
        """
        if self.mask is None:
            # link i reads row rows[i] of fresh, or of held, n rows further
            picked = self.rows + self.n * ~near
            stacked = np.concatenate((fresh, held))
            out = np.empty((self.n, fresh.shape[1]))
            for c in range(out.shape[1]):
                out[:, c] = np.bincount(self.cols, weights=weights * stacked[:, c][picked],
                                        minlength=self.n)
            return out
        by_near = np.where(near, weights, 0.0)
        return self.sums((by_near, fresh), (weights - by_near, held))

    def every(self, marked):
        """True when ``marked``, a per-pair bool array with the pairs
        outside the adjacency cleared (:meth:`restrict`), holds every link."""
        return bool(marked.all() if self.mask is None else np.array_equal(marked, self.mask))

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
    adjacency.

    The ends are split from the flat indices of the True entries: the 2-D
    ``np.nonzero`` returns strided views, which every ``np.bincount`` over
    them would copy."""
    n = adjacency.shape[0]
    return Links(n, *np.divmod(np.flatnonzero(adjacency), n))


def link_grid(adjacency):
    """The swarm :class:`Links` of a symmetric, self-looped adjacency."""
    agents = np.arange(adjacency.shape[0])
    return Links(agents.size, agents[:, None], agents[None, :], adjacency)


def squared_distances(x, y=None, rows=None, cols=None):
    """Squared Euclidean distances ||x_i - y_j||^2.

    For ``x`` of shape (..., N, M) and ``y`` of shape (..., K, M), the
    (..., N, K) matrices; given index arrays ``rows`` and ``cols``
    (broadcast together), the distances ||x_rows - y_cols||^2 of their
    shape, and given two equal slices, those of the rows they pair, with
    no gather. All take direct differences one coordinate at a time, square
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


def close_matrix(points, threshold, strict=False):
    """The N x N boolean test ``squared_distances(points) <= threshold``,
    or ``<`` when ``strict``, without the N x N distances: one pass over
    row blocks of at most ``_PAIRS_PER_STEP`` pairs, each pair with its
    bits in the N x N matrix."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    test = np.less if strict else np.less_equal
    out = np.empty((n, n), dtype=bool)
    step = max(1, _PAIRS_PER_STEP // max(n, 1))
    for lo in range(0, n, step):
        test(squared_distances(points[lo:lo + step], points), threshold, out=out[lo:lo + step])
    return out


def pairwise_close(points, threshold, links):
    """The test ||p_l - p_k||^2 <= threshold at each link (l, k) of
    ``links``, exactly symmetric as the distances are."""
    return links.restrict(
        squared_distances(points, None, links.rows, links.cols) <= threshold)


def _sweep(n, next_level):
    """Number of components of a symmetric relation over ``n`` agents, by
    a frontier sweep: a breadth-first search from the first agent no
    earlier search reached, repeated until every agent is reached.
    ``next_level(frontier, rest)`` tells which unreached agents ``rest``
    the relation holds with one of the ``frontier`` (ascending ids)."""
    unreached = np.ones(n, dtype=bool)
    count = 0
    while unreached.any():
        frontier = unreached.argmax(keepdims=True)
        while frontier.size:
            unreached[frontier] = False
            rest = np.flatnonzero(unreached)
            frontier = rest[next_level(frontier, rest)]
        count += 1
    return count


def component_count(close):
    """Number of connected components of a symmetric boolean relation: the
    sweep reads the frontier's rows, which the symmetry makes its columns."""
    close = np.asarray(close, dtype=bool)
    return _sweep(close.shape[0], lambda frontier, rest: close[frontier].any(axis=0)[rest])


def _link_labels(n, a, b):
    """Each of ``n`` agents' component in the graph of the links
    (``a[i]``, ``b[i]``): the lowest agent of the component.

    Each agent points at an agent of its component, never a higher one.
    Every link whose ends point at different agents hooks the higher of the
    two onto the lower, the lowest offer winning, and then every agent
    points where its target points (pointer jumping). The search ends when
    every pointer is a root and the ends of every link share it: the
    component's lowest agent, which can point nowhere lower.
    """
    parent = np.arange(n)
    while True:
        at_a, at_b = parent[a], parent[b]
        if (at_a == at_b).all():
            grand = parent[parent]
            if (grand == parent).all():
                return parent
            parent = grand
            continue
        np.minimum.at(parent, np.maximum(at_a, at_b), np.minimum(at_a, at_b))
        parent = parent[parent]


def close_component_count(points, threshold, links=None, agreed=False):
    """``component_count(pairwise_close(points, threshold))``, exactly,
    without the N x N relation; ``agreed`` says that every link of the
    round's ``links`` joins two close points.

    An agreed round counts 1 when its links join every agent
    (``links.stays_connected``), or when the cloud's bounding box passes
    the kernel's test (its extents squared and added in coordinate order):
    rounding is monotone, so no pair computes a larger distance. A round
    that is not agreed could pass the box only when its own switches closed
    the last gap, so it skips the box: the sweep counts the same 1. Else
    :func:`_sweep` tests each frontier against the unreached agents, at
    most ``_PAIRS_PER_STEP`` pairs a block, each pair with its bits in the
    N x N matrix: the same count for any number of coordinates and for
    points that are not finite.
    """
    points = np.asarray(points, dtype=float)
    if agreed:
        if links.stays_connected:
            return 1
        extent = np.ptp(points, axis=0)
        # in coordinate order: .sum() reorders 8 coordinates or more
        if reduce(add, (extent * extent).tolist()) <= threshold:
            return 1

    def next_level(frontier, rest):
        step = max(1, _PAIRS_PER_STEP // max(rest.size, 1))
        return reduce(np.logical_or, (
            (squared_distances(points, None, frontier[i:i + step, None], rest) <= threshold)
            .any(axis=0) for i in range(0, frontier.size, step)))

    return _sweep(points.shape[0], next_level)


def _prune_degrees(adjacency, positions, max_degree, keep_connected):
    """Drop longest links at over-degree agents, in place.

    The prune walks the links longest first, equal lengths in row-major
    order, where a link's length is :func:`squared_distances` of its ends'
    ``positions``, measured only for the links it walks; a link is cut
    when either endpoint is still over the cap, unless
    ``keep_connected`` is set and cutting it would split a component of the
    graph (disconnect a connected graph). Returns True when every closed
    degree ends up <= max_degree.

    The walk is taken in passes of array operations, which rest on two facts:

    1. An agent over the cap loses every link, in order, until it reaches
       the cap. So with no connectivity rule a link is cut exactly when its
       rank among either endpoint's links (:func:`_ranks`) is below that
       endpoint's excess (closed degree - max_degree): the forced cuts.
       Degrees only fall, so a link whose endpoints both start within the
       cap is never cut, and is left out.
    2. With ``keep_connected``, the first cut the walk refuses is the first
       forced cut that splits a component of the graph. If none does, no
       cut is refused, because every graph along the way keeps the
       components. Otherwise the refused link joins two components of the
       graph with every forced cut made, and :func:`_first_refusal` finds
       it from their labels (:func:`_link_labels`). The forced cuts before
       it are made. The rest of the walk, over the links after it, starts
       from the degrees so far and a graph with the same components, so it
       is a walk of its own: repeat the pass.

    Across passes the links keep their ranks, and each agent the bound
    below which it cuts: an agent still over the cap has cut all its links
    before the refused one, and one within the cap is past its bound. Only
    the ends of the refused link raise their bounds by one; an end that was
    due to cut it keeps it, and for the other end that changes nothing.
    """
    deg = adjacency.sum(axis=0)
    # each agent cuts its links of rank below its bound
    bound = deg - max_degree
    over = bound > 0
    if not over.any():
        return True
    a, b = np.divmod(np.flatnonzero(np.triu(adjacency, 1)), deg.size)
    walked = over[a] | over[b]
    kept_a, kept_b = a[~walked], b[~walked]
    a, b = a[walked], b[walked]
    order = np.argsort(-squared_distances(positions, None, a, b), kind="stable")
    a, b = a[order], b[order]
    rank_a, rank_b = _ranks(a, b, deg.size)
    made_a, made_b = [], []
    while True:
        cut = (rank_a < bound[a]) | (rank_b < bound[b])
        stay = ~cut
        first = None
        if keep_connected:
            labels = _link_labels(deg.size, np.concatenate([kept_a, a[stay]]),
                                  np.concatenate([kept_b, b[stay]]))
            cuts = np.flatnonzero(cut)
            first = _first_refusal(labels, a[cuts], b[cuts])
        # the cuts before the refused one are made, or all of them
        end = a.size if first is None else cuts[first]
        made_a.append(a[:end][cut[:end]])
        made_b.append(b[:end][cut[:end]])
        if first is None:
            break
        # the refused link stays, with the links before it that no end cut
        stay[end] = True
        kept_a = np.concatenate([kept_a, a[:end + 1][stay[:end + 1]]])
        kept_b = np.concatenate([kept_b, b[:end + 1][stay[:end + 1]]])
        bound[a[end]] += 1
        bound[b[end]] += 1
        rest = slice(end + 1, None)
        a, b, rank_a, rank_b = a[rest], b[rest], rank_a[rest], rank_b[rest]
    made_a, made_b = np.concatenate(made_a), np.concatenate(made_b)
    adjacency[made_a, made_b] = adjacency[made_b, made_a] = False
    deg -= np.bincount(np.concatenate([made_a, made_b]), minlength=deg.size)
    return bool((deg <= max_degree).all())


def _ranks(a, b, n):
    """Each link's rank among the links of its end ``a[i]``, and among those
    of its end ``b[i]``, for links listed in walk order and agents below
    ``n``. A stable sort of the link ends by agent ranks each agent's links
    in walk order."""
    pairs = np.column_stack([a, b])
    # the narrowest agent ids: a stable sort of 8- or 16-bit ids is a radix sort
    ends = pairs.astype(np.min_scalar_type(n - 1)).ravel()
    by_agent = np.argsort(ends, kind="stable")
    counts = np.bincount(ends, minlength=n)
    # an end's place among the sorted ends, less its agent's first place
    rank = np.empty(ends.size, dtype=np.intp)
    rank[by_agent] = np.arange(ends.size)
    rank = rank.reshape(pairs.shape) - (np.cumsum(counts) - counts)[pairs]
    return rank[:, 0], rank[:, 1]


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
    first = None
    for i, x, y in zip(cross.tolist(), ends_a[cross].tolist(), ends_b[cross].tolist()):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
            first = i
    return first


# placements generate_topology tries, and model sets generate_models draws
_PLACEMENTS = 50
_MODEL_DRAWS = 1000


def generate_topology(n_agents, max_degree, radius, seed=None):
    """Connected random geometric graph on the unit square.

    Agents are placed uniformly at random and linked when closer than
    ``radius``; over-degree agents then shed their longest links, longest
    first, except a link whose cut would disconnect the graph
    (:func:`_prune_degrees`: forced cuts found by sorting the links, the
    pass repeated after each refused cut). Positions are resampled until
    the prune meets the degree cap and leaves the links connected.

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

    Returns
    -------
    positions : ndarray, shape (N, 2)
    links : Links
        The links of the symmetric, self-looped adjacency.

    Raises
    ------
    TopologyError
        At once if no connected graph meets the cap, or if no feasible
        placement is found within ``_PLACEMENTS`` attempts.
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
    for _ in range(_PLACEMENTS):
        positions = rng.random((n_agents, 2))
        adjacency = close_matrix(positions, radius * radius)
        np.fill_diagonal(adjacency, True)
        # the prune splits no component: connected exactly when the placement is
        if (_prune_degrees(adjacency, positions, max_degree, keep_connected=True)
                and (links := link_index(adjacency)).stays_connected):
            return positions, links
    raise TopologyError(
        f"no connected topology with closed degree <= {max_degree} found for "
        f"{n_agents} agents at radius {radius} after {_PLACEMENTS} tries"
    )


def generate_models(n_models, dim, value_range, seed=None, min_separation_sq=0.0):
    """Draw ``n_models`` model vectors, a (C, M) array with entries uniform
    in ``value_range``.

    The whole set is redrawn until every pair is strictly farther apart
    than ``min_separation_sq`` (squared Euclidean), so that downstream
    proximity tests cannot confuse two models; :class:`ConfigError` if
    ``_MODEL_DRAWS`` draws all fail."""
    rng = np.random.default_rng(seed)
    lo, hi = value_range
    if not hi > lo:
        raise ValueError("value_range must be increasing")
    for _ in range(_MODEL_DRAWS):
        models = rng.uniform(lo, hi, size=(n_models, dim))
        if n_models < 2:
            return models
        sep = squared_distances(models)
        np.fill_diagonal(sep, np.inf)
        if sep.min() > min_separation_sq:
            return models
    raise ConfigError(f"could not draw n_models={n_models} models in model_range "
                      f"{tuple(value_range)} more than {min_separation_sq} (squared) apart "
                      f"in {_MODEL_DRAWS} tries; lower n_models or beta, or widen model_range")


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
    (rounds, N, M), then its noise (rounds, N), each scaled in place. A
    round's data depends on the seed and the round alone, so several runs
    can read one stream, in any order, and only the current block, ``u``
    and ``v``, is held: the old block is dropped before the next is drawn.
    """

    def __init__(self, sigma_v2, reg_power, seed):
        self.seed = seed
        self.scales = np.sqrt(reg_power), np.sqrt(sigma_v2)
        self._draw(0)

    def _draw(self, block):
        self.u = self.v = None
        rng = np.random.default_rng(np.random.SeedSequence(
            self.seed.entropy, spawn_key=(*self.seed.spawn_key, block)))
        scale_u, scale_v = self.scales
        self.block = block
        self.u = rng.standard_normal((_ROUNDS_PER_BLOCK, *scale_u.shape))
        self.u *= scale_u
        self.v = rng.standard_normal((_ROUNDS_PER_BLOCK, scale_v.size))
        self.v *= scale_v

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
