"""Geometry, graph generation, model placement, and data streams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netdecide.network
from netdecide.config import ConfigError
from netdecide.mobility import rebuild_topology
from netdecide.network import (DataStream, Links, TopologyError,
                               _exp, _log, _prune_degrees, build_streams,
                               close_component_count,
                               component_count, corner_models,
                               draw_noise_profile, generate_models,
                               generate_topology, link_index, network_from_json,
                               network_to_json, pairwise_close,
                               random_assignment, squared_distances)

from conftest import NOISE_RANGES
from test_links import dense, estimates, everyone


def two_clique_topology(clique_size=4):
    """``(positions, links)`` of two complete cliques joined by a single
    bridge link, degree cap not applied."""
    c = int(clique_size)
    n = 2 * c
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[:c, :c] = True
    adjacency[c:, c:] = True
    adjacency[c - 1, c] = adjacency[c, c - 1] = True
    angles = np.linspace(0.0, 2 * np.pi, c, endpoint=False)
    blob = 0.1 * np.column_stack([np.cos(angles), np.sin(angles)])
    positions = np.vstack([blob + [0.25, 0.5], blob + [0.75, 0.5]])
    return positions, link_index(adjacency)


def path_adjacency(n):
    adj = np.eye(n, dtype=bool)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    return adj


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 3))
def test_squared_distances_matches_loop(seed, nx, ny, dim):
    g = np.random.default_rng(seed)
    x = g.normal(size=(nx, dim)) * 10
    y = g.normal(size=(ny, dim)) * 10
    got = squared_distances(x, y)
    want = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            want[i, j] = ((x[i] - y[j]) ** 2).sum()
    assert got.shape == (nx, ny)
    assert np.allclose(got, want, atol=1e-8)
    assert (got >= 0).all()


def test_squared_distances_self_diagonal_zero(rng):
    x = rng.normal(size=(7, 2)) * 100
    d = squared_distances(x)
    assert np.allclose(np.diagonal(d), 0.0)
    assert np.allclose(d, d.T)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from(["C", "F", "strided"]))
def test_squared_distances_is_exactly_symmetric(seed, n, dim, layout):
    # pairwise_close relies on it: no guard makes its test symmetric
    x = estimates(np.random.default_rng(seed), n, dim)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((2 * n, 3 * dim))
        wide[::2, ::3] = x
        x = wide[::2, ::3]
    d2 = squared_distances(x)
    assert np.array_equal(d2, d2.T)


def test_pairwise_close_matches_brute_force(rng):
    pts = rng.uniform(-1, 1, size=(12, 2))
    thr = 0.3
    close = pairwise_close(pts, thr, everyone(12))
    for i in range(12):
        for j in range(12):
            assert close[i, j] == (((pts[i] - pts[j]) ** 2).sum() <= thr)
    assert close.diagonal().all()
    assert np.array_equal(close, close.T)


def test_connectivity_and_components(rng):
    assert component_count(path_adjacency(6)) == 1
    split = np.eye(6, dtype=bool)
    split[0, 1] = split[1, 0] = True
    split[3, 4] = split[4, 3] = True
    assert component_count(split) == 4
    # oracle: count components by a plain-Python graph search
    for _ in range(20):
        n = int(rng.integers(2, 9))
        adj = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    adj[i, j] = adj[j, i] = True
        assert component_count(adj) == oracle_component_count(adj)


def oracle_component_count(close):
    """Components of a symmetric relation by a plain-Python graph search."""
    n = len(close)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for w in range(n):
                if close[v][w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


@st.composite
def closed_relations(draw):
    """Symmetric relations with a True diagonal: paths through the agents
    in a drawn order, cut into blocks, plus a few extra links."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    cut_after = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    close = np.eye(n, dtype=bool)
    for k, cut in enumerate(cut_after):
        if not cut:
            a, b = order[k], order[k + 1]
            close[a, b] = close[b, a] = True
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    for a, b in extra:
        close[a, b] = close[b, a] = True
    return close


@settings(max_examples=200, deadline=None)
@given(closed_relations())
@example(np.eye(1, dtype=bool))
@example(np.eye(30, dtype=bool))
@example(path_adjacency(40))
@example(np.ones((5, 5), dtype=bool))
def test_component_count_matches_graph_search_oracle(close):
    want = oracle_component_count(close.tolist())
    assert component_count(close) == want
    # self-loops do not join anything: the count holds without them
    assert component_count(close & ~np.eye(len(close), dtype=bool)) == want


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), dim=st.integers(1, 5),
       cloud=st.sampled_from(["grid", "bunched", "clusters", "spread", "chain", "far"]),
       coincident=st.floats(0.0, 0.5), exact=st.booleans())
@example(seed=0, n=1, dim=2, cloud="spread", coincident=0.0, exact=False)
@example(seed=0, n=40, dim=2, cloud="grid", coincident=0.5, exact=True)
@example(seed=3, n=60, dim=3, cloud="bunched", coincident=0.0, exact=True)
@example(seed=1, n=60, dim=5, cloud="chain", coincident=0.0, exact=False)
@example(seed=2, n=60, dim=4, cloud="far", coincident=0.0, exact=False)
def test_close_component_count_matches_the_dense_relation(seed, n, dim, cloud,
                                                          coincident, exact):
    # half-grid points meet an exact threshold in many pairs; bunched
    # clouds pass the whole-cloud box test often, spread ones never; a
    # chain spaced exactly the threshold apart takes many sweep levels,
    # and far clusters fail the box test with 2-4 components
    g = np.random.default_rng(seed)
    threshold = 0.08
    if cloud == "grid":
        points = g.integers(-3, 4, size=(n, dim)) / 2
    elif cloud == "bunched":
        points = g.normal(size=(n, dim)) * 0.15
    elif cloud == "clusters":
        points = g.uniform(-1, 1, size=(3, dim))[g.integers(0, 3, n)]
        points += g.normal(size=(n, dim)) * 0.1
    elif cloud == "chain":
        # steps of one or two half units along the first axis, visited in
        # a shuffled order; a step of one half unit is exactly close
        points = np.tile(g.uniform(-1, 1, size=dim), (n, 1))
        points[:, 0] = g.permutation(np.cumsum(g.integers(1, 3, n))) / 2
        threshold = 0.25
    elif cloud == "spread":
        points = g.uniform(-3, 3, size=(n, dim))
    else:
        # each cluster fits in a box whose diagonal passes the test
        k = int(g.integers(2, 5))
        centers = 10.0 * np.arange(k)[:, None] + g.uniform(-1, 1, size=(k, dim))
        points = centers[np.arange(n) % k] + g.uniform(0, 0.2, size=(n, dim)) / np.sqrt(dim)
    copies = g.random(n) < coincident
    points[copies] = points[g.integers(0, n, size=copies.sum())]
    d2 = squared_distances(points)
    positive = d2[d2 > 0]
    if exact and positive.size:
        threshold = float(g.choice(positive))
    want = component_count(pairwise_close(points, threshold, everyone(n)))
    assert close_component_count(points, threshold) == want
    if cloud == "far" and not exact and not copies.any() and n >= k:
        assert want == k


def test_close_component_count_separates_points_just_over_the_threshold():
    # the last two points differ by 0.1 in each coordinate up to rounding,
    # and their squared distance computes just over the threshold 0.02
    lo, a, b = -4.071587881110587, 3.4284121188894128, 3.528412118889413
    points = np.array([[lo, lo], [a, a], [b, b]])
    assert squared_distances(points)[1, 2] > 0.02
    assert close_component_count(points, 0.02) == 3


def test_close_component_count_takes_non_finite_points_and_a_zero_threshold():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [np.nan, 0.0], [5.0, 5.0]])
    assert close_component_count(points, 0.08) == 3
    assert close_component_count(points[[0, 1, 3]], 0.0) == 3
    assert close_component_count(np.zeros((3, 2)), 0.0) == 1
    assert close_component_count(np.zeros((0, 2)), 0.08) == 0


def test_close_component_count_of_far_clusters_stays_small_in_memory():
    # two clusters of 640 points, too far apart for the whole-cloud box
    # test; one N x N float64 array would take 13.1 MB
    g = np.random.default_rng(0)
    points = np.concatenate([g.uniform(0, 0.1, size=(640, 2)),
                             g.uniform(5, 5.1, size=(640, 2))])
    tracemalloc.start()
    try:
        count = close_component_count(points, 0.08)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2
    assert peak < 1.3e6


def check_links(links):
    """Assert what every network's links hold: unique, in row-major order,
    symmetric, each self-loop exactly once, and column counts that are the
    closed degrees of the adjacency they index."""
    n, rows, cols, mask = links
    assert mask is None, "a static network lists its links"
    assert ((0 <= rows) & (rows < n) & (0 <= cols) & (cols < n)).all()
    keys = rows * n + cols
    assert (np.diff(keys) > 0).all(), "links are not unique and row-major"
    assert np.array_equal(np.sort(cols * n + rows), keys), "links are not symmetric"
    assert np.array_equal(rows[rows == cols], np.arange(n)), "self-loops are not each once"
    degrees = np.bincount(cols, minlength=n)
    assert np.array_equal(degrees, dense(links).sum(axis=0))
    assert np.array_equal(degrees, np.bincount(rows, minlength=n))


def test_links_of_every_network_keep_the_contract(rng):
    networks = [generate_topology(30, max_degree=7, radius=0.35, seed=s) for s in range(4)]
    produced = [links for _, links in networks]
    produced.append(two_clique_topology()[1])
    # a document may list a pair twice, in either order, and self-loops
    doc = small_network_doc(links=[[2, 1], [1, 2], [3, 2], [3, 3]])
    produced.append(network_from_json(doc)[1])
    produced.append(network_from_json(network_to_json(*networks[0], np.zeros((1, 2))))[1])
    for _ in range(4):
        produced.append(link_index(rebuild_topology(rng.uniform(-30, 30, (15, 2)),
                                                    radius=12.0, max_degree=5)))
    for links in produced:
        check_links(links)
    # and the checks catch links that break it: one end of a pair dropped,
    # a self-loop dropped, a link repeated, two links swapped
    n, rows, cols, _ = produced[0]
    pair = np.flatnonzero(rows != cols)[0]
    loop = np.flatnonzero(rows == cols)[0]
    swapped = np.arange(rows.size)
    swapped[[0, 1]] = [1, 0]
    for keep in (np.arange(rows.size) != pair, np.arange(rows.size) != loop,
                 np.sort(np.append(np.arange(rows.size), pair)), swapped):
        with pytest.raises(AssertionError):
            check_links(Links(n, rows[keep], cols[keep]))


@pytest.mark.parametrize("seed", range(8))
def test_generate_topology_contract(seed):
    positions, links = generate_topology(30, max_degree=7, radius=0.35, seed=seed)
    assert component_count(dense(links)) == 1
    assert np.bincount(links.cols).max() <= 7
    assert positions.shape == (30, 2)
    assert (positions >= 0).all() and (positions <= 1).all()


def test_generate_topology_is_seed_deterministic():
    a = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    b = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    c = generate_topology(25, max_degree=7, radius=0.35, seed=43)
    assert np.array_equal(dense(a[1]), dense(b[1]))
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


def reference_prune(adjacency, sqdist, max_degree):
    """The degree prune as first written: a whole-graph connectivity check
    after every cut. Kept as the reference the local reroute test must
    reproduce."""
    deg = adjacency.sum(axis=0)
    if (deg <= max_degree).all():
        return True
    iu, ju = np.triu_indices_from(adjacency, k=1)
    present = adjacency[iu, ju]
    ea, eb = iu[present], ju[present]
    order = np.argsort(-sqdist[ea, eb], kind="stable")
    for t in order:
        a, b = ea[t], eb[t]
        if deg[a] <= max_degree and deg[b] <= max_degree:
            continue
        adjacency[a, b] = adjacency[b, a] = False
        if component_count(adjacency) != 1:
            adjacency[a, b] = adjacency[b, a] = True
            continue
        deg[a] -= 1
        deg[b] -= 1
    return bool((deg <= max_degree).all())


def reference_topology(n_agents, max_degree, radius, seed, max_tries=50):
    """generate_topology's placement loop around :func:`reference_prune`."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        positions = rng.random((n_agents, 2))
        d2 = squared_distances(positions)
        adjacency = d2 <= radius * radius
        np.fill_diagonal(adjacency, True)
        if component_count(adjacency) != 1:
            continue
        if reference_prune(adjacency, d2, max_degree):
            return adjacency, positions
    return None


@pytest.mark.parametrize("n_agents, radius", [(20, 0.4), (80, 0.22), (150, 0.18)])
def test_generate_topology_matches_global_check_prune(n_agents, radius):
    for seed in range(20):
        want = reference_topology(n_agents, 7, radius, seed)
        if want is None:
            with pytest.raises(TopologyError):
                generate_topology(n_agents, 7, radius, seed=seed)
            continue
        positions, links = generate_topology(n_agents, 7, radius, seed=seed)
        assert np.array_equal(dense(links), want[0])
        assert np.array_equal(positions, want[1])


def walk_prune(adjacency, sqdist, max_degree, keep_connected):
    """The degree prune as a per-link walk, longest link first, with the
    local reroute test of :func:`walk_reaches` for ``keep_connected``.
    Kept as the reference the array form must reproduce bit for bit."""
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
            if nbrs[a].isdisjoint(nbrs[b]) and not walk_reaches(nbrs, a, b):
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


def walk_reaches(nbrs, a, b):
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


def connected_radius_graph(rng, n_agents, radius, snapped):
    """``(adjacency, d2)`` of a connected radius graph on the unit square,
    the share ``snapped`` of its points on a lattice of spacing 1/12, where
    distances tie."""
    while True:
        positions = rng.random((n_agents, 2))
        snap = rng.random(n_agents) < snapped
        positions[snap] = np.round(positions[snap] * 12) / 12
        d2 = squared_distances(positions)
        adjacency = d2 <= radius * radius
        np.fill_diagonal(adjacency, True)
        if component_count(adjacency) == 1:
            return adjacency, d2


@pytest.mark.parametrize("n_agents, radius", [(20, 0.4), (80, 0.22), (150, 0.18),
                                              (320, 0.22)])
def test_prune_matches_the_walk_on_radius_graphs(n_agents, radius):
    rng = np.random.default_rng(n_agents)
    refused = set()
    for max_degree in (2, 3, 4, 7):
        for snapped in (0.0, 0.0, 0.0, 0.5, 0.5, 0.5):
            adjacency, d2 = connected_radius_graph(rng, n_agents, radius, snapped)
            for keep_connected in (False, True):
                want, got = adjacency.copy(), adjacency.copy()
                fits = walk_prune(want, d2, max_degree, keep_connected)
                assert _prune_degrees(got, d2, max_degree, keep_connected) is fits
                assert np.array_equal(got, want)
                if not keep_connected:
                    # the walk refuses a cut exactly when the forced cuts
                    # disconnect the graph
                    refused.add(component_count(want) > 1)
    assert refused == {False, True}


@pytest.mark.parametrize("seed", [0, 1])
def test_prune_of_a_dense_world_stays_within_one_distance_matrix(seed):
    # about 100k links at N=1280; the walk held all pairs' indices and
    # per-agent neighbor sets, 38.5 MB. The forced cuts of seed 1 keep the
    # graph connected; seed 0 refuses a cut and finishes with the walk
    positions = np.random.default_rng(seed).random((1280, 2))
    d2 = squared_distances(positions)
    adjacency = d2 <= 0.22 ** 2
    np.fill_diagonal(adjacency, True)
    want = adjacency.copy()
    assert walk_prune(want, d2, 7, keep_connected=True)
    tracemalloc.start()
    try:
        fits = _prune_degrees(adjacency, d2, 7, keep_connected=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fits is True
    assert np.array_equal(adjacency, want)
    assert peak < d2.nbytes


def test_generate_topology_gives_up_when_radius_too_small():
    with pytest.raises(TopologyError):
        generate_topology(40, max_degree=7, radius=0.01, seed=0, max_tries=5)


def test_unmeetable_degree_cap_raises_before_any_placement(monkeypatch):
    # a closed degree of 2 allows one neighbor, so only two agents connect
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _prune_degrees(*args, **kwargs)

    monkeypatch.setattr(netdecide.network, "_prune_degrees", counted)
    for n_agents, max_degree in ((320, 2), (3, 2), (12, 1), (2, 1)):
        with pytest.raises(TopologyError, match=f"need max_degree >= {min(n_agents, 3)}"):
            generate_topology(n_agents, max_degree, radius=0.22, seed=0)
    assert calls == []
    positions, links = generate_topology(2, 2, radius=1.5, seed=0)
    assert positions.shape == (2, 2)
    assert np.array_equal(dense(links), np.ones((2, 2), dtype=bool))


def test_two_clique_topology_structure():
    adj = dense(two_clique_topology(clique_size=4)[1])
    assert adj.shape == (8, 8)
    assert adj[:4, :4].all() and adj[4:, 4:].all()
    off = adj[:4, 4:].copy()
    assert off.sum() == 1 and off[3, 0]
    assert component_count(adj) == 1


def test_generate_models_respects_separation_and_range():
    for seed in range(6):
        models = generate_models(3, dim=2, value_range=(-1.0, 1.0), seed=seed,
                                 min_separation_sq=0.32)
        assert models.shape == (3, 2)
        assert (np.abs(models) <= 1.0).all()
        sep = squared_distances(models)
        assert sep[~np.eye(3, dtype=bool)].min() >= 0.32
    with pytest.raises(ValueError):
        generate_models(2, dim=2, value_range=(1.0, -1.0), seed=0)
    with pytest.raises(ConfigError, match="n_models=5"):
        # cannot fit this separation inside the unit box
        generate_models(5, dim=2, value_range=(-1.0, 1.0), seed=0,
                        min_separation_sq=50.0, max_tries=10)


def test_corner_models_rows():
    want = [[-50, -50], [-50, 50], [50, -50], [50, 50]]
    assert np.array_equal(corner_models((-50.0, 50.0)), np.array(want, dtype=float))


def test_random_assignment_covers_every_model(rng):
    for _ in range(30):
        assignment = random_assignment(12, 4, rng)
        assert assignment.shape == (12,)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}


def test_noise_profile_stays_in_ranges():
    sigma_v2, reg_power = draw_noise_profile(
        200, 2, seed=9, sigma_v2_range=(1e-3, 1e-2), reg_power_range=(0.8, 1.2))
    assert sigma_v2.shape == (200,)
    assert reg_power.shape == (200, 2)
    assert (sigma_v2 >= 1e-3).all() and (sigma_v2 <= 1e-2).all()
    assert (reg_power >= 0.8).all() and (reg_power <= 1.2).all()


def test_portable_exp_and_log_match_the_math_library():
    # within two units in the last place over a range wider than any
    # noise-variance range
    x = np.linspace(-30.0, 30.0, 20001)
    want = np.exp(x)
    assert (np.abs(_exp(x) - want) <= 2 * np.spacing(want)).all()
    y = np.geomspace(1e-6, 1e6, 20001)
    assert np.allclose(_log(y), np.log(y), rtol=0.0, atol=4e-15)
    assert _log(1.0) == 0.0


def test_data_stream_observation_algebra():
    noise = draw_noise_profile(6, 2, seed=11, **NOISE_RANGES)
    stream = DataStream(*noise, np.random.SeedSequence(5))
    w = np.arange(12, dtype=float).reshape(6, 2)
    d, u = stream.round(17, w)
    assert np.allclose(d, (u * w).sum(axis=1) + stream.v[16])
    assert np.array_equal(u, stream.u[16])


def test_data_stream_rounds_do_not_depend_on_read_order():
    # rounds 63-66 straddle the first block boundary
    noise = draw_noise_profile(7, 2, seed=12, **NOISE_RANGES)
    w = np.random.default_rng(0).normal(size=(7, 2))
    seed = np.random.SeedSequence(8)
    stream = DataStream(*noise, seed)

    def read(reader, rounds):
        return {i: [a.copy() for a in reader.round(i, w)] for i in rounds}

    forward = read(stream, range(63, 67))
    backward = read(stream, range(66, 62, -1))
    second = read(DataStream(*noise, seed), range(63, 67))
    for i in range(63, 67):
        for got in (backward[i], second[i]):
            assert np.array_equal(got[0], forward[i][0])
            assert np.array_equal(got[1], forward[i][1])
    # round 65 opens block 1, drawn by the seed's second spawned child,
    # regressors first
    block = np.random.default_rng(np.random.SeedSequence(8).spawn(2)[1])
    assert np.array_equal(forward[65][1],
                          block.standard_normal((64, 7, 2))[0] * np.sqrt(noise[1]))


def test_data_stream_memory_does_not_grow_with_rounds():
    # the whole 4000-round stream of 80 agents is 7.68 MB
    noise = draw_noise_profile(80, 2, seed=13, **NOISE_RANGES)
    observed = np.ones((80, 2))
    tracemalloc.start()
    try:
        stream = build_streams(*noise, seed=9).data
        for i in range(1, 4001):
            stream.round(i, observed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_build_streams_is_seed_deterministic():
    noise = draw_noise_profile(5, 2, seed=21, **NOISE_RANGES)
    a = build_streams(*noise, seed=77)
    b = build_streams(*noise, seed=77)
    c = build_streams(*noise, seed=78)
    assert np.array_equal(a.data.u, b.data.u)
    assert np.array_equal(a.data.v, b.data.v)
    assert not np.array_equal(a.data.u, c.data.u)
    assert a.decision.integers(0, 10**9) == b.decision.integers(0, 10**9)


def test_network_json_round_trip():
    positions, links = generate_topology(12, max_degree=7, radius=0.5, seed=2)
    models = generate_models(2, 2, (-1.0, 1.0), seed=3, min_separation_sq=0.32)
    assignment = random_assignment(12, 2, np.random.default_rng(4))
    doc = network_to_json(positions, links, models, assignment)
    assert doc["schema"] == "netdecide.network/1"
    assert min(a["id"] for a in doc["agents"]) == 1
    assert all(1 <= a <= 12 and 1 <= b <= 12 for a, b in doc["links"])
    assert min(doc["assignment"]) >= 1
    positions2, links2, models2, assignment2 = network_from_json(doc)
    assert links2.n == links.n
    assert np.array_equal(links2.rows, links.rows) and np.array_equal(links2.cols, links.cols)
    assert np.array_equal(positions2, positions)
    assert np.allclose(models2, models)
    assert np.array_equal(assignment2, assignment)


@pytest.mark.parametrize("pairs", [
    [], [[1, 2]], [[2, 1], [1, 2], [1, 2]], [[3, 3], [2, 2]], [[1, 1], [3, 1], [1, 3], [2, 3]],
    [[4, 1], [2, 4], [4, 2], [4, 4], [1, 4], [3, 2]],
], ids=["no-links", "one-pair", "repeated-and-reversed", "self-listed", "mixed",
        "every-kind"])
def test_network_from_json_links_equal_the_adjacency_links(pairs):
    # the links of the symmetric, self-looped adjacency the listed pairs mark
    n = 4
    doc = small_network_doc(agents=[{"id": k, "x": 0.0, "y": 0.0} for k in range(1, n + 1)],
                            links=pairs, assignment=[1] * n)
    adjacency = np.eye(n, dtype=bool)
    for a, b in pairs:
        adjacency[a - 1, b - 1] = adjacency[b - 1, a - 1] = True
    got, want = network_from_json(doc)[1], link_index(adjacency)
    assert got.n == want.n and got.mask is None
    assert got.rows.dtype == want.rows.dtype and got.cols.dtype == want.cols.dtype
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)


def test_network_json_without_assignment():
    doc = network_to_json(*two_clique_topology(3), np.zeros((2, 2)))
    assert "assignment" not in doc
    *_, assignment = network_from_json(doc)
    assert assignment is None


def small_network_doc(**changes):
    """A valid three-agent, one-model network document with ``changes``."""
    doc = {"schema": "netdecide.network/1",
           "agents": [{"id": k, "x": 0.1 * k, "y": 0.0} for k in (1, 2, 3)],
           "links": [[1, 2], [2, 3]],
           "models": [[0.0, 0.0]],
           "assignment": [1, 1, 1]}
    doc.update(changes)
    return doc


def without(key):
    """:func:`small_network_doc` with no ``key``."""
    doc = small_network_doc()
    del doc[key]
    return doc


# agents that lack a field, by the field
BARE_AGENTS = {field: [{k: v for k, v in dict(id=k, x=0.1 * k, y=0.0).items() if k != field}
                       for k in (1, 2, 3)] for field in ("id", "x", "y")}


@pytest.mark.parametrize("doc, bad_id", [
    (small_network_doc(links=[[1, 2], [0, 2]]), "link agent id 0 "),
    (small_network_doc(links=[[1, 2], [2, 4]]), "link agent id 4 "),
    (small_network_doc(agents=[{"id": k, "x": 0.1 * k, "y": 0.0} for k in (1, 2, 2)]),
     "agent id 2 repeats"),
    (small_network_doc(assignment=[1, 5, 1]), "label 5 "),
    (small_network_doc(assignment=[1, 1]), "2 labels for 3 agents"),
    (small_network_doc(assignment=[1, [2], 3]), r"assignment label \[2\] is not a JSON number"),
    (small_network_doc(assignment=[[1], [2], [3]]),
     r"assignment label \[1\] is not a JSON number"),
    (small_network_doc(assignment="111"), "assignment '111' is not a list"),
    (small_network_doc(links=[[1, 2, 1, 2]]), r"link \[1, 2, 1, 2\] is not a pair"),
    (small_network_doc(links=[[1, 2], [1]]), r"link \[1\] is not a pair"),
    (small_network_doc(agents=[{"id": k, "x": 0.1 * k, "y": 0.0} for k in (1, 2.7, 3)]),
     "agent id 2.7 "),
    (small_network_doc(links=[[1, 2.9]]), "link agent id 2.9 "),
    (small_network_doc(models=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], assignment=[1, 2.5, 1]),
     "label 2.5 "),
    (small_network_doc(models=[]), r"models \[\] are not rows"),
    (small_network_doc(models=[[0, 0], [1]]), r"models \[\[0, 0\], \[1\]\] are not rows"),
    ([], "network document is an object with agents, links and models lists"),
    (without("agents"), "network document is an object"),
    (without("links"), "network document is an object"),
    (without("models"), "network document is an object"),
    (small_network_doc(agents=5), "network document is an object"),
    (small_network_doc(links={"1": 2}), "network document is an object"),
    (small_network_doc(models="0 0"), "network document is an object"),
    (small_network_doc(agents=BARE_AGENTS["id"]), r"agent \{'x': 0.1, 'y': 0.0\} is not an "),
    (small_network_doc(agents=BARE_AGENTS["x"]), "agent .* is not an object with an id, x and y"),
    (small_network_doc(agents=BARE_AGENTS["y"]), "agent .* is not an object with an id, x and y"),
    (small_network_doc(agents=[[1, 0.1, 0.0]]), r"agent \[1, 0.1, 0.0\] is not an object"),
], ids=["link-below-1", "link-above-n", "repeated-agent", "label-above-m",
        "assignment-too-short", "nested-label", "nested-labels", "assignment-not-a-list",
        "link-of-four", "link-of-one", "fractional-agent",
        "fractional-link", "fractional-label", "no-models", "ragged-models",
        "not-an-object", "no-agents-key", "no-links-key", "no-models-key",
        "agents-not-a-list", "links-not-a-list", "models-not-a-list",
        "agent-without-id", "agent-without-x", "agent-without-y", "agent-not-an-object"])
def test_network_from_json_rejects_bad_ids(doc, bad_id):
    network_from_json(small_network_doc())
    with pytest.raises(TopologyError, match=bad_id):
        network_from_json(doc)


@pytest.mark.parametrize("changes, bad_value", [
    # sorted as strings, "10" would load in row 1
    (dict(agents=[{"id": str(k), "x": float(k), "y": 0.0} for k in range(1, 11)],
          assignment=[1] * 10), "agent id '1' "),
    (dict(links=[[True, 2]]), "link agent id True "),
    (dict(assignment=[1, False, 1]), "assignment label False "),
    (dict(agents=[{"id": 1, "x": "1e0", "y": 0.0}, {"id": 2, "x": 0.2, "y": 0.0},
                  {"id": 3, "x": 0.3, "y": 0.0}]), "coordinate '1e0' "),
    (dict(models=[["0.5", 0.0]]), "model entry '0.5' "),
], ids=["string-ids", "bool-link-end", "bool-label", "string-coordinate",
        "string-model-entry"])
def test_network_from_json_rejects_values_that_are_not_json_numbers(changes, bad_value):
    with pytest.raises(TopologyError, match=bad_value + "is not a JSON number"):
        network_from_json(small_network_doc(**changes))
