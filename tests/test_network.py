"""Geometry, graph generation, model placement, and data streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecide.network import (DataStream, ModelSet, TopologyError, Topology,
                               assign_agents, bfs_depths, build_streams,
                               component_count, corner_models,
                               draw_noise_profile, generate_models,
                               generate_topology, is_connected,
                               network_from_json, network_to_json,
                               pairwise_close, random_assignment,
                               squared_distances, two_clique_topology)


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


def test_pairwise_close_matches_brute_force(rng):
    pts = rng.uniform(-1, 1, size=(12, 2))
    thr = 0.3
    close = pairwise_close(pts, thr)
    for i in range(12):
        for j in range(12):
            assert close[i, j] == (((pts[i] - pts[j]) ** 2).sum() <= thr)
    assert close.diagonal().all()
    assert np.array_equal(close, close.T)


def test_bfs_depths_on_path():
    adj = path_adjacency(5)
    assert np.array_equal(bfs_depths(adj, 0), [0, 1, 2, 3, 4])
    assert np.array_equal(bfs_depths(adj, 2), [2, 1, 0, 1, 2])


def test_bfs_depths_unreachable_is_minus_one():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    assert np.array_equal(bfs_depths(adj, 0), [0, 1, -1, -1])


def test_connectivity_and_components(rng):
    assert is_connected(path_adjacency(6))
    split = np.eye(6, dtype=bool)
    split[0, 1] = split[1, 0] = True
    split[3, 4] = split[4, 3] = True
    assert not is_connected(split)
    assert component_count(split) == 4
    # oracle: count components by repeated BFS
    for _ in range(20):
        n = int(rng.integers(2, 9))
        adj = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    adj[i, j] = adj[j, i] = True
        seen = np.zeros(n, dtype=bool)
        count = 0
        for root in range(n):
            if not seen[root]:
                count += 1
                seen |= bfs_depths(adj, root) >= 0
        assert component_count(adj) == count
        assert is_connected(adj) == (count == 1)


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


def test_topology_validate_rejects_bad_shapes():
    good = Topology(path_adjacency(4), np.zeros((4, 2)))
    good.validate()
    asym = path_adjacency(4)
    asym[0, 3] = True
    with pytest.raises(TopologyError):
        Topology(asym, np.zeros((4, 2))).validate()
    open_diag = path_adjacency(4)
    open_diag[2, 2] = False
    with pytest.raises(TopologyError):
        Topology(open_diag, np.zeros((4, 2))).validate()
    with pytest.raises(TopologyError):
        Topology(path_adjacency(4), np.zeros((3, 2))).validate()


@pytest.mark.parametrize("seed", range(8))
def test_generate_topology_contract(seed):
    topo = generate_topology(30, max_degree=7, radius=0.35, seed=seed)
    topo.validate()
    assert is_connected(topo.adjacency)
    assert topo.degrees.max() <= 7
    assert (topo.positions >= 0).all() and (topo.positions <= 1).all()


def test_generate_topology_is_seed_deterministic():
    a = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    b = generate_topology(25, max_degree=7, radius=0.35, seed=42)
    c = generate_topology(25, max_degree=7, radius=0.35, seed=43)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


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
        if not is_connected(adjacency):
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
        if not is_connected(adjacency):
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
        got = generate_topology(n_agents, 7, radius, seed=seed)
        assert np.array_equal(got.adjacency, want[0])
        assert np.array_equal(got.positions, want[1])


def test_generate_topology_gives_up_when_radius_too_small():
    with pytest.raises(TopologyError):
        generate_topology(40, max_degree=7, radius=0.01, seed=0, max_tries=5)


def test_two_clique_topology_structure():
    topo = two_clique_topology(clique_size=4)
    topo.validate()
    adj = topo.adjacency
    assert adj.shape == (8, 8)
    assert adj[:4, :4].all() and adj[4:, 4:].all()
    off = adj[:4, 4:].copy()
    assert off.sum() == 1 and off[3, 0]
    assert is_connected(adj)


def test_generate_models_respects_separation_and_range():
    for seed in range(6):
        ms = generate_models(3, dim=2, value_range=(-1.0, 1.0), seed=seed,
                             min_separation_sq=0.32)
        assert ms.models.shape == (3, 2)
        assert (np.abs(ms.models) <= 1.0).all()
        sep = squared_distances(ms.models)
        assert sep[~np.eye(3, dtype=bool)].min() >= 0.32
    with pytest.raises(ValueError):
        generate_models(2, dim=2, value_range=(1.0, -1.0), seed=0)
    with pytest.raises(RuntimeError):
        # cannot fit this separation inside the unit box
        generate_models(5, dim=2, value_range=(-1.0, 1.0), seed=0,
                        min_separation_sq=50.0, max_tries=10)


def test_corner_models_rows():
    ms = corner_models((-50.0, 50.0))
    want = [[-50, -50], [-50, 50], [50, -50], [50, 50]]
    assert np.array_equal(ms.models, np.array(want, dtype=float))


def test_random_assignment_covers_every_model(rng):
    for _ in range(30):
        assignment = random_assignment(12, 4, rng)
        assert assignment.shape == (12,)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}


def test_assign_agents_attaches_assignment():
    topo = generate_topology(15, max_degree=7, radius=0.5, seed=3)
    ms = generate_models(3, seed=4, min_separation_sq=0.32)
    assigned = assign_agents(ms, topo, seed=5)
    assert assigned.assignment.shape == (15,)
    observed = assigned.models[assigned.assignment]
    assert observed.shape == (15, 2)
    for k in range(15):
        assert np.array_equal(observed[k],
                              ms.models[assigned.assignment[k]])


def test_noise_profile_stays_in_ranges():
    noise = draw_noise_profile(200, 2, seed=9, sigma_v2_range=(1e-3, 1e-2),
                               reg_power_range=(0.8, 1.2))
    assert noise.sigma_v2.shape == (200,)
    assert (noise.sigma_v2 >= 1e-3).all() and (noise.sigma_v2 <= 1e-2).all()
    assert (noise.reg_power >= 0.8).all() and (noise.reg_power <= 1.2).all()


def test_data_stream_observation_algebra():
    noise = draw_noise_profile(6, 2, seed=11)
    stream = DataStream(noise, np.random.SeedSequence(5).spawn(6), n_iters=40)
    w = np.arange(12, dtype=float).reshape(6, 2)
    d, u = stream.round(17, w)
    assert np.allclose(d, (u * w).sum(axis=1) + stream.v[16])
    assert np.array_equal(u, stream.u[16])


def test_build_streams_is_seed_deterministic():
    noise = draw_noise_profile(5, 2, seed=21)
    a = build_streams(noise, 30, seed=77)
    b = build_streams(noise, 30, seed=77)
    c = build_streams(noise, 30, seed=78)
    assert np.array_equal(a.data.u, b.data.u)
    assert np.array_equal(a.data.v, b.data.v)
    assert not np.array_equal(a.data.u, c.data.u)
    assert len(a.decision) == 5
    # sibling streams are independent draws
    assert a.decision[0].integers(0, 10**9) == b.decision[0].integers(0, 10**9)


def test_network_json_round_trip():
    topo = generate_topology(12, max_degree=7, radius=0.5, seed=2)
    models = assign_agents(generate_models(2, seed=3, min_separation_sq=0.32),
                           topo, seed=4)
    doc = network_to_json(topo, models)
    assert doc["schema"] == "netdecide.network/1"
    assert min(a["id"] for a in doc["agents"]) == 1
    assert all(1 <= a <= 12 and 1 <= b <= 12 for a, b in doc["links"])
    assert min(doc["assignment"]) >= 1
    topo2, models2 = network_from_json(doc)
    assert np.array_equal(topo2.adjacency, topo.adjacency)
    assert np.allclose(topo2.positions, topo.positions)
    assert np.allclose(models2.models, models.models)
    assert np.array_equal(models2.assignment, models.assignment)


def test_network_json_without_assignment():
    topo = two_clique_topology(3)
    doc = network_to_json(topo, ModelSet(np.zeros((2, 2)), None))
    assert "assignment" not in doc
    _, models = network_from_json(doc)
    assert models.assignment is None
